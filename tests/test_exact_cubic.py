"""The exact N=1, p=3 branches as oracles: true errors and their orders.

For N=1, p=3 both curves are Jacobi elliptic functions (Byrd-Friedman,
Handbook of Elliptic Integrals).  With K = K(m), E = E(m), m in (0, 1):

* S+: U(x) = A cn(K x | m), A^2 = 2 m K^2, lam = K^2 (2m - 1);
* S-: U(x) = A sn(K (x + 1) | m), A^2 = 2 m K^2, lam = -K^2 (1 + m).

U solves -U'' + lam U = +-U^3 on (-1, 1) with U(+-1) = 0.  The first
integral U'^2 = lam U^2 -+ U^4/2 + C fixes C at x = 0, and with the
equation tested against U it gives int U^4, int U'^2 and
u_r(1) = -sqrt(C) / ||U||.
"""

import math

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from nlsball import (
    ProblemParams,
    ShootConfig,
    normalize,
    solve_ball_profile,
    solve_whole_space,
)

P13 = ProblemParams(N=1, p=3.0)
NODES = (1025, 2049, 4097)
FIGURES = ("mu", "alpha", "M_alpha", "ur1")


def exact_cubic(m: float, sign: int):
    """(lam, {figure: value}) of the exact N=1, p=3 point at parameter m
    on S+ (sign +1) or S- (sign -1), in the repo's measure (omega_1 = 2):
    mu = +-int U^2, alpha = int U'^2 / int U^2, M_alpha = int U^4 /
    (int U^2)^2 and u_r(1) of the normalized profile."""
    K, E = ellipk(m), ellipe(m)
    A2 = 2.0 * m * K * K
    if sign > 0:
        lam = K * K * (2.0 * m - 1.0)
        mass = 2.0 * A2 * (E - (1.0 - m) * K) / (m * K)
    else:
        lam = -K * K * (1.0 + m)
        mass = 2.0 * A2 * (K - E) / (m * K)
    C = -lam * A2 + sign * 0.5 * A2 * A2
    # int U'^2 + lam int U^2 = +-int U^4 and the integrated first integral
    # int U'^2 = lam int U^2 -+ int U^4 / 2 + 2 C
    quartic = sign * 4.0 / 3.0 * (lam * mass + C)
    grad = sign * quartic - lam * mass
    return lam, {
        "mu": sign * mass,
        "alpha": grad / mass,
        "M_alpha": quartic / mass**2,
        "ur1": -math.sqrt(C / mass),
    }


def _errors(m: float, sign: int) -> np.ndarray:
    """Relative errors of FIGURES (columns) at NODES (rows)."""
    lam, exact = exact_cubic(m, sign)
    rows = []
    for n in NODES:
        prof = solve_ball_profile(P13, lam, sign, ShootConfig(n_nodes=n))
        pt = normalize(prof, lam, sign, P13)
        rows.append([abs(getattr(pt, k) / exact[k] - 1.0) for k in FIGURES])
    return np.array(rows)


@pytest.mark.parametrize("m", [0.5, 0.9, 0.97])
def test_focusing_branch(m):
    # the RK4 profile and Simpson's rule are fourth order and meet RK4's
    # tolerance on these grids; alpha's nodal derivative is fourth order
    errs = _errors(m, +1)
    alpha = errs[:, FIGURES.index("alpha")]
    assert np.all(errs < 1e-10)
    assert np.all(alpha[:-1] / alpha[1:] >= 12.0)


@pytest.mark.parametrize("m", [0.5, 0.9, 0.97])
def test_defocusing_branch(m):
    # the finite-volume Newton profile is second order in every figure
    errs = _errors(m, -1)
    assert np.all(errs[0] < 1e-5)
    assert np.all(errs[:-1] / errs[1:] >= 3.5)


def test_oracle_endpoints():
    # m = 1/2 on S+ is lam = 0 (criterion 02's cn profile); both curves
    # meet at the bifurcation lam = -pi^2/4 as m -> 0
    lam, _ = exact_cubic(0.5, +1)
    assert lam == pytest.approx(0.0, abs=1e-15)
    for sign in (+1, -1):
        lam, exact = exact_cubic(1e-8, sign)
        assert lam == pytest.approx(-math.pi**2 / 4.0, rel=1e-7)
        assert exact["alpha"] == pytest.approx(math.pi**2 / 4.0, rel=1e-7)
        assert abs(exact["mu"]) < 1e-6


def test_whole_space_gradient_energy():
    # Z = sqrt(2) sech x has int Z'^2 = 4/3
    errs = np.array([
        abs(solve_whole_space(P13, 20.0, ShootConfig(n_nodes=n)).grad_energy
            - 4.0 / 3.0)
        for n in NODES])
    assert errs[0] < 1e-6
    assert np.all(errs[:-1] / errs[1:] >= 12.0)
