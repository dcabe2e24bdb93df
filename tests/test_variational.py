"""Least energy at fixed mass, reached without continuation.

Bao and Du's normalized gradient flow (SIAM J. Sci. Comput. 25, 2004)
runs on the finite-volume operator from sqrt(rho) phi_1, with no RK4, no
lambda grid, no seed from a branch and no Newton.  Its fixed points solve
A U + lambda U = U^p with int U^2 = rho, and it descends the energy on
the mass sphere.  Below the mass threshold its lambda must meet the one
`least_energy_at_mass` selects on the RK4 traces, up to the operator's
O(h^2) error; above it the flow collapses below one cell, and no traced
point carries that mass.

Time bound: the module takes under 20 s, the shared traces and rho*
included (about 2 s on a 2-core Intel Xeon).
"""

import math

import numpy as np
import pytest

from nlsball import (
    find_mu_star,
    least_energy_at_mass,
    make_grid,
    principal_eigenpair,
)
from nlsball.errors import NoSolutionError


def normalized_gradient_flow(params, n_nodes, rho, max_steps=5000):
    """(lambda, U on the unknowns) at the flow's fixed point on an n-node
    grid of the unit ball.

    Each step solves (A + 1/tau_k - V_k) W = U_k / tau_k with
    V_k = U_k^{p-1} and tau_k = 0.9 / max V_k, which keeps the shifted
    operator positive definite, and rescales W to mass rho in the cell
    measure.  lambda is read from the discrete Rayleigh form; the flow
    stops once the residual of A U + lambda U = U^p is within 1e-10 of
    its largest term plus the rounding floor of A U.
    """
    grid = make_grid(params, n_nodes, 1.0)
    op = grid.operator
    p = params.p

    def to_mass(w):
        return math.sqrt(rho / (grid.omega_n * float(op.vol @ w**2))) * w

    u = to_mass(principal_eigenpair(params, grid).phi1.values[:-1])
    for _ in range(max_steps):
        v = u ** (p - 1.0)
        tau = 0.9 / float(v.max())
        u = to_mass(op.solve(1.0 / tau - v, u / tau))
        au = op.apply(u)
        up = u**p
        lam = float(op.vol @ (u * (up - au))) / float(op.vol @ u**2)
        res = float(np.max(np.abs(au + lam * u - up)))
        scale = max(abs(lam) * float(u.max()), float(up.max()))
        if res <= 1e-10 * scale + op.roundoff_floor(u):
            return lam, u
    raise AssertionError(f"no fixed point within {max_steps} steps")


@pytest.fixture(scope="module")
def rho_star_33(branch_33):
    """The largest mass on S+ for N=3, p=3."""
    return find_mu_star(branch_33)[2]


@pytest.fixture(scope="module")
def rho_c_15():
    """||Z||^2 = pi sqrt(3) / 2 for N=1, p=5: the L2-critical mass, which
    S+ approaches from below."""
    return math.pi * math.sqrt(3.0) / 2.0


# (trace, the mass the fraction scales, fraction); the traces are
# conftest's, at n = 1025
BELOW = [
    ("branch_13", None, 5.0),
    ("branch_13", None, 25.0),
    ("branch_33", "rho_star_33", 0.8),
    ("branch_33", "rho_star_33", 0.99),
    ("branch_15", "rho_c_15", 0.5),
    ("branch_15", "rho_c_15", 0.99),
]
ABOVE = [
    ("branch_33", "rho_star_33", 1.02),
    ("branch_33", "rho_star_33", 1.1),
    ("branch_15", "rho_c_15", 1.01),
    ("branch_15", "rho_c_15", 1.05),
]


def _case(request, trace_name, top, fraction):
    branch = request.getfixturevalue(trace_name)
    scale = request.getfixturevalue(top) if top else 1.0
    return branch, fraction * scale


@pytest.mark.parametrize("trace_name,top,fraction", BELOW)
def test_flow_meets_least_energy_at_second_order(request, trace_name, top,
                                                 fraction):
    # measured gaps at n = 2049: 1.6e-7 to 7.2e-5, each 4.00-4.04 times
    # smaller than at n = 1025; for (3,3) least_energy_at_mass picks the
    # lower-alpha of two solutions, and the flow lands on it
    branch, rho = _case(request, trace_name, top, fraction)
    lam = least_energy_at_mass(branch, rho).lam
    gaps = [abs(normalized_gradient_flow(branch.params, n, rho)[0] / lam - 1.0)
            for n in (1025, 2049)]
    assert gaps[1] < 1e-4
    assert gaps[0] >= 3.5 * gaps[1]


@pytest.mark.parametrize("trace_name,top,fraction", ABOVE)
def test_flow_collapses_above_threshold(request, trace_name, top, fraction):
    # measured at n = 2049: lambda h^2 = 5.3-5.9 and U_1 / U_0 = 0.13-0.14
    # for (1,5); lambda h^2 about 3e4 and U_1 / U_0 below 1e-5 for (3,3)
    branch, rho = _case(request, trace_name, top, fraction)
    with pytest.raises(NoSolutionError):
        least_energy_at_mass(branch, rho)
    n = 2049
    lam, u = normalized_gradient_flow(branch.params, n, rho)
    h = 1.0 / (n - 1)
    assert lam * h**2 > 1.0  # the width 1/sqrt(lambda) is below one cell
    assert u[1] < 0.5 * u[0]
