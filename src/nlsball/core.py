"""Radial grids, r^{N-1}-weighted quadrature, the discrete radial Laplacian,
and the principal Dirichlet eigenpair of the unit ball.

All integrals over the ball B_R in R^N reduce to weighted line integrals,
    int_{B_R} f dx = omega_N * int_0^R f(r) r^{N-1} dr,
with omega_N = |boundary of B_1|.  Grids are uniform and quadrature is
composite Simpson (fourth order).  Each grid carries one RadialOperator:
the second-order conservative three-point stencil, symmetric with respect
to the finite-volume cell measure, with its matvec, its shifted
tridiagonal solve and the boundary slope u_r(R) of the integrated
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import jv
from scipy.optimize import brentq

from .errors import ParameterError, SolverError


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    L2CRITICAL = "L2critical"
    SUPERCRITICAL = "supercritical"


def surface_measure(n_dim: int) -> float:
    """|boundary of the unit ball| in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)


def ball_volume(n_dim: int) -> float:
    return surface_measure(n_dim) / n_dim


@lru_cache(maxsize=None)
def dirichlet_lambda1_exact(n_dim: int) -> float:
    """First Dirichlet eigenvalue of -Laplace on the unit ball.

    Equals the squared first positive zero of the Bessel function J_nu with
    nu = N/2 - 1 (radial eigenfunction r^{-nu} J_nu(sqrt(lambda) r)).
    """
    nu = n_dim / 2.0 - 1.0
    x = max(abs(nu), 0.5)
    f = lambda t: jv(nu, t)
    fx = f(x)
    step = 0.1
    while fx == 0.0:
        x += 1e-3
        fx = f(x)
    t = x
    for _ in range(10000):
        t_next = t + step
        if f(t_next) * fx < 0.0:
            root = brentq(f, t, t_next, xtol=1e-14, rtol=1e-15)
            return root * root
        t = t_next
    raise SolverError("no Bessel zero located", order=nu)


@dataclass(frozen=True)
class ProblemParams:
    """Dimension and nonlinearity exponent, with criticality bookkeeping."""

    N: int
    p: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ParameterError(f"dimension must be an integer >= 1, got {self.N!r}")
        limit = self.sobolev_limit
        if not (1.0 < self.p < limit):
            raise ParameterError(
                f"exponent p={self.p} outside admissible range (1, {limit})"
            )

    @property
    def sobolev_limit(self) -> float:
        """2* - 1, i.e. (N+2)/(N-2) for N >= 3 and +inf for N <= 2."""
        if self.N <= 2:
            return math.inf
        return (self.N + 2.0) / (self.N - 2.0)

    @property
    def critical_p(self) -> float:
        return 1.0 + 4.0 / self.N

    @property
    def regime(self) -> Regime:
        pc = self.critical_p
        if self.p == pc:
            return Regime.L2CRITICAL
        return Regime.SUBCRITICAL if self.p < pc else Regime.SUPERCRITICAL

    @property
    def omega(self) -> float:
        return surface_measure(self.N)


def _simpson_weights(nodes: np.ndarray, n_dim: int) -> np.ndarray:
    """Weights w with sum(w*f(nodes)) ~ int f(r) r^{N-1} dr on uniform
    nodes.

    Composite Simpson applied to the weighted integrand f * r^{N-1}, with a
    Simpson 3/8 closing panel over the last three intervals when the
    interval count is odd.  Exact whenever f * r^{N-1} is a cubic on each
    panel; fourth order otherwise.
    """
    m = len(nodes) - 1
    h = nodes[-1] / m
    w = np.zeros(m + 1)
    stop = m if m % 2 == 0 else m - 3
    w[0:stop:2] += h / 3.0
    w[1:stop:2] += 4.0 * h / 3.0
    w[2:stop + 1:2] += h / 3.0
    if m % 2 == 1:
        w[m - 3:] += 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w * nodes ** (n_dim - 1)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes 0 = r_0 < ... < r_{n-1} = R with r^{N-1}-weighted
    quadrature."""

    nodes: np.ndarray
    weights: np.ndarray
    omega_n: float
    n_dim: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def radius(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def quad(self, samples: np.ndarray) -> float:
        """int_0^R samples(r) r^{N-1} dr (no surface factor)."""
        return float(self.weights @ samples)

    def integrate(self, samples: np.ndarray) -> float:
        """omega_N * int_0^R samples(r) r^{N-1} dr = integral over the ball."""
        return self.omega_n * self.quad(samples)

    @cached_property
    def operator(self) -> RadialOperator:
        """The grid's discrete radial Laplacian, built on first use."""
        return RadialOperator(self)


class RadialOperator:
    """Conservative three-point discretization A of -Laplace (radial part).

    A acts on the unknowns at nodes 0..n-2; the last node is a Dirichlet
    boundary.  Row 0 encodes the r=0 symmetry u'(0)=0 through the flux
    form.  `vol` holds the finite-volume cell measures
    (r_{i+1/2}^N - r_{i-1/2}^N)/N and `cond` the face conductances
    r_{i+1/2}^{N-1}/h, the boundary face included; A is symmetric under
    the cell measure: vol_i A_ij = vol_j A_ji.
    """

    def __init__(self, grid: RadialGrid):
        r = grid.nodes
        nd = grid.n_dim
        faces = np.concatenate(([r[0]], 0.5 * (r[1:] + r[:-1]), [r[-1]]))
        # no reference back to the grid: a cycle would keep every grid's
        # arrays alive until the cyclic collector runs
        self.weights = grid.weights
        self.boundary_area = grid.radius ** (nd - 1)  # R^{N-1}
        self.vol = (faces[1:-1] ** nd - faces[:-2] ** nd) / nd
        self.cond = faces[1:-1] ** (nd - 1) / np.diff(r)
        inflow = np.concatenate(([0.0], self.cond[:-1]))
        self.diag = (inflow + self.cond) / self.vol
        self.lower = -self.cond[:-1] / self.vol[1:]
        self.upper = -self.cond[:-1] / self.vol[:-1]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A y on the unknowns; a full nodal array's last entry is ignored."""
        y = y[: len(self.diag)]
        out = self.diag * y
        out[:-1] += self.upper * y[1:]
        out[1:] += self.lower * y[:-1]
        return out

    def solve(self, shift, rhs: np.ndarray) -> np.ndarray:
        """x with (A + diag(shift)) x = rhs; `shift` is a scalar or one
        value per unknown, real or complex.

        One LAPACK ?gtsv call (partial pivoting) on the stored bands; the
        routine follows the dtype of the shifted diagonal and of rhs.
        Raises SolverError when the shifted diagonal or rhs is not finite,
        or when the system is singular.
        """
        d = self.diag + shift
        for name, values in (("shift", d), ("rhs", rhs)):
            finite = np.isfinite(values)
            if not finite.all():
                index = int(np.argmin(finite))
                raise SolverError(f"tridiagonal solve: {name} not finite",
                                  array=name, index=index,
                                  value=values[index].item())
        gtsv, = get_lapack_funcs(("gtsv",), (d, rhs))
        # d is ours to overwrite; the bands and rhs are copied by the wrapper
        _, _, _, x, info = gtsv(self.lower, d, self.upper, rhs,
                                overwrite_d=True)
        if info > 0:
            raise SolverError("tridiagonal solve: singular system", info=info,
                              n=len(d))
        return x

    def boundary_slope(self, values: np.ndarray) -> float:
        """u_r(R) of a Dirichlet profile from the integrated equation
        -R^{N-1} u_r(R) = int_0^R (-Laplace u) r^{N-1} dr; -Laplace u
        vanishes at the boundary node for every equation solved here."""
        flux = float(self.weights @ np.append(self.apply(values), 0.0))
        return -flux / self.boundary_area


def make_grid(params: ProblemParams, n_nodes: int, R: float = 1.0) -> RadialGrid:
    """Uniform radial grid on [0, R]."""
    if n_nodes < 16:
        raise ParameterError(f"n_nodes must be >= 16, got {n_nodes}")
    if not (R > 0.0 and math.isfinite(R)):
        raise ParameterError(f"radius must be positive and finite, got {R}")
    nodes = R * np.linspace(0.0, 1.0, n_nodes)
    return RadialGrid(nodes=nodes, weights=_simpson_weights(nodes, params.N),
                      omega_n=params.omega, n_dim=params.N)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function sampled on a RadialGrid, with its boundary slope."""

    grid: RadialGrid
    values: np.ndarray
    boundary_derivative: float

    def __post_init__(self):
        if len(self.values) != self.grid.n_nodes:
            raise ParameterError("profile length does not match grid")
        self.values.setflags(write=False)

    def derivative_values(self) -> np.ndarray:
        """Nodal du/dr by second-order finite differences."""
        return np.gradient(self.values, self.grid.nodes, edge_order=2)

    def l2_norm_sq(self) -> float:
        return self.grid.integrate(self.values**2)


def integrate(profile: RadialProfile, transform: Callable[[np.ndarray], np.ndarray]) -> float:
    """omega_N * int_0^R g(u(r)) r^{N-1} dr for a pointwise map g."""
    samples = np.asarray(transform(profile.values), dtype=float)
    out = profile.grid.integrate(samples)
    if not math.isfinite(out):
        raise ArithmeticError("integral overflowed or is undefined")
    return out


def grad_norm_sq(profile: RadialProfile) -> float:
    """omega_N * int_0^R (u'(r))^2 r^{N-1} dr via the nodal derivative."""
    d = profile.derivative_values()
    return profile.grid.integrate(d * d)


@dataclass(frozen=True)
class EigenPair:
    """Principal Dirichlet eigenvalue and positive L2-normalized eigenfunction."""

    lambda1: float
    phi1: RadialProfile


def principal_eigenpair(params: ProblemParams, grid: RadialGrid,
                        tol: float = 1e-12, max_iter: int = 500) -> EigenPair:
    """Smallest eigenvalue of the radial Dirichlet Laplacian on the grid.

    Inverse power iteration on the conservative tridiagonal operator,
    stopping when the Rayleigh-quotient residual falls below `tol`.
    """
    op = grid.operator
    vol = op.vol
    m = len(vol)
    x = 1.0 - grid.nodes[:m] ** 2  # smooth positive seed
    x /= math.sqrt(vol @ x**2)
    # the attainable residual floor is ~eps * ||A||; iterate the vector all
    # the way down to it (the Rayleigh stall guard stops at roundoff)
    op_scale = float(np.max(np.abs(op.diag)))
    floor = 2.0 * np.finfo(float).eps * op_scale
    theta = float("nan")
    stall = 0
    res = math.inf
    for it in range(max_iter):
        y = op.solve(0.0, x)
        y /= math.sqrt(vol @ y**2)
        Ay = op.apply(y)
        theta_new = float(vol @ (y * Ay))
        res_new = math.sqrt(float(vol @ (Ay - theta_new * y) ** 2))
        moved = abs(theta_new - theta) if it else math.inf
        stalled_res = res_new >= 0.9 * res
        theta, res = theta_new, res_new
        x = y
        if res <= floor:
            break
        stall = stall + 1 if (moved <= 1e-15 * abs(theta) and stalled_res) else 0
        if stall >= 2:
            break
    else:
        raise SolverError(
            "inverse power iteration did not converge",
            iterations=max_iter, residual=res, rayleigh=theta,
        )
    if res > tol * op_scale:
        raise SolverError(
            "eigen residual stalled above tolerance",
            iterations=it + 1, residual=res, rayleigh=theta,
        )
    full = np.zeros(grid.n_nodes)
    full[:m] = x
    if full[m // 4] < 0.0:
        full = -full
    # normalize with the public quadrature so that int phi^2 dx = 1 exactly
    nrm = math.sqrt(grid.integrate(full**2))
    full /= nrm
    bnd = op.boundary_slope(full)
    return EigenPair(lambda1=theta, phi1=RadialProfile(grid, full, bnd))
