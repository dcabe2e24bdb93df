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

import cmath
import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from pathlib import Path

import numpy as np
import scipy

from .errors import ParameterError, SolverError

# inverse power iteration of `principal_eigenpair`: the step budget and the
# Rayleigh-quotient residual it must end below, relative to max|diag A|
EIGEN_TOLERANCE = 1e-12
EIGEN_MAX_ITERATIONS = 500


def _load_flapack():
    """scipy's compiled LAPACK wrapper module `scipy.linalg._flapack`,
    loaded from its file alone so that `scipy/linalg/__init__.py` never
    runs: with scipy 1.17 that package import pulls in about 330 modules
    and doubles a numpy process's peak RSS.  The module is registered
    under its own name, so a later `import scipy.linalg` shares it (and
    one made earlier is reused)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = Path(scipy.__file__).parent / "linalg"
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)
                      ).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {where}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# LAPACK: ?gtsv for the tridiagonal solves, dstebz for the spectra
_flapack = _load_flapack()


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    L2CRITICAL = "L2critical"
    SUPERCRITICAL = "supercritical"


def _dimension(n_dim) -> int:
    """n_dim as an int, if it is an integer >= 1 (numpy integers included,
    `bool` not); ParameterError otherwise."""
    if not isinstance(n_dim, bool):
        try:
            n = operator.index(n_dim)
        except TypeError:
            pass
        else:
            if n >= 1:
                return n
    raise ParameterError(f"dimension must be an integer >= 1, got {n_dim!r}")


def surface_measure(n_dim: int) -> float:
    """|boundary of the unit ball| in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)


def ball_volume(n_dim: int) -> float:
    """|B_1| in R^N: omega_N / N."""
    return surface_measure(n_dim) / n_dim


# typed: True == 1 would otherwise hit 1's entry and skip the check
@lru_cache(maxsize=None, typed=True)
def dirichlet_lambda1_exact(n_dim: int) -> float:
    """First Dirichlet eigenvalue of -Laplace on the unit ball.

    Equals the squared first positive zero of the Bessel function J_nu with
    nu = N/2 - 1 (radial eigenfunction r^{-nu} J_nu(sqrt(lambda) r)).
    J_nu(t) is Gamma(N/2)^{-1} (t/2)^nu F(t), with the power series
        F(t) = sum_k (-t^2/4)^k / (k! (N/2)_k)
    ((N/2)_k the rising factorial; Watson, Theory of Bessel Functions,
    1944), summed term by term from the ratio of consecutive terms.  Its
    first zero is located by a scan in steps of 0.1 and bisection on the
    sign of F down to adjacent floats.  The alternating terms cancel: the
    series at +t^2/4 bounds F's roundoff, and a SolverError is raised
    where that roundoff could move the root by more than 1e-10 relative
    (N above about 40).  A dimension that is not an integer >= 1 raises
    ParameterError.
    """
    nu = _dimension(n_dim) / 2.0 - 1.0

    def series(z):
        term = total = 1.0
        k = 0
        while abs(term) >= 1e-17 or k * (nu + k) <= abs(z):
            k += 1
            term *= z / (k * (nu + k))
            total += term
        return total

    f = lambda t: series(-0.25 * t * t)
    x = max(abs(nu), 0.5)
    fx = f(x)
    step = 0.1
    while fx == 0.0:
        x += 1e-3
        fx = f(x)
    t, ft = x, fx
    for _ in range(10000):
        t_next = t + step
        f_next = f(t_next)
        if f_next * fx < 0.0:
            lo, hi = t, t_next
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if f(mid) * fx < 0.0:
                    hi = mid
                else:
                    lo = mid
            root = lo if abs(f(lo)) <= abs(f(hi)) else hi
            # F's roundoff over its slope across the scan step
            width = (np.finfo(float).eps * series(0.25 * root * root)
                     * step / abs(f_next - ft))
            if width > 1e-10 * root:
                raise SolverError("power series of J_nu loses precision",
                                  order=nu, root_uncertainty=width)
            return root * root
        t, ft = t_next, f_next
    raise SolverError("no Bessel zero located", order=nu)


@dataclass(frozen=True)
class ProblemParams:
    """Dimension and nonlinearity exponent, with criticality bookkeeping."""

    N: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "N", _dimension(self.N))
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

    @cached_property
    def principal_mode(self) -> tuple[float, np.ndarray, float]:
        """(lambda_1, phi_1 nodal values, phi_1's boundary slope) of the
        operator, computed once per grid for `principal_eigenpair`.  Bare
        values: an EigenPair's profile would point back at the grid (see
        RadialOperator)."""
        return _principal_mode(self)


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
        value per unknown, real or complex.  rhs is one value per unknown,
        or a 2-D array with one column per right-hand side, which are all
        solved in the same call and each bit for bit as if alone.

        One LAPACK ?gtsv call (partial pivoting) on the stored bands:
        zgtsv when the shifted diagonal or rhs is complex, dgtsv otherwise.
        Raises SolverError when the shifted diagonal or rhs is not finite
        (`index` names the unknown, `value` the first bad entry), or when
        the system is singular.
        """
        d = self.diag + shift
        for name, values in (("shift", d), ("rhs", rhs)):
            # a sum is finite only if every term is; the elementwise scan
            # names the index and clears a finite sum that overflowed
            if cmath.isfinite(values.sum()):
                continue
            finite = np.isfinite(values)
            if not finite.all():
                flat = int(np.argmin(finite))  # row-major over columns
                raise SolverError(f"tridiagonal solve: {name} not finite",
                                  array=name,
                                  index=flat // (values.size // len(values)),
                                  value=values.flat[flat].item())
        gtsv = (_flapack.zgtsv if np.iscomplexobj(d) or np.iscomplexobj(rhs)
                else _flapack.dgtsv)
        # d is ours to overwrite; the bands and rhs are copied by the wrapper
        _, _, _, x, info = gtsv(self.lower, d, self.upper, rhs,
                                overwrite_d=True)
        if info > 0:
            raise SolverError("tridiagonal solve: singular system", info=info,
                              n=len(d))
        return x

    def roundoff_floor(self, y: np.ndarray) -> float:
        """20 eps max|diag A| max|y|: the rounding floor of evaluating A y,
        which grows like 1/h^2."""
        return (20.0 * np.finfo(float).eps * float(np.max(np.abs(self.diag)))
                * float(np.max(np.abs(y))))

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
        """Nodal du/dr by fourth-order finite differences.

        The central stencil (8(u_{i+1} - u_{i-1}) - (u_{i+2} - u_{i-2}))
        / (12 h) runs on the even extension u(-r) = u(r), so u'(0) = 0;
        the last two nodes take the one-sided fourth-order stencils.
        Every stencil is written in differences, so a constant gives
        exactly 0.
        """
        u = self.values
        h = self.grid.radius / (len(u) - 1)
        ext = np.concatenate((u[2:0:-1], u))  # u_{-2}, u_{-1}, u_0, ...
        du = np.empty(len(u))
        du[:-2] = 8.0 * (ext[3:-1] - ext[1:-3]) - (ext[4:] - ext[:-4])
        # u_{n-2}: 3 u_{+1} + 10 u_0 - 18 u_{-1} + 6 u_{-2} - u_{-3}
        du[-2] = (3.0 * (u[-1] - u[-2]) + 18.0 * (u[-2] - u[-3])
                  - 6.0 * (u[-2] - u[-4]) + (u[-2] - u[-5]))
        # u_{n-1}: 25 u_0 - 48 u_{-1} + 36 u_{-2} - 16 u_{-3} + 3 u_{-4}
        du[-1] = (48.0 * (u[-1] - u[-2]) - 36.0 * (u[-1] - u[-3])
                  + 16.0 * (u[-1] - u[-4]) - 3.0 * (u[-1] - u[-5]))
        du /= 12.0 * h
        return du

    def l2_norm_sq(self) -> float:
        return self.grid.integrate(self.values**2)


def _dirichlet_profile(grid: RadialGrid, y: np.ndarray) -> RadialProfile:
    """The profile with values y on the first nodes, 0 on the rest (the
    Dirichlet boundary node included), and the operator's boundary slope."""
    full = np.zeros(grid.n_nodes)
    full[: len(y)] = y
    return RadialProfile(grid, full, grid.operator.boundary_slope(full))


def grad_norm_sq(profile: RadialProfile) -> float:
    """omega_N * int_0^R (u'(r))^2 r^{N-1} dr via the nodal derivative."""
    d = profile.derivative_values()
    return profile.grid.integrate(d * d)


@dataclass(frozen=True)
class EigenPair:
    """Principal Dirichlet eigenvalue and positive L2-normalized eigenfunction."""

    lambda1: float
    phi1: RadialProfile


def principal_eigenpair(params: ProblemParams, grid: RadialGrid) -> EigenPair:
    """Smallest eigenvalue of the radial Dirichlet Laplacian on the grid,
    computed once per grid (`RadialGrid.principal_mode`)."""
    theta, values, slope = grid.principal_mode
    return EigenPair(lambda1=theta, phi1=RadialProfile(grid, values, slope))


def _principal_mode(grid: RadialGrid) -> tuple[float, np.ndarray, float]:
    """Inverse power iteration on the conservative tridiagonal operator,
    at most EIGEN_MAX_ITERATIONS steps; the Rayleigh-quotient residual
    must end below EIGEN_TOLERANCE max|diag A|.  Returns the eigenvalue,
    the positive eigenfunction's nodal values, L2-normalized, and its
    boundary slope.
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
    for it in range(EIGEN_MAX_ITERATIONS):
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
            iterations=EIGEN_MAX_ITERATIONS, residual=res, rayleigh=theta,
        )
    if res > EIGEN_TOLERANCE * op_scale:
        raise SolverError(
            "eigen residual stalled above tolerance",
            iterations=it + 1, residual=res, rayleigh=theta,
        )
    if x[m // 4] < 0.0:
        x = -x
    phi = _dirichlet_profile(grid, x)
    # normalize with the public quadrature so that int phi^2 dx = 1 exactly
    phi = _dirichlet_profile(grid, x / math.sqrt(phi.l2_norm_sq()))
    return theta, phi.values, phi.boundary_derivative
