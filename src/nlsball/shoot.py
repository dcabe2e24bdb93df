"""Solvers for the radial profile equation on the unit ball,
      -u'' - (N-1)/r u' + lam u = mu u^p,  u'(0) = 0, u(1) = 0:

* mu = +1 (focusing) by shooting: classification bisection on the center
  value a = u(0) (`_bisect_center`) from a cold bracket, ended by Newton
  on the boundary value u(1; a) from the bracket's secant root where that
  is smooth, or by more bisection on trajectories that stop early where
  u(1; a) is a step in double precision.  Every solve first runs that
  search at RK4's own ODE_TOLERANCE step over [0, 1], wherever that step
  spans at least COARSE_FACTOR grid steps; Newton on the grid-step
  u(1; a) then polishes the root, and grid-step classifications check it;
* mu = -1 (defocusing) by the damped Newton `_newton` on the conservative
  discretization, which also polishes the standing waves of `evolve` --
  center shooting is hopeless there because separatrix perturbations grow
  like exp(sqrt((p-1)|lam|) r), which exceeds double precision long before
  |lam| reaches the asymptotic regime.

Both start cold (`_solve_profile`): a profile depends on lam and the grid
only, not on what was solved before it.

The whole-space ground state of -Delta Z + Z = Z^p is the focusing
solution at lam = R_max^2, rescaled onto the ball of radius R_max
(`solve_whole_space`).

Trajectories integrate with classical RK4 at a lambda-scaled step landing
exactly on the output grid nodes, started off r = 0 with the even series
u = a + (lam a - a^p) r^2/(2N) + O(r^4).  Wherever the profile falls
below what bisection can resolve in double precision (center values only
pin the trajectory down to relative eps, amplified by exp(sqrt(lam) r))
before the boundary, the tail, and with it u_r(1), is replaced by the
matched decaying solution of the linearized equation, vanishing at r = 1:
RK4 integrates it inward from r = 1, where it is the dominant mode
(`_ball_linear_tail`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemParams,
    RadialProfile,
    _dirichlet_profile,
    _same_dimension,
    dirichlet_lambda1_exact,
    grad_norm_sq,
    make_grid,
    principal_eigenpair,
)
from .errors import (
    BracketError,
    DomainError,
    ParameterError,
    PrecisionError,
    SolverError,
)

CROSSED = "crossed"
REBOUND = "rebound"
REACHED_END = "end"

# tail values below TAIL_SWITCH * u(0) are dominated by separatrix noise;
# the inward linear tail rescales by 2^-TAIL_RESCALE_EXPONENT
TAIL_SWITCH = 1e-6
TAIL_RESCALE_EXPONENT = 500
# RK4 local error per step, and the relative width of the center-value
# bracket that bisection stops at within MAX_BISECTIONS halvings
ODE_TOLERANCE = 1e-10
BISECTION_TOLERANCE = 1e-14
MAX_BISECTIONS = 200
# relative bracket width at which classification bisection hands over to
# Newton on u(1; a)
HANDOFF_WIDTH = 1e-3
# a center-value search runs at the ODE_TOLERANCE step first where
# that step spans at least COARSE_FACTOR grid steps; each Newton step on
# u(1; a) that polishes a root is at most POLISH_CONTRACTION of the one
# before
COARSE_FACTOR = 4
POLISH_CONTRACTION = 0.25
# the damped Newton on the discrete profile equation (see `_newton`)
NEWTON_TOLERANCE = 1e-12
NEWTON_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ShootConfig:
    """Discretization of the shooting solvers: the number of grid nodes."""

    n_nodes: int = 2049

    def __post_init__(self):
        if self.n_nodes < 16:
            raise ParameterError("n_nodes must be >= 16")


@dataclass(frozen=True)
class WholeSpaceGroundState:
    """Decaying positive radial solution of -Delta Z + Z = Z^p on R^N."""

    params: ProblemParams
    profile: RadialProfile
    mass: float
    grad_energy: float
    lp1_norm: float
    center_value: float


def _substeps(cell: float, lam: float) -> int:
    """Substeps per grid cell for an RK4 local error near ODE_TOLERANCE."""
    x_max = (720.0 * ODE_TOLERANCE) ** 0.2
    return max(1, math.ceil(cell * math.sqrt(1.0 + abs(lam)) / x_max))


def _integrate(a, lam, n_dim, p, n_cells, substeps, record,
               terminal_events=True):
    """Fixed-step RK4 of the focusing flow over [0, 1] with events.

    Returns (status, r_stop, u_nodes, u_end, v_end); u_nodes is None
    unless `record`.  In record mode a zero crossing only counts as an
    event once u < -1e-12 a, so benign boundary roundoff does not truncate
    the profile; classification mode uses the sharp dichotomy.
    With terminal_events=False the flow runs to 1 regardless (the odd
    extension u |u|^{p-1} keeps it bounded), exposing the smooth shooting
    functional a -> u(1).
    """
    # numpy scalars (lam from an array) make every step below about 3x
    # slower; on Python floats the arithmetic is the same
    a, lam, p = float(a), float(lam), float(p)
    pm1 = p - 1.0
    Nm1 = n_dim - 1.0
    h = 1.0 / (n_cells * substeps)
    cross_floor = -1e-12 * a if record else 0.0

    u_nodes = None
    if record:
        u_nodes = np.full(n_cells + 1, np.nan)
        u_nodes[0] = a

    c2 = (lam * a - a * abs(a) ** pm1) / (2.0 * n_dim)
    c4 = (lam - p * abs(a) ** pm1) * c2 / (4.0 * (n_dim + 2.0))
    r = h
    u = a + c2 * h * h + c4 * h**4
    v = 2.0 * c2 * h + 4.0 * c4 * h**3

    step = 1
    total = n_cells * substeps
    while True:
        if terminal_events:
            if u <= cross_floor:
                return CROSSED, r, u_nodes, u, v
            if v >= 0.0 and lam * u > u * abs(u) ** pm1:
                # slope event only where the flow cannot turn back down
                return REBOUND, r, u_nodes, u, v
        if record and step % substeps == 0:
            u_nodes[step // substeps] = u
        if step >= total:
            return REACHED_END, r, u_nodes, u, v
        # classical RK4 step
        k1u = v
        k1v = lam * u - u * abs(u) ** pm1 - Nm1 * v / r
        rm = r + 0.5 * h
        u2 = u + 0.5 * h * k1u
        v2 = v + 0.5 * h * k1v
        k2u = v2
        k2v = lam * u2 - u2 * abs(u2) ** pm1 - Nm1 * v2 / rm
        u3 = u + 0.5 * h * k2u
        v3 = v + 0.5 * h * k2v
        k3u = v3
        k3v = lam * u3 - u3 * abs(u3) ** pm1 - Nm1 * v3 / rm
        re = r + h
        u4 = u + h * k3u
        v4 = v + h * k3v
        k4u = v4
        k4v = lam * u4 - u4 * abs(u4) ** pm1 - Nm1 * v4 / re
        u += h * (k1u + 2.0 * (k2u + k3u) + k4u) / 6.0
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        r = re
        step += 1


def _classify(a, lam, n_dim, p, n_cells, substeps):
    """('big' if the trajectory crosses zero before r = 1, else 'small',
    and the radius where the trajectory stopped)."""
    status, r_stop, _, u_end, _ = _integrate(
        a, lam, n_dim, p, n_cells, substeps, record=False
    )
    if status == CROSSED:
        return "big", r_stop
    if status == REBOUND:
        return "small", r_stop
    return ("small" if u_end > 0.0 else "big"), r_stop


def _cold_bracket(classify, lam, p):
    """Center values (lo, hi) of the two trajectory classes by a
    geometric search from the scale lam^{1/(p-1)}."""
    base = lam ** (1.0 / (p - 1.0)) if lam > 0 else 0.0
    lo = hi = max(1.0, 1.5 * base)
    for _ in range(200):
        if classify(hi) == "big":
            break
        lo = hi
        hi *= 1.6
    else:
        raise BracketError("no crossing trajectory found", a_max=hi, lam=lam)
    for _ in range(200):
        if classify(lo) == "small":
            return lo, hi
        hi = lo
        lo *= 0.6
    raise BracketError("no rebound trajectory found", a_min=lo, lam=lam)


def _boundary_value(a, lam, n_dim, p, n_cells, substeps):
    """u(1; a) of the event-free flow: the smooth shooting functional."""
    return _integrate(a, lam, n_dim, p, n_cells, substeps,
                      record=False, terminal_events=False)[3]


def _shooting_slope(a, lam, n_dim, p, steps):
    """d u(1; a) / da at `steps` RK4 steps over [0, 1], by a central
    difference over sqrt(eps) a."""
    d = math.sqrt(np.finfo(float).eps) * a
    up, down = (_boundary_value(b, lam, n_dim, p, 1, steps)
                for b in (a + d, a - d))
    return (up - down) / (2.0 * d)


def _polish_center(boundary_value, a, slope):
    """Newton on `boundary_value`, u(1; a) at the caller's step, from a
    with a fixed `slope`.

    It stops once a step is below BISECTION_TOLERANCE, or where a step is
    more than POLISH_CONTRACTION of the one before (u(1; a) at its
    roundoff floor, or beyond the range where it is linear in a); the
    caller checks the root by classification.
    """
    last = a  # so all steps together move a by less than a third
    while True:
        step = boundary_value(a) / slope
        if not abs(step) <= POLISH_CONTRACTION * last:
            return a
        a, last = a - step, abs(step)
        if last <= BISECTION_TOLERANCE * a:
            return a


def _bisect_center(lam, n_dim, p, n_cells, substeps):
    """Locate the separatrix center value by classification bisection;
    returns (a, lo, hi) with lo 'small' and hi 'big'.

    A solve first runs this whole search at RK4's own ODE_TOLERANCE step
    over [0, 1], _substeps(1, lam) steps, wherever that step spans at
    least COARSE_FACTOR grid steps (lam up to about 360 on 2048 cells).
    That root carries the coarse step's error (about 1e-7 relative at
    p = 3, lam = 2); Newton on the grid-step u(1; a), with the slope of
    the coarse map, removes it (`_polish_center`), typically in three
    integrations.  If the coarse search or the polish fails, the search
    below runs at the grid step from the cold bracket (`_cold_bracket`).

    The bracket is first narrowed to HANDOFF_WIDTH.  A trajectory an
    offset d off the separatrix leaves it where
    d exp(sqrt(lam) r) grows to order one, so its stop radius grows like
    ln(1/d).  If the bracket ends' stop radii, scaled by
    ln(BISECTION_TOLERANCE) / ln(HANDOFF_WIDTH), still fall short of 1,
    every classification down to BISECTION_TOLERANCE stops early and
    u(1; a) is a step in double precision: bisection finishes.  Otherwise
    `_polish_center` on the event-free boundary value u(1; a) finishes,
    from the secant root of the bracket ends with the secant slope; the
    root is verified against the classification dichotomy and bisection
    takes over whenever the verification fails.  Both bisections share
    one budget of MAX_BISECTIONS halvings.
    """
    stops = {}
    used = 0

    def classify(a):
        kind, stops[a] = _classify(a, lam, n_dim, p, n_cells, substeps)
        return kind

    def boundary_value(a):
        return _boundary_value(a, lam, n_dim, p, n_cells, substeps)

    def bisect(lo, hi, width):
        """Halve (lo, hi) until it is at most `width` relative."""
        nonlocal used
        while hi - lo > width * hi and used < MAX_BISECTIONS:
            mid = 0.5 * (lo + hi)
            if classify(mid) == "big":
                hi = mid
            else:
                lo = mid
            used += 1
        return lo, hi

    tol = BISECTION_TOLERANCE

    def checked(root):
        """(root, lo, hi) if root -+ pad classify as the bracket ends do."""
        pad = 4.0 * max(tol * root, np.finfo(float).eps * root)
        if classify(root - pad) == "small" and classify(root + pad) == "big":
            return root, root - pad, root + pad
        return None

    coarse = _substeps(1.0, lam)
    if COARSE_FACTOR * coarse <= n_cells * substeps:
        try:
            # at one cell of `coarse` substeps this test fails: no recursion
            a, _, _ = _bisect_center(lam, n_dim, p, 1, coarse)
        except (BracketError, PrecisionError):
            pass
        else:
            slope = _shooting_slope(a, lam, n_dim, p, coarse)
            if slope < 0.0:
                found = checked(_polish_center(boundary_value, a, slope))
                if found is not None:
                    return found
    lo, hi = bisect(*_cold_bracket(classify, lam, p), HANDOFF_WIDTH)

    reach = max(stops[lo], stops[hi]) * (math.log(tol)
                                         / math.log(HANDOFF_WIDTH))
    if reach >= 1.0 and hi - lo > tol * hi:
        g_lo, g_hi = boundary_value(lo), boundary_value(hi)
        if g_lo > 0.0 > g_hi:
            slope = (g_hi - g_lo) / (hi - lo)
            found = checked(_polish_center(boundary_value,
                                           lo - g_lo / slope, slope))
            if found is not None:
                return found
    lo, hi = bisect(lo, hi, tol)
    if hi - lo > 64.0 * tol * hi:
        raise PrecisionError(
            "bisection exhausted before tolerance",
            bracket_width=hi - lo, relative=(hi - lo) / hi,
            iterations=MAX_BISECTIONS,
        )
    return 0.5 * (lo + hi), lo, hi


def _tail_start_index(values: np.ndarray, a: float) -> int | None:
    """Last trustworthy node: the one before u first drops below the
    separatrix noise floor TAIL_SWITCH * u(0), or None if no node before
    the last one does."""
    filled = np.nan_to_num(values[:-1], nan=0.0)
    below = np.flatnonzero(filled < TAIL_SWITCH * a)
    if len(below) == 0:
        return None
    return max(int(below[0]) - 1, 1)


def _ball_linear_tail(n_dim, lam, nodes, u_s, substeps):
    """Decaying solution of -w'' - (N-1)/r w' + lam w = 0 with w(R) = 0 at
    R = nodes[-1], matched to u_s at r_s = nodes[0].  Returns (values at
    nodes[1:], w'(R)).

    Classical RK4 integrates inward from (w, w')(R) = (0, -1) in
    `substeps` steps per cell, landing on the nodes.  The decaying
    solution is the dominant mode inward, so the integration is stable;
    w is rescaled by 2^-TAIL_RESCALE_EXPONENT (exact in binary) whenever
    it passes the inverse of that, so no lam overflows.  With
    w(r_s) = w_s the tail is u_s w / w_s and, by the Wronskian
    normalization w'(R) = -1, its boundary slope is -u_s / w_s.
    """
    lam = float(lam)
    Nm1 = n_dim - 1.0
    m = len(nodes) - 1
    h = float(nodes[1] - nodes[0]) / substeps
    limit = math.ldexp(1.0, TAIL_RESCALE_EXPONENT)
    shrink = math.ldexp(1.0, -TAIL_RESCALE_EXPONENT)
    w_nodes = np.zeros(m + 1)
    rescales = 0
    r = float(nodes[-1])
    w, v = 0.0, -1.0
    for i in range(m - 1, -1, -1):
        for _ in range(substeps):
            # classical RK4 step of (w, v) = (w, w') from r to r - h
            k1v = lam * w - Nm1 * v / r
            rm = r - 0.5 * h
            w2 = w - 0.5 * h * v
            v2 = v - 0.5 * h * k1v
            k2v = lam * w2 - Nm1 * v2 / rm
            w3 = w - 0.5 * h * v2
            v3 = v - 0.5 * h * k2v
            k3v = lam * w3 - Nm1 * v3 / rm
            r -= h
            w4 = w - h * v3
            v4 = v - h * k3v
            k4v = lam * w4 - Nm1 * v4 / r
            w -= h * (v + 2.0 * (v2 + v3) + v4) / 6.0
            v -= h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
            if w > limit:
                w *= shrink
                v *= shrink
                w_nodes[i + 1 :] *= shrink
                rescales += 1
        r = float(nodes[i])
        w_nodes[i] = w
    w_s = w_nodes[0]
    boundary_slope = math.ldexp(-u_s / w_s,
                                -TAIL_RESCALE_EXPONENT * rescales)
    return u_s * w_nodes[1:] / w_s, boundary_slope


def _focusing_profile(params, lam, grid, a):
    """The profile of the trajectory from center value a.

    Where u drops below the separatrix noise floor before r = 1 (lam > 0),
    the nodes beyond hold noise, and so would u_r(1): the decaying
    linear solution is grafted on from the last trustworthy node.
    """
    substeps = _substeps(grid.spacing, lam)
    status, r_stop, values, _, v_end = _integrate(
        a, lam, params.N, params.p, grid.n_nodes - 1, substeps, record=True
    )
    s = _tail_start_index(values, a)
    if lam > 0.0 and s is not None:
        values[s + 1 :], boundary = _ball_linear_tail(
            params.N, lam, grid.nodes[s:], values[s], substeps
        )
    elif status == REACHED_END or r_stop >= 1.0 - 1.5 * grid.spacing:
        values[np.isnan(values)] = 0.0
        boundary = v_end
    else:
        raise SolverError(
            "trajectory terminated early at the converged center value",
            r_stop=r_stop, status=status, lam=lam,
        )
    values[-1] = 0.0
    np.clip(values, 0.0, None, out=values)
    return RadialProfile(grid, values, float(boundary))


def _linearized_shift(lam, mu, p, y):
    """The shift lam - p mu y^{p-1} of the linearization A + lam - p mu
    y^{p-1} of A y + lam y = mu y^p at a nonnegative y: mu = +-1 for an
    unnormalized profile, the point's mu for a normalized one."""
    return lam - p * mu * y ** (p - 1.0)


def _residual(op, lam, sign, y, p):
    """A y + lam y - sign max(y, 0)^p on the interior nodes."""
    return op.apply(y) + lam * y - sign * np.maximum(y, 0.0) ** p


def _residual_scale(lam, y, p):
    """The largest term of the profile equation, at least 1."""
    top = float(np.max(y))
    return max(1.0, abs(lam) * top, top ** p)


def _newton(grid, lam, sign, p, y):
    """Damped Newton on F(y) = A y + lam y - sign y^p = 0 (interior nodes)
    from y; returns (y, converged, max|F|).

    A step is halved until max|F| drops, and reflected into the positive
    cone as |y + t delta|: sign flips collapse Newton onto u = 0.  It stops
    once max|F| <= NEWTON_TOLERANCE * _residual_scale plus the roundoff
    floor of A y (`RadialOperator.roundoff_floor`), within
    NEWTON_MAX_ITERATIONS steps.
    """
    op = grid.operator

    def converged(norm, y):
        bound = NEWTON_TOLERANCE * _residual_scale(lam, y, p)
        return norm <= bound + op.roundoff_floor(y)

    fy = _residual(op, lam, sign, y, p)
    norm = float(np.max(np.abs(fy)))
    for _ in range(NEWTON_MAX_ITERATIONS):
        if converged(norm, y):
            return y, True, norm
        delta = op.solve(_linearized_shift(lam, sign, p, y), -fy)
        t = 1.0
        for _ in range(30):
            y_new = np.abs(y + t * delta)
            f_new = _residual(op, lam, sign, y_new, p)
            n_new = float(np.max(np.abs(f_new)))
            if n_new < norm:
                break
            t *= 0.5
        else:
            break
        y, fy, norm = y_new, f_new, n_new
    return y, converged(norm, y), norm


def _solve_ball_defocusing(params, lam, grid):
    """-Delta u + lam u + u^p = 0, u > 0, u(1) = 0 by `_newton`, started
    cold: from the small-amplitude phi_1 ansatz first where -lam <
    4 lambda_1, from the plateau ansatz first beyond."""
    lam1 = dirichlet_lambda1_exact(params.N)
    m = grid.n_nodes - 1
    p = params.p
    r = grid.nodes[:m]

    def phi1_seed():
        # small-amplitude ansatz a phi_1 with a^{p-1} = (-lam - lam1)/c
        eig = principal_eigenpair(params, grid)
        cp1 = grid.integrate(eig.phi1.values ** (p + 1))
        amp = (max(-lam - lam1, 1e-10) / cp1) ** (1.0 / (p - 1.0))
        return amp * eig.phi1.values[:m]

    def plateau_seed():
        plateau = (-lam) ** (1.0 / (p - 1.0))
        k = math.sqrt(-lam / 2.0)
        return plateau * np.tanh(k * (1.0 - r))

    seeds = ((phi1_seed, plateau_seed) if -lam < 4.0 * lam1
             else (plateau_seed, phi1_seed))
    for seed in seeds:
        y, ok, last = _newton(grid, lam, -1, p, seed())
        # u = 0 solves the equation at every lam; a positive solution has
        # max(u)^(p-1) >= -lam - lambda_1(h) (test against phi_1), and the
        # factor 1/2 absorbs the grid's lambda_1(h) - lambda_1
        if ok and y.min() > 0.0 and y.max() ** (p - 1.0) >= 0.5 * (-lam - lam1):
            return _dirichlet_profile(grid, y)
    raise SolverError(
        "defocusing Newton iteration failed", residual=last, lam=lam
    )


def _solve_profile(params, lam, sign, grid):
    """The profile solving -Delta u + lam u = sign u^p on `grid`, started
    cold: focusing by center shooting, defocusing by `_newton`."""
    if sign < 0:
        return _solve_ball_defocusing(params, lam, grid)
    a, _, _ = _bisect_center(lam, params.N, params.p, grid.n_nodes - 1,
                             _substeps(grid.spacing, lam))
    return _focusing_profile(params, lam, grid, a)


def solve_ball_profile(params: ProblemParams, lam: float, mu_sign: int,
                       config: ShootConfig | None = None) -> RadialProfile:
    """Unique positive radial Dirichlet solution on the unit ball.

    mu_sign=+1 requires lam > -lambda_1(B_1), mu_sign=-1 requires
    lam < -lambda_1(B_1).  Both solves start cold (`_solve_profile`).
    """
    if mu_sign not in (+1, -1):
        raise ParameterError("mu_sign must be +1 or -1")
    if not math.isfinite(lam):
        raise ParameterError(f"lam must be finite, got {lam}")
    config = config or ShootConfig()
    grid = make_grid(params, config.n_nodes, 1.0)
    lam1 = dirichlet_lambda1_exact(params.N)
    if mu_sign > 0 and lam <= -lam1:
        raise DomainError(
            f"focusing profile needs lam > -lambda1 = {-lam1:.6f}, got {lam}"
        )
    if mu_sign < 0 and lam >= -lam1:
        raise DomainError(
            f"defocusing profile needs lam < -lambda1 = {-lam1:.6f}, got {lam}"
        )
    return _solve_profile(params, lam, mu_sign, grid)


def solve_whole_space(params: ProblemParams, R_max: float = 20.0,
                      config: ShootConfig | None = None) -> WholeSpaceGroundState:
    """Decaying ground state Z of -Delta Z + Z = Z^p on R^N, truncated to
    the ball of radius R_max with a Dirichlet wall.

    The focusing ball solution at lam = R_max^2 rescales onto it
    (`rescaled_profile` with mu = 1); the wall moves Z by about
    exp(-2 R_max).  Mass and int Z^{p+1} are quadratures on the dilated
    grid, and the gradient energy is `grad_norm_sq`.
    """
    config = config or ShootConfig()
    if not math.isfinite(R_max):
        raise ParameterError(f"R_max must be finite, got {R_max}")
    if math.exp(-R_max) >= 1e-8:
        raise ParameterError(f"R_max = {R_max} too small for the decay floor")
    lam = R_max * R_max
    Z = rescaled_profile(solve_ball_profile(params, lam, +1, config), lam,
                         1.0, params)
    return WholeSpaceGroundState(
        params=params, profile=Z, mass=Z.l2_norm_sq(),
        grad_energy=grad_norm_sq(Z),
        lp1_norm=Z.grid.integrate(Z.values ** (params.p + 1.0)),
        center_value=float(Z.values[0]),
    )


def rescaled_profile(point_profile: RadialProfile, lam: float, mu: float,
                     params: ProblemParams) -> RadialProfile:
    """Blow-up rescaling v(x) = (mu/lam)^{1/(p-1)} u(x / sqrt(lam)).

    The result lives on the dilated grid of radius sqrt(lam) * R and solves
    -Delta v + v = v^p up to the Dirichlet truncation.  `params` must be
    set in the profile's dimension.
    """
    _same_dimension(params, point_profile.grid.n_dim)
    if lam <= 0.0 or mu <= 0.0:
        raise DomainError("rescaling requires lam > 0 and mu > 0")
    fac = (mu / lam) ** (1.0 / (params.p - 1.0))
    root = math.sqrt(lam)
    grid = make_grid(params, point_profile.grid.n_nodes,
                     R=root * point_profile.grid.radius)
    values = fac * point_profile.values
    boundary = fac / root * point_profile.boundary_derivative
    return RadialProfile(grid, values, boundary)


def discrete_residual(profile: RadialProfile, lam: float, mu: float,
                      params: ProblemParams) -> float:
    """Max-norm residual of the conservative discretization of
    -Delta u + lam u = mu u^p at a nonnegative profile, normalized by the
    largest term (at least 1); `_newton` stops below NEWTON_TOLERANCE plus
    its roundoff floor."""
    p = params.p
    op = profile.grid.operator
    yin = profile.values[: len(op.diag)]
    res = _residual(op, lam, mu, yin, p)
    return float(np.max(np.abs(res)) / _residual_scale(lam, yin, p))
