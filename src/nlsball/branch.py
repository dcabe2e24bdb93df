"""Normalization to the two-constraint form and continuation of the
solution curves over the multiplier range.

A ball profile R solving -Delta R + lam R = (sign) R^p is normalized to
u = R / ||R||_2, giving the triple (u, mu, lam) with mu = sign ||R||_2^{p-1}
and alpha = int |grad u|^2.  Tracing lam sweeps out the focusing curve S+
(mu > 0, lam > -lambda_1) or the defocusing curve S- (mu < 0,
lam < -lambda_1), both graphs over alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .asymptotics import ap_predict, solve_psi
from .core import (
    ProblemParams,
    RadialProfile,
    Regime,
    _dirichlet_profile,
    dirichlet_lambda1_exact,
    grad_norm_sq,
    make_grid,
    principal_eigenpair,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    NlsBallError,
    NoSolutionError,
    ParameterError,
    SolverError,
)
from .shoot import ShootConfig, _linearized_shift, _solve_profile

# steps of each refinement's root search before it raises SolverError
MAX_REFINEMENT_STEPS = 100


class StabilityTag(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BranchPoint:
    """One normalized solution record (u, mu, lam, alpha) on S+ or S-."""

    alpha: float
    lam: float
    mu: float
    M_alpha: float      # int u^{p+1}
    ur1: float          # u_r(1)
    rho: float | None   # mu^{2/(p-1)}, focusing only
    energy: float | None
    profile: RadialProfile
    params: ProblemParams
    stability: StabilityTag = StabilityTag.UNKNOWN

    @property
    def sign(self) -> int:
        return 1 if self.mu > 0 else -1


@dataclass(frozen=True)
class BranchDerivative:
    """Derivatives with respect to alpha at one branch point."""

    v: RadialProfile        # du/dalpha
    mu_prime: float
    lambda_prime: float
    M_prime: float
    vr1: float              # v_r(1)


@dataclass(frozen=True)
class Branch:
    """Ordered solution points; derivatives in alpha at each point come
    from the branch tangent there (`_tangent`)."""

    sign: int
    params: ProblemParams
    points: tuple[BranchPoint, ...]
    failures: tuple[tuple[float, str], ...] = ()

    @cached_property
    def alphas(self) -> np.ndarray:
        return np.array([pt.alpha for pt in self.points])

    @cached_property
    def lambdas(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])

    @cached_property
    def mus(self) -> np.ndarray:
        return np.array([pt.mu for pt in self.points])

    @cached_property
    def Ms(self) -> np.ndarray:
        return np.array([pt.M_alpha for pt in self.points])

    def __len__(self) -> int:
        return len(self.points)

    def derivative(self, i: int) -> BranchDerivative:
        """Derivatives in alpha at index i, endpoints included: the
        derivatives in lam of `_tangent` at point i, the parameter the
        points were solved at, divided by dalpha/dlam; SolverError where
        dalpha/dlam is 0 or not finite.  Near the endpoint u - phi_1 grows
        like sqrt(alpha - lambda_1), which derivatives in alpha resolve
        poorly and derivatives in lam do not."""
        if not 0 <= i < len(self.points):
            raise ParameterError(
                f"index {i} is outside the branch of {len(self.points)} points")
        point = self.points[i]
        t = _tangent(point)
        alpha_lam = t.alpha
        if alpha_lam == 0.0 or not math.isfinite(alpha_lam):
            raise SolverError("alpha does not change along the branch",
                              i=i, lam=point.lam, alpha=point.alpha)
        v = RadialProfile(point.profile.grid, t.u.values / alpha_lam,
                          float(t.u.boundary_derivative / alpha_lam))
        return BranchDerivative(
            v=v,
            mu_prime=float(t.mu / alpha_lam),
            lambda_prime=float(1.0 / alpha_lam),
            M_prime=float(t.M / alpha_lam),
            vr1=v.boundary_derivative,
        )


def normalize(profile: RadialProfile, lam: float, mu_sign: int,
              params: ProblemParams) -> BranchPoint:
    """Normalize a multiplier-(+-1) ball solution to the unit-mass form."""
    if mu_sign not in (+1, -1):
        raise ParameterError("mu_sign must be +1 or -1")
    l2sq = profile.l2_norm_sq()
    if not (l2sq > 0.0 and math.isfinite(l2sq)):
        raise DegenerateInputError("profile has zero or invalid L2 norm")
    l2 = math.sqrt(l2sq)
    p = params.p
    u_vals = profile.values / l2
    u = RadialProfile(profile.grid, u_vals, profile.boundary_derivative / l2)
    mu = mu_sign * l2 ** (p - 1.0)
    alpha = grad_norm_sq(u)
    M = u.grid.integrate(np.abs(u_vals) ** (p + 1.0))
    if mu_sign > 0:
        rho = mu ** (2.0 / (p - 1.0))
        energy = rho * (alpha / 2.0 - mu * M / (p + 1.0))
    else:
        rho = None
        energy = None
    return BranchPoint(
        alpha=float(alpha), lam=float(lam), mu=float(mu), M_alpha=float(M),
        ur1=float(u.boundary_derivative), rho=rho, energy=energy,
        profile=u, params=params,
    )


def _solve_normalized(params, lam, sign, grid):
    """Solve at lam, cold (`_solve_profile`), and normalize."""
    return normalize(_solve_profile(params, lam, sign, grid), lam, sign,
                     params)


def geometric_lambda_grid(params: ProblemParams, lam_lo: float, lam_hi: float,
                          n: int, sign: int = +1) -> np.ndarray:
    """Multiplier grid geometric in the offset from the branch endpoint
    -lambda_1, ascending for S+ and descending (more negative) for S-."""
    if n < 1:
        raise ParameterError(f"need at least one lambda, got n = {n}")
    if not (math.isfinite(lam_lo) and math.isfinite(lam_hi)):
        raise ParameterError(
            f"lambda window ends must be finite, got {lam_lo}, {lam_hi}")
    lam1 = dirichlet_lambda1_exact(params.N)
    if sign > 0:
        if not (-lam1 < lam_lo < lam_hi):
            raise DomainError("focusing window must satisfy -lambda1 < lo < hi")
        s = np.geomspace(lam_lo + lam1, lam_hi + lam1, n)
        return s - lam1
    if not (lam_hi < lam_lo < -lam1):
        raise DomainError("defocusing window must satisfy hi < lo < -lambda1")
    s = np.geomspace(-(lam_lo + lam1), -(lam_hi + lam1), n)
    return -s - lam1


def trace(params: ProblemParams, lambda_grid, sign: int,
          config: ShootConfig | None = None) -> Branch:
    """Trace the branch over the given multiplier grid, one cold
    `_solve_normalized` per lam: each point is the same whatever was
    solved before it.

    Points are returned ordered by alpha (ascending), one per solvable
    lam; failed solves (an NlsBallError or an ArithmeticError) are
    collected as "Type: message" strings rather than raised, so a partial
    branch still comes back with its diagnostics.  Any other exception is
    a programming error and propagates.  A grid that is not finite, or
    not ordered away from the endpoint, raises ParameterError.
    """
    config = config or ShootConfig()
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    grid = make_grid(params, config.n_nodes, 1.0)
    lams = np.asarray(lambda_grid, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ParameterError("lambda grid must be finite")
    if sign > 0 and np.any(np.diff(lams) <= 0.0):
        raise ParameterError("focusing lambda grid must be strictly increasing")
    if sign < 0 and np.any(np.diff(lams) >= 0.0):
        raise ParameterError("defocusing lambda grid must be strictly decreasing")
    points = []
    failures = []
    for lam in map(float, lams):
        try:
            points.append(_solve_normalized(params, lam, sign, grid))
        except (NlsBallError, ArithmeticError) as exc:
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
    points.sort(key=lambda pt: pt.alpha)
    return Branch(sign=sign, params=params, points=tuple(points),
                  failures=tuple(failures))


@dataclass(frozen=True)
class _Tangent:
    """Derivatives in lam along the branch at one point."""

    u: RadialProfile  # d u / d lam, with boundary slope d u_r(1) / d lam
    alpha: float      # d alpha / d lam
    mu: float         # d mu / d lam
    M: float          # d M_alpha / d lam


def _tangent(point: BranchPoint) -> _Tangent:
    """The branch's derivatives in lam at `point`, from one tridiagonal
    solve.

    U = |mu|^{1/(p-1)} u solves A U + lam U = sign U^p, and differentiating
    in lam gives (A + lam - sign p U^{p-1}) W = -U for W = U_lam.  With
    w = W / |mu|^{1/(p-1)} and m = int U^2 = |mu|^{2/(p-1)}, m_lam / m =
    2 int u w, u_lam = w - (int u w) u, mu_lam = mu (p-1)/2 m_lam/m,
    alpha_lam = 2 int u' w' - alpha m_lam/m, M_lam = (p+1) int u^p u_lam
    and u_r(1)_lam = w_r(1) - (int u w) u_r(1), with u' and w' from the
    nodal derivative `grad_norm_sq` uses and w_r(1) from the operator's
    `boundary_slope`.  So int u u_lam = 0 and int u' u_lam' = alpha_lam / 2
    hold to roundoff.  S- profiles solve A's equation and the tangent is
    exact to roundoff; S+ profiles come from RK4 shooting, and the tangent
    carries the O(h^2 lam) gap between the two discretizations.  Where an
    S+ profile ends in a grafted tail (u below the noise floor before
    r = 1, e.g. N=3 at lam >= 500), the finite-volume slope w_r(1) is
    roundoff, about 5e-7 at n=2049, and so is u_r(1)_lam; the product
    u_r(1) u_r(1)_lam that the boundary-flux identity reads stays below
    1e-13 there.
    """
    p = point.params.p
    u = point.profile
    grid = u.grid
    op = grid.operator
    y = u.values[: len(op.diag)]
    w = _dirichlet_profile(
        grid, op.solve(_linearized_shift(point.lam, point.mu, p, y), -y))
    uw = grid.integrate(u.values * w.values)
    mass_rate = 2.0 * uw
    grad_pairing = grid.integrate(u.derivative_values()
                                  * w.derivative_values())
    u_lam = RadialProfile(grid, w.values - uw * u.values,
                          w.boundary_derivative - uw * u.boundary_derivative)
    return _Tangent(
        u=u_lam,
        alpha=2.0 * grad_pairing - point.alpha * mass_rate,
        mu=0.5 * (p - 1.0) * point.mu * mass_rate,
        M=(p + 1.0) * grid.integrate(np.abs(u.values) ** p * u_lam.values),
    )


def _checked_slope(last, here):
    """The slope at `here` from two solves given as (x, y, tangent slope):
    the tangent's, or the secant's where the mean of the two tangents
    misses the secant by more than 1%.  On S+ the tangent carries the
    O(h^2 lam) gap between the shooting profile and the finite-volume
    operator; on coarse grids at large lam it reaches tens of percent,
    and Newton on it would converge only linearly, at that rate."""
    secant = (here[1] - last[1]) / (here[0] - last[0])
    mean = 0.5 * (here[2] + last[2])
    return here[2] if abs(mean - secant) <= 0.01 * abs(secant) else secant


def _point_where(params, sign, grid, level, target, base, start):
    """The branch point whose `level`, "alpha" or "mu" (fields of both
    `BranchPoint` and `_Tangent`), is `target`.

    Along both curves level - base is close to a power of the endpoint
    offset s = |lam + lambda_1|.  So the search takes Newton steps on
    log(level - base) against x = log s, with the slope from each point's
    `_tangent` (checked by `_checked_slope`).  `start` is either two
    solved points on either side of the target, which bracket the search
    without being solved again, and it starts at the log-log secant root
    between them; or the lam to solve first, for a level that grows with
    s.  From that lam it marches: while the target is unbracketed a step
    moves s toward it by at most a factor 4, and by that factor where
    Newton gives no step its way; s stays above the floor
    1e-8 max(lambda_1, 1) and |lam| below 1e8, and a start outside that
    range is moved to its edge.  Once bracketed, a step that leaves the
    bracket is replaced by its geometric midpoint.
    The search stops at the first solve whose level is the target to
    within its resolution, sqrt(n) eps |target|, the roundoff of an
    n-node quadrature sum (closer solves only move the level by
    roundoff), or where a step would move lam by at most 1e-13 (1 + |lam|).
    """
    lam1 = dirichlet_lambda1_exact(params.N)
    resolution = math.sqrt(grid.n_nodes) * np.finfo(float).eps \
        * abs(target)
    goal = math.log(target - base)
    x_floor = math.log(1e-8 * max(lam1, 1.0))
    widen = math.log(4.0)

    def lam_at(x):
        return -lam1 + sign * math.exp(x)

    below = above = None  # the nearest x on either side of the target
    if isinstance(start, tuple):
        (x0, y0), (x1, y1) = [
            (math.log(sign * (pt.lam + lam1)),
             math.log(getattr(pt, level) - base)) for pt in start]
        below, above = (x0, x1) if y0 < goal else (x1, x0)
        x = x0 + (goal - y0) * (x1 - x0) / (y1 - y0)
        lam = lam_at(x)
    else:
        lam = max(-1e8, min(float(start), 1e8))
        if sign * (lam + lam1) > math.exp(x_floor):
            x = math.log(sign * (lam + lam1))
        else:
            x = x_floor
            lam = lam_at(x)
    last = None  # (x, log(level - base), its slope) of the last solve
    for _ in range(MAX_REFINEMENT_STEPS):
        point = _solve_normalized(params, lam, sign, grid)
        value = getattr(point, level)
        miss = value - target
        if abs(miss) <= resolution:
            return point
        if miss < 0.0:
            below = x
        else:
            above = x
        gap = value - base
        step = math.nan
        if gap > 0.0:
            here = (x, math.log(gap), sign * math.exp(x)
                    * getattr(_tangent(point), level) / gap)
            slope = here[2] if last is None else _checked_slope(last, here)
            if slope != 0.0:
                step = (goal - here[1]) / slope
            last = here
        if below is None or above is None:
            toward = widen if miss < 0.0 else -widen
            ratio = step / toward
            x_new = x + toward * (min(ratio, 1.0) if ratio > 0.0 else 1.0)
            if miss < 0.0 and abs(lam_at(x_new)) > 1e8:
                raise DomainError(
                    f"{level} target not reached for |lam| <= 1e8")
            if miss > 0.0:
                if x == x_floor:
                    raise DomainError(
                        f"{level} target {target} not bracketed at the "
                        f"endpoint offset floor {math.exp(x_floor):.3g}")
                x_new = max(x_new, x_floor)
        else:
            x_new = x + step
            if not min(below, above) < x_new < max(below, above):
                x_new = 0.5 * (below + above)
        lam_new = lam_at(x_new)
        if abs(lam_new - lam) <= 1e-13 * (1.0 + abs(lam)):
            return point
        x, lam = x_new, lam_new
    raise SolverError(f"{level} search did not converge",
                      steps=MAX_REFINEMENT_STEPS, level=level, target=target)


def point_at_alpha(params: ProblemParams, alpha_target: float, sign: int,
                   config: ShootConfig | None = None) -> BranchPoint:
    """Solve for the branch point with a prescribed alpha.

    On both curves alpha increases with the offset s = |lam + lambda_1|
    from the endpoint (with lam on S+, as lam decreases on S-), so
    `_point_where` marches to the target on log(alpha - lambda_1) against
    log s.  It starts at the lam of the endpoint expansion on the
    shooting grid (`solve_psi`, `ap_predict`), which near the endpoint
    leaves about 3 solves.  Every lam is solved cold
    (`_solve_normalized`), so the point is the one `trace` gives at its
    lam.
    """
    config = config or ShootConfig()
    grid = make_grid(params, config.n_nodes, 1.0)
    lam1 = dirichlet_lambda1_exact(params.N)
    if not lam1 < alpha_target < math.inf:
        raise DomainError(
            f"alpha must be finite and exceed lambda_1 = {lam1:.6f}, "
            f"got {alpha_target}")
    expansion = solve_psi(params, principal_eigenpair(params, grid))
    _, start, _ = ap_predict(expansion, alpha_target - lam1, sign)
    return _point_where(params, sign, grid, "alpha", alpha_target, lam1,
                        start)


def find_mu_star(branch: Branch):
    """Locate the interior maximum of mu(alpha) on a supercritical S+.

    Returns (mu_star, alpha_star, rho_star) with rho* = (mu*)^{2/(p-1)}
    for the largest mu solved.  Illinois regula falsi on mu_lam (from
    `_tangent`) runs between the neighbours of the traced maximum until
    the bracket spans at most 1e-4 alpha; one more solve lands on the
    vertex of the parabola through the bracket's two mu values with the
    tangents' curvature.  About 7 cold solves.
    """
    if branch.sign < 0:
        raise DomainError("mu has no interior maximum on the defocusing curve")
    if branch.params.regime is not Regime.SUPERCRITICAL:
        raise DomainError(
            "mu is strictly increasing for p <= 1 + 4/N; no interior maximum"
        )
    mus = branch.mus
    if len(mus) < 3:
        raise DomainError("branch too short to bracket a maximum")
    j = int(np.argmax(mus))
    if j == 0 or j == len(mus) - 1:
        raise DomainError(
            "maximum of mu not bracketed; sweep a wider lambda window"
        )
    params = branch.params
    lo, best, hi = branch.points[j - 1:j + 2]
    grid = best.profile.grid
    # each end's mu_lam, and the value Illinois gives it (halved while kept)
    d_lo, d_hi = _tangent(lo).mu, _tangent(hi).mu
    g_lo, g_hi = d_lo, d_hi
    if not g_lo > 0.0 > g_hi:
        raise SolverError("mu_lam keeps its sign around the traced maximum",
                          lam_lo=lo.lam, lam_hi=hi.lam, mu_lam_lo=g_lo,
                          mu_lam_hi=g_hi)
    moved = 0  # the end the last step replaced: -1 lo, +1 hi
    for _ in range(MAX_REFINEMENT_STEPS):
        if hi.alpha - lo.alpha <= 1e-4 * best.alpha:
            break
        point = _solve_normalized(
            params, (lo.lam * g_hi - hi.lam * g_lo) / (g_hi - g_lo), +1, grid)
        g = _tangent(point).mu
        best = max(best, point, key=lambda q: q.mu)
        # Illinois: an end kept twice in a row has its value halved
        if g > 0.0:
            lo, d_lo, g_lo = point, g, g
            if moved < 0:
                g_hi *= 0.5
            moved = -1
        else:
            hi, d_hi, g_hi = point, g, g
            if moved > 0:
                g_lo *= 0.5
            moved = +1
    else:
        raise SolverError("mu* search did not converge",
                          steps=MAX_REFINEMENT_STEPS)
    # mu_lam's root lies O(h^2 lam) off the maximum of the shooting branch
    # (see `_tangent`); the vertex of the parabola through the bracket's
    # two mu values, curved like the tangents, does not
    curvature = (d_hi - d_lo) / (hi.lam - lo.lam)
    secant = (hi.mu - lo.mu) / (hi.lam - lo.lam)
    vertex = _solve_normalized(
        params, 0.5 * (lo.lam + hi.lam) - secant / curvature, +1, grid)
    best = max(best, vertex, key=lambda q: q.mu)
    rho_star = best.mu ** (2.0 / (params.p - 1.0))
    return best.mu, best.alpha, rho_star


def solutions_at_mass(branch: Branch, rho: float) -> list[BranchPoint]:
    """All branch points with prescribed mass rho, i.e. mu = rho^{(p-1)/2}.

    Each crossing of the traced polyline is refined by `_point_where` on
    log mu against log(lam + lambda_1), bracketed by the two branch points
    on either side, in about 4 cold solves; those points are not solved
    again.  The count follows the regime: one in the subcritical
    range, one for admissible critical masses, zero or two or more
    supercritically.
    """
    if rho <= 0.0 or not math.isfinite(rho):
        raise ParameterError(f"mass must be positive, got {rho}")
    if branch.sign < 0:
        raise ParameterError("prescribed-mass selection lives on the focusing curve")
    if not branch.points:
        raise ParameterError("cannot select by mass on an empty branch")
    params = branch.params
    mu_target = rho ** ((params.p - 1.0) / 2.0)
    mus = branch.mus
    points = branch.points
    grid = points[0].profile.grid
    out: list[BranchPoint] = []
    for i in range(len(mus) - 1):
        f0, f1 = mus[i] - mu_target, mus[i + 1] - mu_target
        if f0 == 0.0:
            out.append(points[i])
            continue
        if f0 * f1 < 0.0:
            out.append(_point_where(params, +1, grid, "mu", mu_target, 0.0,
                                    points[i:i + 2]))
    if mus[-1] == mu_target:
        out.append(points[-1])
    out.sort(key=lambda pt: pt.alpha)
    return out


def least_energy_at_mass(branch: Branch, rho: float) -> BranchPoint:
    """The minimal-energy point among the equal-mass candidates."""
    candidates = solutions_at_mass(branch, rho)
    if not candidates:
        raise NoSolutionError(f"no branch point carries mass rho = {rho}")
    return min(candidates, key=lambda pt: pt.energy)


def classify_stability(branch: Branch) -> Branch:
    """Tag points by the sign of mu'(alpha) (focusing branch only).

    mu' = mu_lam / alpha_lam comes from `Branch.derivative` at every
    point, endpoints included, and only that scalar is kept: neither
    branch caches the derivative profiles.  Each point's error bar is the
    discrepancy between its two forms of mu', tol = |mu' M - (lam' -
    (p-1)/2)| / M (the identity `verify` checks): stable where mu' > tol,
    unstable where mu' < -tol, boundary inside the band |mu'| <= tol.
    The sign criterion addresses S+ only, so defocusing branches come back
    tagged unknown.
    """
    if branch.sign < 0:
        return branch
    if not branch.points:
        raise ParameterError("cannot classify the stability of an empty branch")
    half_pm1 = 0.5 * (branch.params.p - 1.0)
    tags = []
    for i, pt in enumerate(branch.points):
        d = branch.derivative(i)
        tol = abs(d.mu_prime * pt.M_alpha
                  - (d.lambda_prime - half_pm1)) / pt.M_alpha
        if d.mu_prime > tol:
            tags.append(StabilityTag.STABLE)
        elif d.mu_prime < -tol:
            tags.append(StabilityTag.UNSTABLE)
        else:
            tags.append(StabilityTag.BOUNDARY)
    new_points = tuple(
        replace(pt, stability=tag) for pt, tag in zip(branch.points, tags)
    )
    return replace(branch, points=new_points)

