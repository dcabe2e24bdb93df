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
from scipy.optimize import brentq

from .core import (
    ProblemParams,
    RadialProfile,
    Regime,
    dirichlet_lambda1_exact,
    grad_norm_sq,
    make_grid,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    NlsBallError,
    NoSolutionError,
    ParameterError,
    SolverError,
)
from .shoot import ShootConfig, _solve_ball_defocusing, _solve_ball_focusing


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
    """Ordered solution points plus difference-quotient derivative data."""

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
        """Derivatives in alpha at interior index i: nonuniform centered
        differences along lam, the parameter the points were solved at,
        divided by dalpha/dlam.  Near the endpoint u - phi_1 grows like
        sqrt(alpha - lambda_1), which differences in alpha resolve poorly."""
        if not (1 <= i <= len(self.points) - 2):
            raise ParameterError(f"index {i} has no two neighbors")
        lo, mid, hi = self.points[i - 1], self.points[i], self.points[i + 1]
        hm = mid.lam - lo.lam
        hp = hi.lam - mid.lam

        def diff_lam(fm, f0, fp):
            return (hm * hm * fp - hp * hp * fm + (hp * hp - hm * hm) * f0) / (
                hm * hp * (hm + hp)
            )

        alpha_lam = _alpha_step(diff_lam(lo.alpha, mid.alpha, hi.alpha),
                                i, mid)

        def diff(fm, f0, fp):
            return diff_lam(fm, f0, fp) / alpha_lam

        vals = diff(lo.profile.values, mid.profile.values, hi.profile.values)
        vr1 = diff(lo.ur1, mid.ur1, hi.ur1)
        v = RadialProfile(mid.profile.grid, vals, float(vr1))
        return BranchDerivative(
            v=v,
            mu_prime=float(diff(lo.mu, mid.mu, hi.mu)),
            lambda_prime=float(1.0 / alpha_lam),
            M_prime=float(diff(lo.M_alpha, mid.M_alpha, hi.M_alpha)),
            vr1=float(vr1),
        )

    @cached_property
    def derivative_estimates(self) -> tuple[BranchDerivative, ...]:
        return tuple(self.derivative(i) for i in range(1, len(self.points) - 1))


def _alpha_step(value: float, i: int, point: BranchPoint) -> float:
    """`value`, a change of alpha that a derivative in alpha divides by;
    SolverError if it is 0 or not finite (alpha stalls at point i)."""
    if value == 0.0 or not math.isfinite(value):
        raise SolverError("alpha does not change between neighboring points",
                          i=i, lam=point.lam, alpha=point.alpha)
    return value


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


def _solve_normalized(params, lam, sign, grid, seed=None):
    """One continuation step: solve at lam, normalize; returns (point, seed)."""
    if sign > 0:
        profile, a = _solve_ball_focusing(params, lam, grid, seed=seed)
        return normalize(profile, lam, +1, params), a
    profile = _solve_ball_defocusing(params, lam, grid, seed_values=seed)
    return normalize(profile, lam, -1, params), profile.values


def _predicted_center(s, solved):
    """The focusing center value at the endpoint offset s = lam + lambda_1
    from up to two solved (s, a): the log-log secant through two, the one
    a itself, None without any or off the curve (s <= 0).  Near the
    endpoint a^{p-1} grows like s, far from it like lam, so log a is close
    to linear in log s."""
    if not solved or s <= 0.0:
        return None
    if len(solved) == 1:
        return solved[0][1]
    (s0, a0), (s1, a1) = solved
    return a1 * (s / s1) ** (math.log(a1 / a0) / math.log(s1 / s0))


def geometric_lambda_grid(params: ProblemParams, lam_lo: float, lam_hi: float,
                          n: int, sign: int = +1) -> np.ndarray:
    """Multiplier grid geometric in the offset from the branch endpoint
    -lambda_1, ascending for S+ and descending (more negative) for S-."""
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
    """Trace the branch over the given multiplier grid with warm starts:
    a focusing solve starts from the center value `_predicted_center`
    gives through the last two solved points, a defocusing one from the
    last solved profile.

    Points are returned ordered by alpha (ascending), one per solvable
    lam; failed solves (an NlsBallError or an ArithmeticError) are
    collected as "Type: message" strings rather than raised, so a partial
    branch still comes back with its diagnostics.  Any other exception is
    a programming error and propagates.
    """
    config = config or ShootConfig()
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    grid = make_grid(params, config.n_nodes, 1.0)
    lams = np.asarray(lambda_grid, dtype=float)
    if sign > 0 and np.any(np.diff(lams) <= 0.0):
        raise ParameterError("focusing lambda grid must be strictly increasing")
    if sign < 0 and np.any(np.diff(lams) >= 0.0):
        raise ParameterError("defocusing lambda grid must be strictly decreasing")
    lam1 = dirichlet_lambda1_exact(params.N)
    points = []
    failures = []
    centers = []  # (lam + lambda_1, a) of the solved focusing points
    seed = None
    for lam in lams:
        if sign > 0:
            seed = _predicted_center(lam + lam1, centers[-2:])
        try:
            point, solved = _solve_normalized(params, lam, sign, grid, seed)
        except (NlsBallError, ArithmeticError) as exc:
            failures.append((float(lam), f"{type(exc).__name__}: {exc}"))
            continue
        points.append(point)
        if sign > 0:
            centers.append((lam + lam1, solved))
        else:
            seed = solved
    points.sort(key=lambda pt: pt.alpha)
    return Branch(sign=sign, params=params, points=tuple(points),
                  failures=tuple(failures))


def _resolver(params, sign, grid, known=()):
    """Memoized solver lam -> BranchPoint for the refinements.

    Each lam is solved at most once; the `known` points count as solved.
    A focusing solve starts from the center value predicted by
    `_predicted_center` through the two solved lam nearest the target,
    where a = u(0) mu^{1/(p-1)}.  Defocusing solves stay cold: a warm
    Newton stops at a different point inside its tolerance, and that
    noise costs a root finder more iterations than the warm start saves.
    """
    solved = {pt.lam: pt for pt in known}
    lam1 = dirichlet_lambda1_exact(params.N)

    def center(pt):
        return pt.lam + lam1, pt.profile.values[0] * pt.mu ** (
            1.0 / (params.p - 1.0))

    def solve(lam):
        lam = float(lam)
        if lam not in solved:
            seed = None
            if sign > 0:
                near = sorted(solved, key=lambda x: abs(x - lam))[:2]
                seed = _predicted_center(
                    lam + lam1, [center(solved[x]) for x in near])
            solved[lam], _ = _solve_normalized(params, lam, sign, grid, seed)
        return solved[lam]

    return solve


class _AlphaResolved(Exception):
    """Stops `point_at_alpha`'s root finding at the lam it carries, whose
    alpha meets the target to within alpha's resolution."""


def point_at_alpha(params: ProblemParams, alpha_target: float, sign: int,
                   config: ShootConfig | None = None) -> BranchPoint:
    """Solve for the branch point with a prescribed alpha.

    On both curves alpha increases with the offset s = |lam + lambda_1|
    from the endpoint: with lam on S+, and as lam decreases on S-.  The
    bracket search starts at s = max(lambda_1, 1), multiplies s by 4
    while alpha is below the target and otherwise divides it by 4, down
    to the floor 1e-8 max(lambda_1, 1); Brent root finding in lam then
    finishes.  Both stop at the first lam whose alpha is the target to
    within alpha's resolution, sqrt(n) eps alpha, the roundoff of its
    n-node quadrature sum: closer solves only move alpha by roundoff.
    Every lam is solved once; focusing solves start from a predicted
    center value, defocusing ones stay cold (see `_resolver`).
    """
    config = config or ShootConfig()
    grid = make_grid(params, config.n_nodes, 1.0)
    lam1 = dirichlet_lambda1_exact(params.N)
    if alpha_target <= lam1:
        raise DomainError(f"alpha must exceed lambda_1 = {lam1:.6f}")
    solve = _resolver(params, sign, grid)
    resolution = math.sqrt(config.n_nodes) * np.finfo(float).eps \
        * alpha_target

    def alpha_of(lam):
        miss = solve(lam).alpha - alpha_target
        if abs(miss) <= resolution:
            raise _AlphaResolved(lam)
        return miss

    def lam_at(s):
        return -lam1 + sign * s

    s = unit = max(lam1, 1.0)
    floor = 1e-8 * unit
    try:
        below = alpha_of(lam_at(s)) < 0.0
        while True:
            s_prev, s = s, 4.0 * s if below else max(0.25 * s, floor)
            if abs(lam_at(s)) > 1e8:
                raise DomainError("alpha target not reached for |lam| <= 1e8")
            if (alpha_of(lam_at(s)) < 0.0) != below:
                break
            if s == floor:
                raise DomainError(
                    f"alpha target {alpha_target} not bracketed at the "
                    f"endpoint offset floor {floor:.3g}")
        lo, hi = sorted((lam_at(s_prev), lam_at(s)))
        lam_star = brentq(alpha_of, lo, hi, xtol=1e-13, rtol=1e-13)
    except _AlphaResolved as hit:
        lam_star, = hit.args
    return solve(lam_star)


def find_mu_star(branch: Branch):
    """Locate the interior maximum of mu(alpha) on a supercritical S+.

    Returns (mu_star, alpha_star, rho_star) with rho* = (mu*)^{2/(p-1)},
    refined by golden-section search in lam with warm-started solves.
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
    lo_pt, pt_j, hi_pt = branch.points[j - 1:j + 2]
    solve = _resolver(params, +1, pt_j.profile.grid,
                      known=(lo_pt, pt_j, hi_pt))
    lo, hi = lo_pt.lam, hi_pt.lam
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    p1, p2 = solve(x1), solve(x2)
    best = max([pt_j, p1, p2], key=lambda q: q.mu)
    for _ in range(80):
        if abs(hi_pt.alpha - lo_pt.alpha) <= 1e-4 * best.alpha:
            break
        if p1.mu >= p2.mu:
            hi, hi_pt = x2, p2
            x2, p2 = x1, p1
            x1 = hi - invphi * (hi - lo)
            p1 = solve(x1)
        else:
            lo, lo_pt = x1, p1
            x1, p1 = x2, p2
            x2 = lo + invphi * (hi - lo)
            p2 = solve(x2)
        best = max([best, p1, p2], key=lambda q: q.mu)
    rho_star = best.mu ** (2.0 / (params.p - 1.0))
    return best.mu, best.alpha, rho_star


def solutions_at_mass(branch: Branch, rho: float) -> list[BranchPoint]:
    """All branch points with prescribed mass rho, i.e. mu = rho^{(p-1)/2}.

    Crossings of the traced polyline are refined by Brent root finding in
    lam between the two branch points that bracket them; those points are
    not solved again, and new solves start warm from the nearest solved
    lam.  The count follows the regime: one in the subcritical range, one
    for admissible critical masses, zero or two or more supercritically.
    """
    if rho <= 0.0 or not math.isfinite(rho):
        raise ParameterError(f"mass must be positive, got {rho}")
    if branch.sign < 0:
        raise ParameterError("prescribed-mass selection lives on the focusing curve")
    params = branch.params
    mu_target = rho ** ((params.p - 1.0) / 2.0)
    mus = branch.mus
    lams = branch.lambdas
    solve = _resolver(params, +1, branch.points[0].profile.grid,
                      known=branch.points)

    def g(lam):
        return solve(lam).mu - mu_target

    out: list[BranchPoint] = []
    for i in range(len(mus) - 1):
        f0, f1 = mus[i] - mu_target, mus[i + 1] - mu_target
        if f0 == 0.0:
            out.append(branch.points[i])
            continue
        if f0 * f1 < 0.0:
            lam_star = brentq(g, lams[i], lams[i + 1], xtol=1e-12, rtol=1e-13)
            out.append(solve(lam_star))
    if len(mus) >= 1 and mus[-1] == mu_target:
        out.append(branch.points[-1])
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

    stable where mu' > tol, unstable where mu' < -tol, boundary inside the
    band |mu'| <= tol with tol = 1e-3 max|mu'|; endpoints inherit the
    one-sided difference.  The sign criterion addresses S+ only, so
    defocusing branches come back tagged unknown.
    """
    if branch.sign < 0:
        return branch
    n = len(branch.points)
    if n < 3:
        raise ParameterError("need at least 3 points to classify stability")
    mu_primes = np.empty(n)
    for i in range(1, n - 1):
        mu_primes[i] = branch.derivative(i).mu_prime
    mus, alphas, points = branch.mus, branch.alphas, branch.points
    mu_primes[0] = (mus[1] - mus[0]) / _alpha_step(
        alphas[1] - alphas[0], 0, points[0])
    mu_primes[-1] = (mus[-1] - mus[-2]) / _alpha_step(
        alphas[-1] - alphas[-2], n - 1, points[-1])
    tol = 1e-3 * np.max(np.abs(mu_primes))
    tags = []
    for d in mu_primes:
        if d > tol:
            tags.append(StabilityTag.STABLE)
        elif d < -tol:
            tags.append(StabilityTag.UNSTABLE)
        else:
            tags.append(StabilityTag.BOUNDARY)
    new_points = tuple(
        replace(pt, stability=tag) for pt, tag in zip(branch.points, tags)
    )
    return replace(branch, points=new_points)


def action_value(point: BranchPoint, mu: float, lam: float) -> float:
    """J_{mu,lam}(u) = alpha/2 + lam/2 - mu M_alpha/(p+1) from stored scalars."""
    return point.alpha / 2.0 + lam / 2.0 - mu * point.M_alpha / (point.params.p + 1.0)
