"""Identity and spectral verification along the solution curves.

Every exact solution ties its scalars together: the radial Pohozaev
identity fixes lambda in terms of alpha and the boundary flux, the
differentiated constraints pair u with v = du/dalpha, and the boundary
form links mu' to u_r(1) v_r(1).  The derivatives come from the branch
tangent at each point (`Branch.derivative`), so the residuals measure the
discretization error alone; int u v = 0 and int grad u . grad v = 1/2
hold by the tangent's construction and read roundoff.
`derivative_identities` reports every residual from one pass over the
points; the boundary-flux form is computed there alone and read as
`IdentityReport.boundary_flux_res`.  The inertia of the linearized
operator's radial spectrum supplies the Morse index per spherical-harmonic
sector, and the two eigenvalues that border zero supply the nondegeneracy
gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch import Branch, BranchDerivative, BranchPoint
from .core import _flapack
from .errors import ParameterError, SolverError
from .evolve import discrete_standing_wave
from .shoot import _linearized_shift


@dataclass(frozen=True)
class IdentityReport:
    """Per-point identity residuals along a branch, every array aligned
    with `alphas`."""

    alphas: np.ndarray
    pohozaev_res: np.ndarray
    multiplier_res: np.ndarray
    orthogonality_res: np.ndarray       # |int u v|
    grad_pairing_res: np.ndarray        # |int grad u . grad v - 1/2|
    nonlinear_pairing_res: np.ndarray   # |mu int u^p v - 1/2|
    mu_prime_identity_res: np.ndarray   # |mu' M - lambda' + (p-1)/2| (rel)
    M_prime_res: np.ndarray             # |M' - (p+1)/(2 mu)| (rel)
    boundary_flux_res: np.ndarray       # `_flux_residual`
    lambda_primes: np.ndarray
    mu_primes: np.ndarray


@dataclass(frozen=True)
class SpectrumReport:
    """Inertia of the linearized operator per harmonic sector.  Each
    sector's `eigenvalues` are its negative eigenvalues and its lowest
    nonnegative one, ascending (no nonnegative one if all are negative)."""

    l_values: tuple[int, ...]
    eigenvalues: tuple[np.ndarray, ...]
    negative_counts: tuple[int, ...]
    min_abs_eigenvalue: float
    total_negative: int


def pohozaev_residual(point: BranchPoint) -> float:
    """Residual of the radial boundary identity
    lambda = (2/N)((p+1)/(p-1)) alpha - alpha - (omega/N)((p+1)/(p-1)) u_r(1)^2,
    scaled by max(1, |lambda|)."""
    params = point.params
    N, p = params.N, params.p
    frac = (p + 1.0) / (p - 1.0)
    target = (2.0 / N) * frac * point.alpha - point.alpha \
        - (params.omega / N) * frac * point.ur1**2
    return abs(point.lam - target) / max(1.0, abs(point.lam))


def multiplier_residual(point: BranchPoint) -> float:
    """Residual of alpha + lambda = mu int u^{p+1}, relative."""
    lhs = point.alpha + point.lam
    rhs = point.mu * point.M_alpha
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _flux_residual(pt: BranchPoint, d: BranchDerivative) -> float:
    """Residual of the boundary-flux form of mu',
    mu' M = (p+1)/(2(p-1)) [ (-p+1+4/N) - (4 omega/N) u_r(1) v_r(1) ],
    at one point, normalized by the larger side and at least 1, as the
    other mu' identity is: mu' changes sign on supercritical branches and
    is small throughout at p = 1 + 4/N, where a relative residual would
    measure the grid error against zero."""
    params = pt.params
    N, p = params.N, params.p
    lhs = d.mu_prime * pt.M_alpha
    bracket = (-p + 1.0 + 4.0 / N) \
        - (4.0 * params.omega / N) * pt.ur1 * d.vr1
    rhs = (p + 1.0) / (2.0 * (p - 1.0)) * bracket
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def derivative_identities(branch: Branch) -> IdentityReport:
    """All identity residuals along a branch, from one pass over the
    points: each `Branch.derivative` is taken once and dropped before the
    next, so only one derivative profile is alive at a time."""
    n = len(branch.points)
    if n == 0:
        raise ParameterError("the identity suite needs a nonempty branch")
    p = branch.params.p
    orth = np.empty(n)
    gradp = np.empty(n)
    nlp = np.empty(n)
    mup = np.empty(n)
    Mp = np.empty(n)
    lam_primes = np.empty(n)
    mu_primes = np.empty(n)
    flux = np.empty(n)
    for k, pt in enumerate(branch.points):
        d = branch.derivative(k)
        grid = pt.profile.grid
        u = pt.profile.values
        v = d.v.values
        orth[k] = abs(grid.integrate(u * v))
        du = pt.profile.derivative_values()
        dv = d.v.derivative_values()
        gradp[k] = abs(grid.integrate(du * dv) - 0.5)
        nlp[k] = abs(pt.mu * grid.integrate(np.abs(u) ** p * v) - 0.5)
        lhs = d.mu_prime * pt.M_alpha
        rhs = d.lambda_prime - (p - 1.0) / 2.0
        mup[k] = abs(lhs - rhs) / max(1.0, abs(rhs))
        target = (p + 1.0) / (2.0 * pt.mu)
        Mp[k] = abs(d.M_prime - target) / abs(target)
        lam_primes[k] = d.lambda_prime
        mu_primes[k] = d.mu_prime
        flux[k] = _flux_residual(pt, d)
    return IdentityReport(
        alphas=branch.alphas,
        pohozaev_res=np.array([pohozaev_residual(pt) for pt in branch.points]),
        multiplier_res=np.array([multiplier_residual(pt) for pt in branch.points]),
        orthogonality_res=orth,
        grad_pairing_res=gradp,
        nonlinear_pairing_res=nlp,
        mu_prime_identity_res=mup,
        M_prime_res=Mp,
        boundary_flux_res=flux,
        lambda_primes=lam_primes,
        mu_primes=mu_primes,
    )


def linearized_spectrum(point: BranchPoint, l_max: int = 3) -> SpectrumReport:
    """Negative counts and the eigenvalues bordering zero of the
    linearized operator per harmonic sector.

    L_l = -d_rr - (N-1)/r d_r + l(l+N-2)/r^2 + lambda - p mu u^{p-1},
    Dirichlet at r = 1 and regularity at 0 (even symmetry for l = 0, a
    Dirichlet center condition for l >= 1, matching the r^l behavior).
    On S+, mu u^{p-1} is U^{p-1} of the discrete standing wave U
    (`evolve.discrete_standing_wave`, one Newton polish per call).
    Each sector's negative count is its exact inertia, however many
    eigenvalues are negative; the min |eigenvalue| is the nearer of the
    largest negative and the lowest nonnegative eigenvalue.  Both come from
    bisection (LAPACK `?stebz`) and no other eigenvalue is computed.

    For N = 1 the sphere S^0 has only the even (l = 0) and odd (l = 1)
    sectors, so l is capped at 1 whatever `l_max` asks for.
    """
    if l_max < 1:
        raise ParameterError("l_max must be >= 1")
    ells, eigs, counts, gaps = zip(*(
        (ell, *_bordering_eigenvalues(d, e))
        for ell, d, e in _sector_matrices(point, l_max)))
    return SpectrumReport(
        l_values=ells,
        eigenvalues=eigs,
        negative_counts=counts,
        min_abs_eigenvalue=min(gaps),
        total_negative=sum(counts),
    )


def _sector_matrices(point: BranchPoint, l_max: int):
    """(l, diagonal, off-diagonal) of each sector's operator up to l_max
    (at most l = 1 for N = 1), symmetrized by the cell volumes; l >= 1
    drops the center node.

    The operator is linearized at a state of its own discretization: on
    S+ (mu > 0) the discrete standing wave U, with potential
    lambda - p U^{p-1}; the shooting profile misses it by O(h^2 lambda),
    which at N = 3, p = 3, lambda = 3500, n = 2049 turned the l = 1
    translation eigenvalue from +66.5 to -0.33.  S- points are
    linearized at their profile, which is already one."""
    params = point.params
    N, p = params.N, params.p
    grid = point.profile.grid
    op = grid.operator
    diag, lower, vol = op.diag, op.lower, op.vol
    m = len(diag)
    if point.mu > 0.0:
        U = discrete_standing_wave(point).values[:m]
        potential = _linearized_shift(point.lam, 1.0, p, U)
    else:
        u = point.profile.values[:m]
        potential = _linearized_shift(point.lam, point.mu, p, u)
    r = grid.nodes[:m]
    for ell in range((min(l_max, 1) if N == 1 else l_max) + 1):
        if ell == 0:
            yield ell, diag + potential, lower * np.sqrt(vol[1:] / vol[:-1])
        else:
            cent = ell * (ell + N - 2.0) / r[1:] ** 2
            yield (ell, diag[1:] + potential[1:] + cent,
                   lower[1:] * np.sqrt(vol[2:] / vol[1:-1]))


def _bordering_eigenvalues(d: np.ndarray, e: np.ndarray):
    """The negative eigenvalues and the lowest nonnegative one of the
    symmetric tridiagonal (d, e), ascending, with the negative count and
    min |eigenvalue|.

    One bisection by value over (Gershgorin lower bound, 0] finds the
    negative eigenvalues, skipped when that bound is >= 0 (LAPACK rejects
    an empty interval); one by index finds the next eigenvalue, absent
    when all are negative.
    """
    off = np.abs(e)
    low = float(np.min(d - np.append(off, 0.0) - np.append(0.0, off)))
    if not np.isfinite(low):
        raise SolverError("linearized sector is not finite", size=len(d))
    ew = np.empty(0)
    if low < 0.0:
        # (vl, vu] is half open, so vl = 2 low keeps the bound inside
        w = _stebz(d, e, 1, 2.0 * low, 0.0, 0)
        ew = w[w < 0.0]
    neg = len(ew)
    if neg < len(d):
        ew = np.append(ew, _stebz(d, e, 2, 0.0, 0.0, neg + 1))
    return ew, neg, float(np.min(np.abs(ew)))


def _stebz(d, e, select, vl, vu, k):
    """Eigenvalues of (d, e) by LAPACK bisection, ascending: those in
    (vl, vu] for select = 1, the k-th lowest (1-based) for select = 2."""
    m, w, _, _, info = _flapack.dstebz(d, e, select, vl, vu, k, k, 0.0, "E")
    if info != 0:
        raise SolverError("tridiagonal bisection failed", info=info,
                          size=len(d))
    return w[:m]
