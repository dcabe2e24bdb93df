"""Asymptotic predictors and branch-comparison diagnostics.

Near the branch endpoint the curve leaves (phi_1, 0, -lambda_1) along
+-(psi, 1, int phi_1^{p+1}) scaled by t = +-sqrt(eps / int phi_1^p psi),
where eps is the excess of alpha over lambda_1 and psi solves the
orthogonally-constrained linearized problem.  For large alpha the profile
blows up onto the whole-space ground state, fixing alpha/lambda and the
scaling limit of mu; the same ground state carries the sharp interpolation
constant.  The defocusing curve flattens onto the constant |B_1|^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (EigenPair, ProblemParams, RadialProfile, _dirichlet_profile,
                   _same_dimension, ball_volume)
from .errors import DomainError, ParameterError, SolverError
from .shoot import WholeSpaceGroundState, rescaled_profile

if TYPE_CHECKING:
    from .branch import BranchPoint


@dataclass(frozen=True)
class APExpansion:
    """First-order expansion data at the branch endpoint."""

    eig: EigenPair
    psi: RadialProfile
    c_ps: float  # int phi_1^p psi dx, the square of the expansion rate
    c_p1: float  # int phi_1^{p+1} dx, the lambda slope


@dataclass(frozen=True)
class GNResult:
    """Sharp interpolation constant and its exponent pair."""

    C_Np: float
    exponent_pair: tuple[float, float]


@dataclass(frozen=True)
class LargeAlphaDiagnostics:
    ratio_err: float      # relative error of alpha/lambda vs N(p-1)/(N+2-p(N-2))
    mu_limit_err: float   # relative error of mu^{2/(p-1)} lam^{N/2-2/(p-1)} vs mass(Z)
    profile_err: float    # sup-norm distance of the rescaled profile to Z


@dataclass(frozen=True)
class DefocusingDiagnostics:
    """Deviations from the flat-profile limit; the targets are order one,
    so the errors are reported as absolute differences."""

    lambda_over_mu_err: float  # |lam/mu - |B_1|^{-(p-1)/2}|
    alpha_over_lambda: float   # |alpha / lambda|, decays to 0
    plateau_err: float         # |u(0) - |B_1|^{-1/2}|


def solve_psi(params: ProblemParams, eig: EigenPair) -> APExpansion:
    """Solve the constrained linearized equation at the branch endpoint.

    -Delta psi - lambda_1 psi = phi_1^p - c phi_1 with int psi phi_1 = 0,
    as the bordered system (A - lambda_1) psi + c w = rhs, w . psi = 0
    with w = vol phi_1, solved by block elimination.  A - lambda_1 is
    singular up to the eigenvalue's error (phi_1 spans its kernel), but
    T = A - lambda_1 + g e_0 e_0^T with g = A_00 is regular because
    phi_1(0) != 0.  One tridiagonal solve with three right-hand sides
    gives z = T^{-1} (rhs, e_0, w), so psi = z_rhs + g psi_0 z_e0 - c z_w;
    the conditions that psi_0 is psi's own center value and w . psi = 0
    leave a 2x2 system for (psi_0, c).  One step of iterative refinement
    (one more tridiagonal solve) brings the residual down to the rounding
    floor of evaluating it (`RadialOperator.roundoff_floor`); the solve
    is refused when the residual exceeds 1e-8 max(1, max|rhs|) plus that
    floor.  `params` must be set in the eigenpair's dimension.
    """
    grid = eig.phi1.grid
    _same_dimension(params, grid.n_dim)
    op = grid.operator
    vol = op.vol
    m = len(vol)
    p = params.p
    phi = eig.phi1.values[:m]
    # solvability constant in the operator's own inner product
    c_solv = float((vol * phi**p) @ phi) / float((vol * phi) @ phi)
    rhs = phi**p - c_solv * phi
    w = vol * phi

    g = float(op.diag[0])
    shift = np.full(m, -eig.lambda1)
    shift[0] += g
    e0 = np.zeros(m)
    e0[0] = 1.0
    z_rhs, z_e0, z_w = op.solve(shift, np.column_stack([rhs, e0, w])).T
    small = np.array([[1.0 - g * z_e0[0], z_w[0]],
                      [g * float(w @ z_e0), -float(w @ z_w)]])

    def eliminate(z_f, s):
        # (psi, c) with (A - lambda_1) psi + c w = f and w . psi = s,
        # given z_f = T^{-1} f
        psi0, c = np.linalg.solve(small, [z_f[0], s - float(w @ z_f)])
        return z_f + (g * psi0) * z_e0 - c * z_w, c

    def residual(sol, c):
        return (rhs - op.apply(sol) + eig.lambda1 * sol - c * w,
                -float(w @ sol))

    sol, c = eliminate(z_rhs, 0.0)
    if not np.all(np.isfinite(sol)):
        raise SolverError("bordered endpoint system is numerically singular",
                          n_nodes=grid.n_nodes)
    res, res_w = residual(sol, c)
    d_sol, d_c = eliminate(op.solve(shift, res), res_w)
    sol, c = sol + d_sol, c + d_c
    res, res_w = residual(sol, c)
    err = max(float(np.max(np.abs(res))), abs(res_w))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if not err <= 1e-8 * scale + op.roundoff_floor(sol):
        raise SolverError("bordered endpoint solve lost accuracy",
                          residual=err)
    psi = _dirichlet_profile(grid, sol)
    c_ps = grid.integrate(eig.phi1.values**p * psi.values)
    # report the constant the discrete equation actually carries; it agrees
    # with int phi^{p+1} dx up to the discretization bias
    return APExpansion(eig=eig, psi=psi, c_ps=float(c_ps), c_p1=float(c_solv))


def ap_predict(exp: APExpansion, epsilon: float, sign: int):
    """Predicted (mu, lambda, u) at alpha = lambda_1 + epsilon.

    t = sign sqrt(eps/c_ps); mu = t, lambda = -lambda_1 + t c_p1, and
    u = phi_1 + t psi, all with o(sqrt(eps)) remainders.
    `branch.point_at_alpha` starts its search at this lambda.
    """
    if not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    t = sign * math.sqrt(epsilon / exp.c_ps)
    mu = t
    lam = -exp.eig.lambda1 + t * exp.c_p1
    grid = exp.psi.grid
    values = exp.eig.phi1.values + t * exp.psi.values
    bnd = exp.eig.phi1.boundary_derivative + t * exp.psi.boundary_derivative
    return mu, lam, RadialProfile(grid, values, float(bnd))


def large_alpha_diagnostics(point: BranchPoint,
                            Z: WholeSpaceGroundState) -> LargeAlphaDiagnostics:
    """Compare a focusing point against the blow-up limit laws of the
    ground state Z of the same dimension."""
    _same_dimension(point.params, Z.params.N)
    if point.mu <= 0.0:
        raise DomainError("large-alpha laws address the focusing curve")
    if point.lam <= 0.0:
        raise DomainError("point not in the asymptotic regime (lambda <= 0)")
    params = point.params
    N, p = params.N, params.p
    target = N * (p - 1.0) / (N + 2.0 - p * (N - 2.0))
    ratio_err = abs(point.alpha / point.lam - target) / target
    mu_limit = point.mu ** (2.0 / (p - 1.0)) * point.lam ** (N / 2.0 - 2.0 / (p - 1.0))
    mu_limit_err = abs(mu_limit - Z.mass) / Z.mass
    v = rescaled_profile(point.profile, point.lam, point.mu, params)
    z_on_v = np.interp(v.grid.nodes, Z.profile.grid.nodes, Z.profile.values,
                       right=0.0)
    profile_err = float(np.max(np.abs(v.values - z_on_v)))
    return LargeAlphaDiagnostics(
        ratio_err=float(ratio_err),
        mu_limit_err=float(mu_limit_err),
        profile_err=profile_err,
    )


def gn_constant(Z: WholeSpaceGroundState) -> GNResult:
    """Sharp constant of ||u||_{p+1}^{p+1} <= C ||u||_2^a ||grad u||_2^b,
    evaluated at the whole-space ground state where it is attained."""
    p, N = Z.params.p, Z.params.N
    b = N * (p - 1.0) / 2.0
    a = p + 1.0 - b
    C = Z.lp1_norm / (Z.mass ** (a / 2.0) * Z.grad_energy ** (b / 2.0))
    return GNResult(C_Np=float(C), exponent_pair=(a, b))


def defocusing_diagnostics(point: BranchPoint) -> DefocusingDiagnostics:
    """Compare a deep defocusing point against the flat-profile limit."""
    if point.mu >= 0.0:
        raise ParameterError("diagnostics apply to the defocusing curve only")
    params = point.params
    vol = ball_volume(params.N)
    target_ratio = vol ** (-(params.p - 1.0) / 2.0)
    ratio = point.lam / point.mu
    plateau = vol ** (-0.5)
    u0 = float(point.profile.values[0])
    return DefocusingDiagnostics(
        lambda_over_mu_err=abs(ratio - target_ratio),
        alpha_over_lambda=abs(point.alpha / point.lam),
        plateau_err=abs(u0 - plateau),
    )
