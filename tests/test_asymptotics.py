"""Endpoint expansion, blow-up laws, sharp constants, defocusing limits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsball import (
    ProblemParams,
    ap_predict,
    defocusing_diagnostics,
    geometric_lambda_grid,
    gn_constant,
    grad_norm_sq,
    large_alpha_diagnostics,
    make_grid,
    normalize,
    point_at_alpha,
    principal_eigenpair,
    solve_ball_profile,
    solve_psi,
    trace,
)
from nlsball import core
from nlsball.errors import DomainError, ParameterError, SolverError

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)


@pytest.fixture(scope="module")
def expansion_13():
    grid = make_grid(P13, 16385, 1.0)
    eig = principal_eigenpair(P13, grid)
    return solve_psi(P13, eig)


class TestSolvePsi:
    def test_orthogonality(self, expansion_13):
        ap = expansion_13
        grid = ap.psi.grid
        assert abs(grid.integrate(ap.psi.values * ap.eig.phi1.values)) < 1e-8

    def test_c_p1_closed_form(self, expansion_13):
        # int_{B_1} cos^4(pi x/2) dx = 3/4 for the normalized eigenfunction
        assert expansion_13.c_p1 == pytest.approx(0.75, rel=1e-6)

    def test_rhs_orthogonality_by_construction(self, expansion_13):
        ap = expansion_13
        grid = ap.psi.grid
        phi = ap.eig.phi1.values
        val = grid.integrate((phi**3 - ap.c_p1 * phi) * phi)
        assert abs(val) < 1e-7

    def test_discrete_residual(self, expansion_13):
        ap = expansion_13
        grid = ap.psi.grid
        lap = grid.operator.apply(ap.psi.values)
        m = len(lap)
        phi = ap.eig.phi1.values[:m]
        res = lap - ap.eig.lambda1 * ap.psi.values[:m] - (phi**3 - ap.c_p1 * phi)
        assert np.max(np.abs(res)) < 1e-8

    def test_quadratic_form_identity(self, expansion_13):
        ap = expansion_13
        quad_form = grad_norm_sq(ap.psi) - ap.eig.lambda1 * ap.psi.l2_norm_sq()
        assert ap.c_ps > 0.0 and quad_form > 0.0
        assert abs(ap.c_ps / quad_form - 1.0) < 1e-5

    def test_closed_form_order(self):
        # N=1, p=3: phi_1 = cos(pi r/2) and phi^3 - (3/4) phi = cos(3 pi r/2)/4,
        # so psi = cos(3 pi r/2)/(8 pi^2), c_ps = 1/(32 pi^2) and
        # psi_r(1) = 3/(16 pi); every error falls x4 per halving up to
        # n = 4097 (the floor is near 3e-10 past n = 8193)
        errs = []
        for n in (1025, 2049, 4097):
            grid = make_grid(P13, n, 1.0)
            ap = solve_psi(P13, principal_eigenpair(P13, grid))
            exact = np.cos(1.5 * np.pi * grid.nodes) / (8.0 * np.pi**2)
            errs.append((np.max(np.abs(ap.psi.values - exact)),
                         abs(ap.c_ps - 1.0 / (32.0 * np.pi**2)),
                         abs(ap.psi.boundary_derivative - 3.0 / (16.0 * np.pi))))
        errs = np.array(errs)
        assert np.all(errs[0] < [3e-8, 7e-9, 1.3e-8])
        assert np.all(errs[:-1] / errs[1:] >= 3.5)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", [257, 258])
    def test_matches_dense_bordered_solve(self, N, n):
        # the elimination against LU on the dense (m+1)x(m+1) system
        # [[A - lambda_1, w], [w^T, 0]] (psi, c) = (rhs, 0), w = vol phi_1
        params = ProblemParams(N, 3.0)
        grid = make_grid(params, n, 1.0)
        eig = principal_eigenpair(params, grid)
        ap = solve_psi(params, eig)
        op = grid.operator
        m = len(op.diag)
        phi = eig.phi1.values[:m]
        w = op.vol * phi
        rhs = phi**3 - ap.c_p1 * phi
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = (np.diag(op.diag - eig.lambda1)
                            + np.diag(op.upper, 1) + np.diag(op.lower, -1))
        bordered[:m, m] = w
        bordered[m, :m] = w
        dense = np.linalg.solve(bordered, np.append(rhs, 0.0))
        psi = ap.psi.values[:m]
        assert ap.psi.values[m] == 0.0
        assert np.max(np.abs(psi - dense[:m])) <= 1e-11 * np.max(np.abs(psi))
        assert abs(w @ psi) <= 1e-15 * np.max(np.abs(psi))
        # the bordered residual with the dense multiplier, under the gate
        res = op.apply(psi) - eig.lambda1 * psi + dense[m] * w - rhs
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(res)) <= 1e-8 * scale

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("n", [16385, 32769])
    def test_fine_grid_within_gate(self, N, n):
        # at n = 16385 the elimination alone leaves bordered residuals of
        # 4e-8 (N=2) and 9e-8 (N=3); its refinement step brings them to
        # the rounding floor of evaluating A psi, 7e-9 to 1.5e-8, which
        # grows like 1/h^2 and which the gate adds to its 1e-8
        params = ProblemParams(N, 3.0)
        grid = make_grid(params, n, 1.0)
        ap = solve_psi(params, principal_eigenpair(params, grid))
        op = grid.operator
        m = len(op.vol)
        psi = ap.psi.values[:m]
        w = op.vol * ap.eig.phi1.values[:m]
        assert abs(w @ psi) <= 1e-15 * np.max(np.abs(psi))
        assert ap.c_ps > 0.0

    @pytest.mark.parametrize("N", [1, 3])
    def test_perturbed_solve_is_refused(self, N, monkeypatch):
        # every tridiagonal solution 1e-6 off, the refinement's included:
        # the residual stays far above the rounding floor, and the gate
        # must refuse the result
        params = ProblemParams(N, 3.0)
        grid = make_grid(params, 16385, 1.0)
        eig = principal_eigenpair(params, grid)
        solve = core.RadialOperator.solve
        monkeypatch.setattr(
            core.RadialOperator, "solve",
            lambda self, shift, rhs: solve(self, shift, rhs) * (1.0 + 1e-6))
        with pytest.raises(SolverError, match="lost accuracy"):
            solve_psi(params, eig)


class TestAPPredict:
    @settings(max_examples=30, deadline=None)
    @given(N=st.sampled_from([1, 2, 3]), n=st.sampled_from([16, 257, 2049]),
           p_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           log_eps=st.floats(-8.0, 10.0), sign=st.sampled_from([+1, -1]))
    @example(N=3, n=16, p_frac=0.9999999999999999, log_eps=0.0, sign=1)
    def test_prediction_leaves_the_endpoint(self, N, n, p_frac, log_eps,
                                            sign):
        # `point_at_alpha` starts at ap_predict's lam: c_ps = <(A -
        # lambda_1) psi, psi> on phi_1's complement is positive (3.3e-7 at
        # N=1, p=1.01 up to 0.011 at N=3, p=4.9), so the predicted offset
        # from the grid's endpoint is finite and on the curve's side.  p
        # starts at 1.01: c_ps ~ 3.3e-3 (p - 1)^2 at N=1, whose digits go
        # to roundoff as p -> 1 (2.9e-23 against 3.3e-23 at p - 1 = 1e-10).
        # p_frac just below 1 rounds p up to p_max itself, so p is clamped
        # to the float below it
        p_max = 9.0 if N < 3 else (N + 2.0) / (N - 2.0)  # 2* - 1 from N=3
        p = min(1.01 + p_frac * (p_max - 1.01), math.nextafter(p_max, 0.0))
        params = ProblemParams(N, p)
        ap = solve_psi(params, principal_eigenpair(params,
                                                   make_grid(params, n, 1.0)))
        assert ap.c_ps > 0.0
        _, lam, _ = ap_predict(ap, 10.0**log_eps, sign)
        offset = sign * (lam + ap.eig.lambda1)
        assert math.isfinite(offset) and offset > 0.0

    def test_base_point_limit(self, expansion_13):
        mu, lam, u = ap_predict(expansion_13, 1e-22, +1)
        assert abs(mu) < 1e-9
        assert lam == pytest.approx(-expansion_13.eig.lambda1, abs=1e-9)
        diff = u.values - expansion_13.eig.phi1.values
        assert np.max(np.abs(diff)) < 1e-9

    def test_parameter_errors(self, expansion_13):
        with pytest.raises(ParameterError):
            ap_predict(expansion_13, -1.0, +1)
        with pytest.raises(ParameterError):
            ap_predict(expansion_13, 1.0, 0)
        # an infinite epsilon used to emit a RuntimeWarning
        for eps in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                ap_predict(expansion_13, eps, +1)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_against_branch(self, expansion_13, sign, cfg_fast):
        lam1 = expansion_13.eig.lambda1
        eps = 1e-3
        mu_pred, _, _ = ap_predict(expansion_13, eps, sign)
        pt = point_at_alpha(P13, lam1 + eps, sign, cfg_fast)
        assert abs(pt.mu - mu_pred) / abs(mu_pred) < 0.05

    def test_remainder_order(self, expansion_13, cfg_fast):
        lam1 = expansion_13.eig.lambda1
        errs = []
        for eps in (1e-3, 2.5e-4):
            mu_pred, _, _ = ap_predict(expansion_13, eps, +1)
            pt = point_at_alpha(P13, lam1 + eps, +1, cfg_fast)
            errs.append(abs(pt.mu - mu_pred) / abs(mu_pred))
        assert errs[0] / errs[1] >= 1.5


class TestGNConstant:
    def test_subcritical_value(self, ground_state_13):
        gn = gn_constant(ground_state_13)
        assert gn.C_Np == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-6)
        assert gn.exponent_pair == pytest.approx((3.0, 1.0))

    def test_critical_value_and_formula(self, ground_state_15):
        gn = gn_constant(ground_state_15)
        assert gn.C_Np == pytest.approx(4.0 / math.pi**2, rel=1e-6)
        critical_form = 3.0 * ground_state_15.mass ** (-2.0)
        assert gn.C_Np == pytest.approx(critical_form, rel=1e-6)

    def test_branch_ratio_below_and_approaching(self, cfg_fine, ground_state_13):
        # ratio uses the gradient-norm exponent: M / alpha^{N(p-1)/4}
        C = gn_constant(ground_state_13).C_Np
        lams = geometric_lambda_grid(P13, -2.0, 30.0, 25, sign=+1)
        br = trace(P13, lams, +1, cfg_fine)
        ratios = br.Ms / br.alphas ** (1.0 * (3.0 - 1.0) / 4.0)
        assert np.all(np.diff(ratios) > 0.0)
        assert np.all(ratios < C)
        assert abs(ratios[-1] / C - 1.0) < 0.10


class TestLargeAlpha:
    def test_ratio_target_value(self):
        # N(p-1)/(N+2-p(N-2)) = 3 for N=3, p=3
        assert 3 * (3 - 1) / (3 + 2 - 3 * (3 - 2)) == pytest.approx(3.0)

    def test_critical_mu_limit(self, cfg_fine, ground_state_15):
        prof = solve_ball_profile(P15, 1e4, +1, cfg_fine)
        pt = normalize(prof, 1e4, +1, P15)
        assert abs(pt.mu / (3.0 * math.pi**2 / 4.0) - 1.0) < 0.02
        d = large_alpha_diagnostics(pt, ground_state_15)
        assert d.mu_limit_err < 0.02

    def test_supercritical_scaling(self, cfg_fine, ground_state_33):
        prof = solve_ball_profile(P33, 3000.0, +1, cfg_fine)
        pt = normalize(prof, 3000.0, +1, P33)
        d = large_alpha_diagnostics(pt, ground_state_33)
        assert d.ratio_err < 0.03
        assert d.mu_limit_err < 0.03  # mu sqrt(lam) vs mass(Z)
        assert d.profile_err < 0.02

    def test_regime_guard(self, cfg_fast, ground_state_13):
        prof = solve_ball_profile(P13, -1.0, +1, cfg_fast)
        pt = normalize(prof, -1.0, +1, P13)
        with pytest.raises(DomainError):
            large_alpha_diagnostics(pt, ground_state_13)


class TestDefocusing:
    def test_deep_limit(self, cfg_fine):
        prof = solve_ball_profile(P13, -5100.0, -1, cfg_fine)
        pt = normalize(prof, -5100.0, -1, P13)
        d = defocusing_diagnostics(pt)
        assert d.lambda_over_mu_err < 0.02       # target 1/2, absolute
        assert d.plateau_err < 0.02              # target 1/sqrt(2), absolute
        assert d.alpha_over_lambda < 0.05

    def test_tail_ratio_decay(self, branch_defoc):
        ratios = np.abs(branch_defoc.alphas / branch_defoc.lambdas)
        tail = ratios[len(ratios) // 2 :]
        assert np.all(np.diff(tail) < 0.0)
        assert np.all(tail > 0.0)

    def test_scope_guard(self, branch_13):
        with pytest.raises(ParameterError):
            defocusing_diagnostics(branch_13.points[0])
