"""Endpoint expansion, blow-up laws, sharp constants, defocusing limits."""

import math

import numpy as np
import pytest

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
from nlsball.errors import DomainError, ParameterError

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


class TestAPPredict:
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
