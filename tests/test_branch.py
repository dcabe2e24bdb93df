"""Normalization, continuation, mass selection, and stability tagging."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsball import (
    ProblemParams,
    StabilityTag,
    action_value,
    ball_volume,
    classify_stability,
    find_mu_star,
    geometric_lambda_grid,
    grad_norm_sq,
    least_energy_at_mass,
    make_grid,
    normalize,
    point_at_alpha,
    solutions_at_mass,
    solve_ball_profile,
    trace,
)
from nlsball import branch as branch_module
from nlsball.core import RadialProfile
from nlsball.errors import (
    DegenerateInputError,
    DomainError,
    NoSolutionError,
    ParameterError,
    SolverError,
)

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)


class TestNormalize:
    def test_unit_mass_and_multiplier_identity(self, cfg_fine):
        prof = solve_ball_profile(P13, 3.0, +1, cfg_fine)
        pt = normalize(prof, 3.0, +1, P13)
        assert abs(pt.profile.l2_norm_sq() - 1.0) < 1e-8
        res = abs(pt.alpha + pt.lam - pt.mu * pt.M_alpha)
        assert res / abs(pt.mu * pt.M_alpha) < 1e-6

    def test_mu_against_first_integral_oracle(self, cfg_fine):
        # lam=0, p=3: R = a s with r(s) from the period integral, so
        # int_B R^2 dx = 2 sqrt(2) a int_0^1 s^2/sqrt(1-s^4) ds
        prof = solve_ball_profile(P13, 0.0, +1, cfg_fine)
        pt = normalize(prof, 0.0, +1, P13)
        a = math.sqrt(2.0) * quad(lambda s: 1.0 / math.sqrt(1.0 - s**4), 0, 1)[0]
        J = quad(lambda s: s**2 / math.sqrt(1.0 - s**4), 0, 1)[0]
        mu_oracle = 2.0 * math.sqrt(2.0) * a * J  # = ||R||_2^2 for p=3
        assert pt.mu == pytest.approx(mu_oracle, rel=1e-8)

    def test_degenerate_input(self):
        grid = make_grid(P13, 65, 1.0)
        prof = RadialProfile(grid, np.zeros(65), 0.0)
        with pytest.raises(DegenerateInputError):
            normalize(prof, 0.0, +1, P13)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 5), t=st.floats(0.05, 0.95),
           sign=st.sampled_from([+1, -1]), a=st.floats(0.0, 5.0),
           c=st.floats(0.1, 10.0), lam=st.floats(-50.0, 50.0))
    def test_invariants_property(self, N, t, sign, a, c, lam):
        # p spans the admissible range (1, min(2* - 1, 7))
        p = 1.0 + t * (min(ProblemParams(N, 2.0).sobolev_limit, 7.0) - 1.0)
        params = ProblemParams(N, p)
        grid = make_grid(params, 257, 1.0)
        r = grid.nodes
        shape = (1.0 - r**2) * (1.0 + a * r**2)
        base = RadialProfile(grid, shape, -2.0 * (1.0 + a))
        scaled = RadialProfile(grid, c * shape, -2.0 * c * (1.0 + a))
        pt = normalize(base, lam, sign, params)
        pt_c = normalize(scaled, lam, sign, params)
        assert abs(pt.profile.l2_norm_sq() - 1.0) < 1e-12
        np.testing.assert_allclose(pt_c.profile.values, pt.profile.values,
                                   rtol=0.0, atol=1e-13)
        assert pt_c.mu == pytest.approx(c ** (p - 1.0) * pt.mu, rel=1e-12)
        assert pt.alpha == grad_norm_sq(pt.profile)
        if sign < 0:
            assert pt.mu < 0.0
            assert pt.rho is None and pt.energy is None
        else:
            assert pt.mu > 0.0
            assert pt.rho == pytest.approx(pt.mu ** (2.0 / (p - 1.0)),
                                           rel=1e-14)
            energy = pt.rho * (pt.alpha / 2.0 - pt.mu * pt.M_alpha / (p + 1.0))
            assert pt.energy == pytest.approx(energy, rel=1e-14)

    def test_point_invariants_along_branches(self, branch_13, branch_defoc):
        vol = ball_volume(1)
        for pt in branch_13.points:
            assert pt.mu > 0.0 and pt.lam > -math.pi**2 / 4
            assert pt.M_alpha >= vol ** (-(P13.p - 1.0) / 2.0)
            assert pt.rho == pytest.approx(pt.mu, rel=1e-14)  # 2/(p-1) = 1
        for pt in branch_defoc.points:
            assert pt.mu < 0.0 and pt.lam < -math.pi**2 / 4
            assert pt.rho is None and pt.energy is None


class TestTrace:
    def test_focusing_monotonicity(self, branch_13, branch_15):
        for br in (branch_13, branch_15):
            assert len(br.failures) == 0
            assert np.all(np.diff(br.alphas) > 0.0)
            assert np.all(np.diff(br.lambdas) > 0.0)
            assert np.all(np.diff(br.mus) > 0.0)

    def test_supercritical_rise_and_fall(self, branch_33):
        mus = branch_33.mus
        j = int(np.argmax(mus))
        assert 0 < j < len(mus) - 1
        assert np.all(np.diff(mus[: j + 1]) > 0.0)
        assert np.all(np.diff(mus[j:]) < 0.0)

    def test_defocusing_monotonicity(self, branch_defoc):
        assert np.all(np.diff(branch_defoc.alphas) > 0.0)
        assert np.all(np.diff(branch_defoc.mus) < 0.0)
        assert np.all(np.diff(branch_defoc.lambdas) < 0.0)

    def test_coarse_defocusing_trace_avoids_trivial_state(self, cfg_fine):
        # 9 points over the S- window: each warm seed lies far from the next
        # solution, and Newton used to settle on u = 0 (mu ~ -1.8e-38)
        lams = geometric_lambda_grid(P13, -2.6, -2000.0, 9, sign=-1)
        br = trace(P13, lams, -1, cfg_fine)
        assert len(br.points) == 9 and not br.failures
        assert np.all(np.diff(br.mus) < 0.0)
        for pt, lam in zip(br.points, lams):
            cold = normalize(solve_ball_profile(P13, lam, -1, cfg_fine),
                             lam, -1, P13)
            assert pt.mu == pytest.approx(cold.mu, rel=1e-8)

    def test_partial_branch_on_failure(self, cfg_fast):
        # a lam below the admissible range fails that solve only
        lams = np.array([-3.0, 0.0, 1.0, 2.0])
        br = trace(P13, lams, +1, cfg_fast)
        assert len(br.points) == 3
        assert len(br.failures) == 1
        assert br.failures[0][0] == -3.0

    @pytest.mark.parametrize("exc,text", [
        (SolverError("stalled", lam=-4.0), "SolverError: stalled"),
        (ZeroDivisionError("float division by zero"),
         "ZeroDivisionError: float division by zero")])
    def test_solver_failures_collected(self, cfg_fast, monkeypatch,
                                       exc, text):
        real = branch_module._solve_ball_defocusing

        def flaky(params, lam, grid, seed_values=None):
            if lam == -4.0:
                raise exc
            return real(params, lam, grid, seed_values=seed_values)

        monkeypatch.setattr(branch_module, "_solve_ball_defocusing", flaky)
        br = trace(P13, [-3.0, -4.0, -5.0], -1, cfg_fast)
        assert len(br.points) == 2
        assert br.failures == ((-4.0, text),)

    def test_programming_errors_propagate(self, cfg_fast, monkeypatch):
        def broken(params, lam, grid, seed_values=None):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(branch_module, "_solve_ball_defocusing", broken)
        with pytest.raises(TypeError):
            trace(P13, [-3.0, -4.0, -5.0], -1, cfg_fast)

    def test_grid_validation(self, cfg_fast):
        with pytest.raises(ParameterError):
            trace(P13, [1.0, 0.5], +1, cfg_fast)
        with pytest.raises(DomainError):
            geometric_lambda_grid(P13, -5.0, 10.0, 5, sign=+1)
        with pytest.raises(DomainError):
            geometric_lambda_grid(P13, -1.0, -10.0, 5, sign=-1)


class TestPointAtAlpha:
    def test_hits_target(self, cfg_fast):
        lam1 = math.pi**2 / 4
        pt = point_at_alpha(P13, lam1 + 0.5, +1, cfg_fast)
        assert pt.alpha == pytest.approx(lam1 + 0.5, rel=1e-9)
        ptm = point_at_alpha(P13, lam1 + 0.5, -1, cfg_fast)
        assert ptm.alpha == pytest.approx(lam1 + 0.5, rel=1e-9)
        assert ptm.mu < 0.0 < pt.mu

    def test_below_lambda1_rejected(self, cfg_fast):
        with pytest.raises(DomainError):
            point_at_alpha(P13, 1.0, +1, cfg_fast)


class TestMuStar:
    def test_subcritical_rejected(self, branch_13):
        with pytest.raises(DomainError):
            find_mu_star(branch_13)

    def test_supercritical_maximum(self, branch_33):
        mu_star, alpha_star, rho_star = find_mu_star(branch_33)
        assert mu_star >= np.max(branch_33.mus)
        assert rho_star == pytest.approx(mu_star, rel=1e-14)  # 2/(p-1) = 1
        # the refinement bracket contract: located max beats the grid
        j = int(np.argmax(branch_33.mus))
        assert branch_33.points[j - 1].alpha < alpha_star < branch_33.points[j + 1].alpha


class TestSolutionsAtMass:
    def test_subcritical_unique(self, branch_13):
        sols = solutions_at_mass(branch_13, 1.0)
        assert len(sols) == 1
        assert sols[0].rho == pytest.approx(1.0, rel=1e-6)

    def test_critical_threshold_empty(self, branch_15):
        rho_threshold = math.sqrt(3.0) * math.pi / 2.0  # whole-space mass
        assert solutions_at_mass(branch_15, rho_threshold) == []
        assert solutions_at_mass(branch_15, 2.0 * rho_threshold) == []

    def test_critical_admissible_unique(self, branch_15):
        sols = solutions_at_mass(branch_15, 2.0)
        assert len(sols) == 1
        assert sols[0].rho == pytest.approx(2.0, rel=1e-6)

    def test_supercritical_pair(self, branch_33):
        mu_star, _, rho_star = find_mu_star(branch_33)
        sols = solutions_at_mass(branch_33, 0.8 * rho_star)
        assert len(sols) >= 2
        for pt in sols:
            assert pt.rho == pytest.approx(0.8 * rho_star, rel=1e-6)

    def test_parameter_errors(self, branch_13, branch_defoc):
        with pytest.raises(ParameterError):
            solutions_at_mass(branch_13, -1.0)
        with pytest.raises(ParameterError):
            solutions_at_mass(branch_defoc, 1.0)


class TestLeastEnergy:
    def test_single_candidate(self, branch_13):
        pt = least_energy_at_mass(branch_13, 1.0)
        assert pt.rho == pytest.approx(1.0, rel=1e-6)

    def test_supercritical_selects_lower_alpha(self, branch_33):
        _, _, rho_star = find_mu_star(branch_33)
        sols = solutions_at_mass(branch_33, 0.8 * rho_star)
        best = least_energy_at_mass(branch_33, 0.8 * rho_star)
        assert best.alpha == min(pt.alpha for pt in sols)
        for pt in sols:
            if pt.alpha != best.alpha:
                assert best.energy < pt.energy

    def test_empty_raises(self, branch_15):
        with pytest.raises(NoSolutionError):
            least_energy_at_mass(branch_15, 10.0)


class TestStability:
    def test_subcritical_all_stable(self, branch_13):
        tagged = classify_stability(branch_13)
        assert all(pt.stability is StabilityTag.STABLE for pt in tagged.points)

    def test_supercritical_split(self, branch_33):
        tagged = classify_stability(branch_33)
        _, alpha_star, _ = find_mu_star(branch_33)
        tags = [pt.stability for pt in tagged.points]
        assert StabilityTag.STABLE in tags and StabilityTag.UNSTABLE in tags
        for pt in tagged.points:
            if pt.alpha < 0.8 * alpha_star:
                assert pt.stability is StabilityTag.STABLE
            # far down the tail |mu'| ~ mu/(2 alpha) sinks into the
            # tolerance band, so the hard assertion stays in a window
            if 1.5 * alpha_star < pt.alpha < 10.0 * alpha_star:
                assert pt.stability is StabilityTag.UNSTABLE

    def test_equal_alpha_endpoint_raises(self, branch_13):
        # the last point's one-sided quotient divides by alpha_3 - alpha_2
        pts = branch_13.points[:3]
        last = replace(pts[-1], lam=pts[-1].lam + 0.1)
        with pytest.raises(SolverError) as exc:
            classify_stability(replace(branch_13, points=pts + (last,)))
        assert exc.value.diagnostics == {"i": 3, "lam": last.lam,
                                         "alpha": last.alpha}

    def test_defocusing_unknown(self, branch_defoc):
        tagged = classify_stability(branch_defoc)
        assert all(pt.stability is StabilityTag.UNKNOWN for pt in tagged.points)


class TestActionValue:
    def test_zero_parameters(self, branch_13):
        pt = branch_13.points[5]
        assert action_value(pt, 0.0, 0.0) == pytest.approx(pt.alpha / 2.0)

    def test_multiplier_identity_form(self, branch_13):
        # at the point's own (mu, lam):  J = mu M (1/2 - 1/(p+1)) up to the
        # multiplier-identity residual of the fixture grid
        pt = branch_13.points[5]
        J = action_value(pt, pt.mu, pt.lam)
        target = pt.mu * pt.M_alpha * (0.5 - 1.0 / (P13.p + 1.0))
        assert J == pytest.approx(target, rel=2e-5)

    def test_combined_scalar_form(self, branch_13):
        pt = branch_13.points[7]
        J = action_value(pt, pt.mu, pt.lam)
        target = (pt.alpha + pt.lam) / 2.0 - pt.mu * pt.M_alpha / (P13.p + 1.0)
        assert J == pytest.approx(target, rel=1e-12)


class TestDerivativeEstimates:
    def test_pairing_normalizations(self, branch_13):
        # int u v = 0 and int grad u . grad v = 1/2 at interior points
        i = len(branch_13.points) // 2
        pt = branch_13.points[i]
        d = branch_13.derivative(i)
        grid = pt.profile.grid
        assert abs(grid.integrate(pt.profile.values * d.v.values)) < 1e-3
        du = pt.profile.derivative_values()
        dv = d.v.derivative_values()
        assert grid.integrate(du * dv) == pytest.approx(0.5, abs=5e-2)

    def test_equal_alpha_neighbors_raise(self, branch_13):
        pt = branch_13.points[5]
        flat = replace(branch_13, points=(pt, replace(pt, lam=pt.lam + 0.5),
                                          replace(pt, lam=pt.lam + 1.0)))
        with pytest.raises(SolverError) as exc:
            flat.derivative(1)
        assert exc.value.diagnostics == {"i": 1, "lam": pt.lam + 0.5,
                                         "alpha": pt.alpha}

    def test_requires_neighbors(self, branch_13):
        with pytest.raises(ParameterError):
            branch_13.derivative(0)
