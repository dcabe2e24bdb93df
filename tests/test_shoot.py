"""Shooting-solver contracts against closed-form oracles.

The N=1, p=3, lam=0 ball profile has a first integral
    u'^2/2 + u^4/4 = u(0)^4/4,
giving u(0) = sqrt(2) K with K = int_0^1 ds/sqrt(1-s^4) and
u_r(1) = -u(0)^2/sqrt(2).  The whole-space states for N=1 are
Z = sqrt(2) sech r (p=3) and Z = 3^{1/4} sech^{1/2}(2r) (p=5).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive, kve

from nlsball import (
    ProblemParams,
    ShootConfig,
    dirichlet_lambda1_exact,
    discrete_residual,
    geometric_lambda_grid,
    make_grid,
    normalize,
    point_at_alpha,
    rescaled_profile,
    solve_ball_profile,
    solve_whole_space,
    trace,
)
from nlsball.errors import DomainError, ParameterError
from nlsball.evolve import discrete_standing_wave
from nlsball import shoot
from nlsball.shoot import _integrate

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)

K_LEMNISCATE = quad(lambda s: 1.0 / math.sqrt(1.0 - s**4), 0.0, 1.0)[0]
A_ORACLE = math.sqrt(2.0) * K_LEMNISCATE          # 1.8540746773...
UR1_ORACLE = -A_ORACLE**2 / math.sqrt(2.0)        # -2.4307452569...


class TestShootConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ShootConfig(n_nodes=8)


class TestIntegrate:
    def test_numpy_scalars_run_as_floats(self):
        # events off, so both runs cover the whole of [0, 1]
        ref = _integrate(2.0, 20.0, 3, 3.0, 256, 3, True,
                         terminal_events=False)
        got = _integrate(np.float64(2.0), np.float64(20.0), 3,
                         np.float64(3.0), 256, 3, True,
                         terminal_events=False)
        status, r_stop, u_nodes, u_end, v_end = got
        assert status == ref[0] == "end"
        assert [type(x) for x in (r_stop, u_end, v_end)] == [float] * 3
        assert (r_stop, u_end, v_end) == (ref[1], ref[3], ref[4])
        assert np.array_equal(u_nodes, ref[2])


class TestBallFocusing:
    def test_first_integral_oracle(self, cfg_fine):
        prof = solve_ball_profile(P13, 0.0, +1, cfg_fine)
        assert prof.values[0] == pytest.approx(A_ORACLE, abs=1e-9)
        assert prof.values[0] == pytest.approx(1.85407467730, abs=1e-6)
        assert prof.boundary_derivative == pytest.approx(UR1_ORACLE, abs=1e-9)
        assert prof.boundary_derivative == pytest.approx(-2.43074525692, abs=1e-5)

    @pytest.mark.parametrize("params,lam", [(P13, -1.0), (P13, 7.0), (P15, 3.0),
                                            (P33, -5.0), (P33, 12.0)])
    def test_monotone_positive(self, params, lam, cfg_fast):
        prof = solve_ball_profile(params, lam, +1, cfg_fast)
        assert np.all(prof.values[:-1] > 0.0)
        assert np.all(np.diff(prof.values) < 0.0)
        assert prof.values[-1] == 0.0
        assert prof.boundary_derivative < 0.0

    def test_discrete_residual(self):
        # the N=3 stencil constant is larger, so it gets the finer grid
        for params, lam, n in ((P13, 0.0, 4097), (P33, 2.0, 8193)):
            prof = solve_ball_profile(params, lam, +1, ShootConfig(n_nodes=n))
            assert discrete_residual(prof, lam, 1.0, params) < 1e-6

    def test_uniqueness_witness(self, cfg_fast, monkeypatch, shooting_work):
        # two independent searches land on one center value: the coarse
        # search's root polished at the grid step, and the grid-step
        # search alone, with the coarse search switched off
        grid = make_grid(P13, cfg_fast.n_nodes, 1.0)
        grid_steps = 1024 * shoot._substeps(grid.spacing, 2.0)
        a1 = shoot._solve_profile(P13, 2.0, +1, grid).values[0]
        assert min(shooting_work.step_counts) < grid_steps
        shooting_work.step_counts.clear()
        monkeypatch.setattr(shoot, "COARSE_FACTOR", math.inf)
        a2 = shoot._solve_profile(P13, 2.0, +1, grid).values[0]
        assert set(shooting_work.step_counts) == {grid_steps}
        assert abs(a1 - a2) <= 10.0 * shoot.BISECTION_TOLERANCE * a1

    def test_near_endpoint_matches_eigenfunction(self, cfg_fast):
        from nlsball import principal_eigenpair
        lam1 = math.pi**2 / 4
        prof = solve_ball_profile(P13, -lam1 + 1e-3, +1, cfg_fast)
        l2 = math.sqrt(prof.l2_norm_sq())
        eig = principal_eigenpair(P13, prof.grid)
        diff = prof.values / l2 - eig.phi1.values
        dist = math.sqrt(prof.grid.integrate(diff**2))
        assert dist < 0.05

    def test_large_lambda_matches_scaled_ground_state(self, cfg_fine,
                                                      ground_state_13):
        # u(r) ~ lam^{1/(p-1)} Z(sqrt(lam) r) away from the boundary layer
        lam = 400.0
        prof = solve_ball_profile(P13, lam, +1, cfg_fine)
        r = prof.grid.nodes
        scaled = math.sqrt(lam) * np.interp(
            math.sqrt(lam) * r, ground_state_13.profile.grid.nodes,
            ground_state_13.profile.values, right=0.0,
        )
        mask = (r <= 0.9) & (scaled >= 1e-3 * scaled[0])
        rel = np.abs(prof.values[mask] - scaled[mask]) / scaled[mask]
        assert np.max(rel) < 0.01

    def test_domain_errors(self, cfg_fast):
        lam1 = math.pi**2 / 4
        with pytest.raises(DomainError):
            solve_ball_profile(P13, -lam1 - 0.5, +1, cfg_fast)
        with pytest.raises(DomainError):
            solve_ball_profile(P13, -lam1 + 0.5, -1, cfg_fast)
        with pytest.raises(ParameterError):
            solve_ball_profile(P13, 0.0, 2, cfg_fast)


class TestCenterShooting:
    """The center-value search spends RK4 steps only on digits it does not
    know yet, and every root it returns is classified on both sides."""

    @staticmethod
    def shooting_args(lam, n_cells, n_dim=3):
        return (lam, n_dim, 3.0, n_cells,
                shoot._substeps(1.0 / n_cells, lam))

    @staticmethod
    def assert_classified(args, a, lo, hi):
        assert lo < a < hi
        # the Newton root's bracket is root -+ 4e-14 root, each end rounded
        assert hi - lo <= 8e-14 * a + math.ulp(a)
        assert shoot._classify(lo, *args)[0] == "small"
        assert shoot._classify(hi, *args)[0] == "big"

    @pytest.mark.parametrize("params, lam", [(P13, 2.0), (P33, 0.5)])
    def test_cold_solve_budget(self, shooting_work, params, lam):
        # the search at the grid step alone takes 23 grid-step integrations
        # and 45,955 RK4 steps at N=1, lam=2, and 27 and 53,778 at N=3,
        # lam=0.5; at the ODE_TOLERANCE step first, 6 (the profile's own
        # integration included) and about 13,300
        solve_ball_profile(params, lam, +1, ShootConfig(2049))
        grid_steps = 2048 * shoot._substeps(1.0 / 2048, lam)
        coarse = [n for n in shooting_work.step_counts if n != grid_steps]
        assert coarse and max(coarse) * shoot.COARSE_FACTOR <= grid_steps
        assert len(shooting_work.step_counts) - len(coarse) <= 6
        assert shooting_work.steps < 20_000

    def test_warm_trace_step_budget(self, shooting_work, cfg_fast):
        # ten cold points over the Figure-1 window take 146,675 steps
        # (146,247 when each solve was seeded from the points before it);
        # with the grid-step search and Brent for every solve they took
        # 170,778
        lams = geometric_lambda_grid(P33, -math.pi**2 + 0.4, 3500.0, 10)
        assert not trace(P33, lams, +1, cfg_fast).failures
        assert shooting_work.steps < 153_000

    def test_endpoint_point_at_alpha_budget(self, shooting_work):
        # the two alpha-prescribed S+ searches of the endpoint expansion
        # take 71,983 steps from the expansion's predicted lam (3 cold
        # solves each), against 120,328 from the fixed start
        # |lam + lambda_1| = lambda_1 (5 each); with the grid-step search
        # and Brent for every seeded solve they took 283,932
        lam1 = dirichlet_lambda1_exact(1)
        for eps in (1e-3, 2.5e-4):
            point_at_alpha(P13, lam1 + eps, +1, ShootConfig(2049))
        assert shooting_work.steps < 80_000

    def test_large_lambda_skips_brent(self, shooting_work):
        # u(1; a) is a step in double precision at lam = 3000, so no
        # integration runs event-free to r = 1
        prof = solve_ball_profile(P33, 3000.0, +1)
        assert prof.values[0] > 0.0
        assert shooting_work.integrations > 0
        assert shooting_work.event_free == 0

    @settings(max_examples=12, deadline=None)
    @given(log_s=st.floats(-3.0, math.log10(3500.0 + math.pi**2),
                           exclude_max=True))
    def test_bracket_is_classified(self, log_s):
        lam = -math.pi**2 + 10.0**log_s
        args = self.shooting_args(lam, 1024)
        self.assert_classified(args, *shoot._bisect_center(*args))

    @settings(max_examples=12, deadline=None)
    @given(n_dim=st.sampled_from([1, 3]), log_s=st.floats(-3.0, 2.5))
    def test_polished_bracket_is_classified(self, n_dim, log_s):
        # lam + lambda_1 <= 316 keeps the ODE_TOLERANCE step at least
        # COARSE_FACTOR grid steps long on 2048 cells, so the search runs
        # there first
        lam = -dirichlet_lambda1_exact(n_dim) + 10.0**log_s
        args = self.shooting_args(lam, 2048, n_dim)
        self.assert_classified(args, *shoot._bisect_center(*args))

    @pytest.mark.parametrize("slope", [lambda s: 1.0, lambda s: 1e6 * s],
                             ids=["positive", "too-steep"])
    def test_failed_polish_falls_back_to_cold_search(self, monkeypatch,
                                                     shooting_work, slope):
        # a positive slope skips the polish; one 1e6 times too steep stops
        # Newton next to the coarse root, which fails the classification
        brackets = []
        cold_bracket = shoot._cold_bracket
        true_slope = shoot._shooting_slope

        def recorded(classify, lam, p):
            start = len(shooting_work.step_counts)
            out = cold_bracket(classify, lam, p)
            brackets.append(set(shooting_work.step_counts[start:]))
            return out

        monkeypatch.setattr(shoot, "_shooting_slope",
                            lambda *a: slope(true_slope(*a)))
        monkeypatch.setattr(shoot, "_cold_bracket", recorded)
        args = self.shooting_args(2.0, 2048, n_dim=1)
        self.assert_classified(args, *shoot._bisect_center(*args))
        # the coarse search brackets cold at its own step; the grid-step
        # fallback brackets cold again, at the grid step
        assert brackets == [{shoot._substeps(1.0, 2.0)}, {args[3] * args[4]}]

    @pytest.mark.parametrize("lam", [240.0, 385.0])
    def test_boundary_slope_is_not_separatrix_noise(self, lam):
        # u drops below the noise floor before r = 1 on this band; the
        # grafted tail gives the same u_r(1) across the converged bracket
        grid = make_grid(P33, 2049, 1.0)
        args = self.shooting_args(lam, 2048)
        _, lo, hi = shoot._bisect_center(*args)
        slopes = [shoot._focusing_profile(P33, lam, grid, a)
                  .boundary_derivative for a in (lo, hi)]
        assert abs(slopes[1] - slopes[0]) <= 1e-4 * abs(slopes[0])


class TestLinearTail:
    """The tail grafted where u falls below the separatrix noise floor
    against its closed form,
        w(r) = r^{-nu} [I_nu(z) K_nu(z r) - K_nu(z) I_nu(z r)],
    nu = N/2 - 1, z = sqrt(lam), whose Wronskian gives w'(1) = -1."""

    @staticmethod
    def closed_form(n_dim, lam, r_s, u_s, r):
        nu = n_dim / 2.0 - 1.0
        z = math.sqrt(lam)

        def log_w(r):
            # exp-scaled so every exponent is <= 0
            bracket = (ive(nu, z) * kve(nu, z * r) - kve(nu, z)
                       * ive(nu, z * r) * np.exp(2.0 * z * (r - 1.0)))
            return -nu * np.log(r) + z * (1.0 - r) + np.log(bracket)

        log_ws = log_w(r_s)
        values = np.zeros(len(r))
        values[:-1] = u_s * np.exp(log_w(r[:-1]) - log_ws)
        return values, -u_s * math.exp(-log_ws)

    # measured maxima over N = 1..4 at 1548 tail nodes (n = 2049): values
    # within 8.7e-12, 8.8e-11, 3.2e-9 and 1.6e-9 of u_s, boundary slopes
    # within 6.1e-11, 2.4e-9, 3.3e-7 and 3.0e-7 relative
    BARS = {50.0: (3e-11, 2e-10), 400.0: (3e-10, 1e-8),
            3500.0: (1e-8, 1e-6), 1e4: (5e-9, 1e-6)}

    @pytest.mark.parametrize("lam", sorted(BARS))
    @pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
    def test_matches_bessel_form(self, n_dim, lam):
        grid = make_grid(ProblemParams(n_dim, 2.0), 2049, 1.0)
        nodes, u_s = grid.nodes[500:], 1e-3
        values, slope = shoot._ball_linear_tail(
            n_dim, lam, nodes, u_s, shoot._substeps(grid.spacing, lam))
        ref, ref_slope = self.closed_form(n_dim, lam, nodes[0], u_s,
                                          nodes[1:])
        value_bar, slope_bar = self.BARS[lam]
        assert np.max(np.abs(values - ref)) <= value_bar * u_s
        assert slope == pytest.approx(ref_slope, rel=slope_bar)

    def test_finite_where_the_tail_spans_exp_1000(self):
        # from r = 1.5e-3 at lam = 1e6, w grows by about e^998 inward:
        # it is rescaled twice, and the boundary slope underflows to 0
        grid = make_grid(P33, 2049, 1.0)
        lam, u_s = 1e6, 1e-3
        values, slope = shoot._ball_linear_tail(
            3, lam, grid.nodes[3:], u_s, shoot._substeps(grid.spacing, lam))
        assert np.all(np.isfinite(values)) and math.isfinite(slope)
        assert np.all(np.diff(values) <= 0.0) and values[-1] == 0.0
        assert 0.0 < values[0] < u_s and -u_s < slope <= 0.0
        ref, _ = self.closed_form(3, lam, grid.nodes[3], u_s, grid.nodes[4:])
        assert np.max(np.abs(values - ref)) <= 1e-7 * u_s


class TestBallDefocusing:
    @pytest.mark.parametrize("lam", [-2.6, -10.0, -300.0, -5000.0])
    def test_monotone_positive(self, lam, cfg_fast):
        prof = solve_ball_profile(P13, lam, -1, cfg_fast)
        assert np.all(prof.values[:-1] > 0.0)
        assert np.all(np.diff(prof.values) <= 0.0)
        assert discrete_residual(prof, lam, -1.0, P13) < 1e-8

    def test_plateau_height(self, cfg_fast):
        lam = -2000.0
        prof = solve_ball_profile(P13, lam, -1, cfg_fast)
        assert prof.values[0] == pytest.approx(math.sqrt(-lam), rel=2e-2)


class TestDiscreteNewton:
    """S- profiles and polished standing waves come from one damped Newton
    and meet its one stop rule, read back through `discrete_residual`."""

    @pytest.mark.parametrize("params,lam,sign", [
        (P13, -10.0, -1), (P13, -300.0, -1),
        (P13, 1.0, +1), (P33, 5.0, +1)])
    def test_shared_stop_rule(self, params, lam, sign, cfg_fast):
        prof = solve_ball_profile(params, lam, sign, cfg_fast)
        if sign > 0:
            prof = discrete_standing_wave(normalize(prof, lam, +1, params))
        y = prof.values[:-1]
        floor = 20.0 * np.finfo(float).eps \
            * np.max(np.abs(prof.grid.operator.diag)) * np.max(y)
        bound = shoot.NEWTON_TOLERANCE \
            + floor / shoot._residual_scale(lam, y, params.p)
        # a few ulps of slack for the division by the scale
        assert discrete_residual(prof, lam, sign, params) \
            <= bound * (1.0 + 1e-12)


class TestWholeSpace:
    def test_sech_oracle_p3(self, ground_state_13):
        Z = ground_state_13
        assert Z.center_value == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert Z.mass == pytest.approx(4.0, rel=1e-6)
        assert Z.grad_energy == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_sech_oracle_p5(self, ground_state_15):
        Z = ground_state_15
        assert Z.center_value == pytest.approx(3.0**0.25, abs=1e-7)
        assert Z.mass == pytest.approx(math.sqrt(3.0) * math.pi / 2.0, rel=1e-6)

    @pytest.mark.parametrize("gs", ["ground_state_13", "ground_state_15",
                                    "ground_state_33"])
    def test_invariants(self, gs, request):
        Z = request.getfixturevalue(gs)
        nehari = abs(Z.grad_energy + Z.mass - Z.lp1_norm) / Z.lp1_norm
        assert nehari < 1e-4
        N, p = Z.params.N, Z.params.p
        target = N * (p - 1.0) / (N + 2.0 - p * (N - 2.0))
        assert Z.grad_energy / Z.mass == pytest.approx(target, rel=1e-4)
        assert np.all(Z.profile.values[:-1] > 0.0)
        assert np.all(np.diff(Z.profile.values) < 0.0)
        assert Z.profile.values[-1] < 1e-8 * Z.center_value

    def test_r_max_guard(self, cfg_fast):
        with pytest.raises(ParameterError):
            solve_whole_space(P13, 10.0, cfg_fast)


class TestRescaling:
    def test_identity_scaling(self, cfg_fast):
        prof = solve_ball_profile(P13, 1.0, +1, cfg_fast)
        v = rescaled_profile(prof, 1.0, 1.0, P13)
        assert np.allclose(v.values, prof.values, rtol=0, atol=0)
        assert v.grid.radius == pytest.approx(1.0)

    def test_domain_error(self, cfg_fast):
        prof = solve_ball_profile(P13, 1.0, +1, cfg_fast)
        with pytest.raises(DomainError):
            rescaled_profile(prof, -1.0, 1.0, P13)
        with pytest.raises(DomainError):
            rescaled_profile(prof, 1.0, -1.0, P13)

    def test_limit_profile(self, cfg_fine, ground_state_13):
        from nlsball import normalize
        prof = solve_ball_profile(P13, 1e4, +1, cfg_fine)
        pt = normalize(prof, 1e4, +1, P13)
        v = rescaled_profile(pt.profile, pt.lam, pt.mu, P13)
        z = np.interp(v.grid.nodes, ground_state_13.profile.grid.nodes,
                      ground_state_13.profile.values, right=0.0)
        assert np.max(np.abs(v.values - z)) < 0.02

    def test_center_value_monotone_approach(self, cfg_fast, ground_state_13):
        # the approach is ~exp(-2 sqrt(lam)), hitting the discretization
        # floor near lam ~ 200, so the doubling sequence stops there
        from nlsball import normalize
        errs = []
        for lam in (12.5, 50.0, 200.0):
            prof = solve_ball_profile(P13, lam, +1, cfg_fast)
            pt = normalize(prof, lam, +1, P13)
            v0 = (pt.mu / pt.lam) ** 0.5 * pt.profile.values[0]
            errs.append(abs(v0 - ground_state_13.center_value))
        assert errs[0] > errs[1] > errs[2]
