"""Normalization, continuation, mass selection, and stability tagging."""

import dataclasses
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsball import (
    Branch,
    ProblemParams,
    ShootConfig,
    StabilityTag,
    ap_predict,
    ball_volume,
    classify_stability,
    find_mu_star,
    geometric_lambda_grid,
    grad_norm_sq,
    least_energy_at_mass,
    make_grid,
    normalize,
    point_at_alpha,
    principal_eigenpair,
    solutions_at_mass,
    solve_ball_profile,
    solve_psi,
    trace,
)
from nlsball import branch as branch_module
from nlsball.branch import _solve_normalized
from nlsball.core import RadialProfile, dirichlet_lambda1_exact
from nlsball.errors import (
    DegenerateInputError,
    DomainError,
    NoSolutionError,
    ParameterError,
    SolverError,
)

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P23 = ProblemParams(N=2, p=3.0)
P33 = ProblemParams(N=3, p=3.0)


def assert_cold_solve(pt, sign):
    """The point equals the cold solve at its lam bit for bit."""
    cold = _solve_normalized(pt.params, pt.lam, sign, pt.profile.grid)
    assert np.array_equal(pt.profile.values, cold.profile.values)
    assert (pt.alpha, pt.mu, pt.M_alpha, pt.ur1) == (
        cold.alpha, cold.mu, cold.M_alpha, cold.ur1)


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
        # 9 points over the S- window: each profile lies far from the next
        # solution, and a Newton started from it used to settle on u = 0
        # (mu ~ -1.8e-38)
        lams = geometric_lambda_grid(P13, -2.6, -2000.0, 9, sign=-1)
        br = trace(P13, lams, -1, cfg_fine)
        assert len(br.points) == 9 and not br.failures
        assert np.all(np.diff(br.mus) < 0.0)
        for pt, lam in zip(br.points, lams):
            cold = normalize(solve_ball_profile(P13, lam, -1, cfg_fine),
                             lam, -1, P13)
            assert pt.mu == pytest.approx(cold.mu, rel=1e-8)

    def test_focusing_points_are_cold_solves(self, branch_13):
        # every solve starts cold, so each trace point is the cold solve
        # at its lam bit for bit, whatever was solved before it
        for pt in branch_13.points:
            assert_cold_solve(pt, +1)

    def test_defocusing_points_are_cold_solves(self, branch_defoc):
        for pt in branch_defoc.points:
            assert_cold_solve(pt, -1)

    def test_defocusing_trace_solve_budget(self, operator_work, cfg_fine):
        # the bench S- window: 121 cold solves take 262 tridiagonal solves
        # (Newton steps, line search and the phi_1 eigenpair); started
        # from the last solved profile they took 420
        lams = geometric_lambda_grid(P13, -2.6, -2000.0, 121, sign=-1)
        assert not trace(P13, lams, -1, cfg_fine).failures
        assert operator_work.solves <= 275

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
        real = branch_module._solve_profile

        def flaky(params, lam, sign, grid):
            if lam == -4.0:
                raise exc
            return real(params, lam, sign, grid)

        monkeypatch.setattr(branch_module, "_solve_profile", flaky)
        br = trace(P13, [-3.0, -4.0, -5.0], -1, cfg_fast)
        assert len(br.points) == 2
        assert br.failures == ((-4.0, text),)

    def test_programming_errors_propagate(self, cfg_fast, monkeypatch):
        def broken(params, lam, sign, grid):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(branch_module, "_solve_profile", broken)
        with pytest.raises(TypeError):
            trace(P13, [-3.0, -4.0, -5.0], -1, cfg_fast)

    def test_numpy_and_list_grids_agree(self):
        cfg = ShootConfig(n_nodes=257)
        lams = geometric_lambda_grid(P13, -2.0, 40.0, 4, sign=+1)
        from_array = trace(P13, lams, +1, cfg)
        from_list = trace(P13, [float(x) for x in lams], +1, cfg)
        for name in ("alphas", "mus", "lambdas"):
            assert np.array_equal(getattr(from_array, name),
                                  getattr(from_list, name))
        for a, b in zip(from_array.points, from_list.points, strict=True):
            assert np.array_equal(a.profile.values, b.profile.values)

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
        # a nan target would give the search a nan start
        with pytest.raises(DomainError):
            point_at_alpha(P13, math.nan, +1, cfg_fast)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_infinite_target_rejected(self, monkeypatch, sign):
        # an infinite target used to start at |lam| = 1e8 with an infinite
        # resolution and return that first solve, on S+ an RK4 shot at
        # lam = 1e8; now no solve is made
        def refused(*args):
            raise AssertionError("solved for an infinite target")

        monkeypatch.setattr(branch_module, "_solve_normalized", refused)
        with pytest.raises(DomainError, match="finite"):
            point_at_alpha(P13, math.inf, sign, ShootConfig(n_nodes=257))

    @pytest.mark.parametrize("offset", [-1.0, 1.0])
    def test_unbracketed_target_rejected(self, cfg_fast, monkeypatch, offset):
        # alpha stays below the target up to |lam| = 1e8, or above it
        # down to the endpoint offset floor; a flat alpha has no slope
        lam1 = math.pi**2 / 4
        flat = SimpleNamespace(alpha=lam1 + 0.5 + offset)
        monkeypatch.setattr(branch_module, "_solve_normalized",
                            lambda *args: flat)
        monkeypatch.setattr(branch_module, "_tangent",
                            lambda point: SimpleNamespace(alpha=0.0))
        message = "not reached" if offset < 0.0 else "offset floor"
        with pytest.raises(DomainError, match=message):
            point_at_alpha(P13, lam1 + 0.5, -1, cfg_fast)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_predicted_start_within_lam_bound(self, monkeypatch, sign):
        # at N=1, p=1.01 c_ps = 3.3e-7, so alpha - lambda_1 = 1e10 predicts
        # |lam + lambda_1| = 1.74e8; the first solve stays at |lam| <= 1e8,
        # and from there the march's bound error takes over
        target = dirichlet_lambda1_exact(1) + 1e10
        lams = []

        def recording(params, lam, sign, grid):
            lams.append(lam)
            return SimpleNamespace(alpha=target - 1.0)

        monkeypatch.setattr(branch_module, "_solve_normalized", recording)
        monkeypatch.setattr(branch_module, "_tangent",
                            lambda point: SimpleNamespace(alpha=0.0))
        with pytest.raises(DomainError, match="not reached"):
            point_at_alpha(ProblemParams(N=1, p=1.01), target, sign,
                           ShootConfig(n_nodes=257))
        assert lams == [sign * 1e8]


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
        # an empty branch used to end in an IndexError
        empty = Branch(+1, P13, ())
        with pytest.raises(ParameterError, match="empty"):
            solutions_at_mass(empty, 1.0)
        with pytest.raises(ParameterError, match="empty"):
            least_energy_at_mass(empty, 1.0)


class TestRefinementSolves:
    """The refinements solve each lam at most once, never re-solve a
    branch point, and land on the point a cold solve gives."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """(lam, point) of each `_solve_normalized` call the test makes."""
        solves = []

        def recording(params, lam, sign, grid):
            point = _solve_normalized(params, lam, sign, grid)
            solves.append((float(lam), point))
            return point

        monkeypatch.setattr(branch_module, "_solve_normalized", recording)
        return solves

    @staticmethod
    def lams(solves):
        return [lam for lam, _ in solves]

    @pytest.mark.parametrize("eps", [1e-3, 2.5e-4])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_endpoint_point_at_alpha(self, solves, cfg_fast, eps, sign):
        pt = point_at_alpha(P13, math.pi**2 / 4 + eps, sign, cfg_fast)
        lams = self.lams(solves)
        assert len(set(lams)) == len(lams) <= 3
        assert_cold_solve(pt, sign)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_point_at_alpha_starts_at_prediction(self, solves, cfg_fast,
                                                 sign):
        # the first solve is at the lam the endpoint expansion predicts on
        # the shooting grid
        lam1 = dirichlet_lambda1_exact(1)
        target = lam1 + 1e-3
        grid = make_grid(P13, cfg_fast.n_nodes, 1.0)
        expansion = solve_psi(P13, principal_eigenpair(P13, grid))
        _, lam, _ = ap_predict(expansion, target - lam1, sign)
        point_at_alpha(P13, target, sign, cfg_fast)
        assert self.lams(solves)[0] == lam

    def test_point_at_alpha_start_past_the_grid_endpoint(self, solves):
        # at N=3, n=257 the grid's lambda_1 lies 1.5e-4 below the exact
        # one; for alpha - lambda_1 = 1e-10 on S- the expansion's lam lies
        # between the two (5.8e-5 past the exact endpoint), so the search
        # starts at its offset floor, and takes 13 solves (17 from the
        # fixed start)
        lam1 = dirichlet_lambda1_exact(3)
        target = lam1 + 1e-10
        pt = point_at_alpha(P33, target, -1, ShootConfig(n_nodes=257))
        assert self.lams(solves)[0] == pytest.approx(-lam1 - 1e-8 * lam1,
                                                     abs=1e-14)
        assert abs(pt.alpha - target) <= math.sqrt(257) \
            * np.finfo(float).eps * target
        assert len(solves) <= 13

    @pytest.mark.parametrize("eps", [1e-3, 2.5e-4])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_point_at_alpha_stops_at_resolution(self, solves, cfg_fast,
                                                eps, sign):
        # the first solve whose alpha is the target to within sqrt(n) eps
        # alpha is the last: closer solves would only move alpha by roundoff
        target = math.pi**2 / 4 + eps
        resolution = math.sqrt(cfg_fast.n_nodes) * np.finfo(float).eps * target
        point_at_alpha(P13, target, sign, cfg_fast)
        misses = [abs(pt.alpha - target) for _, pt in solves]
        assert misses[-1] <= resolution
        assert all(miss > resolution for miss in misses[:-1])

    def test_find_mu_star(self, solves, branch_33):
        find_mu_star(branch_33)
        lams = self.lams(solves)
        assert len(set(lams)) == len(lams) <= 8
        assert not set(lams) & set(branch_33.lambdas)

    def test_coarse_grid_large_lam(self, solves):
        # at n=257 and lam ~ 7000 the tangent's O(h^2 lam) gap makes
        # alpha_lam 8 times too large; the secant slope takes over
        pt = point_at_alpha(P33, 2e4, +1, ShootConfig(n_nodes=257))
        assert pt.alpha == pytest.approx(2e4, rel=1e-12)
        assert len(solves) <= 8

    def test_mu_star_is_a_local_maximum(self, solves):
        # on a coarse grid the root of the tangent's mu_lam lies about
        # 5e-4 in lam off the branch's own maximum
        cfg = ShootConfig(n_nodes=513)
        grid = make_grid(P33, cfg.n_nodes, 1.0)
        br = trace(P33, geometric_lambda_grid(P33, -9.0, 30.0, 12, sign=+1),
                   +1, cfg)
        mu_star, _, _ = find_mu_star(br)
        lam_star = {pt.mu: lam for lam, pt in solves}[mu_star]
        for offset in (-1e-3, -5e-4, -2e-4, 2e-4, 5e-4, 1e-3):
            near = _solve_normalized(P33, lam_star + offset, +1, grid)
            assert near.mu <= mu_star

    def test_solutions_at_mass(self, solves, branch_33):
        sols = solutions_at_mass(branch_33, 6.0)
        assert len(sols) == 2
        lams = self.lams(solves)
        assert len(set(lams)) == len(lams) <= 4 * len(sols)
        assert not set(lams) & set(branch_33.lambdas)
        for pt in sols:
            assert_cold_solve(pt, +1)

    def test_mass_search_stops_at_resolution(self, solves, branch_33):
        # the alpha search's stopping rule on mu: each crossing's search
        # stops at its first solve within sqrt(n) eps mu_target
        sols = solutions_at_mass(branch_33, 6.0)
        n = branch_33.points[0].profile.grid.n_nodes
        resolution = math.sqrt(n) * np.finfo(float).eps * 6.0
        assert len(sols) == 2
        searches = [[]]
        for _, pt in solves:
            searches[-1].append(abs(pt.mu - 6.0))
            if any(pt is sol for sol in sols):
                searches.append([])
        assert searches.pop() == []
        assert len(searches) == 2
        for misses in searches:
            assert misses[-1] <= resolution
            assert all(miss > resolution for miss in misses[:-1])


class TestTangent:
    """`_tangent` against centered differences of cold solves at
    lam +- 1e-4 max(1, |lam|).  On S+ the finite-volume tangent of an RK4
    profile is off by O(h^2 lam); on S- both use the same operator.
    u_r(1)_lam is not compared at N=3, lam=1000: the S+ tail there is
    grafted and its finite-volume slope is roundoff (see `_tangent`)."""

    @pytest.mark.parametrize("params,lam,sign,bound", [
        (P13, -2.0, +1, 1e-5), (P13, 20.0, +1, 1e-5),
        (P33, 1000.0, +1, 5e-3),
        (P13, -50.0, -1, 1e-8), (P13, -1000.0, -1, 1e-8)])
    def test_matches_centered_differences(self, cfg_fine, params, lam, sign,
                                          bound):
        grid = make_grid(params, cfg_fine.n_nodes, 1.0)
        h = 1e-4 * max(1.0, abs(lam))
        point, lo, hi = (_solve_normalized(params, x, sign, grid)
                         for x in (lam, lam - h, lam + h))
        tangent = branch_module._tangent(point)
        checks = [(tangent.alpha, lambda pt: pt.alpha),
                  (tangent.mu, lambda pt: pt.mu),
                  (tangent.M, lambda pt: pt.M_alpha)]
        if params.N == 1:
            checks.append((tangent.u.boundary_derivative,
                           lambda pt: pt.ur1))
        for got, f in checks:
            quotient = (f(hi) - f(lo)) / (2.0 * h)
            assert abs(got / quotient - 1.0) <= bound


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


L2_CRITICAL_UNSTABLE = pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="ROADMAP item 14")


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
            if pt.alpha > 1.5 * alpha_star:
                assert pt.stability is StabilityTag.UNSTABLE

    def test_figure1_window_has_no_boundary(self, cfg_fine):
        # the paper's Figure-1 window: each point's own error bar resolves
        # the sign of mu' from the endpoint up to alpha ~ 1e4, and the
        # tags switch once, at alpha*
        lams = geometric_lambda_grid(P33, -math.pi**2 + 0.4, 3500.0, 80,
                                     sign=+1)
        tagged = classify_stability(trace(P33, lams, +1, cfg_fine))
        _, alpha_star, _ = find_mu_star(tagged)
        for pt in tagged.points:
            assert pt.stability is (StabilityTag.STABLE
                                    if pt.alpha < alpha_star
                                    else StabilityTag.UNSTABLE)

    @pytest.mark.parametrize("params,lam_lo", [
        pytest.param(P15, -2.4, marks=L2_CRITICAL_UNSTABLE, id="N1-p5"),
        pytest.param(P23, -5.7, marks=L2_CRITICAL_UNSTABLE, id="N2-p3"),
    ])
    def test_l2_critical_never_unstable(self, params, lam_lo, cfg_fine):
        # the paper: least-energy standing waves are stable for every mass
        # when p <= 1 + 4/N.  Today 19 of the 60 points are tagged
        # unstable, from alpha ~ 42 (N=1) and ~ 86.5 (N=2) on: the true
        # mu' is positive but exponentially small, the traced mu' carries
        # the grid's O(h^2) error, and the band between its two forms
        # cannot see grid error
        lams = geometric_lambda_grid(params, lam_lo, 2000.0, 60, sign=+1)
        tagged = classify_stability(trace(params, lams, +1, cfg_fine))
        assert len(tagged) == 60
        unstable = [pt.alpha for pt in tagged.points
                    if pt.stability is StabilityTag.UNSTABLE]
        assert unstable == []

    def test_equal_alpha_endpoint_raises(self, branch_13, monkeypatch):
        # mu' at the last point divides by its alpha_lam, stubbed to 0
        pts = branch_13.points[:4]
        _stall_alpha_at(monkeypatch, pts[-1])
        with pytest.raises(SolverError) as exc:
            classify_stability(replace(branch_13, points=pts))
        assert exc.value.diagnostics == {"i": 3, "lam": pts[-1].lam,
                                         "alpha": pts[-1].alpha}

    def test_keeps_no_profiles(self, branch_13):
        # neither branch holds derivative profiles: beyond its fields,
        # only the per-point scalar caches (alphas, mus, ...) may be set
        tagged = classify_stability(branch_13)
        fields = {f.name for f in dataclasses.fields(Branch)}
        for br in (branch_13, tagged):
            for name, value in vars(br).items():
                if name not in fields:
                    assert isinstance(value, np.ndarray)
                    assert value.shape == (len(br),)

    def test_defocusing_unknown(self, branch_defoc):
        tagged = classify_stability(branch_defoc)
        assert all(pt.stability is StabilityTag.UNKNOWN for pt in tagged.points)


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

    def test_equal_alpha_neighbors_raise(self, branch_13, monkeypatch):
        # alpha_lam = 0 at point 5: a typed SolverError, whatever the
        # neighbours
        pt = branch_13.points[5]
        _stall_alpha_at(monkeypatch, pt)
        with pytest.raises(SolverError) as exc:
            branch_13.derivative(5)
        assert exc.value.diagnostics == {"i": 5, "lam": pt.lam,
                                         "alpha": pt.alpha}

    def test_endpoints_and_short_branches(self, branch_13):
        # each derivative comes from its own point's tangent, so it is the
        # same at the endpoints, on a 2-point branch and on the full one
        n = len(branch_13.points)
        for i in (0, n - 1):
            d = branch_13.derivative(i)
            assert d.lambda_prime > 0.0 and d.mu_prime > 0.0
        pair = replace(branch_13, points=branch_13.points[:2])
        for i in (0, 1):
            d, full = pair.derivative(i), branch_13.derivative(i)
            assert d.mu_prime == full.mu_prime
            assert np.array_equal(d.v.values, full.v.values)
        with pytest.raises(ParameterError):
            branch_13.derivative(n)
        with pytest.raises(ParameterError):
            classify_stability(replace(branch_13, points=()))


def _stall_alpha_at(monkeypatch, point):
    """Stub `_tangent` so that alpha_lam is 0 at `point` only."""
    tangent = branch_module._tangent
    monkeypatch.setattr(
        branch_module, "_tangent",
        lambda pt: replace(tangent(pt), alpha=0.0) if pt is point
        else tangent(pt))
