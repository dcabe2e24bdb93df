"""Identity residuals and linearized spectra along branches."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from nlsball import (
    ProblemParams,
    ShootConfig,
    derivative_identities,
    geometric_lambda_grid,
    linearized_spectrum,
    normalize,
    pohozaev_residual,
    solve_ball_profile,
    trace,
)
from nlsball.branch import Branch
from nlsball.errors import ParameterError, SolverError
from nlsball.verify import _bordering_eigenvalues, _sector_matrices

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)


@pytest.fixture(scope="module")
def identity_branch():
    # the tangent residuals depend on the grid, not on the point count
    cfg = ShootConfig(n_nodes=2049)
    lams = geometric_lambda_grid(P13, -1.0, 30.0, 30, sign=+1)
    return trace(P13, lams, +1, cfg)


class TestPohozaev:
    def test_first_integral_point(self, cfg_fine):
        prof = solve_ball_profile(P13, 0.0, +1, cfg_fine)
        pt = normalize(prof, 0.0, +1, P13)
        assert pohozaev_residual(pt) < 1e-5
        # lam = 0 reduces the identity to alpha = (4/3) u_r(1)^2
        assert pt.alpha == pytest.approx(4.0 / 3.0 * pt.ur1**2, rel=1e-6)

    def test_deep_defocusing_point(self, cfg_fine):
        prof = solve_ball_profile(P13, -2000.0, -1, cfg_fine)
        assert pohozaev_residual(normalize(prof, -2000.0, -1, P13)) < 1e-5

    def test_every_point_on_supercritical_branch(self, branch_33):
        for pt in branch_33.points:
            assert pohozaev_residual(pt) < 1e-5

    def test_grid_refinement_order(self):
        res = []
        for n in (1025, 2049):
            cfg = ShootConfig(n_nodes=n)
            prof = solve_ball_profile(P33, 2.0, +1, cfg)
            res.append(pohozaev_residual(normalize(prof, 2.0, +1, P33)))
        assert res[0] / max(res[1], 1e-16) > 3.0


class TestDerivativeIdentities:
    def test_identity_suite(self, identity_branch):
        rep = derivative_identities(identity_branch)
        assert np.max(rep.pohozaev_res) < 1e-5
        assert np.max(rep.multiplier_res) < 1e-6
        assert np.max(rep.orthogonality_res) < 1e-4
        assert np.max(rep.grad_pairing_res) < 1e-3
        assert np.max(rep.nonlinear_pairing_res) < 1e-3
        assert np.max(rep.mu_prime_identity_res) < 1e-3
        assert np.max(rep.M_prime_res) < 1e-2
        assert np.all(rep.lambda_primes > 0.0)
        assert np.all(rep.mu_primes > 0.0)  # subcritical

    def test_lambda_prime_positive_supercritical(self, branch_33):
        rep = derivative_identities(branch_33)
        assert np.all(rep.lambda_primes > 0.0)

    def test_grid_refinement_order(self):
        # the residuals are O(h^2) grid error, with no lambda-step part
        res = []
        lams = geometric_lambda_grid(P13, 1.0, 10.0, 31, sign=+1)
        for n in (1025, 2049, 4097):
            br = trace(P13, lams, +1, ShootConfig(n_nodes=n))
            rep = derivative_identities(br)
            res.append(np.max(rep.nonlinear_pairing_res))
        assert res[0] / res[1] > 3.0
        assert res[1] / res[2] > 3.0

    def test_too_short(self, cfg_fast):
        # every point has its derivatives, the two endpoints of a 2-point
        # branch too; only an empty branch has no identity suite
        br = trace(P13, [0.0, 1.0], +1, cfg_fast)
        rep = derivative_identities(br)
        assert len(rep.nonlinear_pairing_res) == len(rep.alphas) == 2
        assert len(rep.boundary_flux_res) == 2
        assert np.max(rep.nonlinear_pairing_res) < 1e-3
        with pytest.raises(ParameterError):
            derivative_identities(replace(br, points=()))

    def test_one_derivative_alive_at_a_time(self, identity_branch,
                                            monkeypatch):
        # each point's derivative is taken once, and the previous point's
        # profile is gone by the time the next one is computed
        taken, alive = [], []
        derivative = Branch.derivative

        def tracked(self, i):
            alive.append(sum(ref() is not None for ref in taken))
            d = derivative(self, i)
            taken.append(weakref.ref(d.v))
            return d

        monkeypatch.setattr(Branch, "derivative", tracked)
        derivative_identities(identity_branch)
        assert len(taken) == len(identity_branch)
        assert max(alive) <= 1


class TestBoundaryFlux:
    def test_subcritical_residual(self, identity_branch):
        res = derivative_identities(identity_branch).boundary_flux_res
        assert np.max(res) < 1e-2

    def test_critical_sign_relation(self, branch_15):
        # -p+1+4/N = 0 at N=1, p=5: sign(mu') = -sign(u_r(1) v_r(1))
        for i in range(1, len(branch_15.points) - 1):
            pt = branch_15.points[i]
            d = branch_15.derivative(i)
            assert np.sign(d.mu_prime) == -np.sign(pt.ur1 * d.vr1)

    def test_supercritical_bracket_tracks_sign_change(self, branch_33):
        params = branch_33.params
        N, p = params.N, params.p
        mu_primes, brackets = [], []
        for i in range(1, len(branch_33.points) - 1):
            pt = branch_33.points[i]
            d = branch_33.derivative(i)
            mu_primes.append(d.mu_prime)
            brackets.append(
                (-p + 1.0 + 4.0 / N)
                - (4.0 * params.omega / N) * pt.ur1 * d.vr1
            )
        mu_primes = np.array(mu_primes)
        brackets = np.array(brackets)
        flip_mu = int(np.argmax(mu_primes < 0.0))
        flip_bracket = int(np.argmax(brackets < 0.0))
        assert abs(flip_mu - flip_bracket) <= 1
        assert np.all(np.sign(mu_primes[5:]) == np.sign(brackets[5:]))


class TestSpectrum:
    def test_focusing_counts_across_regimes(self, branch_13, branch_15, branch_33):
        samples = [branch_13.points[5], branch_13.points[-5],
                   branch_15.points[5], branch_33.points[5],
                   branch_33.points[-5]]
        for pt in samples:
            sp = linearized_spectrum(pt, l_max=3)
            assert sp.negative_counts[0] == 1
            assert sp.total_negative == 1
            assert sp.min_abs_eigenvalue > 0.0
            for ew in sp.eigenvalues:
                assert np.all(np.diff(ew) >= 0.0)

    def test_translation_mode_positive_at_figure1_end(self):
        # the last lambda of the Figure-1 window: linearized at the RK4
        # profile, the l = 1 translation eigenvalue read -0.33, a second
        # negative direction; at the discrete standing wave it is +66.5
        prof = solve_ball_profile(P33, 3500.0, +1, ShootConfig(n_nodes=2049))
        sp = linearized_spectrum(normalize(prof, 3500.0, +1, P33), l_max=3)
        assert sp.negative_counts == (1, 0, 0, 0)
        assert sp.eigenvalues[1][0] > 10.0

    def test_defocusing_no_negatives(self, branch_defoc):
        for pt in (branch_defoc.points[2], branch_defoc.points[-2]):
            sp = linearized_spectrum(pt, l_max=3)
            assert sp.total_negative == 0

    def test_morse_bound(self, branch_33):
        for pt in branch_33.points[::6]:
            sp = linearized_spectrum(pt, l_max=3)
            assert sp.total_negative in (1, 2)
            assert sp.total_negative == 1  # observed value on the ball

    def test_gap_uniform_over_window(self, branch_13):
        gaps = [linearized_spectrum(pt, 2).min_abs_eigenvalue
                for pt in branch_13.points[::8]]
        assert min(gaps) > 0.0

    def test_l_max_guard(self, branch_13):
        with pytest.raises(ParameterError):
            linearized_spectrum(branch_13.points[0], 0)

    def test_n1_has_two_sectors(self, branch_13, branch_33):
        # S^0 carries only the even and the odd sector; l_max > 1 is
        # accepted and capped
        sp = linearized_spectrum(branch_13.points[5], l_max=3)
        assert sp.l_values == (0, 1)
        assert len(sp.negative_counts) == len(sp.eigenvalues) == 2
        assert linearized_spectrum(branch_33.points[5], 3).l_values == \
            (0, 1, 2, 3)


def _full_spectrum(d, e):
    return eigh_tridiagonal(d, e, eigvals_only=True)


def _inf_norm(d, e):
    off = np.abs(e)
    return float(np.max(np.abs(d) + np.append(off, 0.0) + np.append(0.0, off)))


class TestSelectedSpectrum:
    """The negative count and the eigenvalues bordering zero against the
    full tridiagonal spectrum."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(17, 200),
           t=st.floats(0.05, 0.95), data=st.data())
    def test_matches_full_spectrum(self, seed, n, t, data):
        neg = data.draw(st.integers(0, n), label="neg")
        rng = np.random.default_rng(seed)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        w = _full_spectrum(d, e)
        below = w[neg - 1] if neg else w[0] - 1.0
        above = w[neg] if neg < n else w[-1] + 1.0
        # a clear gap at zero keeps the count well defined under roundoff;
        # t < 1/2 puts the last negative eigenvalue nearest to zero
        assume(above - below > 1e-6 * _inf_norm(d, e))
        d = d - (below + t * (above - below))
        full = _full_spectrum(d, e)
        tol = 64.0 * np.finfo(float).eps * _inf_norm(d, e)
        ew, count, gap = _bordering_eigenvalues(d, e)
        assert count == int(np.count_nonzero(full < 0.0)) == neg
        assert len(ew) == min(neg + 1, n)
        np.testing.assert_allclose(ew, full[:neg + 1], rtol=0.0, atol=tol)
        assert abs(gap - float(np.min(np.abs(full)))) <= tol

    def test_no_bisection_below_nonnegative_gershgorin_bound(self):
        # diagonally dominant: no eigenvalue below 1, so only the index
        # search runs (LAPACK rejects an empty value interval)
        d = np.linspace(3.0, 5.0, 20)
        e = np.ones(19)
        ew, count, gap = _bordering_eigenvalues(d, e)
        full = _full_spectrum(d, e)
        tol = 64.0 * np.finfo(float).eps * _inf_norm(d, e)
        assert count == 0
        np.testing.assert_allclose(ew, full[:1], rtol=0.0, atol=tol)
        assert gap == ew[0]

    def test_nonfinite_sector_raises(self):
        d = np.array([1.0, np.nan, 1.0])
        with pytest.raises(SolverError):
            _bordering_eigenvalues(d, np.zeros(2))

    def test_too_many_negative_counted(self):
        # lam = -1e7 makes every eigenvalue negative, more than a lowest-16
        # search could count; -2e3 leaves part of each sector negative
        prof = solve_ball_profile(P13, 1.0, +1, ShootConfig(n_nodes=65))
        base = normalize(prof, 1.0, +1, P13)
        for lam in (-1e7, -2e3):
            pt = replace(base, lam=lam)
            sp = linearized_spectrum(pt, l_max=3)
            sizes = _assert_matches_full_spectrum(sp, pt)
            for count, size in zip(sp.negative_counts, sizes):
                if lam == -1e7:
                    assert count == size > 16
                else:
                    assert 0 < count < size

    def test_small_grid(self):
        # 16 nodes: the l = 0 sector has 15 unknowns, l >= 1 sectors 14
        prof = solve_ball_profile(P13, 1.0, +1, ShootConfig(n_nodes=16))
        pt = normalize(prof, 1.0, +1, P13)
        sp = linearized_spectrum(pt, l_max=3)
        _assert_matches_full_spectrum(sp, pt)
        assert [len(ew) for ew in sp.eigenvalues] == \
            [count + 1 for count in sp.negative_counts]
        assert sp.negative_counts[0] == 1
        assert sp.total_negative == 1


def _assert_matches_full_spectrum(sp, pt):
    """Each sector's count and bordering eigenvalues against its full
    spectrum; returns the sector sizes."""
    sizes = []
    sectors = _sector_matrices(pt, sp.l_values[-1])
    for ew, count, (_, d, e) in zip(sp.eigenvalues, sp.negative_counts,
                                    sectors):
        full = _full_spectrum(d, e)
        assert count == int(np.count_nonzero(full < 0.0))
        tol = 64.0 * np.finfo(float).eps * _inf_norm(d, e)
        np.testing.assert_allclose(ew, full[:count + 1], rtol=0.0, atol=tol)
        sizes.append(len(d))
    return sizes


@pytest.fixture(scope="module")
def criterion_11_points():
    # the focusing and defocusing points of acceptance criterion 11
    cfg = ShootConfig(n_nodes=2049)
    points = []
    for params, sign, lams in ((P13, +1, (-1.0, 2.0, 20.0)),
                               (P15, +1, (0.5, 10.0, 40.0)),
                               (P33, +1, (-5.0, 0.5, 3.0, 15.0)),
                               (P13, -1, (-10.0, -300.0))):
        for lam in lams:
            prof = solve_ball_profile(params, lam, sign, cfg)
            points.append(normalize(prof, lam, sign, params))
    return points


def test_criterion_11_counts_match_full_spectrum(criterion_11_points):
    for pt in criterion_11_points:
        sp = linearized_spectrum(pt, l_max=3)
        full_counts = tuple(
            int(np.count_nonzero(_full_spectrum(d, e) < 0.0))
            for _, d, e in _sector_matrices(pt, 3))
        assert sp.negative_counts == full_counts
