"""Grid, quadrature, profile, and eigenpair contracts."""

import cmath
import gc
import math
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_banded
from scipy.special import jn_zeros, jv

import nlsball
from nlsball import (
    ProblemParams,
    Regime,
    ball_volume,
    dirichlet_lambda1_exact,
    grad_norm_sq,
    make_grid,
    principal_eigenpair,
    surface_measure,
)
from nlsball.core import RadialProfile, _load_flapack
from nlsball.errors import ParameterError, SolverError


class TestProblemParams:
    def test_regimes(self):
        assert ProblemParams(1, 3.0).regime is Regime.SUBCRITICAL
        assert ProblemParams(1, 5.0).regime is Regime.L2CRITICAL
        assert ProblemParams(2, 3.0).regime is Regime.L2CRITICAL
        assert ProblemParams(3, 3.0).regime is Regime.SUPERCRITICAL
        assert ProblemParams(3, 2.0).regime is Regime.SUBCRITICAL

    @pytest.mark.parametrize("N", [True, False])
    def test_bool_dimension_refused(self, N):
        # True passed as N = 1 and False failed only as N < 1
        with pytest.raises(ParameterError, match="dimension"):
            ProblemParams(N, 3.0)

    def test_numpy_integer_dimension(self):
        params = ProblemParams(np.int64(3), 3.0)
        assert params.N == 3 and type(params.N) is int

    def test_sobolev_limit(self):
        assert ProblemParams(1, 9.0).sobolev_limit == math.inf
        assert ProblemParams(3, 3.0).sobolev_limit == pytest.approx(5.0)

    @pytest.mark.parametrize("N,p", [(1, 1.0), (3, 5.0), (3, 7.0), (4, 3.0), (0, 2.0)])
    def test_rejections(self, N, p):
        with pytest.raises(ParameterError):
            ProblemParams(N, p)

    def test_surface_measures(self):
        assert surface_measure(1) == pytest.approx(2.0, rel=1e-14)
        assert surface_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


class TestGrid:
    @pytest.mark.parametrize("N,n", [(3, 1024), (1, 512), (2, 512)])
    def test_ball_volume_exact(self, N, n):
        params = ProblemParams(N, 1.0 + 2.0 / N)
        grid = make_grid(params, n, 1.0)
        vol = grid.integrate(np.ones(n))
        assert abs(vol / ball_volume(N) - 1.0) < 1e-10

    def test_disk_r2(self):
        grid = make_grid(ProblemParams(2, 3.0), 512, 1.0)
        assert grid.integrate(grid.nodes**2) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_polynomial_exactness(self):
        # integrand f * r^{N-1} cubic on each panel integrates exactly
        grid = make_grid(ProblemParams(3, 2.0), 257, 1.0)
        assert grid.quad(grid.nodes) == pytest.approx(1.0 / 4.0, rel=1e-13)
        assert grid.quad(np.ones(257)) == pytest.approx(1.0 / 3.0, rel=1e-13)
        g1 = make_grid(ProblemParams(1, 3.0), 257, 1.0)
        assert g1.quad(g1.nodes**3) == pytest.approx(1.0 / 4.0, rel=1e-13)
        # one order beyond panel exactness stays inside 1e-10 at 1k nodes
        fine = make_grid(ProblemParams(3, 2.0), 1025, 1.0)
        assert abs(fine.quad(fine.nodes**2) / (1.0 / 5.0) - 1.0) < 1e-10

    def test_weights_nonnegative(self):
        for N in (1, 2, 3, 5):
            grid = make_grid(ProblemParams(N, 1.5), 129, 1.0)
            assert np.all(grid.weights >= 0.0)

    def test_parameter_errors(self):
        params = ProblemParams(2, 3.0)
        with pytest.raises(ParameterError):
            make_grid(params, 8, 1.0)
        with pytest.raises(ParameterError):
            make_grid(params, 64, -1.0)


def _loop_tridiag(grid):
    """Reference build of the operator, one node at a time."""
    r = grid.nodes
    m = grid.n_nodes - 1
    nd = grid.n_dim
    faces = np.empty(len(r) + 1)
    faces[0], faces[-1] = r[0], r[-1]
    faces[1:-1] = 0.5 * (r[1:] + r[:-1])
    vol = ((faces[1:] ** nd - faces[:-1] ** nd) / nd)[:m]
    cond = faces[1:-1] ** (nd - 1) / np.diff(r)
    diag, lower, upper = np.zeros(m), np.zeros(m - 1), np.zeros(m - 1)
    diag[0] = cond[0] / vol[0]
    upper[0] = -cond[0] / vol[0]
    for i in range(1, m):
        diag[i] = (cond[i - 1] + cond[i]) / vol[i]
        lower[i - 1] = -cond[i - 1] / vol[i]
        if i < m - 1:
            upper[i] = -cond[i] / vol[i]
    return lower, diag, upper, vol


class TestRadialOperator:
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    @pytest.mark.parametrize("n,R", [(16, 1.0), (1025, 1.0), (2050, 20.0)])
    def test_matches_loop_reference(self, N, n, R):
        grid = make_grid(ProblemParams(N, 1.5), n, R)
        op = grid.operator
        ref = _loop_tridiag(grid)
        for got, want in zip((op.lower, op.diag, op.upper, op.vol), ref):
            assert np.array_equal(got, want)
        y = np.random.default_rng(n).normal(size=n)
        lower, diag, upper, _ = ref
        want = diag * y[:-1]
        want[:-1] += upper * y[1:-1]
        want[1:] += lower * y[:-2]
        assert np.array_equal(op.apply(y), want)

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("dt", [1e-3, -2.5e-4])
    def test_complex_shift_matches_dense(self, N, dt):
        # the evolution step: shift -V - 2i/dt with a real potential V
        op = make_grid(ProblemParams(N, 3.0), 257, 1.0).operator
        m = len(op.diag)
        rng = np.random.default_rng(N)
        shift = -rng.uniform(0.0, 50.0, m) - 2j / dt
        rhs = rng.normal(size=m) + 1j * rng.normal(size=m)
        dense = (np.diag(op.diag + shift) + np.diag(op.upper, 1)
                 + np.diag(op.lower, -1))
        want = np.linalg.solve(dense, rhs)
        got = op.solve(shift, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("N", [1, 3])
    def test_real_solve_matches_real_build(self, N):
        # bit for bit the banded solve on the same array; real shifts and
        # right-hand sides stay real
        op = make_grid(ProblemParams(N, 3.0), 513, 1.0).operator
        m = len(op.diag)
        rng = np.random.default_rng(N)
        rhs = rng.normal(size=m)
        crhs = rhs + 1j * rng.normal(size=m)
        evolve_shift = -rng.uniform(0.0, 50.0, m) - 2j / 2e-3
        cases = [(2.5, rhs), (rng.uniform(-5.0, 5.0, m), rhs),
                 (0.0, rhs),  # principal_eigenpair
                 (evolve_shift, crhs),  # the relaxation step
                 (evolve_shift, rhs)]  # real rhs, complex shift
        bands = (op.lower.copy(), op.upper.copy())
        for shift, b in cases:
            ab = np.zeros((3, m), np.result_type(shift, b, float))
            ab[0, 1:] = op.upper
            ab[1, :] = op.diag + shift
            ab[2, :-1] = op.lower
            got = op.solve(shift, b)
            assert got.dtype == ab.dtype
            assert np.array_equal(got, solve_banded((1, 1), ab, b))
        # the solve leaves the stored bands alone
        assert np.array_equal(op.lower, bands[0])
        assert np.array_equal(op.upper, bands[1])

    @pytest.mark.parametrize("case", [
        "real shift, real rhs", "complex scalar shift",
        "complex per-unknown shift", "complex rhs, real shift", "2-D rhs",
        "2-D complex rhs"])
    def test_solve_calls_the_routine_scipy_picks(self, case):
        # bit for bit the ?gtsv that scipy.linalg.get_lapack_funcs picks
        # for the same shifted diagonal and right-hand side
        op = make_grid(ProblemParams(3, 3.0), 257, 1.0).operator
        m = len(op.diag)
        rng = np.random.default_rng(5)
        shift = rng.uniform(-5.0, 5.0, m)
        rhs = rng.normal(size=m)
        shift, rhs = {
            "real shift, real rhs": (shift, rhs),
            "complex scalar shift": (2.5 - 1e3j, rhs),
            "complex per-unknown shift": (shift - 1e3j, rhs),
            "complex rhs, real shift": (shift, rhs + 1j * rng.normal(size=m)),
            "2-D rhs": (shift, rng.normal(size=(m, 3))),
            "2-D complex rhs": (shift, rng.normal(size=(m, 3)) * (1 - 2j)),
        }[case]
        d = op.diag + shift
        gtsv, = get_lapack_funcs(("gtsv",), (d, rhs))
        *_, want, info = gtsv(op.lower, d, op.upper, rhs)
        assert info == 0
        got = op.solve(shift, rhs)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_columns_solve_as_if_alone(self, N, dtype):
        # several right-hand sides in one ?gtsv call: each column bit for
        # bit the solve of that column alone
        op = make_grid(ProblemParams(N, 3.0), 257, 1.0).operator
        m = len(op.diag)
        rng = np.random.default_rng(N)
        shift = -rng.uniform(0.0, 50.0, m)
        if dtype is complex:
            shift = shift - 2j / 1e-3
        cols = rng.normal(size=(m, 3)).astype(dtype)
        cols[0, 1] = 1e30  # a column far out of scale with the others
        got = op.solve(shift, cols)
        assert got.shape == (m, 3) and got.dtype == np.result_type(shift, cols)
        for j in range(3):
            assert np.array_equal(got[:, j], op.solve(shift, cols[:, j].copy()))

    def test_nonfinite_column_names_its_unknown(self):
        op = make_grid(ProblemParams(3, 3.0), 16, 1.0).operator
        rhs = np.ones((len(op.diag), 3))
        rhs[9, 2] = math.inf
        with pytest.raises(SolverError) as exc:
            op.solve(1.0, rhs)
        assert exc.value.diagnostics == {"array": "rhs", "index": 9,
                                         "value": math.inf}

    @pytest.mark.parametrize("array,index", [("shift", 0), ("shift", 7),
                                             ("rhs", 14)])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nonfinite_input_raises(self, array, index, bad, dtype):
        op = make_grid(ProblemParams(3, 3.0), 16, 1.0).operator
        m = len(op.diag)
        shift = np.ones(m, dtype)
        rhs = np.ones(m, dtype)
        named = {"shift": shift, "rhs": rhs}
        named[array][index] = bad
        with pytest.raises(SolverError) as exc:
            op.solve(shift, rhs)
        diag = exc.value.diagnostics
        assert diag["array"] == array and diag["index"] == index
        assert not cmath.isfinite(diag["value"])
        # the screen sums each input: finite entries whose sum overflows
        # are no reason to refuse the solve (a dominant shift keeps the
        # elimination itself from overflowing)
        shift[:] = 1e6
        rhs[:] = 1.0
        named[array][:] = 1.5e307
        ab = np.zeros((3, m), dtype)
        ab[0, 1:] = op.upper
        ab[1, :] = op.diag + shift
        ab[2, :-1] = op.lower
        with np.errstate(over="ignore"):
            assert not cmath.isfinite(named[array].sum())
            got = op.solve(shift, rhs)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, solve_banded((1, 1), ab, rhs))

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_singular_system_raises(self, N, dtype):
        # A - diag(A) has a zero diagonal; with 15 unknowns (odd) it is
        # singular, and elimination stops at the last pivot
        op = make_grid(ProblemParams(N, 3.0), 16, 1.0).operator
        rhs = np.ones(len(op.diag), dtype)
        with pytest.raises(SolverError) as exc:
            op.solve(-op.diag, rhs)
        assert exc.value.diagnostics["info"] == 15

    @settings(max_examples=40, deadline=None)
    @given(N=st.sampled_from([1, 2, 3, 5]), n=st.integers(16, 3000),
           R=st.floats(0.1, 50.0))
    def test_vol_symmetry(self, N, n, R):
        # vol_i A_ij = vol_j A_ji on the off-diagonals; each side is
        # -cond rounded twice
        op = make_grid(ProblemParams(N, 1.5), n, R).operator
        left = op.vol[:-1] * op.upper
        right = op.vol[1:] * op.lower
        rel = np.max(np.abs(left - right) / np.abs(left))
        assert rel <= 4.0 * np.finfo(float).eps

    # odd n is plain Simpson, even n ends with the 3/8 panel
    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=20, deadline=None)
    @given(Nk=st.sampled_from([(N, k) for N in (1, 2, 3)
                               for k in range(4) if k + N - 1 <= 3]),
           half=st.integers(8, 1500), R=st.floats(0.1, 50.0))
    def test_simpson_exact_on_cubics(self, parity, Nk, half, R):
        N, k = Nk
        grid = make_grid(ProblemParams(N, 1.5), 2 * half + parity, R)
        exact = R ** (k + N) / (k + N)
        assert grid.quad(grid.nodes**k) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("N,slope", [(1, -math.pi / 2),
                                         (3, -math.sqrt(math.pi / 2))])
    def test_phi1_boundary_slope(self, N, slope):
        params = ProblemParams(N, 3.0)
        eig = principal_eigenpair(params, make_grid(params, 2049, 1.0))
        assert abs(eig.phi1.boundary_derivative - slope) < 1e-6


class TestIntegrate:
    def test_phi1_moments_1d(self):
        params = ProblemParams(1, 3.0)
        grid = make_grid(params, 4097, 1.0)
        phi1 = principal_eigenpair(params, grid).phi1.values
        # phi_1 = cos(pi x / 2) on (-1, 1)
        assert grid.integrate(phi1**2) == pytest.approx(1.0, abs=1e-10)
        assert grid.integrate(phi1**4) == pytest.approx(0.75, rel=1e-6)

    def test_zero_profile(self):
        grid = make_grid(ProblemParams(2, 3.0), 65, 1.0)
        assert grid.integrate(np.zeros(65)) == 0.0


class TestGradNorm:
    def test_eigen_identity_1d(self):
        params = ProblemParams(1, 3.0)
        grid = make_grid(params, 4097, 1.0)
        eig = principal_eigenpair(params, grid)
        assert grad_norm_sq(eig.phi1) == pytest.approx(math.pi**2 / 4, rel=1e-6)

    def test_eigen_identity_3d(self):
        params = ProblemParams(3, 3.0)
        grid = make_grid(params, 4097, 1.0)
        eig = principal_eigenpair(params, grid)
        assert grad_norm_sq(eig.phi1) == pytest.approx(math.pi**2, rel=1e-6)

    def test_constant_profile(self):
        grid = make_grid(ProblemParams(2, 3.0), 65, 2.0)
        prof = RadialProfile(grid, np.full(65, 3.7), 0.0)
        assert grad_norm_sq(prof) == 0.0


class TestEigenpair:
    ORACLES = {
        1: math.pi**2 / 4,
        2: 2.404825557695773**2,  # j_{0,1}^2
        3: math.pi**2,
    }

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_lambda1(self, N):
        params = ProblemParams(N, 1.0 + 2.0 / N)
        grid = make_grid(params, 16385, 1.0)
        eig = principal_eigenpair(params, grid)
        assert abs(eig.lambda1 / self.ORACLES[N] - 1.0) < 1e-8

    @staticmethod
    def bessel_zero(nu):
        """j_{nu,1}: scipy's jn_zeros for integer orders, else bisection
        of jv to adjacent floats between nu + 1/2 and nu + 2 nu^{1/3} + 2
        (true for the half-integer orders nu <= 3/2 used here)."""
        if nu == int(nu):
            return jn_zeros(int(nu), 1)[0]
        lo, hi = nu + 0.5, nu + 2.0 * abs(nu) ** (1.0 / 3.0) + 2.0
        assert jv(nu, lo) > 0.0 > jv(nu, hi)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if jv(nu, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo if abs(jv(nu, lo)) <= abs(jv(nu, hi)) else hi

    # the power series of J_nu meets the Bessel zeros within 2.2e-16 for
    # N <= 6 and within 5.6e-16 at N = 8, so one bar holds for all
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8])
    def test_exact_helper_matches_bessel(self, N):
        ref = self.bessel_zero(N / 2.0 - 1.0) ** 2
        assert dirichlet_lambda1_exact(N) == pytest.approx(ref, rel=1e-15)

    def test_exact_helper_values_are_stable(self):
        # every lambda grid of the CLI and the benchmark is built on these
        # values, which the former jv scan gave to the last bit
        assert [dirichlet_lambda1_exact(N) for N in (1, 2, 3)] == [
            2.4674011002723395, 5.783185962946785, 9.869604401089358]

    @pytest.mark.parametrize("N", [0, -1, 2.0, 1.5, "3", None, True, False])
    def test_exact_helper_refuses_bad_dimension(self, N):
        # N = 0 divided by zero and N = -1 returned 7.83
        with pytest.raises(ParameterError, match="dimension"):
            dirichlet_lambda1_exact(N)

    def test_exact_helper_takes_numpy_integers(self):
        assert dirichlet_lambda1_exact(np.int64(3)) == dirichlet_lambda1_exact(3)

    def test_exact_helper_refuses_lost_precision(self):
        # the series' alternating terms cancel ever more with the order:
        # at N = 100 the root came out 1.7e-4 off
        with pytest.raises(SolverError):
            dirichlet_lambda1_exact.__wrapped__(100)

    def test_normalization_and_positivity(self):
        params = ProblemParams(3, 3.0)
        grid = make_grid(params, 2049, 1.0)
        eig = principal_eigenpair(params, grid)
        assert abs(eig.phi1.l2_norm_sq() - 1.0) < 1e-10
        assert np.all(eig.phi1.values[:-1] > 0.0)
        assert abs(eig.phi1.values[-1]) == 0.0

    def test_eigen_identity_invariant(self):
        params = ProblemParams(2, 3.0)
        grid = make_grid(params, 2049, 1.0)
        eig = principal_eigenpair(params, grid)
        ratio = grad_norm_sq(eig.phi1) / (eig.lambda1 * eig.phi1.l2_norm_sq())
        assert abs(ratio - 1.0) < 1e-6

    def test_computed_once_per_grid(self):
        params = ProblemParams(1, 3.0)
        grid = make_grid(params, 257, 1.0)
        first = principal_eigenpair(params, grid)
        again = principal_eigenpair(params, grid)
        assert again.phi1.values is first.phi1.values
        # the grid keeps bare values, no reference back to itself, so it
        # is freed as soon as the last outside reference goes
        ref = weakref.ref(grid)
        gc.disable()
        try:
            del grid, first, again
            assert ref() is None
        finally:
            gc.enable()

    def test_second_order_refinement(self):
        params = ProblemParams(2, 3.0)
        vals = [
            principal_eigenpair(params, make_grid(params, n, 1.0)).lambda1
            for n in (1025, 2049, 4097)
        ]
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d2 < d1 / 3.2  # observed order ~2 (ratio 4)


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.optimize",
                                    "scipy.sparse", "scipy.special"])
def test_import_leaves_out(module):
    # the package loads scipy's LAPACK wrapper module alone.  With
    # scipy 1.17 a process that imports numpy peaks at about 27 MB of RSS,
    # 33 MB with the package and its CLI; importing scipy.linalg takes it
    # to 55 MB, scipy.sparse to 49 MB, scipy.special to 53 MB and
    # scipy.optimize to 76 MB
    env = dict(os.environ, PYTHONPATH=str(Path(nlsball.__file__).parents[1]))
    code = ("import sys, nlsball, nlsball.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("first", ["nlsball", "scipy.linalg"])
def test_lapack_module_is_scipys(first):
    # one module object, whichever of the two is imported first
    env = dict(os.environ, PYTHONPATH=str(Path(nlsball.__file__).parents[1]))
    second = "scipy.linalg" if first == "nlsball" else "nlsball"
    code = (f"import {first}, {second}, scipy.linalg.lapack as lapack; "
            "from nlsball.core import _flapack; "
            "print(lapack._flapack is _flapack, lapack.zgtsv is _flapack.zgtsv)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "True"]


def test_missing_lapack_module_raises(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as exc:
        _load_flapack()
    assert exc.value.name == "scipy.linalg._flapack"


def test_public_surface():
    # __all__ names the package's functions and types, no submodule, and
    # a star import binds exactly those names
    assert not [name for name in nlsball.__all__
                if isinstance(getattr(nlsball, name), types.ModuleType)]
    namespace = {}
    exec("from nlsball import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nlsball.__all__)
