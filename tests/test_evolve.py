"""Conservative time stepping and orbital-distance probes."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

from nlsball import (
    ComplexField,
    ProblemParams,
    ShootConfig,
    make_grid,
    normalize,
    orbit_distance,
    principal_eigenpair,
    solve_ball_profile,
    stability_probe,
)
from nlsball.evolve import (
    _grad_form,
    _mass,
    discrete_standing_wave,
    evolve,
)
from nlsball import shoot
from nlsball.core import RadialProfile
from nlsball.errors import ParameterError, SolverError

P13 = ProblemParams(N=1, p=3.0)
P33 = ProblemParams(N=3, p=3.0)


def _h1_inner(grid, a, b):
    """The H^1 inner product of unknowns a and b on the operator's cell
    measure and face conductances, written out as the reference."""
    op = grid.operator
    da = np.diff(a)
    db = np.diff(b)
    grad = complex(op.cond[:-1] @ (da * np.conj(db)))
    grad += op.cond[-1] * a[-1] * np.conj(b[-1])
    l2 = complex(op.vol @ (a * np.conj(b)))
    return grid.omega_n * (grad + l2)


@pytest.fixture(scope="module")
def stable_point():
    cfg = ShootConfig(n_nodes=1025)
    prof = solve_ball_profile(P13, 1.0, +1, cfg)
    return normalize(prof, 1.0, +1, P13)


@pytest.fixture(scope="module")
def standing_wave(stable_point):
    return discrete_standing_wave(stable_point)


@pytest.fixture(scope="module")
def supercritical_point():
    """alpha ~ 20 > alpha* ~ 13.2 on S+ for N=3, p=3 (criterion 12)."""
    prof = solve_ball_profile(P33, 5.0, +1, ShootConfig(n_nodes=1025))
    return normalize(prof, 5.0, +1, P33)


class TestDiscretization:
    def test_grad_form_matches_operator_pairing(self, standing_wave):
        grid = standing_wave.grid
        op = grid.operator
        y = standing_wave.values[:-1].astype(complex)
        pairing = float((op.vol * op.apply(y).real) @ y.real) * grid.omega_n
        assert pairing == pytest.approx(_grad_form(grid, y), rel=1e-12)


class TestEvolve:
    def test_parameter_guards(self, standing_wave):
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        with pytest.raises(ParameterError):
            evolve(field, P13, 0.0, 1.0)
        with pytest.raises(ParameterError):
            evolve(field, P13, 0.5, 0.1)
        with pytest.raises(ParameterError):
            evolve(field, P13, 1e-3, 1.0, sample_every=0)
        # a nan cap used to be ignored, and a zero cap ended every run at
        # its first step
        for cap in (math.nan, 0.0):
            with pytest.raises(ParameterError, match="blowup_cap"):
                evolve(field, P13, 1e-3, 1.0, blowup_cap=cap)
        # a reference on another grid used to fail in numpy broadcasting
        other = RadialProfile(make_grid(P13, 513, 1.0), np.zeros(513), 0.0)
        with pytest.raises(ParameterError, match="different grids"):
            evolve(field, P13, 1e-3, 1.0, reference=other)

    @pytest.mark.parametrize("params", [P13, ProblemParams(N=3, p=2.5)])
    @pytest.mark.parametrize("dt", [1e-3, -2.5e-4])
    def test_matches_reference_steps(self, params, dt):
        # the relaxation scheme written out with a banded solve; three
        # steps, so the potential update after a solve is covered too.
        # The sum psi = Phi^{n+1} + Phi^n form is the stepper's own
        # arithmetic; the algebraic form
        #   (A - V - 2i/dt) Phi^{n+1} = (V - 2i/dt) Phi^n - A Phi^n
        # is the same scheme and agrees to roundoff.
        grid = make_grid(params, 257, 1.0)
        op = grid.operator
        rng = np.random.default_rng(7)
        values = rng.normal(size=257) + 1j * rng.normal(size=257)
        values[-1] = 0.0
        rec = evolve(ComplexField(grid, values, 0.0), params, dt, 3 * abs(dt),
                     sample_every=1)
        ab = np.zeros((3, len(values) - 1), complex)
        ab[0, 1:] = op.upper
        ab[2, :-1] = op.lower
        y = z = values[:-1]
        pot = pot_z = np.abs(y) ** (params.p - 1.0)
        for _ in range(3):
            pot = 2.0 * np.abs(y) ** (params.p - 1.0) - pot
            ab[1, :] = op.diag - pot - 2j / dt
            y = solve_banded((1, 1), ab, (-4j / dt) * y) - y
            pot_z = 2.0 * np.abs(z) ** (params.p - 1.0) - pot_z
            ab[1, :] = op.diag - pot_z - 2j / dt
            z = solve_banded((1, 1), ab, (pot_z - 2j / dt) * z - op.apply(z))
        assert rec.end_reason == "completed"
        assert np.array_equal(rec.final.values[:-1], y)
        assert np.max(np.abs(y - z)) <= 1e-14 * np.max(np.abs(z))

    def test_one_solve_per_step(self, standing_wave, operator_work):
        # sampling every step, the orbit distance included, adds no
        # operator work
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        rec = evolve(field, P13, 1e-3, 0.025, sample_every=1,
                     reference=standing_wave)
        assert len(rec.times) == 26
        assert (operator_work.solves, operator_work.applies) == (25, 0)

    def test_boundary_enforced(self, standing_wave):
        bad = standing_wave.values.astype(complex).copy()
        bad[-1] = 0.3
        with pytest.raises(ParameterError):
            ComplexField(standing_wave.grid, bad, 0.0)

    @pytest.mark.parametrize("interior,boundary,ok", [
        (0.5, math.nan, False),    # NaN at the boundary node
        (math.nan, 0.3, False),    # a NaN interior must not void the check
        (math.nan, 0.0, True),     # a nonfinite record still builds
    ])
    def test_boundary_check_nan_safe(self, standing_wave, interior,
                                     boundary, ok):
        vals = standing_wave.values.astype(complex)
        vals[7] = interior
        vals[-1] = boundary
        if ok:
            ComplexField(standing_wave.grid, vals, 0.0)
        else:
            with pytest.raises(ParameterError):
                ComplexField(standing_wave.grid, vals, 0.0)

    def test_conservation(self, standing_wave):
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        rec = evolve(field, P13, 1e-3, 2.0, sample_every=100,
                     reference=standing_wave)
        mdrift = np.max(np.abs(rec.mass_history / rec.mass_history[0] - 1.0))
        edrift = np.max(np.abs(rec.energy_history - rec.energy_history[0])
                        / abs(rec.energy_history[0]))
        assert mdrift < 1e-10
        assert edrift < 1e-8
        assert np.max(rec.orbit_distance_history) < 1e-5

    def test_energy_drift_second_order(self, standing_wave):
        eig = principal_eigenpair(P13, standing_wave.grid)
        vals = (standing_wave.values + 0.2 * eig.phi1.values).astype(complex)
        vals[-1] = 0.0
        field = ComplexField(standing_wave.grid, vals, 0.0)
        drifts = []
        for dt in (4e-3, 2e-3):
            rec = evolve(field, P13, dt, 2.0, sample_every=50)
            drifts.append(np.max(np.abs(rec.energy_history
                                        - rec.energy_history[0]))
                          / abs(rec.energy_history[0]))
        assert drifts[0] / drifts[1] > 3.0

    def test_linear_regime(self, standing_wave):
        eig = principal_eigenpair(P13, standing_wave.grid)
        c = 1e-4
        vals = (c * eig.phi1.values).astype(complex)
        vals[-1] = 0.0
        rec = evolve(ComplexField(standing_wave.grid, vals, 0.0),
                     P13, 1e-3, 1.0, sample_every=1000)
        assert abs(rec.mass_history[-1] / rec.mass_history[0] - 1.0) < 1e-10
        phi = eig.phi1.values[:-1]
        z = np.vdot(phi, rec.final.values[:-1]) / np.vdot(phi, phi)
        phase_err = abs(cmath.phase(z * cmath.exp(1j * eig.lambda1 * 1.0)))
        assert phase_err < 1e-3
        assert np.max(np.abs(rec.final.values[:-1] - z * phi)) < 1e-10

    def test_time_reversal(self, standing_wave):
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        fwd = evolve(field, P13, 1e-3, 1.0, sample_every=10000)
        back = evolve(fwd.final, P13, -1e-3, 1.0, sample_every=10000)
        err = math.sqrt(_mass(standing_wave.grid,
                              back.final.values[:-1] - field.values[:-1]))
        assert err < 1e-6

    def test_blowup_cap(self, standing_wave):
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        cap = 0.5 * float(np.max(np.abs(field.values)))
        rec = evolve(field, P13, 1e-3, 1.0, blowup_cap=cap)
        assert rec.blowup_time is not None
        assert rec.end_reason == "blowup_cap"
        assert rec.blowup_time <= 1.0

    def test_overflow_ends_as_nonfinite(self, standing_wave):
        # 2 |Phi|^2 overflows in the first potential update; without a cap
        # the run must still end typed, with the finite initial state
        eig = principal_eigenpair(P13, standing_wave.grid)
        vals = 1e154 * eig.phi1.values.astype(complex)
        vals[-1] = 0.0
        field = ComplexField(standing_wave.grid, vals, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = evolve(field, P13, 1e-3, 1.0, blowup_cap=float("inf"))
        assert rec.end_reason == "nonfinite"
        assert rec.blowup_time == 0.0
        assert np.array_equal(rec.final.values, field.values)

    def test_rhs_overflow_ends_as_nonfinite(self):
        # p = 1.5 keeps V = |Phi|^{1/2} finite while the step's right-hand
        # side -(4i/dt) Phi overflows; the run must still end typed
        params = ProblemParams(N=1, p=1.5)
        grid = make_grid(params, 65, 1.0)
        vals = np.zeros(65, complex)
        vals[:-1] = 1e306
        with np.errstate(over="ignore", invalid="ignore"):
            rec = evolve(ComplexField(grid, vals, 0.0), params, 1e-3, 1.0,
                         blowup_cap=float("inf"))
        assert rec.end_reason == "nonfinite"
        assert rec.blowup_time == 0.0

    @settings(max_examples=30, deadline=None)
    @given(N=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([2.0, 3.0, 4.5]),
           dt=st.sampled_from([1e-3, -1e-3, 2.5e-4]),
           re=arrays(np.float64, 64, elements=st.floats(-2.0, 2.0)),
           im=arrays(np.float64, 64, elements=st.floats(-2.0, 2.0)))
    def test_step_conserves_mass(self, N, p, dt, re, im):
        grid = make_grid(ProblemParams(N=N, p=p), 65, 1.0)
        vals = np.append(re + 1j * im, 0.0)
        m0 = _mass(grid, vals[:-1])
        rec = evolve(ComplexField(grid, vals, 0.0), ProblemParams(N=N, p=p),
                     dt, abs(dt))
        assert rec.end_reason == "completed"
        if m0 > 0.0:
            assert abs(rec.mass_history[-1] / m0 - 1.0) <= 1e-12


class TestOrbitDistance:
    def test_phase_invariance(self, standing_wave):
        for theta in (0.3, 1.2, 2.9):
            field = ComplexField(standing_wave.grid,
                                 standing_wave.values * np.exp(1j * theta), 0.0)
            assert orbit_distance(field, standing_wave) < 1e-6

    def test_orthogonal_perturbation(self, standing_wave):
        eig = principal_eigenpair(P13, standing_wave.grid)
        delta = 1e-4
        vals = (standing_wave.values + delta * eig.phi1.values).astype(complex)
        vals[-1] = 0.0
        d = orbit_distance(ComplexField(standing_wave.grid, vals, 0.0),
                           standing_wave)
        phi = eig.phi1.values[:-1].astype(complex)
        h1 = math.sqrt(_h1_inner(standing_wave.grid, phi, phi).real)
        assert abs(d - delta * h1) < 1e-8

    @pytest.mark.parametrize("rel", [1e-4, 1e-8, 1e-12])
    def test_matches_direct_formula(self, standing_wave, rel):
        # y = e^{0.7i} (U + eps V) with V H^1-orthogonal to U, at distances
        # rel ||U||; the expanded form ||y||^2 + ||U||^2 - 2|<y, U>| read
        # 0.0 at rel = 1e-8 and 6e-8 at rel = 1e-12
        grid = standing_wave.grid
        u = standing_wave.values[:-1].astype(complex)
        phi = principal_eigenpair(P13, grid).phi1.values[:-1].astype(complex)
        v = phi - (_h1_inner(grid, phi, u) / _h1_inner(grid, u, u)).real * u
        norm_u = math.sqrt(_h1_inner(grid, u, u).real)
        eps = rel * norm_u / math.sqrt(_h1_inner(grid, v, v).real)
        y = cmath.exp(0.7j) * (u + eps * v)
        theta = cmath.phase(_h1_inner(grid, y, u))
        d = y - cmath.exp(1j * theta) * u
        direct = math.sqrt(_h1_inner(grid, d, d).real)
        got = orbit_distance(ComplexField(grid, np.append(y, 0.0), 0.0),
                             standing_wave)
        assert direct == pytest.approx(rel * norm_u, rel=1e-2)
        assert abs(got - direct) <= 4.0 * np.finfo(float).eps * norm_u

    def test_unimodular_invariance(self, standing_wave):
        vals = (standing_wave.values * (1.0 + 0.01j)).astype(complex)
        vals[-1] = 0.0
        f1 = ComplexField(standing_wave.grid, vals, 0.0)
        f2 = ComplexField(standing_wave.grid, vals * cmath.exp(0.83j), 0.0)
        assert orbit_distance(f1, standing_wave) == pytest.approx(
            orbit_distance(f2, standing_wave), abs=1e-10
        )

    def test_grid_mismatch(self, standing_wave):
        other = make_grid(P13, 513, 1.0)
        ref = RadialProfile(other, np.zeros(513), 0.0)
        field = ComplexField(standing_wave.grid,
                             standing_wave.values.astype(complex), 0.0)
        with pytest.raises(ParameterError):
            orbit_distance(field, ref)


class TestStabilityProbe:
    def test_unperturbed_floor(self, stable_point):
        rec = stability_probe(stable_point, 0.0, 4.0, 1e-3, sample_every=200)
        assert np.max(rec.orbit_distance_history) < 1e-4
        assert rec.blowup_time is None

    def test_standing_wave_is_exact_rotation(self, stable_point):
        # |U| is constant along the orbit, so the relaxed potential is exact
        # and every step rotates U by the same phase: only roundoff remains
        rec = stability_probe(stable_point, 0.0, 4.0, 1e-3, sample_every=200)
        assert np.max(rec.orbit_distance_history) < 1e-6
        mass = rec.mass_history
        assert np.max(np.abs(mass / mass[0] - 1.0)) < 1e-12

    def test_quintic_energy_drift(self):
        # the relaxed potential makes the modified energy exact only for
        # p = 3; the recorded energy must still meet criterion 12's bar
        p15 = ProblemParams(N=1, p=5.0)
        prof = solve_ball_profile(p15, 1.0, +1, ShootConfig(n_nodes=1025))
        rec = stability_probe(normalize(prof, 1.0, +1, p15), 1e-3, 20.0,
                              2e-3, sample_every=200)
        energy = rec.energy_history
        assert rec.end_reason == "completed"
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-5

    def test_stable_point_bounded(self, stable_point):
        rec = stability_probe(stable_point, 1e-3, 10.0, 2e-3, sample_every=200)
        assert np.max(rec.orbit_distance_history) < 1e-2
        assert rec.end_reason == "completed"
        assert rec.blowup_time is None

    def test_supercritical_departure(self, supercritical_point):
        rec = stability_probe(supercritical_point, 1e-3, 50.0, 2.5e-4,
                              sample_every=40)
        d = rec.orbit_distance_history
        assert np.max(d) / d[0] >= 10.0
        assert rec.end_reason == "blowup_cap"
        assert rec.blowup_time == pytest.approx(0.155)

    def test_small_delta_reaches_cap_warning_free(self, supercritical_point):
        # the field grows longer before the cap than at delta = 1e-3; no
        # step may overflow on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = stability_probe(supercritical_point, 5.61e-4, 50.0, 2.5e-4,
                                  sample_every=40)
        assert rec.end_reason == "blowup_cap"
        assert rec.blowup_time == pytest.approx(0.173)
        assert np.all(np.isfinite(rec.final.values))

    def test_polish_failure_is_typed(self, stable_point, monkeypatch):
        monkeypatch.setattr(shoot, "NEWTON_MAX_ITERATIONS", 0)
        with pytest.raises(SolverError) as info:
            discrete_standing_wave(stable_point)
        assert info.value.diagnostics["residual"] > 0.0

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_nonfinite_delta_named(self, stable_point, delta):
        # the perturbed field used to fail its boundary check instead
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="delta"):
                stability_probe(stable_point, delta, 1.0, 1e-3)

    def test_focusing_only(self, branch_defoc):
        with pytest.raises(ParameterError):
            stability_probe(branch_defoc.points[0], 1e-3, 1.0, 1e-3)
