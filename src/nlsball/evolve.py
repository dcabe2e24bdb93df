"""Radial time-dependent NLS integrator on the ball,
    i dPhi/dt + Delta Phi + |Phi|^{p-1} Phi = 0,  Phi(t, r=1) = 0,
used as an empirical orbital-stability probe for standing waves
e^{i lambda t} U.

The stepper is the relaxation scheme of C. Besse (SIAM J. Numer. Anal. 42,
2004) on the grid's RadialOperator A.  The nonlinear potential lives on
the half steps, V^{-1/2} = |Phi^0|^{p-1} and
V^{n+1/2} = 2 |Phi^n|^{p-1} - V^{n-1/2}, and each step is one tridiagonal
solve, made by the operator's own shifted solve:
    (i/dt - A/2 + V^{n+1/2}/2) Phi^{n+1} = (i/dt + A/2 - V^{n+1/2}/2) Phi^n.
The stepper solves for the sum psi = Phi^{n+1} + Phi^n, which satisfies
    (A - V^{n+1/2} - 2i/dt) psi = -(4i/dt) Phi^n,
and sets Phi^{n+1} = psi - Phi^n: the same scheme and the same Cayley
transform, with no matvec.  The solve's screen of its inputs is the
step's only finiteness check, and the samples reuse the step's |Phi| and
one difference of Phi.  At n = 1025 (N = 1, p = 3, dt = 2e-3, samples
every 10 steps) the best of 5 runs of 10 000 steps read 61-88 us per step
over four such measurements on a shared 2-core Intel Xeon (one thread;
the host's speed drifted between them).  Of that, the LAPACK zgtsv call
of scipy's wrapper module `scipy.linalg._flapack` takes 37-45 us.  With
the two forms alternating, the best runs read 70-78 us per step for this
form and 89-98 us for the form with A Phi^n on the right-hand side.
The scheme is linearly implicit: there is no inner iteration, so a step
cannot stall.  Because A is symmetric under the finite-volume cell
measure and V is real, each step is a Cayley transform and conserves the
cell-measure mass exactly (to roundoff); that discrete mass, and the
energy built on the operator's face conductances, are what the histories
record.  A standing wave keeps |Phi| fixed, so the scheme moves it by an
exact discrete rotation.

A run ends in one of three ways, recorded as `EvolutionRecord.end_reason`:
"completed" (the whole span was evolved), "blowup_cap" (sup|Phi| exceeded
the cap) or "nonfinite" (the field or its potential overflowed, so the
next step could not be taken).  The probe is one-sided evidence only: it
perturbs one standing wave along one direction, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import BranchPoint
from .core import (
    ProblemParams,
    RadialGrid,
    RadialProfile,
    _dirichlet_profile,
    principal_eigenpair,
)
from .errors import ParameterError, SolverError
from .shoot import _newton

DEFAULT_BLOWUP_FACTOR = 25.0


@dataclass(frozen=True)
class ComplexField:
    """A complex radial field with Dirichlet boundary at r = R."""

    grid: RadialGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        if len(self.values) != self.grid.n_nodes:
            raise ParameterError("field length does not match grid")
        # NaN-safe: a NaN boundary fails the test, and non-finite interior
        # entries do not enter the scale
        mod = np.abs(self.values)
        scale = 1.0 + np.max(mod, where=np.isfinite(mod), initial=0.0)
        if not mod[-1] <= 1e-12 * scale:
            raise ParameterError("field must vanish at the boundary node")
        self.values.setflags(write=False)


@dataclass(frozen=True)
class EvolutionRecord:
    """Sampled conservation and orbit-distance histories.

    `end_reason` says why the run ended: "completed", "blowup_cap" or
    "nonfinite"; `blowup_time` is set for the latter two.
    """

    times: np.ndarray
    mass_history: np.ndarray
    energy_history: np.ndarray
    orbit_distance_history: np.ndarray | None
    final: ComplexField
    blowup_time: float | None = None
    end_reason: str = "completed"


def _mass(grid, y):
    return grid.omega_n * float(grid.operator.vol @ np.abs(y) ** 2)


def _grad_form(grid, y, dy=None):
    """The energy's gradient form of the unknowns y; dy = np.diff(y)
    when the caller has it."""
    cond = grid.operator.cond
    if dy is None:
        dy = np.diff(y)
    d = np.abs(dy) ** 2
    return grid.omega_n * (float(cond[:-1] @ d) + cond[-1] * abs(y[-1]) ** 2)


def _interior(values):
    return np.asarray(values[:-1], dtype=complex)


def _reference_weights(grid, reference):
    """The unknowns ref of a real profile and its H^1 pairing weights:
    <y, ref> = omega_N (diff(y) @ cond dref + y @ vol ref), the boundary
    face folded into the last entry of vol ref."""
    op = grid.operator
    ref = _interior(reference.values).real
    w_grad = op.cond[:-1] * np.diff(ref)
    w_vol = op.vol * ref
    w_vol[-1] += op.cond[-1] * ref[-1]
    return ref, w_grad, w_vol


def _distance(grid, y, dy, weights):
    """H^1 orbit distance of the unknowns y (dy = np.diff(y)) to the real
    reference with pairing weights `weights`.

    The minimizing phase theta is the argument of the H^1 inner product
    <y, U>, and the distance is ||y - e^{i theta} U|| taken directly: the
    expansion ||y||^2 + ||U||^2 - 2 |<y, U>| cancels, and reads 0 for
    distances below about 1e-7 ||U||.
    """
    ref, w_grad, w_vol = weights
    cross = complex(dy @ w_grad + y @ w_vol)
    d = y - (cross / abs(cross) if cross else 1.0) * ref
    return math.sqrt(_mass(grid, d) + _grad_form(grid, d))


def orbit_distance(field: ComplexField, U: RadialProfile) -> float:
    """min over phases s of || Phi - e^{-is} U ||_{H^1}."""
    if field.grid.n_nodes != U.grid.n_nodes:
        raise ParameterError("field and reference live on different grids")
    grid = field.grid
    y = _interior(field.values)
    return _distance(grid, y, np.diff(y), _reference_weights(grid, U))


def evolve(initial: ComplexField, params: ProblemParams, dt: float, T: float,
           sample_every: int = 10, reference: RadialProfile | None = None,
           blowup_cap: float | None = None) -> EvolutionRecord:
    """Relaxation evolution over [0, T] with step dt.

    dt may be negative (backward evolution); T is the total evolved span.
    Histories are sampled every `sample_every` steps plus the endpoints.
    The run stops early where sup|Phi| exceeds the cap, or where the field
    or its potential is no longer finite; the record it returns says which
    in `end_reason`, with the time reached as `blowup_time`.  A
    `SolverError` of the step's solve that is not about a non-finite input
    propagates.  The cap must be positive (it may be infinite), and a
    `reference` must live on the field's grid.
    """
    if not (math.isfinite(dt) and math.isfinite(T)):
        raise ParameterError(f"dt and T must be finite, got {dt} and {T}")
    if dt == 0.0 or T < abs(dt):
        raise ParameterError("need dt != 0 and T >= |dt|")
    if sample_every < 1:
        raise ParameterError("sample_every must be >= 1")
    if blowup_cap is not None and not blowup_cap > 0.0:
        raise ParameterError(f"blowup_cap must be positive, got {blowup_cap}")
    p = params.p
    grid = initial.grid
    if reference is not None and reference.grid.n_nodes != grid.n_nodes:
        raise ParameterError("field and reference live on different grids")
    op = grid.operator
    y = _interior(initial.values)
    mod = np.abs(y)  # |Phi^n|, shared by the cap check, potential and samples
    cap = blowup_cap if blowup_cap is not None else \
        DEFAULT_BLOWUP_FACTOR * float(np.max(mod) + 1e-300)
    weights = None if reference is None else _reference_weights(grid, reference)

    n_steps = int(round(T / abs(dt)))
    times, masses, energies = [], [], []
    dists = None if weights is None else []

    def sample(t, y, mod):
        # one difference of Phi serves the gradient form and the distance
        dy = np.diff(y)
        mass = _mass(grid, mod)
        grad = _grad_form(grid, y, dy)
        nonlinear = grid.omega_n * float(op.vol @ mod ** (p + 1.0))
        times.append(t)
        masses.append(mass)
        energies.append(0.5 * grad - nonlinear / (p + 1.0))
        if dists is not None:
            dists.append(_distance(grid, y, dy, weights))

    # psi = Phi^{n+1} + Phi^n solves (A - V - 2i/dt) psi = -(4i/dt) Phi^n
    shift = -2j / dt
    scale = -4j / dt
    pot = mod ** (p - 1.0)
    t = initial.time
    sample(t, y, mod)
    end_reason = "completed"
    for step in range(1, n_steps + 1):
        pot = 2.0 * mod ** (p - 1.0) - pot
        try:
            y = op.solve(shift - pot, scale * y) - y
        except SolverError as exc:
            # the solve's screen of its inputs is the step's only one: V,
            # Phi^n or the right-hand side -(4i/dt) Phi^n is not finite
            if "array" not in exc.diagnostics:
                raise
            end_reason = "nonfinite"
            break
        t = initial.time + step * dt
        mod = np.abs(y)
        hit_cap = float(mod.max()) > cap
        if step % sample_every == 0 or step == n_steps or hit_cap:
            sample(t, y, mod)
        if hit_cap:
            end_reason = "blowup_cap"
            break
    full = np.zeros(grid.n_nodes, dtype=complex)
    full[:-1] = y
    return EvolutionRecord(
        times=np.array(times),
        mass_history=np.array(masses),
        energy_history=np.array(energies),
        orbit_distance_history=None if dists is None else np.array(dists),
        final=ComplexField(grid, full, float(t)),
        blowup_time=None if end_reason == "completed" else float(t),
        end_reason=end_reason,
    )


def discrete_standing_wave(point: BranchPoint) -> RadialProfile:
    """Newton-polish the physical profile U = mu^{1/(p-1)} u so that it is
    stationary for the discrete operator; starting the evolution from the
    discrete state removes the O(h^2) spatial mismatch from the orbit.
    Raises SolverError, with the final residual, if `shoot._newton` does
    not converge."""
    if point.mu <= 0.0:
        raise ParameterError("standing-wave probes address the focusing curve")
    p = point.params.p
    grid = point.profile.grid
    y = point.mu ** (1.0 / (p - 1.0)) * point.profile.values[:-1]
    y, ok, residual = _newton(grid, point.lam, +1, p, y)
    if not ok:
        raise SolverError("stationary polish did not converge",
                          residual=residual)
    return _dirichlet_profile(grid, y)


def stability_probe(point: BranchPoint, delta: float, T: float,
                    dt: float, sample_every: int = 20,
                    blowup_cap: float | None = None) -> EvolutionRecord:
    """Evolve a perturbed standing wave and record its orbit distance.

    The initial field is (1 + delta) U exp(i delta phi_1 / max phi_1):
    a relative amplitude bump plus a bounded eigenfunction phase ripple.
    delta = 0 reproduces the discrete standing wave exactly.

    A run that leaves the perturbative regime entirely -- the blow-up cap
    is hit, or the field stops being finite -- ends early, and the record
    `evolve` returns says how (`end_reason`) and when (`blowup_time`): for
    an instability probe that departure is the measurement.  delta must be
    finite.
    """
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta}")
    params = point.params
    U = discrete_standing_wave(point)
    grid = U.grid
    eig = principal_eigenpair(params, grid)
    phase = delta * eig.phi1.values / float(np.max(eig.phi1.values))
    values = (1.0 + delta) * U.values * np.exp(1j * phase)
    initial = ComplexField(grid, values, 0.0)
    return evolve(initial, params, dt, T, sample_every=sample_every,
                  reference=U, blowup_cap=blowup_cap)
