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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .branch import BranchPoint
from .core import (
    ProblemParams,
    RadialGrid,
    RadialProfile,
    principal_eigenpair,
)
from .errors import BlowUpError, ParameterError, StepSizeError

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
        if abs(self.values[-1]) > 1e-12 * (1.0 + np.max(np.abs(self.values))):
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


def _grad_form(grid, y):
    cond = grid.operator.cond
    d = np.abs(np.diff(y)) ** 2
    return grid.omega_n * (float(cond[:-1] @ d) + cond[-1] * abs(y[-1]) ** 2)


def _energy(grid, p, y):
    pot = grid.omega_n * float(grid.operator.vol @ np.abs(y) ** (p + 1.0))
    return 0.5 * _grad_form(grid, y) - pot / (p + 1.0)


def _h1_inner(grid, a, b):
    op = grid.operator
    da = np.diff(a)
    db = np.diff(b)
    grad = complex(op.cond[:-1] @ (da * np.conj(db)))
    grad += op.cond[-1] * a[-1] * np.conj(b[-1])
    l2 = complex(op.vol @ (a * np.conj(b)))
    return grid.omega_n * (grad + l2)


def _interior(values):
    return np.asarray(values[:-1], dtype=complex)


def orbit_distance(field: ComplexField, U: RadialProfile) -> float:
    """min over phases s of || Phi - e^{-is} U ||_{H^1}.

    With a real profile U the minimizing phase is the argument of the
    H^1 inner product of Phi against U, so the squared distance is
    ||Phi||^2 + ||U||^2 - 2 |<Phi, U>|.
    """
    if field.grid.n_nodes != U.grid.n_nodes:
        raise ParameterError("field and reference live on different grids")
    grid = field.grid
    ref = _interior(U.values)
    return _distance(grid, _interior(field.values), ref,
                     _h1_inner(grid, ref, ref).real)


def evolve(initial: ComplexField, params: ProblemParams, dt: float, T: float,
           sample_every: int = 10, reference: RadialProfile | None = None,
           blowup_cap: float | None = None) -> EvolutionRecord:
    """Relaxation evolution over [0, T] with step dt.

    dt may be negative (backward evolution); T is the total evolved span.
    Histories are sampled every `sample_every` steps plus the endpoints.
    Raises BlowUpError, carrying the partial record, if sup|Phi| exceeds
    the cap or if the field or its potential is no longer finite; the
    record's `end_reason` tells the two apart.
    """
    if dt == 0.0 or T < abs(dt):
        raise ParameterError("need dt != 0 and T >= |dt|")
    if sample_every < 1:
        raise ParameterError("sample_every must be >= 1")
    p = params.p
    grid = initial.grid
    op = grid.operator
    y = _interior(initial.values)
    cap = blowup_cap if blowup_cap is not None else \
        DEFAULT_BLOWUP_FACTOR * float(np.max(np.abs(y)) + 1e-300)

    # each step, times -2:
    #   (A - V - 2i/dt) Phi^{n+1} = (V - 2i/dt) Phi^n - A Phi^n
    i2dt = 2j / dt
    mod = np.abs(y)  # |Phi^n|, shared by the cap check and the potential
    pot = mod ** (p - 1.0)

    n_steps = int(round(T / abs(dt)))
    times = [initial.time]
    masses = [_mass(grid, y)]
    energies = [_energy(grid, p, y)]
    dists = None
    if reference is not None:
        ref_vals = _interior(reference.values).real
        ref_norm2 = _h1_inner(grid, ref_vals, ref_vals).real
        dists = [_distance(grid, y, ref_vals, ref_norm2)]

    t = initial.time
    for step in range(1, n_steps + 1):
        pot = 2.0 * mod ** (p - 1.0) - pot
        rhs = (pot - i2dt) * y - op.apply(y)
        # an inf or NaN in Phi^n, V or A Phi^n makes this sum non-finite
        if not cmath.isfinite(rhs.sum()):
            record = _build_record(grid, times, masses, energies,
                                   dists, y, t, end_reason="nonfinite")
            raise BlowUpError(f"field or potential not finite at t = {t:.6g}",
                              hit_time=t, record=record)
        y = op.solve(-pot - i2dt, rhs)
        t = initial.time + step * dt
        mod = np.abs(y)
        sup = float(np.max(mod))
        hit_cap = sup > cap
        if step % sample_every == 0 or step == n_steps or hit_cap:
            times.append(t)
            masses.append(_mass(grid, y))
            energies.append(_energy(grid, p, y))
            if dists is not None:
                dists.append(_distance(grid, y, ref_vals, ref_norm2))
        if hit_cap:
            record = _build_record(grid, times, masses, energies,
                                   dists, y, t, end_reason="blowup_cap")
            raise BlowUpError(f"sup|Phi| = {sup:.3e} exceeded cap {cap:.3e}",
                              hit_time=t, record=record)
    return _build_record(grid, times, masses, energies, dists, y, t,
                         end_reason="completed")


def _distance(grid, y, ref_vals, ref_norm2):
    """H^1 orbit distance of y to the real profile ref_vals, whose squared
    norm ref_norm2 the caller computes once."""
    na = _h1_inner(grid, y, y).real
    cross = abs(_h1_inner(grid, y, ref_vals))
    return math.sqrt(max(na + ref_norm2 - 2.0 * cross, 0.0))


def _build_record(grid, times, masses, energies, dists, y, t, end_reason):
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


def discrete_standing_wave(point: BranchPoint, tol: float = 1e-12,
                           max_iter: int = 60) -> RadialProfile:
    """Newton-polish the physical profile U = mu^{1/(p-1)} u so that it is
    stationary for the discrete operator; starting the evolution from the
    discrete state removes the O(h^2) spatial mismatch from the orbit."""
    if point.mu <= 0.0:
        raise ParameterError("standing-wave probes address the focusing curve")
    params = point.params
    p = params.p
    grid = point.profile.grid
    op = grid.operator
    m = grid.n_nodes - 1
    lam = point.lam
    y = point.mu ** (1.0 / (p - 1.0)) * point.profile.values[:m]

    def residual(vals):
        return op.apply(vals) + lam * vals - np.maximum(vals, 0.0) ** p

    fy = residual(y)
    scale = max(1.0, float(np.max(np.abs(y))) ** p)
    op_scale = float(np.max(np.abs(op.diag)))
    eps = float(np.finfo(float).eps)
    for _ in range(max_iter):
        norm = float(np.max(np.abs(fy)))
        floor = 20.0 * eps * op_scale * max(float(np.max(np.abs(y))), 1e-30)
        if norm <= tol * scale + floor:
            break
        y = y + op.solve(lam - p * np.maximum(y, 0.0) ** (p - 1.0), -fy)
        fy = residual(y)
    else:
        raise StepSizeError("stationary polish did not converge",
                            residual=float(np.max(np.abs(fy))))
    full = np.zeros(grid.n_nodes)
    full[:m] = y
    return RadialProfile(grid, full, op.boundary_slope(full))


def stability_probe(point: BranchPoint, delta: float, T: float,
                    dt: float, sample_every: int = 20,
                    blowup_cap: float | None = None) -> EvolutionRecord:
    """Evolve a perturbed standing wave and record its orbit distance.

    The initial field is (1 + delta) U exp(i delta phi_1 / max phi_1):
    a relative amplitude bump plus a bounded eigenfunction phase ripple.
    delta = 0 reproduces the discrete standing wave exactly.

    A run that leaves the perturbative regime entirely -- the blow-up cap
    is hit, or the field stops being finite -- returns the partial record
    with `blowup_time` set: for an instability probe that departure is
    the measurement.
    """
    params = point.params
    U = discrete_standing_wave(point)
    grid = U.grid
    if delta != 0.0:
        eig = principal_eigenpair(params, grid)
        phase = delta * eig.phi1.values / float(np.max(eig.phi1.values))
        values = (1.0 + delta) * U.values * np.exp(1j * phase)
    else:
        values = U.values.astype(complex)
    values = values.copy()
    values[-1] = 0.0
    initial = ComplexField(grid, values, 0.0)
    try:
        return evolve(initial, params, dt, T, sample_every=sample_every,
                      reference=U, blowup_cap=blowup_cap)
    except BlowUpError as exc:
        return exc.record
