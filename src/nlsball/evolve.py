"""Radial time-dependent NLS integrator on the ball,
    i dPhi/dt + Delta Phi + |Phi|^{p-1} Phi = 0,  Phi(t, r=1) = 0,
used as an empirical orbital-stability probe for standing waves
e^{i lambda t} U.

The stepper is Crank-Nicolson with the nonlinearity evaluated at the
field average via fixed-point iteration.  Because the discrete Laplacian
is symmetric under the finite-volume cell measure and the frozen
nonlinear multiplier is real, the scheme conserves the cell-measure mass
identically (up to the inner tolerance); that discrete mass is what the
histories record.  This is the mass-exact midpoint scheme of
Delfour-Fortin-Payre (J. Comput. Phys. 44, 1981).  The Crank-Nicolson
matrix i/dt - A/2 is constant, so it is LU-factored once per run (LAPACK
?gttrf) and every inner iteration only back-substitutes (?gttrs).

A run ends in one of three ways, recorded as `EvolutionRecord.end_reason`:
"completed" (the whole span was evolved), "blowup_cap" (sup|Phi| exceeded
the cap) or "stalled" (the inner fixed point did not converge, or its
iterate overflowed, so the step could not be taken).  The probe is
one-sided evidence only: it perturbs one standing wave along one
direction, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgttrf, zgttrs

from .branch import BranchPoint
from .core import (
    ProblemParams,
    RadialGrid,
    RadialProfile,
    principal_eigenpair,
    radial_laplacian_tridiag,
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
    "stalled"; `blowup_time` is set for the latter two.
    """

    times: np.ndarray
    mass_history: np.ndarray
    energy_history: np.ndarray
    orbit_distance_history: np.ndarray | None
    final: ComplexField
    blowup_time: float | None = None
    end_reason: str = "completed"


class _Discretization:
    """Cached operator pieces for one grid and exponent."""

    def __init__(self, grid: RadialGrid, p: float):
        self.grid = grid
        self.p = p
        lower, diag, upper, vol = radial_laplacian_tridiag(grid)
        self.lower, self.diag, self.upper = lower, diag, upper
        self.vol = vol
        self.m = len(diag)
        r = grid.nodes
        faces = 0.5 * (r[1:] + r[:-1])
        h = np.diff(r)
        self.cond = faces ** (grid.n_dim - 1) / h  # one per face, incl. boundary
        self.omega = grid.omega_n

    def apply(self, y):
        out = self.diag * y
        out[:-1] += self.upper * y[1:]
        out[1:] += self.lower * y[:-1]
        return out

    def cn_solver(self, dt):
        """Return b -> x solving (i/dt - A/2) x = b, overwriting b; the
        matrix is factored here, once, with the same pivoted elimination
        as LAPACK ?gtsv."""
        dl, d, du, du2, ipiv, info = zgttrf(
            -0.5 * self.lower, 1j / dt - 0.5 * self.diag, -0.5 * self.upper)
        if info != 0:
            raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")

        def solve(b):
            return zgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)[0]
        return solve

    def mass(self, y):
        return self.omega * float(self.vol @ np.abs(y) ** 2)

    def grad_form(self, y):
        d = np.abs(np.diff(y)) ** 2
        return self.omega * (float(self.cond[: self.m - 1] @ d)
                             + self.cond[self.m - 1] * abs(y[-1]) ** 2)

    def energy(self, y):
        pot = self.omega * float(self.vol @ np.abs(y) ** (self.p + 1.0))
        return 0.5 * self.grad_form(y) - pot / (self.p + 1.0)

    def h1_inner(self, a, b):
        da = np.diff(a)
        db = np.diff(b)
        grad = complex(self.cond[: self.m - 1] @ (da * np.conj(db)))
        grad += self.cond[self.m - 1] * a[-1] * np.conj(b[-1])
        l2 = complex(self.vol @ (a * np.conj(b)))
        return self.omega * (grad + l2)


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
    disc = _Discretization(field.grid, p=3.0)  # p unused in the metric
    ref = _interior(U.values)
    return _distance(disc, _interior(field.values), ref,
                     disc.h1_inner(ref, ref).real)


def evolve(initial: ComplexField, params: ProblemParams, dt: float, T: float,
           sample_every: int = 10, reference: RadialProfile | None = None,
           inner_tol: float = 1e-12, max_inner: int = 60,
           blowup_cap: float | None = None) -> EvolutionRecord:
    """Crank-Nicolson evolution over [0, T] with step dt.

    dt may be negative (backward evolution); T is the total evolved span.
    Histories are sampled every `sample_every` steps plus the endpoints.
    Raises StepSizeError if the inner fixed point stalls or its iterate
    overflows, and BlowUpError if sup|Phi| exceeds the cap; both carry the
    partial record.
    """
    if dt == 0.0 or T < abs(dt):
        raise ParameterError("need dt != 0 and T >= |dt|")
    if sample_every < 1 or max_inner < 1:
        raise ParameterError("sample_every and max_inner must be >= 1")
    p = params.p
    disc = _Discretization(initial.grid, p)
    y = _interior(initial.values)
    cap = blowup_cap if blowup_cap is not None else \
        DEFAULT_BLOWUP_FACTOR * float(np.max(np.abs(y)) + 1e-300)

    idt = 1j / dt
    cn_solve = disc.cn_solver(dt)

    n_steps = int(round(T / abs(dt)))
    times = [initial.time]
    masses = [disc.mass(y)]
    energies = [disc.energy(y)]
    dists = None
    if reference is not None:
        ref_vals = _interior(reference.values).real
        ref_norm2 = disc.h1_inner(ref_vals, ref_vals).real
        dists = [_distance(disc, y, ref_vals, ref_norm2)]

    t = initial.time
    for step in range(1, n_steps + 1):
        rhs_lin = idt * y + 0.5 * disc.apply(y)
        y_new = y.copy()
        tol = inner_tol * max(1.0, float(np.max(np.abs(y))))
        # A diverging iterate overflows to inf/NaN; that ends the step like
        # a stall (NaN fails `delta <= tol`), so its warnings stay in here.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_inner):
                ybar = 0.5 * (y + y_new)
                nl = np.abs(ybar) ** (p - 1.0) * ybar
                y_next = cn_solve(rhs_lin - nl)
                delta = float(np.max(np.abs(y_next - y_new)))
                y_new = y_next
                if delta <= tol or not math.isfinite(delta):
                    break
        if not delta <= tol:
            partial = _build_record(initial.grid, times, masses, energies,
                                    dists, y, t, end_reason="stalled")
            raise StepSizeError(
                "inner fixed point stalled; reduce dt",
                record=partial, dt=dt, time=t, residual=delta,
            )
        y = y_new
        t = initial.time + step * dt
        sup = float(np.max(np.abs(y)))
        hit_cap = sup > cap
        if step % sample_every == 0 or step == n_steps or hit_cap:
            times.append(t)
            masses.append(disc.mass(y))
            energies.append(disc.energy(y))
            if dists is not None:
                dists.append(_distance(disc, y, ref_vals, ref_norm2))
        if hit_cap:
            record = _build_record(initial.grid, times, masses, energies,
                                   dists, y, t, end_reason="blowup_cap")
            raise BlowUpError(f"sup|Phi| = {sup:.3e} exceeded cap {cap:.3e}",
                              hit_time=t, record=record)
    return _build_record(initial.grid, times, masses, energies, dists, y, t,
                         end_reason="completed")


def _distance(disc, y, ref_vals, ref_norm2):
    """H^1 orbit distance of y to the real profile ref_vals, whose squared
    norm ref_norm2 the caller computes once."""
    na = disc.h1_inner(y, y).real
    cross = abs(disc.h1_inner(y, ref_vals))
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
    lower, diag, upper, _ = radial_laplacian_tridiag(grid)
    m = len(diag)
    lam = point.lam
    y = point.mu ** (1.0 / (p - 1.0)) * point.profile.values[:m]

    def residual(vals):
        out = diag * vals
        out[:-1] += upper * vals[1:]
        out[1:] += lower * vals[:-1]
        return out + lam * vals - np.maximum(vals, 0.0) ** p

    fy = residual(y)
    scale = max(1.0, float(np.max(np.abs(y))) ** p)
    op_scale = float(np.max(np.abs(diag)))
    eps = float(np.finfo(float).eps)
    for _ in range(max_iter):
        norm = float(np.max(np.abs(fy)))
        floor = 20.0 * eps * op_scale * max(float(np.max(np.abs(y))), 1e-30)
        if norm <= tol * scale + floor:
            break
        jd = diag + lam - p * np.maximum(y, 0.0) ** (p - 1.0)
        ab = np.zeros((3, m))
        ab[0, 1:] = upper
        ab[1, :] = jd
        ab[2, :-1] = lower
        y = y + solve_banded((1, 1), ab, -fy)
        fy = residual(y)
    else:
        raise StepSizeError("stationary polish did not converge",
                            residual=float(np.max(np.abs(fy))))
    full = np.zeros(grid.n_nodes)
    full[:m] = y
    h = grid.spacing
    bnd = (full[-3] - 4.0 * full[-2]) / (2.0 * h)
    return RadialProfile(grid, full, float(bnd))


def stability_probe(point: BranchPoint, delta: float, T: float,
                    dt: float, sample_every: int = 20,
                    blowup_cap: float | None = None) -> EvolutionRecord:
    """Evolve a perturbed standing wave and record its orbit distance.

    The initial field is (1 + delta) U exp(i delta phi_1 / max phi_1):
    a relative amplitude bump plus a bounded eigenfunction phase ripple.
    delta = 0 reproduces the discrete standing wave exactly.

    A run that leaves the perturbative regime entirely -- the blow-up cap
    is hit, or the field grows until the implicit step loses its
    contraction -- returns the partial record with `blowup_time` set:
    for an instability probe that departure is the measurement.
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
    except StepSizeError as exc:
        if exc.record is not None and len(exc.record.times) > 1:
            return exc.record
        raise
