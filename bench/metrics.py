"""Metric names and units, and the per-layer metrics of one traced pass.

END_TO_END and PER_LAYER list every metric the benchmark prints in its
final JSON line, in the order of BENCHMARK.json.  A per-layer metric
whose layer call does not occur in a workload reads 0 there.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, self_times

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.make_grid_ms": "ms",
    "core.principal_eigenpair_ms": "ms",
    "shoot.focusing_cold_ms": "ms",
    "shoot.defocusing_cold_ms": "ms",
    "shoot.solve_whole_space_ms": "ms",
    "branch.trace_focusing_ms_per_point": "ms",
    "branch.trace_defocusing_ms_per_point": "ms",
    "branch.points_ok": "count",
    "branch.points_failed": "count",
    "branch.find_mu_star_s": "s",
    "branch.least_energy_at_mass_s": "s",
    "branch.point_at_alpha_focusing_s": "s",
    "branch.point_at_alpha_defocusing_s": "s",
    "asymptotics.solve_psi_ms": "ms",
    "asymptotics.large_alpha_diagnostics_ms": "ms",
    "verify.linearized_spectrum_ms_per_point": "ms",
    "verify.derivative_identities_ms": "ms",
    "verify.spectrum_points": "count",
    "evolve.cn_step_us": "us",
    "evolve.steps": "count",
    "evolve.discrete_standing_wave_ms": "ms",
    "cli.eig_self_ms": "ms",
    "cli.verify_self_ms": "ms",
    "cli.probe_self_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace_overhead_frac": "frac",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, out: dict, inputs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace_overhead_frac aside)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name, tag=None):
        return [s.duration for s in by_name.get(name, ())
                if tag is None or s.tag == tag]

    def largest(name):
        # cost per call at the largest problem size the workload uses
        calls = by_name.get(name, ())
        top = max((s.tag for s in calls), default=None)
        return _median([s.duration for s in calls if s.tag == top])

    def per_point(sign):
        calls = [s for s in by_name.get("branch.trace", ()) if s.tag[0] == sign]
        points = sum(s.tag[1] for s in calls)
        return sum(s.duration for s in calls) / points if points else 0.0

    steps = 0
    for key in ("stable", "blowup"):
        probe = out.get(key)
        if probe is not None:
            span = probe["t_hit"] if probe["t_hit"] else inputs[key]["T"]
            steps += round(span / inputs[key]["dt"])
    evolve_time = sum(durations("evolve.evolve"))

    # cli self time per command: the cli-layer self time under each
    # cli.main span, i.e. parsing, formatting and writing
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root = [-1] * len(spans)
    cli_total: dict[int, float] = {}
    for i, span in enumerate(spans):
        layer = span.name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        root[i] = i if span.name == "cli.main" else \
            (root[span.parent] if span.parent >= 0 else -1)
        if layer == "cli" and root[i] >= 0:
            cli_total[root[i]] = cli_total.get(root[i], 0.0) + selfs[i]
    cli_self = {"eig": [], "verify": [], "probe": []}
    for i, total in cli_total.items():
        cli_self.setdefault(spans[i].tag, []).append(total)

    ms = 1e3
    return {
        "core.make_grid_ms": ms * largest("core.make_grid"),
        "core.principal_eigenpair_ms": ms * largest("core.principal_eigenpair"),
        "shoot.focusing_cold_ms":
            ms * _median(durations("shoot.solve_ball_profile", +1)),
        "shoot.defocusing_cold_ms":
            ms * _median(durations("shoot.solve_ball_profile", -1)),
        "shoot.solve_whole_space_ms":
            ms * _median(durations("shoot.solve_whole_space")),
        "branch.trace_focusing_ms_per_point": ms * per_point(+1),
        "branch.trace_defocusing_ms_per_point": ms * per_point(-1),
        "branch.points_ok": out.get("points_ok", 0),
        "branch.points_failed": out.get("points_failed", 0),
        "branch.find_mu_star_s": sum(durations("branch.find_mu_star")),
        "branch.least_energy_at_mass_s":
            sum(durations("branch.least_energy_at_mass")),
        "branch.point_at_alpha_focusing_s":
            sum(durations("branch.point_at_alpha", +1)),
        "branch.point_at_alpha_defocusing_s":
            sum(durations("branch.point_at_alpha", -1)),
        "asymptotics.solve_psi_ms": ms * sum(durations("asymptotics.solve_psi")),
        "asymptotics.large_alpha_diagnostics_ms":
            ms * sum(durations("asymptotics.large_alpha_diagnostics")),
        "verify.linearized_spectrum_ms_per_point":
            ms * _median(durations("verify.linearized_spectrum")),
        "verify.derivative_identities_ms":
            ms * sum(durations("verify.derivative_identities")),
        "verify.spectrum_points": len(durations("verify.linearized_spectrum")),
        "evolve.cn_step_us": 1e6 * evolve_time / steps if steps else 0.0,
        "evolve.steps": steps,
        "evolve.discrete_standing_wave_ms":
            ms * _median(durations("evolve.discrete_standing_wave")),
        **{f"cli.{c}_self_ms": ms * _median(cli_self[c])
           for c in ("eig", "verify", "probe")},
        **{f"{layer}.self_ms": ms * t for layer, t in layer_self.items()},
    }

