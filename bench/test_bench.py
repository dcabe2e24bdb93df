"""Tests of the benchmark itself: metric names, checks, seeds, tracing.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

import copy
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nlsball  # noqa: E402
import nlsball.cli  # noqa: E402,F401  (the cli layer, not re-exported)
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402

PI2 = math.pi ** 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metrics.PER_LAYER
    assert set(metrics.layer_metrics([], {}, {})) | {"trace_overhead_frac"} \
        == set(metrics.PER_LAYER)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


# ------------------------------------------------------------------ seeds

CANONICAL = {
    "focusing-sweep": {
        "N": 3, "p": 3.0, "n_nodes": 2049, "R_max": 20.0, "num_points": 80,
        "lambda_lo": -PI2 + 0.4, "lambda_hi": 3500.0, "rho_fraction": 0.9,
        "alpha_window": 1e4,
    },
    "verify-endpoint": {
        "eig": {"N": 3, "n_nodes": 16385},
        "verify": {"N": 1, "p": 3.0, "sign": "defocusing",
                   "lambda_min": -2.6, "lambda_max": -2000.0,
                   "num_points": 121, "n_nodes": 2049,
                   "spectrum_points": 16, "l_max": 3},
        "endpoint": {"N": 1, "p": 3.0, "eig_nodes": 16385, "n_nodes": 2049,
                     "eps": (1e-3, 2.5e-4)},
        "cold": {"n_nodes": 2049,
                 "focusing": (((1, 3.0), (-1.0, 2.0, 20.0)),
                              ((1, 5.0), (0.5, 10.0, 40.0)),
                              ((3, 3.0), (-5.0, 0.5, 3.0, 15.0))),
                 "defocusing": ((1, 3.0), (-10.0, -300.0))},
    },
    "evolve-probe": {
        "stable": {"N": 1, "p": 3.0, "lam": 1.0, "delta": 1e-3,
                   "T": 20.0, "dt": 2e-3, "n_nodes": 1025},
        "blowup": {"N": 3, "p": 3.0, "lam": 5.0, "delta": 1e-3,
                   "T": 50.0, "dt": 2.5e-4, "n_nodes": 1025},
    },
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_seed_zero_gives_the_canonical_configs(name):
    assert workloads.WORKLOADS[name].inputs(0) == CANONICAL[name]


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_other_seeds_jitter_within_range(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(0)
    for seed in range(1, 40):
        got = inputs(seed)
        if name == "focusing-sweep":
            base = CANONICAL[name]
            for key in ("lambda_lo", "lambda_hi"):
                assert abs(got[key] / base[key] - 1.0) <= 0.01
            assert 0.85 <= got["rho_fraction"] <= 0.95
        elif name == "verify-endpoint":
            base = CANONICAL[name]["verify"]
            for key in ("lambda_min", "lambda_max"):
                assert abs(got["verify"][key] / base[key] - 1.0) <= 0.01
            for eps, ref in zip(got["endpoint"]["eps"], (1e-3, 2.5e-4)):
                assert abs(eps / ref - 1.0) <= 0.1
        else:
            assert 5e-4 <= got["stable"]["delta"] <= 2e-3
            assert got["blowup"] == CANONICAL[name]["blowup"]


# ----------------------------------------------------------------- checks

def _point(alpha, lam, mu):
    return SimpleNamespace(alpha=alpha, lam=lam, mu=mu, ur1=-1.0,
                           params=nlsball.ProblemParams(3, 3.0))


def good_focusing():
    inputs = workloads.WORKLOADS["focusing-sweep"].inputs(0)
    mass = 10.0
    alphas = [10.0 * 1.1 ** k for k in range(73)]      # up to ~9.6e3
    pts = [_point(a, a / 3.0,
                  mass / math.sqrt(a / 3.0) * (1.0 - math.exp(-a / 15.0)))
           for a in alphas]
    j = max(range(len(pts)), key=lambda i: pts[i].mu)
    out = {
        "branch": SimpleNamespace(points=tuple(pts), failures=()),
        "Z": SimpleNamespace(mass=mass),
        "alpha_star": pts[j].alpha,
        "least": pts[j - 3],
        "last": len(pts) - 1,
    }
    return inputs, out


def good_verify():
    inputs = workloads.WORKLOADS["verify-endpoint"].inputs(0)
    e1, e2 = inputs["endpoint"]["eps"]
    out = {
        "eig_exit": 0,
        "eig": {"lambda1": PI2 * (1.0 + 3e-9)},
        "endpoint_errors": {(e1, 1): 0.02, (e2, 1): 0.009,
                            (e1, -1): 0.022, (e2, -1): 0.011},
        "verify": {"spectra": [{"total_negative": 0}] * 16,
                   "max_pohozaev_res": 4e-4},
        "cold_centers": [1.5] * 12,
    }
    return inputs, out


def good_evolve():
    inputs = workloads.WORKLOADS["evolve-probe"].inputs(0)
    out = {
        "stable": {"columns": {"mass": [1.0, 1.0, 1.0],
                               "orbit_distance": [1e-3, 5e-3, 6e-3]},
                   "t_hit": None},
        "blowup": {"columns": {}, "t_hit": 0.154},
        "probe blowup_exit": 3,
    }
    return inputs, out


def _set(path, value):
    def corrupt(out):
        target = out
        for key in path[:-1]:
            target = target[key] if isinstance(target, dict) \
                else getattr(target, key)
        if isinstance(target, dict):
            target[path[-1]] = value
        else:
            setattr(target, path[-1], value)
    return corrupt


def _flatten_mu(out):
    pts = out["branch"].points
    out["branch"].points = tuple(
        _point(p.alpha, p.lam, float(i)) for i, p in enumerate(pts))


def _stretch_last(out):
    last = out["branch"].points[out["last"]]
    last.lam *= 1.1
    last.mu /= math.sqrt(1.1)   # keeps mu*sqrt(lam) on target


CORRUPTIONS = [
    ("focusing-sweep", good_focusing, "no branch failures",
     _set(("branch", "failures"), ((1.0, "SolverError: stalled"),))),
    ("focusing-sweep", good_focusing, "one interior maximum of mu(alpha)",
     _flatten_mu),
    ("focusing-sweep", good_focusing, "mu* bracketed",
     _set(("alpha_star",), 1e5)),
    ("focusing-sweep", good_focusing, "least-energy point below alpha*",
     lambda out: setattr(out["least"], "alpha", out["alpha_star"] + 1.0)),
    ("focusing-sweep", good_focusing, "mu*sqrt(lam)/mass(Z) within 3%",
     _set(("Z", "mass"), 11.0)),
    ("focusing-sweep", good_focusing, "alpha/lam/3 within 3%", _stretch_last),
    ("verify-endpoint", good_verify,
     "cli eig lambda1 within 1e-8 of pi^2 (relative)",
     _set(("eig", "lambda1"), PI2 * (1.0 + 2e-8))),
    ("verify-endpoint", good_verify,
     "cli eig lambda1 within 1e-8 of pi^2 (relative)",
     _set(("eig_exit",), 1)),
    ("verify-endpoint", good_verify, "endpoint error (+) < 0.05 at eps1",
     lambda out: out["endpoint_errors"].update(
         {k: 0.06 for k in out["endpoint_errors"] if k[1] == 1
          and k[0] > 5e-4})),
    ("verify-endpoint", good_verify, "endpoint error (-) < 0.05 at eps1",
     lambda out: out["endpoint_errors"].update(
         {k: 0.06 for k in out["endpoint_errors"] if k[1] == -1
          and k[0] > 5e-4})),
    ("verify-endpoint", good_verify, "endpoint error ratio (+) >= 1.5",
     lambda out: out["endpoint_errors"].update(
         {k: 0.02 for k in out["endpoint_errors"] if k[1] == 1})),
    ("verify-endpoint", good_verify, "endpoint error ratio (-) >= 1.5",
     lambda out: out["endpoint_errors"].update(
         {k: 0.02 for k in out["endpoint_errors"] if k[1] == -1})),
    ("verify-endpoint", good_verify,
     "defocusing spectra have no negative direction",
     lambda out: out["verify"]["spectra"].__setitem__(
         3, {"total_negative": 1})),
    ("verify-endpoint", good_verify,
     "defocusing spectra have no negative direction",
     lambda out: out["verify"]["spectra"].pop()),
    ("verify-endpoint", good_verify, "cold solves positive at the center",
     lambda out: out["cold_centers"].__setitem__(5, -0.1)),
    ("evolve-probe", good_evolve, "stable probe mass drift < 1e-8",
     lambda out: out["stable"]["columns"]["mass"].append(1.0 + 2e-8)),
    ("evolve-probe", good_evolve, "stable orbit distance < 10 delta",
     lambda out: out["stable"]["columns"]["orbit_distance"].append(0.02)),
    ("evolve-probe", good_evolve, "supercritical probe exits with code 3",
     _set(("probe blowup_exit",), 0)),
    ("evolve-probe", good_evolve, "supercritical probe exits with code 3",
     _set(("blowup", "t_hit"), None)),
]


GOOD = {"focusing-sweep": good_focusing, "verify-endpoint": good_verify,
        "evolve-probe": good_evolve}


@pytest.mark.parametrize("name", sorted(GOOD))
def test_checks_pass_on_good_outputs_and_each_has_a_corruption(name):
    inputs, out = GOOD[name]()
    checks = workloads.WORKLOADS[name].check(inputs, out)
    assert [c for c in checks if not c[1]] == []
    corrupted = {check for w, _, check, _ in CORRUPTIONS if w == name}
    assert {c[0] for c in checks} == corrupted


@pytest.mark.parametrize("name,good,check,corrupt", CORRUPTIONS)
def test_every_check_fires_on_a_corrupted_output(name, good, check, corrupt):
    inputs, out = good()
    out = copy.deepcopy(out)
    corrupt(out)
    results = {c[0]: c[1] for c in workloads.WORKLOADS[name].check(inputs, out)}
    assert results[check] is False


# ---------------------------------------------------------------- tracing

def small_inputs(name):
    """Scaled-down inputs that keep each workload's call structure."""
    inputs = workloads.WORKLOADS[name].inputs(0)
    if name == "focusing-sweep":
        inputs.update(n_nodes=257, num_points=12, lambda_hi=100.0)
    elif name == "verify-endpoint":
        inputs["eig"]["n_nodes"] = 513
        inputs["verify"].update(num_points=7, n_nodes=257, spectrum_points=2,
                                lambda_max=-50.0)
        inputs["endpoint"].update(eig_nodes=513, n_nodes=257,
                                  eps=(1e-2, 2.5e-3))
        inputs["cold"] = {"n_nodes": 257,
                          "focusing": (((1, 3.0), (2.0,)),),
                          "defocusing": ((1, 3.0), (-10.0,))}
    else:
        inputs["stable"].update(T=0.2, n_nodes=257)
    return inputs


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_traced_and_untraced_passes_give_the_same_outputs(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = small_inputs(name)
    workloads.write_configs(w, inputs, tmp_path)
    plain = workloads.Pass(tmp_path)
    w.run(inputs, plain)
    traced = workloads.Pass(tmp_path)
    with Tracer() as tracer:
        w.run(inputs, traced)
    assert traced.out["fingerprint"] == plain.out["fingerprint"]
    assert (traced.attempted, traced.failed) == (plain.attempted, plain.failed)
    # the generated configs are accepted; the only failure allowed is the
    # identity-residual verdict of cli verify on the coarse test grid
    assert all(f.startswith("cli verify (exit 1)") for f in plain.failures)
    # the wrappers are gone again
    assert nlsball.trace.__module__ == "nlsball.branch"
    assert not hasattr(nlsball.trace, "__wrapped__")
    assert not hasattr(nlsball.cli.trace, "__wrapped__")

    spans = tracer.spans
    layers = {s.name.split(".")[0] for s in spans}
    expected = {"focusing-sweep": {"core", "shoot", "branch", "asymptotics"},
                "verify-endpoint": {"core", "shoot", "branch", "asymptotics",
                                    "verify", "cli"},
                "evolve-probe": {"core", "shoot", "branch", "evolve",
                                 "cli"}}[name]
    assert expected <= layers <= set(LAYERS)
    selfs = self_times(spans)
    assert all(-1e-9 <= t <= s.duration + 1e-9 for t, s in zip(selfs, spans))
    roots = [s for s in spans if s.parent < 0]
    assert sum(selfs) == pytest.approx(sum(s.duration for s in roots))
    values = metrics.layer_metrics(spans, traced.out, inputs)
    assert all(v >= 0 for v in values.values())
    if name == "verify-endpoint":
        assert values["core.make_grid_ms"] > 0
        assert values["verify.spectrum_points"] == 2
        assert values["cli.verify_self_ms"] > 0
    if name == "evolve-probe":
        assert values["evolve.steps"] == 100 + round(
            traced.out["blowup"]["t_hit"] / inputs["blowup"]["dt"])
        assert values["evolve.cn_step_us"] > 0


def test_self_time_subtracts_child_cover():
    from tracer import Span
    spans = [Span("branch.trace", 0.0, 10.0),
             Span("core.make_grid", 1.0, 3.0, parent=0),
             Span("branch.normalize", 4.0, 8.0, parent=0),
             Span("core.grad_norm_sq", 5.0, 6.0, parent=2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
