#!/usr/bin/env python3
"""Run one nlsball benchmark workload, check its outputs, print metrics.

    python3 bench/run.py --workload focusing-sweep --seed 0 --seconds 40 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  The library is imported from ``src/`` next to ``bench/``.
One client process, single-threaded BLAS.  The timed phase repeats whole
passes of the workload while the next pass still fits in ``--seconds``,
and makes at least two; with ``--trace 1`` the passes alternate between
untraced and traced.  Human-readable report lines start with ``#``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2  # even when one pass takes most of --seconds

import metrics  # noqa: E402  (bench/ is on sys.path as the script's dir)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_nlsball():
    """(Re-)import the package, cli layer included, from this checkout."""
    for name in [m for m in sys.modules
                 if m == "nlsball" or m.startswith("nlsball.")]:
        del sys.modules[name]
    nb = importlib.import_module("nlsball")
    importlib.import_module("nlsball.cli")
    if Path(nb.__file__).resolve().parent != SRC / "nlsball":
        raise ImportError(f"nlsball imported from {nb.__file__}, not {SRC}")


def run_pass(workload, inputs, workdir, traced):
    """One timed pass; returns (Pass, wall seconds, spans or None)."""
    ps = workloads.Pass(workdir)
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    if tracer is None:
        workload.run(inputs, ps)
    else:
        with tracer:
            workload.run(inputs, ps)
    wall = time.perf_counter() - t0
    return ps, wall, None if tracer is None else tracer.spans


def environment(seed) -> dict:
    import numpy
    import scipy
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nlsball" / "__init__.py").is_file():
        print(f"error: no nlsball sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir) -> int:
    # A set-up imports nlsball afresh, makes the inputs and writes the CLI
    # configs.  One runs before every pass and one after the last, so the
    # set-up times are sampled across the run; the first set-up also
    # imports numpy and scipy and is left out of setup_s.
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        import_nlsball()
        inputs = workload.inputs(args.seed)
        workloads.write_configs(workload, inputs, workdir)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    set_up()
    passes = []  # (Pass, wall, spans or None)
    error = None
    start = time.perf_counter()
    while True:
        inputs = set_up()
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(workload, inputs, workdir, traced))
        except Exception:  # noqa: BLE001 - reported, the run is not correct
            error = traceback.format_exc()
            break
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + passes[-1][1] > args.seconds):
            break
    set_up()

    attempted = sum(ps.attempted for ps, _, _ in passes)
    failed = sum(ps.failed for ps, _, _ in passes)
    checks = []  # the workload's checks on each pass, then consistency
    if error is None:
        try:
            for ps, _, _ in passes:
                checks += workload.check(inputs, ps.out)
            prints = {ps.out["fingerprint"] for ps, _, _ in passes}
            checks.append(("every pass gives the same outputs",
                           len(prints) == 1,
                           f"{len(prints)} distinct of {len(passes)}"))
        except Exception:  # noqa: BLE001
            error = traceback.format_exc()
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    correct = error is None and all(ok for _, ok, _ in checks)
    if error is not None:
        attempted += 1
        failed += 1
        print(error, file=sys.stderr)

    untraced = [p for p in passes if p[2] is None]
    traced = [p for p in passes if p[2] is not None]
    walls = [w for _, w, _ in untraced]
    end_to_end = {
        "setup_s": statistics.median(setup_times[1:]),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report(workload, args.seed, passes, checks, attempted, failed)
    if args.trace:
        per_pass = [metrics.layer_metrics(spans, ps.out, inputs)
                    for ps, _, spans in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]} if per_pass else {}
        traced_wall = statistics.median(w for _, w, _ in traced) \
            if traced else 0.0
        values["trace_overhead_frac"] = \
            traced_wall / end_to_end["wall_s"] - 1.0 if walls and traced else 0.0
        chosen = metrics.PER_LAYER
    else:
        values = end_to_end
        chosen = metrics.END_TO_END
    for name, unit in chosen.items():
        print(f"# {name} = {values.get(name, 0.0):.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return 0


def report(workload, seed, passes, checks, attempted, failed):
    """Report lines: environment, phase times, verdicts and checks."""
    print(f"# workload {workload.name}: {workload.why}")
    for key, value in environment(seed).items():
        print(f"# env {key} = {value}")
    print(f"# passes {len(passes)} "
          f"({sum(p[2] is not None for p in passes)} traced)")
    untraced = [ps for ps, _, spans in passes if spans is None]
    if untraced:
        for name in untraced[0].phases:
            vals = [ps.phases[name] for ps in untraced]
            print(f"# {name} = {statistics.median(vals):.6g} s"
                  f" (median of {len(vals)} untraced passes)")
        out = untraced[0].out
        if "max_pohozaev_res" in out:
            print(f"# max_pohozaev_res = {out['max_pohozaev_res']:.6g}")
        if "verify" in out:
            rep = out["verify"]
            print(f"# cli verify verdict: exit {out['verify_exit']},"
                  f" pass={rep['pass']}, failures={rep['failures']},"
                  f" max_pohozaev_res={rep['max_pohozaev_res']:.3g},"
                  f" max_grad_pairing_res={rep['max_grad_pairing_res']:.3g}")
    print(f"# ops_failed_frac = {failed / max(attempted, 1):.6g}"
          f" ({failed} of {attempted} operations)")
    for ps, _, _ in passes[:1]:
        for line in ps.failures:
            print(f"# failed op: {line}")
    per_pass = (len(checks) - 1) // max(len(passes), 1)
    shown = checks[:per_pass] + \
        [c for c in checks[per_pass:-1] if not c[1]] + checks[-1:]
    for name, ok, detail in shown:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name} ({detail})")


if __name__ == "__main__":
    sys.exit(main())
