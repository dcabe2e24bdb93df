"""The benchmark's three workloads: inputs from a seed, one timed pass,
and the correctness checks on a pass's outputs.

Every workload calls nlsball's public functions and ``nlsball.cli.main``
in-process.  Functions are looked up on the modules at call time, so a
tracer installed around a pass sees every call.  See README.md for why
each workload exists and which layer each one loads.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PI2 = math.pi ** 2


def _nb(layer: str | None = None):
    # The package attribute ``nlsball.evolve`` is the function, not the
    # module, so layers are always reached through sys.modules.
    return sys.modules["nlsball" if layer is None else f"nlsball.{layer}"]


# ---------------------------------------------------------------- inputs

def _jitter(rng: random.Random, seed: int, lo: float, hi: float,
            canonical: float) -> float:
    """A uniform draw from [lo, hi], except that seed 0 keeps `canonical`."""
    draw = rng.uniform(lo, hi)
    return canonical if seed == 0 else draw


def focusing_sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    lam_lo = -PI2 + 0.4
    return {
        "N": 3, "p": 3.0, "n_nodes": 2049, "R_max": 20.0, "num_points": 80,
        "lambda_lo": lam_lo * _jitter(rng, seed, 0.99, 1.01, 1.0),
        "lambda_hi": 3500.0 * _jitter(rng, seed, 0.99, 1.01, 1.0),
        "rho_fraction": _jitter(rng, seed, 0.85, 0.95, 0.9),
        "alpha_window": 1e4,
    }


def verify_endpoint_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "eig": {"N": 3, "n_nodes": 16385},
        "verify": {
            "N": 1, "p": 3.0, "sign": "defocusing",
            "lambda_min": -2.6 * _jitter(rng, seed, 0.99, 1.01, 1.0),
            "lambda_max": -2000.0 * _jitter(rng, seed, 0.99, 1.01, 1.0),
            "num_points": 121, "n_nodes": 2049,
            "spectrum_points": 16, "l_max": 3,
        },
        "endpoint": {
            "N": 1, "p": 3.0, "eig_nodes": 16385, "n_nodes": 2049,
            "eps": (1e-3 * _jitter(rng, seed, 0.9, 1.1, 1.0),
                    2.5e-4 * _jitter(rng, seed, 0.9, 1.1, 1.0)),
        },
        "cold": {
            "n_nodes": 2049,
            "focusing": (((1, 3.0), (-1.0, 2.0, 20.0)),
                         ((1, 5.0), (0.5, 10.0, 40.0)),
                         ((3, 3.0), (-5.0, 0.5, 3.0, 15.0))),
            "defocusing": ((1, 3.0), (-10.0, -300.0)),
        },
    }


def evolve_probe_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # delta is log-uniform in [5e-4, 2e-3] around the canonical 1e-3.  The
    # supercritical probe keeps delta = 1e-3: at about 40% of the deltas in
    # that range its run ends in an uncaught ValueError (the fixed-point
    # iterate overflows) instead of exit 3, which changes how it ends.
    return {
        "stable": {"N": 1, "p": 3.0, "lam": 1.0,
                   "delta": 1e-3 * 2.0 ** _jitter(rng, seed, -1.0, 1.0, 0.0),
                   "T": 20.0, "dt": 2e-3, "n_nodes": 1025},
        "blowup": {"N": 3, "p": 3.0, "lam": 5.0, "delta": 1e-3,
                   "T": 50.0, "dt": 2.5e-4, "n_nodes": 1025},
    }


def write_config(path: Path, cfg: dict):
    lines = [f"{key} = {value}" for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- a pass

@dataclass
class Pass:
    """What one timed pass did: phase times, operation counts, outputs."""

    workdir: Path
    phases: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    out: dict = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + \
                time.perf_counter() - t0

    def op(self, name: str, count: int = 1, failed: int = 0):
        """Count `count` attempted operations, `failed` of which failed."""
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {count} failed")

    def call(self, name, fn, *args, **kwargs):
        """One library call, counted as one operation."""
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.op(name, failed=1)
            raise
        self.op(name)
        return result

    def cli(self, name: str, argv: list[str], expected: tuple[int, ...] = (0,)):
        """One CLI command; an exit code outside `expected` is a failure."""
        try:
            code = _nb("cli").main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        self.out[f"{name}_exit"] = code
        self.op(f"cli {name} (exit {code})", failed=int(code not in expected))
        return code


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fingerprint(*results) -> str:
    """A digest of a pass's results, to compare passes for equality."""
    return hashlib.sha256(repr(results).encode()).hexdigest()


def run_focusing_sweep(inputs: dict, ps: Pass):
    nb = _nb()
    params = nb.ProblemParams(N=inputs["N"], p=inputs["p"])
    config = nb.ShootConfig(n_nodes=inputs["n_nodes"])
    with ps.phase("sweep_s"):
        Z = ps.call("solve_whole_space", nb.solve_whole_space, params,
                    R_max=inputs["R_max"], config=config)
        lams = ps.call("geometric_lambda_grid", nb.geometric_lambda_grid,
                       params, inputs["lambda_lo"], inputs["lambda_hi"],
                       inputs["num_points"], sign=+1)
        br = nb.trace(params, lams, +1, config)
        ps.op("branch points", count=len(lams), failed=len(br.failures))
    br = ps.call("classify_stability", nb.classify_stability, br)
    with ps.phase("refine_s"):
        mu_star, alpha_star, rho_star = ps.call("find_mu_star",
                                                nb.find_mu_star, br)
        least = ps.call("least_energy_at_mass", nb.least_energy_at_mass,
                        br, inputs["rho_fraction"] * rho_star)
    last = _last_in_window(br, inputs["alpha_window"])
    large = ps.call("large_alpha_diagnostics", nb.large_alpha_diagnostics,
                    br.points[last], Z)
    gn = ps.call("gn_constant", nb.gn_constant, Z)
    ps.out["fingerprint"] = _fingerprint(
        [(pt.alpha, pt.mu, pt.lam) for pt in br.points], br.failures,
        mu_star, alpha_star, least.alpha, large, gn)
    ps.out.update(branch=br, Z=Z, alpha_star=alpha_star, least=least,
                  last=last, points_ok=len(br.points),
                  points_failed=len(br.failures))


def _last_in_window(br, alpha_max: float) -> int:
    inside = [i for i, pt in enumerate(br.points)
              if PI2 < pt.alpha <= alpha_max]
    return inside[-1]


def run_verify_endpoint(inputs: dict, ps: Pass):
    nb = _nb()
    wd = ps.workdir
    with ps.phase("cli_eig_s"):
        ps.cli("eig", ["eig", "--config", str(wd / "eig.cfg"),
                       "--out", str(wd / "eig.json")])
    with ps.phase("cli_verify_s"):
        # exit 1 is the known identity-residual defect on this window; it
        # counts as a failed operation and the report is still read
        ps.cli("verify", ["verify", "--config", str(wd / "verify.cfg"),
                          "--out", str(wd / "verify.json")])
    ep = inputs["endpoint"]
    params = nb.ProblemParams(N=ep["N"], p=ep["p"])
    config = nb.ShootConfig(n_nodes=ep["n_nodes"])
    errors = {}
    with ps.phase("endpoint_s"):
        grid = ps.call("make_grid", nb.make_grid, params, ep["eig_nodes"], 1.0)
        eig = ps.call("principal_eigenpair", nb.principal_eigenpair,
                      params, grid)
        ap = ps.call("solve_psi", nb.solve_psi, params, eig)
        for eps in ep["eps"]:
            for sign in (+1, -1):
                mu_pred, _, _ = ps.call("ap_predict", nb.ap_predict,
                                        ap, eps, sign)
                pt = ps.call("point_at_alpha", nb.point_at_alpha, params,
                             eig.lambda1 + eps, sign, config)
                errors[(eps, sign)] = abs(pt.mu - mu_pred) / abs(mu_pred)
    cold = inputs["cold"]
    config = nb.ShootConfig(n_nodes=cold["n_nodes"])
    centers = []
    with ps.phase("cold_solves_s"):
        runs = [(pp, lam, +1) for pp, lams in cold["focusing"] for lam in lams]
        pp, lams = cold["defocusing"]
        runs += [(pp, lam, -1) for lam in lams]
        for (n_dim, p), lam, sign in runs:
            prof = ps.call("solve_ball_profile", nb.solve_ball_profile,
                           nb.ProblemParams(N=n_dim, p=p), lam, sign, config)
            centers.append(float(prof.values[0]))
    report = json.loads((wd / "verify.json").read_text(encoding="utf-8"))
    num = inputs["verify"]["num_points"]
    ps.op("branch points (cli verify)", count=num,
          failed=num - report["points"])
    ps.out.update(
        eig=json.loads((wd / "eig.json").read_text(encoding="utf-8")),
        verify=report, endpoint_errors=errors, cold_centers=centers,
        points_ok=report["points"], points_failed=num - report["points"],
        fingerprint=_fingerprint(_file_digest(wd / "eig.json"),
                                 _file_digest(wd / "verify.json"),
                                 sorted(errors.items()), centers),
    )


def run_evolve_probe(inputs: dict, ps: Pass):
    wd = ps.workdir
    with ps.phase("cli_probe_s"):
        ps.cli("probe stable", ["probe", "--config", str(wd / "stable.cfg"),
                                "--out", str(wd / "stable.csv")])
    with ps.phase("blowup_detect_s"):
        ps.cli("probe blowup", ["probe", "--config", str(wd / "blowup.cfg"),
                                "--out", str(wd / "blowup.csv")],
               expected=(3,))
    ps.out.update(
        stable=read_probe_csv(wd / "stable.csv"),
        blowup=read_probe_csv(wd / "blowup.csv"),
        fingerprint=_fingerprint(_file_digest(wd / "stable.csv"),
                                 _file_digest(wd / "blowup.csv")),
    )


def read_probe_csv(path: Path) -> dict:
    """Columns and footer of a `nlsball probe` CSV artifact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "nlsball-csv-1":
        raise ValueError(f"{path.name}: not an nlsball CSV")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    rows = list(csv.DictReader(body))
    cols = {key: [float(r[key]) if r[key] else math.nan for r in rows]
            for key in rows[0]}
    t_hit = None
    for ln in lines:
        if ln.startswith("#blowup,t_hit="):
            t_hit = float(ln.split("=", 1)[1])
    return {"columns": cols, "t_hit": t_hit}


# ---------------------------------------------------------------- checks

Check = tuple[str, bool, str]  # (name, passed, detail)


def _check(name: str, passed: bool, detail: str) -> Check:
    return (name, bool(passed), detail)


def check_focusing_sweep(inputs: dict, out: dict) -> list[Check]:
    verify = _nb("verify")
    br = out["branch"]
    checks = [_check("no branch failures", not br.failures,
                     f"{len(br.failures)} failed of {inputs['num_points']}")]
    window = [pt for pt in br.points
              if PI2 < pt.alpha <= inputs["alpha_window"]]
    mus = [pt.mu for pt in window]
    signs = [math.copysign(1.0, b - a) for a, b in zip(mus, mus[1:])]
    turns = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    checks.append(_check("one interior maximum of mu(alpha)", turns == 1,
                         f"{turns} sign changes of dmu"))
    j = max(range(len(br.points)), key=lambda i: br.points[i].mu)
    lo = br.points[max(j - 1, 0)].alpha
    hi = br.points[min(j + 1, len(br.points) - 1)].alpha
    checks.append(_check("mu* bracketed",
                         0 < j < len(br.points) - 1
                         and lo < out["alpha_star"] < hi,
                         f"alpha*={out['alpha_star']:.6g} in ({lo:.6g}, {hi:.6g})"))
    checks.append(_check("least-energy point below alpha*",
                         out["least"].alpha < out["alpha_star"],
                         f"alpha={out['least'].alpha:.6g}"))
    last = br.points[out["last"]]
    scaled = last.mu * math.sqrt(last.lam) / out["Z"].mass - 1.0
    ratio = last.alpha / last.lam / 3.0 - 1.0
    checks.append(_check("mu*sqrt(lam)/mass(Z) within 3%", abs(scaled) < 0.03,
                         f"{scaled:+.3e}"))
    checks.append(_check("alpha/lam/3 within 3%", abs(ratio) < 0.03,
                         f"{ratio:+.3e}"))
    out["max_pohozaev_res"] = max(verify.pohozaev_residual(pt)
                                  for pt in br.points)
    return checks


def check_verify_endpoint(inputs: dict, out: dict) -> list[Check]:
    lam1 = out["eig"]["lambda1"]
    rel = abs(lam1 / PI2 - 1.0)
    checks = [_check("cli eig lambda1 within 1e-8 of pi^2 (relative)",
                     out["eig_exit"] == 0 and rel < 1e-8, f"{rel:.2e}")]
    eps1, eps2 = inputs["endpoint"]["eps"]
    errs = out["endpoint_errors"]
    for sign, tag in ((+1, "+"), (-1, "-")):
        e1, e2 = errs[(eps1, sign)], errs[(eps2, sign)]
        checks.append(_check(f"endpoint error ({tag}) < 0.05 at eps1",
                             e1 < 0.05, f"{e1:.4f}"))
        checks.append(_check(f"endpoint error ratio ({tag}) >= 1.5",
                             e1 / e2 >= 1.5, f"{e1 / e2:.3f}"))
    spectra = out["verify"]["spectra"]
    neg = [s["total_negative"] for s in spectra]
    checks.append(_check("defocusing spectra have no negative direction",
                         len(spectra) == inputs["verify"]["spectrum_points"]
                         and all(n == 0 for n in neg),
                         f"{len(spectra)} spectra, negatives {sorted(set(neg))}"))
    checks.append(_check("cold solves positive at the center",
                         all(c > 0.0 for c in out["cold_centers"]),
                         f"min u(0)={min(out['cold_centers']):.4g}"))
    out["max_pohozaev_res"] = out["verify"]["max_pohozaev_res"]
    return checks


def check_evolve_probe(inputs: dict, out: dict) -> list[Check]:
    mass = out["stable"]["columns"]["mass"]
    drift = max(abs(m / mass[0] - 1.0) for m in mass)
    dist = max(out["stable"]["columns"]["orbit_distance"])
    # the orbit distance of a stable orbit is proportional to delta; the
    # acceptance bar is 1e-2 at delta = 1e-3
    dist_bar = 10.0 * inputs["stable"]["delta"]
    return [
        _check("stable probe mass drift < 1e-8", drift < 1e-8, f"{drift:.2e}"),
        _check("stable orbit distance < 10 delta", dist < dist_bar,
               f"{dist:.3e} against {dist_bar:.3e}"),
        _check("supercritical probe exits with code 3",
               out["probe blowup_exit"] == 3 and out["blowup"]["t_hit"],
               f"exit {out['probe blowup_exit']},"
               f" t_hit={out['blowup']['t_hit']}"),
    ]


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], dict]
    configs: tuple[str, ...]   # input sections written as CLI config files
    run: Callable[[dict, Pass], None]
    check: Callable[[dict, dict], list[Check]]


WORKLOADS = {w.name: w for w in (
    Workload("focusing-sweep",
             "RK4 shooting does most of the work, warm in trace and cold in "
             "the mu* and prescribed-mass re-solves",
             focusing_sweep_inputs, (), run_focusing_sweep,
             check_focusing_sweep),
    Workload("verify-endpoint",
             "spectrum, n=16385 grid and eigen work, defocusing Newton and "
             "the endpoint expansion; little warm shooting",
             verify_endpoint_inputs, ("eig", "verify"), run_verify_endpoint,
             check_verify_endpoint),
    Workload("evolve-probe",
             "the Crank-Nicolson loop does almost all the work; one stable "
             "run and one supercritical run that stops early",
             evolve_probe_inputs, ("stable", "blowup"), run_evolve_probe,
             check_evolve_probe),
)}


def write_configs(workload: Workload, inputs: dict, workdir: Path):
    for name in workload.configs:
        write_config(workdir / f"{name}.cfg", inputs[name])
