"""Command-line front end.

Commands consume a flat `key = value` config file ('#' starts a comment,
keys are case-sensitive, unknown keys are rejected) and emit versioned
artifacts: CSV files whose first line is ``nlsball-csv-1`` and JSON
documents carrying ``"schema": "nlsball-json-1"``.  Identical configs
produce byte-identical output.  Exit codes: 0 ok, 1 numeric failure,
2 parameter error, 3 blow-up detected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import branch as branch_mod
from . import verify as verify_mod
from .branch import geometric_lambda_grid, normalize, trace
from .core import ProblemParams, make_grid, principal_eigenpair
from .errors import NlsBallError, ParameterError, SolverError
from .evolve import stability_probe
from .shoot import ShootConfig, solve_ball_profile, solve_whole_space

CSV_SCHEMA = "nlsball-csv-1"
JSON_SCHEMA = "nlsball-json-1"

_MISSING = object()


def _parse_config(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParameterError(
                    f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}"
                )
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key in raw:
                raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def _coerce(raw: dict[str, str], schema: dict) -> dict:
    unknown = set(raw) - set(schema)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (cast, default) in schema.items():
        if key in raw:
            try:
                out[key] = cast(raw[key])
            except ValueError as exc:
                raise ParameterError(f"config key {key!r}: {exc}") from exc
        elif default is _MISSING:
            raise ParameterError(f"missing required config key {key!r}")
        else:
            out[key] = default
    return out


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list], footer: list[str] = ()) -> str:
    lines = [CSV_SCHEMA, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x
                              for x in row))
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    payload = {"schema": JSON_SCHEMA, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sign_of(text: str) -> int:
    if text == "focusing":
        return +1
    if text == "defocusing":
        return -1
    raise ParameterError(f"sign must be 'focusing' or 'defocusing', got {text!r}")


EIG_SCHEMA = {
    "N": (int, _MISSING),
    "n_nodes": (int, 16385),
}

BRANCH_SCHEMA = {
    "N": (int, _MISSING),
    "p": (float, _MISSING),
    "sign": (str, "focusing"),
    "lambda_min": (float, _MISSING),
    "lambda_max": (float, _MISSING),
    "num_points": (int, 60),
    "n_nodes": (int, 2049),
}

FIGURE1_SCHEMA = {
    "n_nodes": (int, 2049),
}

VERIFY_SCHEMA = {
    "N": (int, _MISSING),
    "p": (float, _MISSING),
    "sign": (str, "focusing"),
    "lambda_min": (float, _MISSING),
    "lambda_max": (float, _MISSING),
    "num_points": (int, 121),
    "n_nodes": (int, 2049),
    "l_max": (int, 3),
    "spectrum_points": (int, 4),
}

PROBE_SCHEMA = {
    "N": (int, _MISSING),
    "p": (float, _MISSING),
    "lam": (float, _MISSING),
    "delta": (float, 1e-3),
    "T": (float, 10.0),
    "dt": (float, 1e-3),
    "n_nodes": (int, 1025),
}

# the bars `verify` holds the residual maxima to: the Pohozaev identity,
# the derivative pairings with the boundary-flux form of mu', and M'
POHOZAEV_TOL = 1e-5
PAIRING_TOL = 1e-3
M_PRIME_TOL = 1e-2


def cmd_eig(cfg, out_path):
    """lambda_1 and phi_1 of the unit ball in dimension N; neither depends
    on p, so the grid is built with the always-admissible p = 1 + 2/N."""
    n_dim = cfg["N"]
    if n_dim < 1:
        raise ParameterError(f"dimension must be an integer >= 1, got {n_dim!r}")
    params = ProblemParams(N=n_dim, p=1.0 + 2.0 / n_dim)
    grid = make_grid(params, cfg["n_nodes"], 1.0)
    eig = principal_eigenpair(params, grid)
    stride = max(1, (grid.n_nodes - 1) // 64)
    samples = [
        [float(grid.nodes[i]), float(eig.phi1.values[i])]
        for i in range(0, grid.n_nodes, stride)
    ]
    _emit(_json({
        "N": params.N,
        "lambda1": eig.lambda1,
        "phi1_samples": samples,
    }), out_path)
    return 0


def _traced_branch(cfg, sign):
    params = ProblemParams(N=cfg["N"], p=cfg["p"])
    config = ShootConfig(n_nodes=cfg["n_nodes"])
    lams = geometric_lambda_grid(params, cfg["lambda_min"], cfg["lambda_max"],
                                 cfg["num_points"], sign=sign)
    return trace(params, lams, sign, config)


def cmd_branch(cfg, out_path):
    sign = _sign_of(cfg["sign"])
    br = _traced_branch(cfg, sign)
    if br.points and sign > 0:
        br = branch_mod.classify_stability(br)
    rows = []
    for pt in br.points:
        rows.append([pt.alpha, pt.lam, pt.mu, pt.M_alpha, pt.ur1,
                     pt.rho, pt.energy, pt.stability.value])
    footer = []
    if br.failures:
        lam0, msg = br.failures[0]
        footer.append(
            f"# warning: {len(br.failures)} solve(s) failed;"
            f" first at lambda={_fmt(lam0)}: {msg}"
        )
    _emit(_csv(
        ["alpha", "lambda", "mu", "M_alpha", "ur1", "rho", "energy", "stability"],
        rows, footer,
    ), out_path)
    return 0


def cmd_figure1(cfg, out_path):
    """The paper's Figure 1, mu(alpha) on S+ for N = 3, p = 3 and
    alpha <= 1e4 (80 lambdas), against the large-alpha asymptote
    sqrt(3) ||Z||^2 / sqrt(alpha), Z the ground state on the ball of
    radius 20."""
    alpha_max = 1e4
    params = ProblemParams(N=3, p=3.0)
    config = ShootConfig(n_nodes=cfg["n_nodes"])
    Z = solve_whole_space(params, R_max=20.0, config=config)
    lams = geometric_lambda_grid(params, -math.pi**2 + 0.4, alpha_max / 2.75,
                                 80, sign=+1)
    br = trace(params, lams, +1, config)
    rows = []
    for pt in br.points:
        if pt.alpha > alpha_max:
            continue
        asym = math.sqrt(3.0) * Z.mass / math.sqrt(pt.alpha)
        rows.append([pt.alpha, pt.mu, asym])
    _emit(_csv(["alpha", "mu", "mu_asymptote"], rows), out_path)
    return 0


def cmd_verify(cfg, out_path):
    """Trace the branch and report its identity residuals and, at
    `spectrum_points` points, the linearized spectrum's exact negative
    counts and gap; exit 1 when a residual maximum exceeds its bar
    (`POHOZAEV_TOL`; `PAIRING_TOL` for the derivative pairings and the
    boundary-flux form of mu'; `M_PRIME_TOL`) or a focusing Morse index
    differs from 1.  `SolverError` (a branch without points, alpha
    stalling along it) exits 1 too.
    """
    sign = _sign_of(cfg["sign"])
    if cfg["spectrum_points"] < 0:
        raise ParameterError(
            f"spectrum_points must be >= 0, got {cfg['spectrum_points']}")
    br = _traced_branch(cfg, sign)
    if not br.points:
        raise SolverError("no branch point for the identity suite",
                          failures=len(br.failures))
    report = verify_mod.derivative_identities(br)
    idx = np.linspace(0, len(br.points) - 1, cfg["spectrum_points"]).astype(int)
    spectra = []
    for i in sorted(set(int(k) for k in idx)):
        sp = verify_mod.linearized_spectrum(br.points[i], l_max=cfg["l_max"])
        spectra.append({
            "alpha": br.points[i].alpha,
            "negative_counts": list(sp.negative_counts),
            "total_negative": sp.total_negative,
            "min_abs_eigenvalue": sp.min_abs_eigenvalue,
        })
    payload = {
        "N": cfg["N"],
        "p": cfg["p"],
        "sign": cfg["sign"],
        "points": len(br.points),
        "max_pohozaev_res": float(np.max(report.pohozaev_res)),
        "max_multiplier_res": float(np.max(report.multiplier_res)),
        "max_orthogonality_res": float(np.max(report.orthogonality_res)),
        "max_grad_pairing_res": float(np.max(report.grad_pairing_res)),
        "max_nonlinear_pairing_res": float(np.max(report.nonlinear_pairing_res)),
        "max_mu_prime_identity_res": float(np.max(report.mu_prime_identity_res)),
        "max_M_prime_res": float(np.max(report.M_prime_res)),
        "max_boundary_flux_res": float(np.max(report.boundary_flux_res)),
        "lambda_prime_min": float(np.min(report.lambda_primes)),
        "spectra": spectra,
    }
    failures = []
    if payload["max_pohozaev_res"] > POHOZAEV_TOL:
        failures.append("pohozaev")
    pairing_max = max(payload[key] for key in (
        "max_orthogonality_res", "max_grad_pairing_res",
        "max_nonlinear_pairing_res", "max_mu_prime_identity_res"))
    if pairing_max > PAIRING_TOL:
        failures.append("derivative-pairing")
    if payload["max_boundary_flux_res"] > PAIRING_TOL:
        failures.append("boundary-flux")
    if payload["max_M_prime_res"] > M_PRIME_TOL:
        failures.append("M-prime")
    if sign > 0 and any(entry["negative_counts"][0] != 1
                        or entry["total_negative"] != 1 for entry in spectra):
        failures.append("morse-index")
    payload["failures"] = failures
    payload["pass"] = not failures
    _emit(_json(payload), out_path)
    return 0 if not failures else 1


def cmd_probe(cfg, out_path):
    params = ProblemParams(N=cfg["N"], p=cfg["p"])
    config = ShootConfig(n_nodes=cfg["n_nodes"])
    profile = solve_ball_profile(params, cfg["lam"], +1, config)
    point = normalize(profile, cfg["lam"], +1, params)
    header = ["t", "mass", "energy", "orbit_distance"]
    rec = stability_probe(point, cfg["delta"], cfg["T"], cfg["dt"],
                          sample_every=10)
    blowup = rec.blowup_time is not None
    footer = [f"#blowup,t_hit={_fmt(rec.blowup_time)}"] if blowup else []
    _emit(_csv(header, _probe_rows(rec), footer), out_path)
    return 3 if blowup else 0


def _probe_rows(rec):
    rows = []
    for k in range(len(rec.times)):
        dist = rec.orbit_distance_history[k] \
            if rec.orbit_distance_history is not None else None
        rows.append([rec.times[k], rec.mass_history[k],
                     rec.energy_history[k], dist])
    return rows


COMMANDS = {
    "eig": (EIG_SCHEMA, cmd_eig),
    "branch": (BRANCH_SCHEMA, cmd_branch),
    "figure1": (FIGURE1_SCHEMA, cmd_figure1),
    "verify": (VERIFY_SCHEMA, cmd_verify),
    "probe": (PROBE_SCHEMA, cmd_probe),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsball",
        description="Branches, asymptotics, verification, and evolution probes "
                    "for NLS standing waves on the unit ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="key = value config file")
        sp.add_argument("--out", default=None,
                        help="output path (standard output if absent)")
    args = parser.parse_args(argv)
    schema, handler = COMMANDS[args.command]
    try:
        return handler(_coerce(_parse_config(args.config), schema), args.out)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NlsBallError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
