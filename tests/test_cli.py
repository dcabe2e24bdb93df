"""CLI schemas, exit codes, and determinism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nlsball import branch as branch_module
from nlsball import cli
from nlsball.cli import main
from nlsball.errors import SolverError


def write_cfg(path, **kwargs):
    lines = [f"{k} = {v}" for k, v in kwargs.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, frobnicate=2)
        assert main(["eig", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", n_nodes=2049)
        assert main(["eig", "--config", cfg]) == 2
        assert "missing required config key 'N'" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("N = 1\nN = 2\n", encoding="utf-8")
        assert main(["eig", "--config", str(path)]) == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("N 1\n", encoding="utf-8")
        assert main(["eig", "--config", str(path)]) == 2

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nN = 1  # trailing\nn_nodes = 2049\n",
                        encoding="utf-8")
        out = tmp_path / "o.json"
        assert main(["eig", "--config", str(path), "--out", str(out)]) == 0

    def test_bad_value_type(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N="three")
        assert main(["eig", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, values", [
        ("branch", dict(N=1, p=3.0, lambda_min=-2.0, lambda_max=30.0,
                        num_points=-3)),
        ("verify", dict(N=1, p=3.0, lambda_min=-2.0, lambda_max=30.0,
                        num_points=5, spectrum_points=-1)),
        ("probe", dict(N=1, p=3.0, lam=1.0, T="inf", n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam=1.0, dt="nan", n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam="nan", n_nodes=257)),
        ("figure1", dict(R_max="nan", n_nodes=257)),
        ("figure1", dict(R_max="inf", n_nodes=257)),
        ("branch", dict(N=1, p=3.0, lambda_min=-2.0, lambda_max="inf",
                        num_points=4, n_nodes=257)),
        ("branch", dict(N=1, p=3.0, sign="defocusing", lambda_min=-2.6,
                        lambda_max="-inf", num_points=4, n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam=1.0, delta="nan", n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam=1.0, delta="inf", n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam=1.0, T=1.0, dt=0.3, n_nodes=257)),
        ("probe", dict(N=1, p=3.0, lam=1.0, T=1e200, dt=1e-200,
                       n_nodes=257)),
    ], ids=["negative-num_points", "negative-spectrum_points", "infinite-T",
            "nan-dt", "nan-lam", "nan-R_max", "infinite-R_max",
            "infinite-lambda_max", "negative-infinite-lambda_max",
            "nan-delta", "infinite-delta", "T-not-whole-steps",
            "overflowing-step-count"])
    def test_bad_parameter_exits_2(self, tmp_path, capsys, command, values):
        # each of these used to end in an uncaught ValueError or
        # OverflowError from numpy or math, or, for an infinite lambda
        # window end, in exit 0 with every solve past it failed; a
        # non-finite delta was reported as a field that does not vanish
        # at the boundary.  figure1 fixes R_max at 20 now, so a non-finite
        # R_max is refused as a key it does not take.  T = 1.0 at dt = 0.3
        # ran 3 steps to t = 0.9, and T / dt = 1e400 raised OverflowError
        cfg = write_cfg(tmp_path / "c.cfg", **values)
        assert main([command, "--config", cfg]) == 2
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        *((command, "out") for command in
          ("eig", "branch", "figure1", "verify", "probe")),
        ("verify", "pohozaev_tol"), ("verify", "pairing_tol"),
        ("verify", "m_prime_tol"), ("probe", "sample_every"),
        ("probe", "blowup_cap"), ("figure1", "alpha_max"),
        ("figure1", "num_points"), ("figure1", "R_max"),
    ])
    def test_removed_key_exits_2(self, tmp_path, capsys, command, key):
        # the output path is --out alone, verify's bars are fixed, and
        # probe and figure1 no longer take these; the command's required
        # keys are set, so the removed key is all that is wrong
        required = {"eig": dict(N=1),
                    "branch": dict(N=1, p=3.0, lambda_min=0.0, lambda_max=8.0),
                    "figure1": {},
                    "verify": dict(N=1, p=3.0, lambda_min=0.0, lambda_max=8.0),
                    "probe": dict(N=1, p=3.0, lam=1.0)}[command]
        value = {"out": "o.txt", "pohozaev_tol": 1e-5, "pairing_tol": 1e-3,
                 "m_prime_tol": 1e-2, "sample_every": 10, "blowup_cap": 0.1,
                 "alpha_max": 1e4, "num_points": 80, "R_max": 20.0}[key]
        cfg = write_cfg(tmp_path / "c.cfg", **required, **{key: value})
        assert main([command, "--config", cfg]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_schemas_hold_26_keys(self):
        assert sum(len(schema) for schema, _ in cli.COMMANDS.values()) == 26

    def test_no_out_writes_stdout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, n_nodes=257)
        assert main(["eig", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "nlsball-json-1"


class TestEig:
    def test_output_and_oracle(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, n_nodes=16385)
        out = tmp_path / "eig.json"
        assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "nlsball-json-1"
        assert abs(doc["lambda1"] / (math.pi**2 / 4) - 1.0) < 1e-8
        assert len(doc["phi1_samples"]) >= 33

    def test_invalid_dimension(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=0)
        assert main(["eig", "--config", cfg]) == 2


@pytest.fixture(scope="module")
def branch_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("branch")
    cfg = write_cfg(d / "c.cfg", N=1, p=3.0, lambda_min=-2.0,
                    lambda_max=30.0, num_points=20, n_nodes=1025)
    out = d / "branch.csv"
    assert main(["branch", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestBranchCommand:
    def test_schema_header(self, branch_csv):
        lines = branch_csv.read_text().splitlines()
        assert lines[0] == "nlsball-csv-1"
        assert lines[1] == "alpha,lambda,mu,M_alpha,ur1,rho,energy,stability"

    def test_all_stable_subcritical(self, branch_csv):
        lines = branch_csv.read_text().splitlines()[2:]
        assert len(lines) == 20
        assert all(line.endswith(",stable") for line in lines)

    def test_determinism(self, branch_csv, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=-2.0,
                        lambda_max=30.0, num_points=20, n_nodes=1025)
        out = tmp_path / "again.csv"
        assert main(["branch", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == branch_csv.read_bytes()

    def test_defocusing_rows_leave_rho_and_energy_empty(self, tmp_path):
        # rho and the energy belong to the focusing curve only
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, sign="defocusing",
                        lambda_min=-2.6, lambda_max=-30.0, num_points=5,
                        n_nodes=513)
        out = tmp_path / "b.csv"
        assert main(["branch", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 5
        for row in rows:
            assert row[5:] == ["", "", "unknown"]
            assert float(row[2]) < 0.0

    def test_failed_solve_footer(self, tmp_path, monkeypatch):
        # the second of four solves fails: three rows, then one warning
        solve = branch_module._solve_normalized
        lams = []

        def failing(params, lam, sign, grid):
            lams.append(lam)
            if len(lams) == 2:
                raise SolverError("forced failure", lam=lam)
            return solve(params, lam, sign, grid)

        monkeypatch.setattr(branch_module, "_solve_normalized", failing)
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=-2.0,
                        lambda_max=30.0, num_points=4, n_nodes=257)
        out = tmp_path / "b.csv"
        assert main(["branch", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 3 + 1
        assert lines[-1] == (f"# warning: 1 solve(s) failed; first at"
                             f" lambda={lams[1]:.12g}: SolverError: forced"
                             f" failure")


class TestFigure1Command:
    def test_wrong_parameters_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=2, p=3.0)
        assert main(["figure1", "--config", cfg]) == 2

    def test_small_run_shape(self, tmp_path):
        # the paper's window, alpha <= 1e4 over 80 lambdas, on a coarse grid
        cfg = write_cfg(tmp_path / "c.cfg", n_nodes=257)
        out = tmp_path / "f.csv"
        assert main(["figure1", "--config", cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        alpha, mu, asym = rows.T
        assert len(rows) == 79
        assert np.all(rows > 0.0)
        d = np.sign(np.diff(mu))
        assert int(np.sum(d[:-1] * d[1:] < 0)) == 1  # single interior max


class TestVerifyCommand:
    def test_pass_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=41, n_nodes=1025,
                        spectrum_points=2)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "nlsball-json-1"
        assert doc["pass"] is True
        assert doc["max_pohozaev_res"] < 1e-5
        for entry in doc["spectra"]:
            assert entry["negative_counts"][0] == 1
            assert entry["total_negative"] == 1

    def test_defocusing_endpoint_window_passes(self, tmp_path):
        # the S- window of the verify-endpoint benchmark workload
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, sign="defocusing",
                        lambda_min=-2.6, lambda_max=-2000.0, num_points=121,
                        n_nodes=2049, spectrum_points=2)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["max_pohozaev_res"] < 1e-5

    def test_coarse_defocusing_window_reports(self, tmp_path):
        # 9 points over the S- window: the derivatives come from each
        # point's tangent, so the residuals are those of the 121-point run
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, sign="defocusing",
                        lambda_min=-2.6, lambda_max=-2000.0, num_points=9,
                        n_nodes=2049)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["points"] == 9
        assert doc["failures"] == []
        assert doc["pass"] is True
        assert doc["max_pohozaev_res"] < 1e-5
        assert doc["max_nonlinear_pairing_res"] < 1e-4
        assert doc["max_M_prime_res"] < 1e-3
        assert all(s["total_negative"] == 0 for s in doc["spectra"])

    def test_threshold_failure_exit_code(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=15, n_nodes=1025,
                        spectrum_points=2)
        monkeypatch.setattr(cli, "POHOZAEV_TOL", 1e-15)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        assert "pohozaev" in doc["failures"]

    def test_boundary_flux_failure_named(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=15, n_nodes=1025,
                        spectrum_points=2)
        monkeypatch.setattr(cli, "PAIRING_TOL", 1e-15)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["max_boundary_flux_res"] > 1e-15
        assert "boundary-flux" in doc["failures"]

    def test_m_prime_failure_named(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=15, n_nodes=1025,
                        spectrum_points=2)
        monkeypatch.setattr(cli, "M_PRIME_TOL", 1e-15)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["max_M_prime_res"] > 1e-15
        assert doc["failures"] == ["M-prime"]

    def test_equal_alpha_neighbors_exit_1(self, tmp_path, capsys,
                                          monkeypatch, branch_13):
        # alpha_lam = 0 at the middle point: a typed SolverError, exit 1
        short = replace(branch_13, points=branch_13.points[4:7])
        tangent = branch_module._tangent
        monkeypatch.setattr(
            branch_module, "_tangent",
            lambda pt: replace(tangent(pt), alpha=0.0)
            if pt is short.points[1] else tangent(pt))
        monkeypatch.setattr("nlsball.cli._traced_branch",
                            lambda cfg, sign: short)
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=3, n_nodes=1025)
        assert main(["verify", "--config", cfg]) == 1
        assert "solver failure: alpha does not change" in \
            capsys.readouterr().err


class TestProbeCommand:
    def test_stable_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lam=1.0, delta=1e-3,
                        T=1.0, dt=2e-3, n_nodes=513)
        out = tmp_path / "p.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nlsball-csv-1"
        assert lines[1] == "t,mass,energy,orbit_distance"
        assert not any(line.startswith("#") for line in lines)
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        mass = rows[:, 1]
        assert np.max(np.abs(mass / mass[0] - 1.0)) < 1e-8

    def test_overflowing_probe_exit_code(self, tmp_path):
        # the supercritical run reaches the blow-up cap at t = 0.173
        cfg = write_cfg(tmp_path / "c.cfg", N=3, p=3.0, lam=5.0, delta=5.61e-4,
                        T=50.0, dt=2.5e-4, n_nodes=1025)
        out = tmp_path / "p.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 3
        assert any(line.startswith("#blowup") for line
                   in out.read_text().splitlines())


def _artifact(tmp_path, command, values):
    """(exit code, artifact bytes or None) of one command run."""
    cfg = write_cfg(tmp_path / "c.cfg", **values)
    out = tmp_path / "artifact"
    out.unlink(missing_ok=True)
    code = main([command, "--config", cfg, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


# Each command's base config, and for every key with a default another
# valid value of it.  Base configs leave a key at its default where that
# is cheap and set n_nodes to at most 257 where the command allows it.
# A defocusing window exits 2 under the default focusing sign, so the
# sign case sets its window too: a report there shows that sign was read.
_KEY_CASES = {
    "eig": (dict(N=1), dict(n_nodes=257)),
    "branch": (dict(N=1, p=3.0, lambda_min=0.0, lambda_max=8.0, n_nodes=257),
               dict(sign=dict(sign="defocusing", lambda_min=-2.6,
                              lambda_max=-30.0),
                    num_points=7, n_nodes=129)),
    "verify": (dict(N=3, p=3.0, lambda_min=-5.0, lambda_max=8.0,
                    num_points=9, n_nodes=257),
               dict(sign=dict(sign="defocusing", lambda_min=-10.0,
                              lambda_max=-40.0),
                    num_points=7, n_nodes=129, l_max=2, spectrum_points=2)),
    "probe": (dict(N=1, p=3.0, lam=1.0, T=2.0, n_nodes=257),
              dict(delta=2e-3, T=1.0, dt=2e-3, n_nodes=129)),
    "figure1": (dict(n_nodes=257), dict(n_nodes=129)),
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys) in _KEY_CASES.items()
    for key in keys])
def test_every_key_changes_the_artifact(tmp_path, command, key):
    base, keys = _KEY_CASES[command]
    code, before = _artifact(tmp_path, command, base)
    assert code == 0 and before is not None
    value = keys[key]
    change = value if isinstance(value, dict) else {key: value}
    code, after = _artifact(tmp_path, command, {**base, **change})
    assert code in (0, 1)  # verify writes its report on exit 1 too
    assert after is not None and after != before
