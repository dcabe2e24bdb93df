"""CLI schemas, exit codes, and determinism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nlsball import branch as branch_module
from nlsball.cli import main


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
        cfg = write_cfg(tmp_path / "c.cfg", p=3.0)
        assert main(["eig", "--config", cfg]) == 2

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


class TestFigure1Command:
    def test_wrong_parameters_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=2, p=3.0)
        assert main(["figure1", "--config", cfg]) == 2

    def test_small_run_shape(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", alpha_max=400.0, num_points=25,
                        n_nodes=1025)
        out = tmp_path / "f.csv"
        assert main(["figure1", "--config", cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        alpha, mu, asym = rows.T
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

    def test_threshold_failure_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=15, n_nodes=1025,
                        spectrum_points=2, pohozaev_tol=1e-15)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        assert "pohozaev" in doc["failures"]

    def test_boundary_flux_failure_named(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lambda_min=0.0,
                        lambda_max=8.0, num_points=15, n_nodes=1025,
                        spectrum_points=2, pairing_tol=1e-15)
        out = tmp_path / "v.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["max_boundary_flux_res"] > 1e-15
        assert "boundary-flux" in doc["failures"]

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
                        T=1.0, dt=2e-3, n_nodes=513, sample_every=50)
        out = tmp_path / "p.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nlsball-csv-1"
        assert lines[1] == "t,mass,energy,orbit_distance"
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        mass = rows[:, 1]
        assert np.max(np.abs(mass / mass[0] - 1.0)) < 1e-8

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", N=1, p=3.0, lam=1.0, delta=1e-3,
                        T=1.0, dt=2e-3, n_nodes=513, sample_every=50,
                        blowup_cap=0.1)
        out = tmp_path / "p.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 3
        assert any(line.startswith("#blowup") for line
                   in out.read_text().splitlines())

    def test_overflowing_probe_exit_code(self, tmp_path):
        # the supercritical run reaches the blow-up cap at t = 0.173
        cfg = write_cfg(tmp_path / "c.cfg", N=3, p=3.0, lam=5.0, delta=5.61e-4,
                        T=50.0, dt=2.5e-4, n_nodes=1025, sample_every=40)
        out = tmp_path / "p.csv"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 3
        assert any(line.startswith("#blowup") for line
                   in out.read_text().splitlines())
