import json
import hashlib

import numpy as np
import pytest

from efm.cli import dispatch
from efm.core import CapacitorConfig
from efm.data import load_csv


@pytest.fixture
def toy_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    CapacitorConfig(dim_d=2, plate_gap=6.0, noise_sigma=0.001, seed=0).to_json_file(path)
    return path


def run(*argv):
    return dispatch([str(a) for a in argv])


class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run("frobnicate") == 2

    def test_unknown_flag_usage_error(self):
        assert run("generate-data", "--wat") == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_missing_input_file_domain_error(self, tmp_path, toy_config_file, capsys):
        code = run("train", "--config", toy_config_file,
                   "--data-pos", tmp_path / "missing.csv",
                   "--data-neg", tmp_path / "missing.csv",
                   "--steps", 1, "--out", tmp_path / "out")
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err


class TestVerifyPhysics:
    def test_every_check_passes(self, tmp_path, toy_config_file):
        # the electrostatics suite is the field's ground truth
        out = tmp_path / "vp"
        assert run("verify-physics", "--config", toy_config_file, "--out", out) == 0
        report = json.loads((out / "physics_report.json").read_text())
        assert report
        failed = [c["check_name"] for c in report if not c["pass"]]
        assert failed == []


class TestGenerateData:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("generate-data", "--kind", "gaussian", "--n", 100, "--dim", 2,
                   "--seed", 3, "--out", out) == 0
        ds = load_csv(out / "data.csv")
        assert ds.points.shape == (100, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "generate-data"
        assert str(out / "data.csv") in manifest["outputs"]

    def test_swiss_roll_kind(self, tmp_path):
        out = tmp_path / "out"
        assert run("generate-data", "--kind", "swiss_roll", "--n", 50,
                   "--noise-std", "0.05", "--seed", 1, "--out", out) == 0
        assert load_csv(out / "data.csv").dim == 2

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("generate-data", "--kind", "two_gaussians", "--n", 64,
                "--seed", 5, "--out", out)
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


class TestPipeline:
    @pytest.fixture
    def plates(self, tmp_path):
        for name, seed in (("pos", 0), ("neg", 1)):
            run("generate-data", "--kind", "gaussian", "--n", 64, "--dim", 2,
                "--seed", seed, "--out", tmp_path / name)
        return tmp_path / "pos" / "data.csv", tmp_path / "neg" / "data.csv"

    def test_train_then_transport(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        train_out = tmp_path / "train"
        assert run("train", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--steps", 3, "--batch-size", 32,
                   "--hidden", "8,8", "--out", train_out) == 0
        assert (train_out / "weights_ema.json").exists()
        lines = (train_out / "loss_curve.csv").read_text().strip().splitlines()
        assert len(lines) == 4

        tr_out = tmp_path / "tr"
        assert run("transport", "--weights", train_out / "weights_ema.json",
                   "--config", toy_config_file, "--nfe", 10, "--in", pos,
                   "--out", tr_out, "--dump-trajectories") == 0
        mapped = load_csv(tr_out / "mapped.csv")
        assert mapped.dim == 2
        header = (tr_out / "trajectories.csv").read_text().splitlines()[0]
        assert header == "line_id,step,z,x_1,x_2,termination"

    def test_weights_theoretical_transport_rejected(self, tmp_path, toy_config_file,
                                                    plates, capsys):
        pos, neg = plates
        train_out = tmp_path / "train"
        assert run("train", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--steps", 1, "--batch-size", 32,
                   "--hidden", "8", "--out", train_out) == 0
        code = run("transport", "--weights", train_out / "weights_ema.json",
                   "--config", toy_config_file, "--policy", "theoretical",
                   "--in", pos, "--out", tmp_path / "tr")
        assert code == 1
        assert "--policy practical" in capsys.readouterr().err

    def test_exact_field_transport(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "ex"
        assert run("transport", "--exact-field", "--config", toy_config_file,
                   "--data-pos", pos, "--data-neg", neg, "--policy", "practical",
                   "--nfe", 10, "--in", pos, "--out", out) == 0
        assert (out / "mapped.csv").exists()

    def test_field_grid(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "grid"
        assert run("field-grid", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--grid-min=-2,-2,1", "--grid-max", "2,2,5",
                   "--grid-shape", "4,4,3", "--out", out) == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,z,E_x_1,E_x_2,E_z,E_norm"
        assert len(lines) == 1 + 4 * 4 * 3

    def test_trace_lines(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "tl"
        assert run("trace-lines", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--in", pos, "--out", out) == 0
        text = (out / "trajectories.csv").read_text()
        assert "reached_target_plate" in text

    def test_evaluate(self, tmp_path, plates):
        pos, neg = plates
        out = tmp_path / "ev"
        assert run("evaluate", "--a", pos, "--b", neg, "--n-perm", 50,
                   "--seed", 0, "--out", out) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["energy_distance"]["statistic"] >= 0
        assert "null_quantiles" in payload["energy_distance"]

    def test_manifest_hashes_recomputable(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "ev2"
        run("evaluate", "--a", pos, "--b", neg, "--n-perm", 50, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        for path, digest in manifest["inputs"].items():
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_inputs_never_mutated(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        before = pos.read_bytes()
        run("transport", "--exact-field", "--config", toy_config_file,
            "--data-pos", pos, "--data-neg", neg, "--nfe", 10,
            "--in", pos, "--out", tmp_path / "mut")
        assert pos.read_bytes() == before
