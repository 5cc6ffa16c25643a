import csv
import json
import hashlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from efm import cli
from efm.cli import dispatch
from efm.core import (CapacitorConfig, ConfigError, WeightFormatError, seeded_stream,
                      validate_config)
from efm.data import load_csv
from efm.metrics import energy_distance
from efm.model import FieldApproximator, load_weights, save_weights
from efm.transport import Trajectory


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

    @pytest.mark.parametrize("bad", ["weights", "config", "out"])
    def test_os_error_is_domain_error(self, tmp_path, toy_config_file, capsys, bad):
        # a directory where a file is read, or a file where --out is created
        pos = tmp_path / "pos"
        assert run("generate-data", "--kind", "gaussian", "--n", 8, "--out", pos) == 0
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([3, 3]), weights)
        capsys.readouterr()
        args = {"weights": weights, "config": toy_config_file, "out": tmp_path / "tr"}
        args[bad] = pos / "data.csv" if bad == "out" else tmp_path
        code = run("transport", "--weights", args["weights"], "--config", args["config"],
                   "--in", pos / "data.csv", "--out", args["out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("layers", [
        [{"bias": "AAAAAAAAAAA="}],   # layer without "weight"
        ["not an object"],
        [{"weight": [1.0], "bias": "AAAAAAAAAAA="}],   # "weight" not a base64 string
        None,   # "layers" not a list
    ])
    def test_malformed_weight_file_is_domain_error(self, tmp_path, toy_config_file, capsys,
                                                   layers):
        pos = tmp_path / "pos"
        assert run("generate-data", "--kind", "gaussian", "--n", 8, "--out", pos) == 0
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"format_version": 1, "layer_dims": [1, 1],
                                       "activation": "smooth_relu", "layers": layers}))
        with pytest.raises(WeightFormatError, match="corrupt weight file"):
            load_weights(weights)
        capsys.readouterr()
        code = run("transport", "--weights", weights, "--config", toy_config_file,
                   "--in", pos / "data.csv", "--out", tmp_path / "tr")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt weight file") and "Traceback" not in err

    @pytest.mark.parametrize("dims", [[-2, -3], "23"])
    def test_bad_layer_dims_is_domain_error(self, tmp_path, toy_config_file, capsys, dims):
        pos = tmp_path / "pos"
        assert run("generate-data", "--kind", "gaussian", "--n", 8, "--out", pos) == 0
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([2, 3]), weights)
        payload = json.loads(weights.read_text())
        payload["layer_dims"] = dims
        weights.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run("transport", "--weights", weights, "--config", toy_config_file,
                   "--in", pos / "data.csv", "--out", tmp_path / "tr")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt weight file: layer_dims") and "Traceback" not in err

    @pytest.mark.parametrize("raw, field", [
        ({"dim_d": 2, "plate_gap": "6"}, "plate_gap"),
        ({"dim_d": 2, "plate_gap": 6.0, "noise_sigma": None}, "noise_sigma"),
        ({"plate_gap": 6.0}, "dim_d"),
    ])
    def test_malformed_config_is_domain_error(self, tmp_path, capsys, raw, field):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=field):
            validate_config(CapacitorConfig.from_json_file(config))
        assert run("verify-physics", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("generate-data", "--kind", "gaussian", "--n", 8, "--dim", -1),
        ("generate-data", "--kind", "gaussian", "--n", 0),
        ("generate-data", "--kind", "gaussian", "--n", 8, "--seed", -1),
        ("evaluate", "--a", "a.csv", "--b", "b.csv", "--seed", -1),
    ])
    def test_out_of_range_integer_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestVerifyPhysics:
    def test_every_check_passes(self, tmp_path, toy_config_file):
        # the electrostatics suite is the field's ground truth
        out = tmp_path / "vp"
        assert run("verify-physics", "--config", toy_config_file, "--out", out) == 0
        report = json.loads((out / "physics_report.json").read_text())
        assert [c["check_name"] for c in report] == [
            *(f"gauss_sphere_{side}_dim{d}" for d in (2, 3, 4) for side in ("inside", "outside")),
            "gauss_positive_plate", "gauss_neutral_pair", "circulation_relative",
            "hemisphere_flux", "quarter_cap_flux", "plate_jump_density"]
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

    @pytest.mark.parametrize("kind", ["swiss_roll", "two_gaussians"])
    def test_two_d_kind_rejects_other_dim(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        assert run("generate-data", "--kind", kind, "--n", 8, "--dim", 5, "--out", out) == 1
        assert f"--kind {kind} is 2-D only; got --dim 5" in capsys.readouterr().err
        assert not out.exists()

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
        assert "--policy theoretical" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transport", "trace-lines"])
    def test_every_line_failing_is_a_transport_error(self, tmp_path, toy_config_file, plates,
                                                     capsys, command):
        # an all-zero net has no field for any line to follow
        pos, _ = plates
        weights = tmp_path / "zero.json"
        save_weights(FieldApproximator([3, 8, 3]), weights)
        out = tmp_path / "tr"
        assert run(command, "--weights", weights, "--config", toy_config_file,
                   "--in", pos, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: no line reached the target plate: 64 field_degenerate\n"
        assert not out.exists()

    def test_exact_field_transport(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "ex"
        assert run("transport", "--exact-field", "--config", toy_config_file,
                   "--data-pos", pos, "--data-neg", neg, "--policy", "practical",
                   "--nfe", 10, "--in", pos, "--out", out) == 0
        assert (out / "mapped.csv").exists()

    @pytest.mark.parametrize("bad", [
        ("train", "--hidden", "8,x"),
        ("train", "--steps", "-2"),
        ("train", "--batch-size", "0"),
        ("transport", "--nfe", "0"),
        ("field-grid", "--grid-min", "0,0,x"),
        # a non-finite bound would write NaN rows to grid.csv
        ("field-grid", "--grid-min", "nan,0,1"),
        ("field-grid", "--grid-max", "inf,1,2"),
        ("field-grid", "--grid-shape", "2,2,0"),
        ("generate-data", "--kind", "gaussian", "--std", "-2"),
        ("generate-data", "--kind", "swiss_roll", "--noise-std", "-0.5"),
        ("train", "--mc-subsample", "0"),
        ("evaluate", "--n-perm", "-1"),
    ])
    def test_malformed_number_is_usage_error(self, tmp_path, toy_config_file, plates,
                                             capsys, bad):
        self.assert_usage_error(tmp_path, toy_config_file, plates, capsys, *bad)

    @pytest.mark.parametrize("removed", [
        ("transport", "--mc-subsample", "16"),
        ("train", "--lr", "0.002"),
        ("train", "--weight-decay", "0"),
        ("train", "--ema-decay", "0.99"),
        ("train", "--activation", "smooth_relu"),
        ("evaluate", "--sliced-projections", "64"),
    ])
    def test_removed_option_is_usage_error(self, tmp_path, toy_config_file, plates,
                                           capsys, removed):
        # a network's field or the exact sum, trained with one fixed recipe and
        # scored with one sliced-W1 direction count
        self.assert_usage_error(tmp_path, toy_config_file, plates, capsys, *removed)

    @staticmethod
    def assert_usage_error(tmp_path, toy_config_file, plates, capsys, command, *override):
        pos, neg = plates
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([3, 3]), weights)
        config = ["--config", toy_config_file]
        valid = {
            "train": [*config, "--data-pos", pos, "--data-neg", neg, "--steps", 1,
                      "--hidden", 8],
            "transport": [*config, "--weights", weights, "--in", pos],
            "field-grid": [*config, "--data-pos", pos, "--data-neg", neg, "--grid-min", "0,0,1",
                           "--grid-max", "1,1,2", "--grid-shape", "2,2,2"],
            "generate-data": ["--n", 4],
            "evaluate": ["--a", pos, "--b", neg],
        }
        assert run(command, "--out", tmp_path / "out", *valid[command], *override) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "usage:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_domain_error_leaves_no_out_directory(self, tmp_path, toy_config_file, plates,
                                                  capsys, command):
        pos, neg = plates
        config3 = tmp_path / "cfg3.json"
        CapacitorConfig(dim_d=3, plate_gap=6.0, seed=0).to_json_file(config3)
        argv = {
            # D=2 plates against a dim_d=3 config
            "train": ["train", "--config", config3, "--data-pos", pos,
                      "--data-neg", neg, "--steps", 1, "--hidden", 8],
            # a permutation null needs at least 50 permutations
            "evaluate": ["evaluate", "--a", pos, "--b", neg, "--n-perm", 10],
        }[command]
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # a directory that was there before is left in place
        (tmp_path / "kept").mkdir()
        assert run(*argv, "--out", tmp_path / "kept") == 1
        assert (tmp_path / "kept").is_dir()

    def test_field_grid(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "grid"
        assert run("field-grid", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--grid-min=-2,-2,1", "--grid-max", "2,2,5",
                   "--grid-shape", "4,4,3", "--out", out) == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,z,E_x_1,E_x_2,E_z,E_norm"
        assert len(lines) == 1 + 4 * 4 * 3

    def test_field_grid_on_a_charge_in_exact_mode(self, tmp_path, plates, capsys):
        # field_epsilon 0 is the exact field; a grid point on a sample of
        # the positive plate (at z=0) has no field there
        pos, neg = plates
        config = tmp_path / "exact.json"
        config.write_text(json.dumps({"dim_d": 2, "plate_gap": 6.0, "field_epsilon": 0.0}))
        assert CapacitorConfig.from_json_file(config).field_epsilon == 0.0
        on_charge = ",".join(map(repr, load_csv(pos).points[5].tolist() + [0.0]))
        capsys.readouterr()
        assert run("field-grid", "--config", config, "--data-pos", pos, "--data-neg", neg,
                   f"--grid-min={on_charge}", f"--grid-max={on_charge}", "--grid-shape", "1,1,1",
                   "--out", tmp_path / "grid") == 1
        err = capsys.readouterr().err
        assert err == "error: evaluation point coincides with a charge and field_epsilon is 0\n"

    @pytest.mark.parametrize("spec", ["--grid-min=-2,-2", "--grid-max=2,2,5,5",
                                      "--grid-shape=4,3"])
    def test_field_grid_spec_of_wrong_length_rejected(self, tmp_path, toy_config_file,
                                                      plates, capsys, spec):
        pos, neg = plates
        argv = {"--grid-min": "--grid-min=-2,-2,1", "--grid-max": "--grid-max=2,2,5",
                "--grid-shape": "--grid-shape=4,4,3"}
        argv[spec.split("=")[0]] = spec
        capsys.readouterr()
        assert run("field-grid", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, *argv.values(), "--out", tmp_path / "grid") == 1
        assert capsys.readouterr().err == "error: grid specs must have D+1 entries\n"

    def test_trace_lines(self, tmp_path, toy_config_file, plates):
        pos, neg = plates
        out = tmp_path / "tl"
        assert run("trace-lines", "--config", toy_config_file, "--data-pos", pos,
                   "--data-neg", neg, "--in", pos, "--out", out) == 0
        text = (out / "trajectories.csv").read_text()
        assert "reached_target_plate" in text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "mapped.csv"), str(out / "trajectories.csv")]
        assert load_csv(out / "mapped.csv").n == 64 - manifest["config"]["n_failed"]

    def test_trajectories_csv_layout(self, tmp_path):
        # z first, every coordinate as %.17g, termination on a line's last row only
        lines = [Trajectory(np.array([[0.5, -1.0, 0.0], [0.1, 1e-17, 3.0], [2.0, 0.25, 6.0]]),
                            "reached_target_plate"),
                 Trajectory(np.array([[1.0 / 3.0, 2.0, 0.0]]), "stalled")]
        path = tmp_path / "trajectories.csv"
        cli.write_trajectories_csv(lines, path)
        assert path.read_text() == ("line_id,step,z,x_1,x_2,termination\n"
                                    "0,0,0,0.5,-1,\n"
                                    "0,1,3,0.10000000000000001,1.0000000000000001e-17,\n"
                                    "0,2,6,2,0.25,reached_target_plate\n"
                                    "1,0,0,0.33333333333333331,2,stalled\n")

    def test_trace_lines_is_adaptive_transport(self, tmp_path, toy_config_file, plates):
        # trace-lines is transport --policy adaptive --dump-trajectories
        pos, _ = plates
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([3, 3], [0.2 * np.eye(3)], [[0.0, 0.0, 1.0]]), weights)
        common = ["--weights", weights, "--config", toy_config_file, "--in", pos]
        assert run("trace-lines", *common, "--out", tmp_path / "tl") == 0
        assert run("transport", *common, "--policy", "adaptive", "--dump-trajectories",
                   "--out", tmp_path / "tr") == 0
        for name in ("mapped.csv", "trajectories.csv"):
            assert (tmp_path / "tl" / name).read_bytes() == (tmp_path / "tr" / name).read_bytes()
        assert "reached_target_plate" in (tmp_path / "tl" / "trajectories.csv").read_text()
        manifest = json.loads((tmp_path / "tl" / "manifest.json").read_text())
        assert manifest["subcommand"] == "trace-lines"
        assert manifest["config"]["policy"] == "adaptive"
        assert manifest["config"]["n_failed"] == 0

    @pytest.mark.parametrize("command", ["transport", "trace-lines"])
    def test_weights_with_plates_rejected(self, tmp_path, toy_config_file, plates, capsys,
                                          command):
        # the plates would be neither used nor listed among the inputs
        pos, neg = plates
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([3, 3]), weights)
        code = run(command, "--weights", weights, "--data-neg", neg,
                   "--config", toy_config_file, "--in", pos, "--out", tmp_path / "out")
        assert code == 1
        assert "error: --data-pos and --data-neg apply to the exact field" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("source", ["weights", "net_output", "plates", "points"])
    def test_dimension_mismatch_rejected(self, tmp_path, plates, capsys, source):
        # a D=3 config against a D=2 net, a net with a D=2 output, D=2
        # plates, or D=2 points
        pos, neg = plates
        for name in ("pos3", "neg3"):
            run("generate-data", "--kind", "gaussian", "--n", 16, "--dim", 3,
                "--out", tmp_path / name)
        pos3, neg3 = tmp_path / "pos3" / "data.csv", tmp_path / "neg3" / "data.csv"
        config = tmp_path / "cfg3.json"
        CapacitorConfig(dim_d=3, plate_gap=6.0, seed=0).to_json_file(config)
        weights = tmp_path / "w.json"
        save_weights(FieldApproximator([4, 3] if source == "net_output" else [3, 3]), weights)
        field = {"weights": ["--weights", weights], "net_output": ["--weights", weights],
                 "plates": ["--exact-field", "--data-pos", pos, "--data-neg", neg],
                 "points": ["--exact-field", "--data-pos", pos3, "--data-neg", neg3]}[source]
        starts = pos if source == "points" else pos3
        capsys.readouterr()
        code = run("transport", *field, "--config", config, "--in", starts,
                   "--out", tmp_path / "out")
        assert code == 1
        assert "but the config's dim_d is 3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mapped.csv").exists()

    def test_trace_lines_without_field_source_rejected(self, tmp_path, toy_config_file,
                                                       plates, capsys):
        pos, _ = plates
        code = run("trace-lines", "--config", toy_config_file, "--in", pos,
                   "--out", tmp_path / "tl")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: the field needs --weights, or --data-pos and --data-neg" in err
        assert "Traceback" not in err

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


def run_python(script, *args):
    """Run `script` in a fresh interpreter that imports this checkout's efm;
    returns its stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestScipyOffTheImportPath:
    """efm loads scipy only where it calls it: `betainc` in the cap checks.
    The energy distance builds its distance blocks in numpy at any D."""

    @pytest.mark.parametrize("dim", [2, 16])
    def test_pipeline_runs_with_scipy_blocked(self, tmp_path, dim):
        # with sys.modules["scipy"] None, any import of scipy raises
        out = run_python("""
            import sys
            sys.modules["scipy"] = None
            import efm.cli
            print(sorted(m for m in sys.modules if m.startswith("scipy") and sys.modules[m]))
            from efm.core import CapacitorConfig
            d, dim = sys.argv[1], sys.argv[2]
            CapacitorConfig(dim_d=int(dim), plate_gap=6.0, seed=1).to_json_file(f"{d}/cfg.json")
            steps = [
                ["generate-data", "--kind", "gaussian", "--dim", dim, "--n", "128",
                 "--seed", "1", "--out", f"{d}/pos"],
                ["generate-data", "--kind", "gaussian", "--dim", dim, "--n", "128",
                 "--mean", "0.5", "--seed", "2", "--out", f"{d}/neg"],
                ["train", "--config", f"{d}/cfg.json", "--data-pos", f"{d}/pos/data.csv",
                 "--data-neg", f"{d}/neg/data.csv", "--steps", "3", "--batch-size", "32",
                 "--hidden", "8,8", "--mc-subsample", "32", "--out", f"{d}/train"],
                ["transport", "--weights", f"{d}/train/weights_ema.json", "--config",
                 f"{d}/cfg.json", "--nfe", "10", "--in", f"{d}/pos/data.csv", "--out", f"{d}/tr"],
                ["trace-lines", "--weights", f"{d}/train/weights_ema.json", "--config",
                 f"{d}/cfg.json", "--in", f"{d}/pos/data.csv", "--out", f"{d}/tl"],
                ["evaluate", "--a", f"{d}/tr/mapped.csv", "--b", f"{d}/neg/data.csv",
                 "--n-perm", "50", "--out", f"{d}/ev"],
            ]
            print([efm.cli.dispatch(argv) for argv in steps])
            """, tmp_path, dim)
        assert out.splitlines()[0] == "[]"
        assert out.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"
        assert (tmp_path / "tl" / "trajectories.csv").exists()
        payload = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        # the library call that evaluate makes
        want = energy_distance(load_csv(tmp_path / "tr" / "mapped.csv"),
                               load_csv(tmp_path / "neg" / "data.csv"), 50,
                               seeded_stream(0, "evaluate")).statistic
        assert payload["energy_distance"]["statistic"] == want


class TestRunPreset:
    def test_matches_train_then_transport(self, tmp_path, monkeypatch, capsys):
        # a 20-step preset at toy sizes; the full presets take minutes
        monkeypatch.setitem(cli.PRESETS, "tiny",
                            dict(target="two_gaussians", plate_gap=6.0, n_steps=20))
        monkeypatch.setattr(cli, "PRESET_N_TRAIN", 256)
        monkeypatch.setattr(cli, "PRESET_N_MAP", 128)
        monkeypatch.setattr(cli, "PRESET_BATCH", 128)
        out = tmp_path / "preset"
        assert run("run-preset", "--name", "tiny", "--seed", 0, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert json.loads(capsys.readouterr().out) == metrics
        assert metrics["preset"] == "tiny" and metrics["n_mapped"] == 128
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "run-preset/tiny"
        assert len(manifest["outputs"]) == 10
        assert all(Path(p).exists() for p in manifest["outputs"])

        config = tmp_path / "cfg.json"
        CapacitorConfig(dim_d=2, plate_gap=6.0, noise_sigma=cli.PRESET_SIGMA,
                        seed=0).to_json_file(config)
        assert run("train", "--config", config, "--data-pos", out / "data_pos.csv",
                   "--data-neg", out / "data_neg.csv", "--steps", 20,
                   "--batch-size", 128, "--out", tmp_path / "train") == 0
        assert run("transport", "--weights", tmp_path / "train" / "weights_ema.json",
                   "--config", config, "--nfe", cli.PRESET_NFE, "--in", out / "inputs.csv",
                   "--dump-trajectories", "--out", tmp_path / "tr") == 0
        for got, want in ((tmp_path / "train" / "weights_ema.json", out / "weights_ema.json"),
                          (tmp_path / "tr" / "mapped.csv", out / "mapped.csv"),
                          (tmp_path / "tr" / "trajectories.csv", out / "trajectories.csv")):
            assert got.read_bytes() == want.read_bytes()


class TestBenchmarkContract:
    """The argv shapes the benchmark issues, at toy sizes, with its checks."""

    GAP = 6.0

    @staticmethod
    def check_mapped(out, n_in):
        n_failed = json.loads((out / "manifest.json").read_text())["config"]["n_failed"]
        mapped = np.loadtxt(out / "mapped.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(mapped))
        assert len(mapped) == n_in - n_failed
        return out / "mapped.csv"

    def check_trajectories(self, path):
        last = {}
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for row in rows:
                last[row[0]] = row
        reached = [row for row in last.values() if row[-1] == "reached_target_plate"]
        assert reached
        assert all(float(row[2]) == self.GAP for row in reached)

    @staticmethod
    def check_metrics(path):
        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                assert math.isfinite(node) and node >= 0

        walk(json.loads(path.read_text()))

    def test_train_transport_trace_evaluate(self, tmp_path):
        config = tmp_path / "config.json"
        CapacitorConfig(dim_d=2, plate_gap=self.GAP, seed=1).to_json_file(config)
        files = {}
        for i, (name, kind, n) in enumerate((
                ("pos", ["--kind", "gaussian", "--dim", 2], 64),
                ("neg", ["--kind", "swiss_roll", "--noise-std", 0.05], 64),
                ("starts", ["--kind", "gaussian", "--dim", 2], 12),
                ("holdout", ["--kind", "swiss_roll", "--noise-std", 0.05], 64))):
            assert run("generate-data", *kind, "--n", n, "--seed", 4 + i,
                       "--out", tmp_path / name) == 0
            files[name] = tmp_path / name / "data.csv"
        assert run("train", "--config", config, "--data-pos", files["pos"],
                   "--data-neg", files["neg"], "--steps", 20, "--batch-size", 64,
                   "--mc-subsample", 32, "--hidden", "16,16", "--seed", 1,
                   "--out", tmp_path / "train") == 0
        weights = tmp_path / "train" / "weights_ema.json"
        common = ["--config", config, "--in", files["starts"]]

        assert run("transport", "--weights", weights, *common, "--nfe", 20,
                   "--out", tmp_path / "map") == 0
        mapped = [self.check_mapped(tmp_path / "map", 12)]
        assert run("trace-lines", "--weights", weights, *common,
                   "--out", tmp_path / "trace") == 0
        self.check_trajectories(tmp_path / "trace" / "trajectories.csv")
        mapped.append(self.check_mapped(tmp_path / "trace", 12))
        assert run("transport", "--exact-field", "--policy", "theoretical",
                   "--data-pos", files["pos"], "--data-neg", files["neg"], *common,
                   "--out", tmp_path / "exact") == 0
        mapped.append(self.check_mapped(tmp_path / "exact", 12))

        # the trace workload alone runs the permutation null
        for i, (path, n_perm) in enumerate(zip(mapped, (0, 50, 0))):
            out = tmp_path / f"evaluate{i}"
            assert run("evaluate", "--a", path, "--b", files["holdout"], "--n-perm", n_perm,
                       "--seed", 1, "--out", out) == 0
            self.check_metrics(out / "metrics.json")
