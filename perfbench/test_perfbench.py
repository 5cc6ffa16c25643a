"""Smoke tests of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import types

import pytest

import run

assert run.bootstrap(), "efm sources not found next to perfbench/"

import spans  # noqa: E402
import workloads  # noqa: E402

TOY = dict(n_plate=48, n_starts=6, n_holdout=24, steps=2, batch=32, mc_subsample=16,
           hidden="8,8", setup_repeats=2)
TOY_SIZES = {
    "swissroll_train": TOY,
    "swissroll_trace": TOY | {"n_perm": 50},
    "swissroll_exact": TOY | {"n_plate": 24, "n_starts": 3},
    "gauss_d32": TOY,
}


def toy_result(name, trace):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TOY_SIZES[name])
    record = run.measure(name, seed=5, seconds=0.0, trace=trace, workload=w)
    return record, run.report(record)


def declared():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    spec = declared()
    names = {w["name"] for w in spec["workloads"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    record, result = toy_result(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= (2 if trace else 1)
    if result["failed"]:
        # a failing operation is recorded with its type and message, and a
        # metric with no successful sample is missing, never zero
        assert name not in names
        assert all(f["type"] and f["message"] for f in record["failures"])
        assert record["end_to_end"]["ops_failed_frac"] > 0
        if record["ops_ok"] == 0:
            assert record["end_to_end"]["job_s"] is None
        return
    if name not in names:
        # not a bounded workload: whatever it emits carries the declared unit
        wanted = [m for m in wanted if m["name"] in result["metrics"]]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert result["correct"]
    assert record["env"]["seed"] == 5 and record["env"]["nproc"] >= 1
    assert len(record["setup_times"]) == TOY_SIZES[name]["setup_repeats"]


def test_failed_operations_are_counted_and_the_run_goes_on():
    # n_perm below efm's minimum makes `efm evaluate` exit non-zero
    w = dataclasses.replace(workloads.WORKLOADS["swissroll_trace"],
                            **TOY_SIZES["swissroll_trace"] | {"n_perm": 10})
    record = run.measure("swissroll_trace", seed=5, seconds=0.5, trace=False, workload=w)
    assert record["attempted"] >= 2 and record["failed"] == record["attempted"]
    [failure] = record["failures"]
    assert failure["type"] == "StageError" and "evaluate exited 1" in failure["message"]
    assert record["end_to_end"]["job_s"] is None
    assert record["end_to_end"]["energy_distance"] is None
    assert run.report(record)["correct"] is False


def test_missing_wrapped_name_is_unmeasured_not_an_error():
    targets = spans.TARGETS + (("efm.transport", "no_such_function", "transport.gone", None),
                               ("efm.no_such_module", "f", "x.gone", None))
    tracer = spans.Tracer(targets)
    with tracer.installed():
        import efm.field
        efm.field.superposition_field([[0.0, 0.0, 1.0]], [[0.0, 0.0, 0.0]], [1.0])
    assert tracer.unmeasured == ["efm.transport.no_such_function", "efm.no_such_module.f"]
    metrics, _, _ = spans.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["field.kernel_pairs"] == 1
    import efm.field
    assert not hasattr(efm.field.scaled_superposition, "__wrapped__")


def test_pair_count_is_left_out_when_its_efm_constant_is_gone(monkeypatch):
    import efm.metrics
    points = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]
    tracer = spans.Tracer()
    with tracer.installed():
        efm.metrics.energy_distance(points, points[:2])
    metrics, _, _ = spans.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["metrics.pair_distances"] == 3 * 2 + 3 * 3 + 2 * 2
    # efm.metrics without the constant, as the harness sees it
    monkeypatch.setattr(spans, "efm_metrics", types.SimpleNamespace())
    tracer = spans.Tracer()
    with tracer.installed():
        efm.metrics.energy_distance(points, points[:2])
    metrics, _, _ = spans.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert "metrics.pair_distances" not in metrics
    assert "metrics.block_bytes_max" not in metrics
    assert metrics["field.kernel_pairs"] == 0


def test_trajectory_check_flags_a_line_that_stops_short_of_the_plate(tmp_path):
    path = tmp_path / "trajectories.csv"
    path.write_text("line_id,step,z,x_1,x_2,termination\n"
                    "0,0,0.006,0.1,0.2,\n0,1,6,0.3,0.4,reached_target_plate\n"
                    "1,0,0.006,0.5,0.6,\n1,1,5.5,0.7,0.8,reached_target_plate\n")
    with pytest.raises(workloads.CheckError, match="line 1"):
        workloads.check_trajectories(path, 6.0)


def test_metrics_check_flags_negative_values(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"energy_distance": {"statistic": -0.5}}))
    with pytest.raises(workloads.CheckError, match="energy_distance.statistic"):
        workloads.check_metrics(path)


def test_mapped_check_flags_a_row_count_mismatch(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"config": {"n_failed": 1}}))
    (tmp_path / "mapped.csv").write_text("x_1,x_2\n1,2\n3,4\n")
    with pytest.raises(workloads.CheckError, match="expected 4 inputs - 1 failed"):
        workloads.check_mapped(tmp_path, 4)
