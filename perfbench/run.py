"""Benchmark of the efm CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload swissroll_train --seed 1 --seconds 20 --trace 0

Set-up writes seeded inputs. One client then runs the workload's operation
in a closed loop for --seconds, checking each operation's outputs. Set-up is
repeated `setup_repeats` times, spread over the loop, and its median is
`setup_s`. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 traced and untraced operations alternate and it holds the
per-layer metrics and the tracing overhead. `--workload all` runs every workload, each in its own process.
Work files go to .perfbench/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("swissroll_train", "swissroll_trace", "swissroll_exact", "gauss_d32")


def bootstrap() -> bool:
    """Run BLAS on one thread and put the checkout's src/ first on sys.path.
    Must run before numpy is imported. False when src/efm is missing.

    One BLAS thread: on a 2-vCPU host, two threads spread the stage times
    within a run more widely (IQR/median up to 0.4 against 0.18).
    """
    if not (ROOT / "src" / "efm" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("EFM_THREADS", None)  # keep map_batch single-threaded
    sys.path.insert(0, str(ROOT / "src"))
    return True


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "lib*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "git_commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    """Commit of the checkout; None outside git. Git does not look above it."""
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _where(exc: BaseException) -> str | None:
    """Innermost traceback frame inside the checkout, as path:line."""
    where = None
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.is_relative_to(ROOT):
            where = f"{path.relative_to(ROOT)}:{frame.lineno}"
    return where


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Set up, run the closed loop, and aggregate. Returns the full record."""
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, run_operation, set_up

    w = workload or WORKLOADS[name]
    work = ROOT / ".perfbench" / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)

    setup_times, setup_train = [], []

    def timed_set_up(where):
        shutil.rmtree(where, ignore_errors=True)
        started = perf_counter()
        made = set_up(w, seed, where)
        setup_times.append(perf_counter() - started)
        if made.train_s is not None:
            setup_train.append(made.train_s)
        return made

    def repeat_set_up(progress):
        # repeat set-up until its count keeps pace with the loop's progress
        # (0 to 1), so that the repeats sample the machine over the whole run
        started = perf_counter()
        while len(setup_times) < 1 + (w.setup_repeats - 1) * min(1.0, progress):
            timed_set_up(work / "setup-repeat")
        return perf_counter() - started

    inputs = timed_set_up(work / "setup")

    tracer = Tracer() if trace else None
    ops, failures = [], {}
    traced_layers, line_evals, line_ms = [], [], []
    reference = None
    attempted = 0
    loop_started = None
    setup_in_loop = 0.0   # repeated set-up time, left out of the loop's budget
    while True:
        # operation 0 warms caches and allocators and is left out of the
        # timings; with tracing, untraced and traced operations then alternate
        traced = trace and attempted % 2 == 0 and attempted > 0
        out = work / "op"
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        lo = len(tracer.spans) if tracer else 0
        try:
            if traced:
                tracer.op = attempted
                with tracer.installed(), tracer.span("op"):
                    op = run_operation(w, inputs, out, tracer.span)
            else:
                op = run_operation(w, inputs, out, _no_span)
        except Exception as exc:  # noqa: BLE001 - record it and keep the loop going
            key = (type(exc).__name__, str(exc), _where(exc))
            failures[key] = failures.get(key, 0) + 1
        else:
            if reference is None:
                reference = op.quality
            if op.quality != reference:
                key = ("QualityMismatch", f"{op.quality} != {reference}", None)
                failures[key] = failures.get(key, 0) + 1
            elif attempted > 1:
                ops.append((traced, op))
                if traced:
                    m, evals, ms = layer_metrics(tracer.spans, lo, len(tracer.spans))
                    traced_layers.append(m)
                    line_evals += evals
                    line_ms += ms
        if loop_started is None:
            loop_started = perf_counter()
            continue
        elapsed = perf_counter() - loop_started - setup_in_loop
        if elapsed >= seconds and attempted >= (3 if trace else 2):
            break
        setup_in_loop += repeat_set_up(elapsed / seconds if seconds > 0 else 1.0)
    repeat_set_up(1.0)
    shutil.rmtree(work / "setup-repeat", ignore_errors=True)

    failed = sum(failures.values())
    plain = [op for traced, op in ops if not traced]
    move_stage = "trace_lines" if w.job == "trace" else "transport"
    e2e = {
        "setup_s": _median(setup_times),
        "job_s": _median([sum(op.stages.values()) for op in plain]),
        "train_pts_per_s": _median([w.train_points / op.stages["train"] for op in plain]
                                   if w.job == "map" else
                                   [w.train_points / t for t in setup_train]),
        "transport_pts_per_s": _median([op.moved / op.stages[move_stage] for op in plain]),
        "evaluate_s": _median([op.stages["evaluate"] for op in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: reference and reference[k] for k in ("energy_distance", "sliced_w1", "in_box_frac")},
        "ops_failed_frac": failed / attempted,
    }
    layers = {}
    if trace:
        names = sorted({k for m in traced_layers for k in m})
        layers = {k: _median([m[k] for m in traced_layers if k in m]) for k in names}
        layers["transport.evals_per_line_p50"] = _percentile(line_evals, 50)
        layers["transport.evals_per_line_p99"] = _percentile(line_evals, 99)
        layers["transport.line_ms_p50"] = _percentile(line_ms, 50)
        layers["transport.line_ms_p99"] = _percentile(line_ms, 99)
        traced_job = _median([sum(op.stages.values()) for traced, op in ops if traced])
        if traced_job is not None and e2e["job_s"] is not None:
            layers["trace.overhead_s"] = traced_job - e2e["job_s"]
        spans_path = work / "spans.json"
        with open(spans_path, "w") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh)
    shutil.rmtree(work / "op", ignore_errors=True)
    return {
        "workload": name, "seed": seed, "trace": int(trace), "env": environment(seed),
        "attempted": attempted, "failed": failed,
        "ops_ok": len(ops), "ops_traced": sum(1 for t, _ in ops if t),
        "lines_sampled": len(line_evals), "setup_times": setup_times,
        "failures": [{"type": t, "message": msg, "where": where, "count": n}
                     for (t, msg, where), n in failures.items()],
        "op_stages": [dict(op.stages, traced=traced) for traced, op in ops],
        "end_to_end": e2e, "layers": layers,
        "unmeasured": tracer.unmeasured if tracer else [],
    }


def _no_span(name):
    return contextlib.nullcontext()


def declared_metrics() -> tuple[list, list]:
    """Names of the (end_to_end, per_layer) metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


E2E_UNITS = {"setup_s": "s", "job_s": "s", "train_pts_per_s": "1/s",
             "transport_pts_per_s": "1/s", "evaluate_s": "s", "peak_rss_mb": "MB",
             "energy_distance": "1", "sliced_w1": "1", "in_box_frac": "1",
             "ops_failed_frac": "1"}


def report(record: dict) -> dict:
    """Print the human-readable report; return the result line's object."""
    from spans import unit_of

    e2e_declared, layer_declared = declared_metrics()
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"ok {record['ops_ok']} (traced {record['ops_traced']})  "
          f"set-ups {len(record['setup_times'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for f in record["failures"]:
        print(f"failure x{f['count']}: {f['type']} at {f['where']}: {f['message']}")
    for name, value in record["end_to_end"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  e2e   {name:<38} {shown:>14} {E2E_UNITS[name]}")
    for name, value in record["layers"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  layer {name:<38} {shown:>14} {unit_of(name)}")
    for name in layer_declared if record["trace"] else ():
        if name not in record["layers"]:
            print(f"  layer {name:<38} {'missing':>14} {unit_of(name)}")
    for name in record["unmeasured"]:
        print(f"  unmeasured layer: {name} (not found)")
    if record["trace"]:
        print(f"  per-line percentiles over {record['lines_sampled']} lines")
        values, declared, unit = record["layers"], layer_declared, unit_of
    else:
        values, declared, unit = record["end_to_end"], e2e_declared, E2E_UNITS.get
    metrics = {name: {"value": values[name], "unit": unit(name)}
               for name in declared if values.get(name) is not None}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0 or not proc.stdout.strip():
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not bootstrap():
        print(f"error: no efm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(record)
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(work / "result.json", "w") as fh:
        json.dump(record | {"result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
