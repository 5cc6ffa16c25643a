"""Benchmark workloads for the efm CLI: seeded inputs, the CLI stages of one
operation, and the checks every operation's outputs must pass.

The program sees only what these functions write: CSVs made by
`efm generate-data` and a config written by `CapacitorConfig.to_json_file`,
all derived from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from efm.cli import dispatch
from efm.core import CapacitorConfig

PLATE_GAP = 6.0
# The trace workload's net is trained from plates of this fixed seed: line
# cost depends on the net (evaluations per line differ by ~15% between nets
# trained from different seeds), so only its starts and holdout follow --seed.
TRACE_NET_SEED = 0
SWISS_NOISE = 0.05
NFE = 20  # Euler steps of `efm transport --weights`
# A mapped point is "in the box" when it lies inside the holdout's bounding
# box widened on each side by this share of the box's extent.
IN_BOX_MARGIN = 0.25
SUCCESS_TERMINATIONS = ("reached_target_plate", "continued_past_plate_then_returned")


class StageError(Exception):
    """An efm subcommand returned a non-zero exit code."""


class CheckError(Exception):
    """An operation's outputs failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    job "map": `efm train`, `efm transport --weights`, `efm evaluate`.
    job "trace": set-up trains the net; the operation is `efm trace-lines`
    then `efm evaluate` of the line endpoints.
    job "exact": `efm transport --exact-field --policy theoretical`, then
    `efm evaluate`.
    """

    job: str
    dim: int
    target: tuple        # generate-data arguments of the negative plate and holdout
    n_plate: int         # samples per plate
    n_starts: int        # points transported or lines traced per operation
    n_holdout: int
    steps: int = 0
    batch: int = 0
    mc_subsample: int = 0
    hidden: str = "128,128,128"
    n_perm: int = 0
    setup_repeats: int = 31

    @property
    def source(self) -> tuple:
        return ("--kind", "gaussian", "--dim", str(self.dim))

    @property
    def train_points(self) -> int:
        return self.steps * self.batch


SWISS_ROLL = ("--kind", "swiss_roll", "--noise-std", str(SWISS_NOISE))

WORKLOADS = {
    # Field kernel (D+1=3) and MLP training dominate; tracer and null idle.
    "swissroll_train": Workload("map", 2, SWISS_ROLL, n_plate=2048, n_starts=2048,
                                n_holdout=2048, steps=200, batch=512, mc_subsample=256),
    # Per-line adaptive tracing and the permutation null dominate; no kernel.
    "swissroll_trace": Workload("trace", 2, SWISS_ROLL, n_plate=2048, n_starts=256,
                                n_holdout=256, steps=200, batch=512, mc_subsample=256,
                                n_perm=200, setup_repeats=4),
    # Exact-field oracle: single-row EmpiricalField calls and the theoretical
    # transport path. No --mc-subsample, so the exact plate sums are used.
    "swissroll_exact": Workload("exact", 2, SWISS_ROLL, n_plate=2048, n_starts=128,
                                n_holdout=1024),
    # High D: the kernel's log-accumulation branch and a 1024x1024x32
    # difference tensor in the energy distance.
    "gauss_d32": Workload("map", 32, ("--kind", "gaussian", "--dim", "32", "--mean", "2",
                                      "--std", "0.5"),
                          n_plate=1024, n_starts=1024, n_holdout=1024, steps=12,
                          batch=512, mc_subsample=256, setup_repeats=21),
}


def cli(argv) -> None:
    """Run one efm subcommand in-process; raise StageError on a non-zero exit."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    if code != 0:
        raise StageError(f"efm {argv[0]} exited {code}: {err.getvalue().strip()}")


@dataclass
class Inputs:
    seed: int
    config: Path
    pos: Path
    neg: Path
    starts: Path
    holdout: Path
    weights: Path | None = None
    train_s: float | None = None


def _train_argv(w: Workload, inputs: Inputs, out: Path, seed: int) -> list:
    return ["train", "--config", inputs.config, "--data-pos", inputs.pos,
            "--data-neg", inputs.neg, "--steps", w.steps, "--batch-size", w.batch,
            "--mc-subsample", w.mc_subsample, "--hidden", w.hidden, "--seed", seed,
            "--out", out]


def set_up(w: Workload, seed: int, root: Path) -> Inputs:
    """Write the config and the four seeded CSVs; a trace workload also trains."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    CapacitorConfig(dim_d=w.dim, plate_gap=PLATE_GAP, seed=seed).to_json_file(config)
    paths = {}
    net_seed = TRACE_NET_SEED if w.job == "trace" else seed
    files = (("pos", w.source, w.n_plate, net_seed), ("neg", w.target, w.n_plate, net_seed),
             ("starts", w.source, w.n_starts, seed), ("holdout", w.target, w.n_holdout, seed))
    for i, (name, kind, n, s) in enumerate(files):
        cli(["generate-data", *kind, "--n", n, "--seed", 4 * s + i, "--out", root / name])
        paths[name] = root / name / "data.csv"
    inputs = Inputs(seed, config, **paths)
    if w.job == "trace":
        started = perf_counter()
        cli(_train_argv(w, inputs, root / "train", net_seed))
        inputs.train_s = perf_counter() - started
        inputs.weights = root / "train" / "weights_ema.json"
    return inputs


@dataclass
class Operation:
    stages: dict          # stage name -> wall seconds
    moved: int            # points carried to the target plate
    quality: dict         # energy_distance, sliced_w1, in_box_frac


def run_operation(w: Workload, inputs: Inputs, out: Path, span) -> Operation:
    """One closed-loop job: the workload's CLI stages in order, then checks.

    `span(name)` is a context manager around each stage (tracing or a no-op).
    """
    stages = {}

    def stage(name, argv):
        with span(f"stage.{name}"):
            started = perf_counter()
            cli(argv)
            stages[name] = perf_counter() - started

    common = ["--config", inputs.config, "--in", inputs.starts]
    if w.job == "map":
        stage("train", _train_argv(w, inputs, out / "train", inputs.seed))
        stage("transport", ["transport", "--weights", out / "train" / "weights_ema.json",
                            *common, "--nfe", NFE, "--out", out / "transport"])
        mapped = check_mapped(out / "transport", w.n_starts)
        mapped_csv = out / "transport" / "mapped.csv"
    elif w.job == "trace":
        stage("trace_lines", ["trace-lines", "--weights", inputs.weights, *common,
                              "--out", out / "trace"])
        mapped = check_trajectories(out / "trace" / "trajectories.csv", PLATE_GAP)
        mapped_csv = out / "endpoints.csv"
        write_points_csv(mapped, mapped_csv)
    else:
        stage("transport", ["transport", "--exact-field", "--policy", "theoretical",
                            "--data-pos", inputs.pos, "--data-neg", inputs.neg, *common,
                            "--out", out / "transport"])
        mapped = check_mapped(out / "transport", w.n_starts)
        mapped_csv = out / "transport" / "mapped.csv"
    stage("evaluate", ["evaluate", "--a", mapped_csv, "--b", inputs.holdout,
                       "--n-perm", w.n_perm, "--seed", inputs.seed,
                       "--out", out / "evaluate"])
    report = check_metrics(out / "evaluate" / "metrics.json")
    quality = {"energy_distance": report["energy_distance"]["statistic"],
               "sliced_w1": report["sliced_w1"]["statistic"],
               "in_box_frac": in_box_frac(mapped, read_points_csv(inputs.holdout),
                                          w.n_starts)}
    return Operation(stages, len(mapped), quality)


# ---------------------------------------------------------------------------
# Output checks. They read the files with their own parsers, not efm's.

def read_points_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_points_csv(points, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{i + 1}" for i in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def check_mapped(transport_dir: Path, n_in: int) -> np.ndarray:
    """mapped.csv rows are finite and number the inputs minus the manifest's failures."""
    with open(transport_dir / "manifest.json") as fh:
        n_failed = json.load(fh)["config"]["n_failed"]
    mapped = read_points_csv(transport_dir / "mapped.csv")
    if not np.all(np.isfinite(mapped)):
        raise CheckError("mapped.csv has non-finite values")
    if len(mapped) != n_in - n_failed:
        raise CheckError(f"mapped.csv has {len(mapped)} rows; expected "
                         f"{n_in} inputs - {n_failed} failed")
    return mapped


def check_trajectories(path: Path, plate_gap: float) -> np.ndarray:
    """Endpoints of the lines that reached the target plate.

    Every line ending `reached_target_plate` must end at z = plate_gap.
    """
    last = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            last[row[0]] = row
    if not last:
        raise CheckError("trajectories.csv has no lines")
    dim = len(header) - 4
    ends = []
    for line_id, row in last.items():
        term, z = row[-1], float(row[2])
        if term == "reached_target_plate" and not math.isclose(z, plate_gap, rel_tol=1e-12):
            raise CheckError(f"line {line_id} reached the plate at z={z!r}, "
                             f"not {plate_gap}")
        if term in SUCCESS_TERMINATIONS:
            ends.append([float(v) for v in row[3:3 + dim]])
    ends = np.array(ends, dtype=float).reshape(-1, dim)
    if not np.all(np.isfinite(ends)):
        raise CheckError("trajectories.csv has non-finite endpoints")
    return ends


def check_metrics(path: Path) -> dict:
    """metrics.json values must all be finite and non-negative."""
    with open(path) as fh:
        report = json.load(fh)

    def walk(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{where}.{key}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            if not (math.isfinite(node) and node >= 0):
                raise CheckError(f"metrics.json {where[1:]} = {node!r}")

    walk(report, "")
    return report


def in_box_frac(mapped: np.ndarray, holdout: np.ndarray, n_attempted: int) -> float:
    """Share of attempted lines whose endpoint lies in the holdout's widened box."""
    lo, hi = holdout.min(axis=0), holdout.max(axis=0)
    pad = IN_BOX_MARGIN * (hi - lo)
    inside = np.all((mapped >= lo - pad) & (mapped <= hi + pad), axis=1)
    return float(inside.sum()) / n_attempted
