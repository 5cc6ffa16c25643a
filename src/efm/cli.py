"""Command-line pipeline with file-based interchange.

Stages pass points to each other as CSVs of `%.17g` decimals, written by
`efm.data.save_csv` and read by `efm.data.load_csv`. These CSVs,
`trajectories.csv` and `field-grid`'s `grid.csv` take their text from
`efm.data.format_rows`, which formats a block of cells in bulk and gives
the bytes Python's `'%.17g'` gives, cell for cell. Next to each CSV it
writes, `save_csv` writes a binary shadow `<csv>.f8` holding the same
doubles and the SHA-256 of the CSV's bytes. Like a checked hash-based
`.pyc`, a shadow is trusted only while that digest (and its shape) matches
the CSV beside it; otherwise, or when it is missing, the CSV is parsed.
Since `%.17g` round-trips every finite double, both paths give the same
points, so a shadow is a cache: manifests do not list it, and deleting it
costs only speed.

Each stage of the method exists once, and every subcommand that needs it
calls it:

- `_field_source`: `--weights`, or the exact field of `--data-pos`/`--data-neg`,
  as a batch callable `field_fn(pts)` plus the files it read;
- `efm.training.train`, which writes `TRAIN_OUTPUTS`;
- `_transport`: `map_batch` under one of its policies, then `mapped.csv`
  and, if asked, `trajectories.csv`. `transport --policy` picks "practical"
  (z-Euler with `--nfe` steps), "adaptive" (Cash-Karp to the first arrival
  at the target plate) or "theoretical" (flux-ratio start and stop; exact
  field only). `trace-lines` is an alias of `transport --policy adaptive
  --dump-trajectories`. Every policy moves all of its lines as one batch,
  one field call per step or Cash-Karp stage;
- `_evaluate`: one `energy_distance` call, which with `n_perm` > 0 also
  gives the permutation null from the same pooled pass, and sliced W1 over
  `SLICED_PROJECTIONS` directions, both from a stream the caller passes in.

A subcommand body returns a `_Run`. `_recorded` times it, creates its output
directory (and removes it again, if still empty, when the body fails) and
writes `manifest.json`: `subcommand`, `config`, `seed`, `inputs`
(path -> SHA-256; a CSV's is the digest `load_csv` checked its shadow
against, when it did), `outputs`, `duration_seconds`. `transport` and its
alias add `nfe`, `policy` and `n_failed` to `config`; `run-preset` adds
`n_steps`, `nfe` and `train_seconds`. `dispatch` prints the run's report; domain and OS
errors exit 1.

`dispatch` parses with one parser per process, built on its first call
(`build_parser` still returns a fresh one). So whatever the parser takes
from module state it reads at parse time, not when it is built: today
that is `run-preset --name`, checked against `PRESETS` as it stands when
the command line is parsed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .core import (VOLUME_MODES, CapacitorConfig, DataError, EfmError, TransportError,
                   seeded_stream)
from .data import (Dataset, csv_chunk_rows, csv_chunks, format_rows, gen_gaussian,
                   gen_swiss_roll, gen_two_gaussians, load_csv, save_csv)
from .field import EmpiricalField, PlateSet
from .metrics import energy_distance, sliced_w1
from .model import load_weights
from .physics import run_verification_suite
from .training import DEFAULT_HIDDEN_DIMS, train
from .transport import map_batch

# Table of end-to-end experiment presets (2-D toy runs).
PRESETS = {
    "swissroll_L6": dict(target="swiss_roll", plate_gap=6.0, n_steps=1500),
    "swissroll_L30": dict(target="swiss_roll", plate_gap=30.0, n_steps=1500),
    "two_gaussians": dict(target="two_gaussians", plate_gap=6.0, n_steps=600),
}
PRESET_N_TRAIN = 2048
PRESET_N_MAP = 2048
PRESET_BATCH = 1024
PRESET_SIGMA = 0.001
PRESET_NFE = 20
PRESET_SWISS_NOISE = 0.05
PRESET_TWO_GAUSS_SEPARATION = 8.0
PRESET_SELF_DISTANCE_PAIRS = 9
# Directions of every sliced-W1 estimate (`evaluate` and `run-preset`).
SLICED_PROJECTIONS = 64
# The files train(..., out_dir=out) writes into out.
TRAIN_OUTPUTS = ("weights.json", "weights_ema.json", "loss_curve.csv")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, subcommand: str, config: dict | None, seed,
                   inputs, outputs, started: float) -> Path:
    """Atomically record what a run consumed and produced. `inputs` maps
    each input path to its hex SHA-256 when a load already hashed it
    (`Dataset.sha256`), else to None: that file is hashed here."""
    out_dir = Path(out_dir)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": {str(p): digest or _sha256_file(p) for p, digest in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "duration_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    _dump_json(manifest, tmp)
    os.replace(tmp, path)
    return path


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectories_csv(trajectories, path) -> None:
    """line_id, step, z, x_1..x_D, termination (set on each line's last row).

    Lines go through `format_rows` a group of about `csv_chunk_rows` rows at
    a time. The line_id and step columns are whole floats there: below 2**53
    the `%.17g` text of an integer is its `%d` text.
    """
    dim = trajectories[0].points.shape[1] - 1
    cols = ["line_id", "step", "z"] + [f"x_{i + 1}" for i in range(dim)] + ["termination"]
    z_first = [dim, *range(dim)]  # points hold x_1..x_D, z
    group_rows = csv_chunk_rows(dim + 3)
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        stop = 0
        while stop < len(trajectories):
            start, rows = stop, 0
            while stop < len(trajectories) and rows < group_rows:
                rows += len(trajectories[stop].points)
                stop += 1
            group = trajectories[start:stop]
            lengths = [len(traj.points) for traj in group]
            block = np.empty((rows, dim + 3))
            block[:, 0] = np.repeat(np.arange(start, stop), lengths)
            block[:, 1] = np.arange(rows) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            block[:, 2:] = np.concatenate([traj.points for traj in group])[:, z_first]
            ends = []
            for traj, n in zip(group, lengths):
                if n:
                    ends += [b",\n"] * (n - 1) + [b",%s\n" % traj.termination.encode()]
            lines = format_rows(block).split(b"\n")
            fh.write(b"".join(itertools.chain.from_iterable(zip(lines, ends))))


def _load_config(args) -> CapacitorConfig:
    cfg = CapacitorConfig.from_json_file(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


@dataclasses.dataclass
class _Run:
    """A finished subcommand: its manifest fields, report and exit code."""

    subcommand: str
    config: dict | None
    seed: int | None
    inputs: dict  # path -> hex SHA-256 or None (`write_manifest`)
    outputs: list
    report: object  # printed as is when a str, else as indented JSON
    code: int = 0


def _recorded(body):
    """Wrap `body(out, ...) -> _Run`: create the directory `out` first and
    write its manifest.json after; with `out` None, do neither. When the
    body raises, a directory `out` created here and still empty is removed."""
    def run(out, *args) -> _Run:
        started = time.time()
        created = False
        if out is not None:
            out = Path(out)
            created = not out.exists()
            out.mkdir(parents=True, exist_ok=True)
        try:
            rec = body(out, *args)
        except BaseException:
            if created and not any(out.iterdir()):
                out.rmdir()
            raise
        if out is not None:
            write_manifest(out, rec.subcommand, rec.config, rec.seed, rec.inputs,
                           rec.outputs, started)
        return rec
    return run


# ---------------------------------------------------------------------------
# Pipeline stages, and the subcommands built from them.

def _check_dim(cfg, dim: int, what: str) -> None:
    if dim != cfg.dim_d:
        raise EfmError(f"{what} has dimension {dim} but the config's dim_d is {cfg.dim_d}")


def _field_source(cfg, args):
    """(field_fn(pts), inputs as `write_manifest` takes them) of `--weights`
    or, without it, of the exact field of `--data-pos`/`--data-neg`."""
    weights = getattr(args, "weights", None)
    if weights:
        if args.data_pos or args.data_neg:
            raise EfmError("--data-pos and --data-neg apply to the exact field, not to --weights")
        net = load_weights(weights)
        _check_dim(cfg, net.layer_dims[0] - 1, "the --weights network's input")
        _check_dim(cfg, net.layer_dims[-1] - 1, "the --weights network's output")
        return net.forward, {weights: None}
    if not (args.data_pos and args.data_neg):
        raise EfmError("the field needs --weights, or --data-pos and --data-neg")
    pos = load_csv(args.data_pos)
    neg = load_csv(args.data_neg)
    field = EmpiricalField(PlateSet(pos.points), PlateSet(neg.points), cfg.plate_gap,
                           cfg.field_epsilon)
    _check_dim(cfg, field.dim, "the --data-pos/--data-neg plates")
    return field.evaluate, {args.data_pos: pos.sha256, args.data_neg: neg.sha256}


def _transport(out, cfg, points, field_fn, policy: str, *, nfe: int,
               dump_trajectories: bool = False):
    """Move `points` along `field_fn` under the named `map_batch` policy;
    write mapped.csv and, if asked, trajectories.csv. A batch in which no
    line arrives raises TransportError with its count per termination.
    Returns (MapResult, mapped Dataset, output paths)."""
    _check_dim(cfg, points.shape[1], "the transported points")
    result = map_batch(points, field_fn, policy, plate_gap=cfg.plate_gap, nfe=nfe,
                       seed=cfg.seed, limit_epsilon=cfg.limit_epsilon)
    if not result.ok.any():
        counts = Counter(term for _, term in result.failures)
        raise TransportError("no line reached the target plate: "
                             + ", ".join(f"{n} {term}" for term, n in sorted(counts.items())))
    mapped = Dataset(result.mapped[result.ok])
    outputs = [out / "mapped.csv"]
    save_csv(mapped, outputs[0])
    if dump_trajectories:
        outputs.append(out / "trajectories.csv")
        write_trajectories_csv(result.trajectories, outputs[1])
    return result, mapped, outputs


def _evaluate(a, b, n_perm: int, stream) -> dict:
    """Energy distance (with an n_perm permutation null if n_perm > 0) and sliced W1."""
    return {"energy_distance": energy_distance(a, b, n_perm, stream).to_dict(),
            "sliced_w1": sliced_w1(a, b, SLICED_PROJECTIONS, stream).to_dict()}


@_recorded
def _cmd_generate_data(out, args) -> _Run:
    if args.kind != "gaussian" and args.dim != 2:
        raise DataError(f"--kind {args.kind} is 2-D only; got --dim {args.dim}")
    stream = seeded_stream(args.seed, f"generate-data/{args.kind}")
    if args.kind == "gaussian":
        ds = gen_gaussian(args.n, args.dim, args.mean, args.std ** 2, stream=stream)
    elif args.kind == "swiss_roll":
        ds = gen_swiss_roll(args.n, args.noise_std, stream=stream)
    else:
        ds = gen_two_gaussians(args.n, args.separation, stream, std=args.std)
    path = out / "data.csv"
    save_csv(ds, path)
    resolved = {k: v for k, v in vars(args).items() if k != "handler"}
    return _Run("generate-data", resolved, args.seed, {}, [path],
                f"wrote {path} ({ds.n} x {ds.dim})")


@_recorded
def _cmd_train(out, args) -> _Run:
    cfg = _load_config(args)
    pos = load_csv(args.data_pos)
    neg = load_csv(args.data_neg)
    train(cfg, pos.points, neg.points, n_steps=args.steps, batch_size=args.batch_size,
          hidden_dims=args.hidden, mc_subsample=args.mc_subsample, out_dir=out)
    inputs = {args.config: None, args.data_pos: pos.sha256, args.data_neg: neg.sha256}
    return _Run("train", cfg.to_dict(), cfg.seed, inputs, [out / n for n in TRAIN_OUTPUTS],
                f"trained {args.steps} steps -> {out}")


@_recorded
def _cmd_transport(out, args) -> _Run:
    cfg = _load_config(args)
    points = load_csv(args.infile)
    # a network's field has no jump at the plate, so the flux-ratio
    # stop of the theoretical policy would never fire
    if args.weights and args.policy == "theoretical":
        raise EfmError("--weights transport does not support --policy theoretical")
    field_fn, field_inputs = _field_source(cfg, args)
    result, mapped, outputs = _transport(out, cfg, points.points, field_fn, args.policy,
                                         nfe=args.nfe, dump_trajectories=args.dump_trajectories)
    config = cfg.to_dict() | {"nfe": args.nfe, "policy": args.policy,
                              "n_failed": len(result.failures)}
    inputs = {args.config: None, args.infile: points.sha256, **field_inputs}
    return _Run(args.command, config, cfg.seed, inputs, outputs,
                f"mapped {mapped.n}/{len(result.ok)} points -> {outputs[0]}")


@_recorded
def _cmd_field_grid(out, args) -> _Run:
    cfg = _load_config(args)
    field_fn, field_inputs = _field_source(cfg, args)
    lo, hi, shape = args.grid_min, args.grid_max, args.grid_shape
    if not (len(lo) == len(hi) == len(shape) == cfg.dim_d + 1):
        raise EfmError("grid specs must have D+1 entries")
    axes = [np.linspace(a, b, k) for a, b, k in zip(lo, hi, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = field_fn(pts)
    norms = np.linalg.norm(vals, axis=1)
    grid_path = out / "grid.csv"
    d = cfg.dim_d
    cols = ([f"x_{i + 1}" for i in range(d)] + ["z"]
            + [f"E_x_{i + 1}" for i in range(d)] + ["E_z", "E_norm"])
    with open(grid_path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        fh.writelines(csv_chunks(np.column_stack([pts, vals, norms])))
    return _Run("field-grid", cfg.to_dict(), cfg.seed, {args.config: None, **field_inputs},
                [grid_path], f"wrote {grid_path} ({len(pts)} points)")


@_recorded
def _cmd_verify_physics(out, args) -> _Run:
    cfg = _load_config(args)
    checks = run_verification_suite(cfg, cfg.seed)
    report = [c.to_dict() for c in checks]
    outputs = []
    if out is not None:
        outputs.append(out / "physics_report.json")
        _dump_json(report, outputs[0])
    return _Run("verify-physics", cfg.to_dict(), cfg.seed, {args.config: None}, outputs, report,
                0 if all(c.passed for c in checks) else 1)


@_recorded
def _cmd_evaluate(out, args) -> _Run:
    a = load_csv(args.a)
    b = load_csv(args.b)
    payload = _evaluate(a, b, args.n_perm, seeded_stream(args.seed, "evaluate"))
    path = out / "metrics.json"
    _dump_json(payload, path)
    return _Run("evaluate", None, args.seed, {args.a: a.sha256, args.b: b.sha256}, [path],
                payload)


@_recorded
def _run_preset(out, name: str, seed: int, volume_mode: str) -> _Run:
    """`run-preset`: generate, train, transport and evaluate one end-to-end
    2-D toy run at the PRESET_* sizes; its report is `metrics.json`."""
    spec = PRESETS[name]
    cfg = CapacitorConfig(dim_d=2, plate_gap=spec["plate_gap"],
                          noise_sigma=PRESET_SIGMA, volume_mode=volume_mode, seed=seed)

    def target_sample(n, label_stream):
        if spec["target"] == "swiss_roll":
            return gen_swiss_roll(n, PRESET_SWISS_NOISE, stream=label_stream)
        return gen_two_gaussians(n, PRESET_TWO_GAUSS_SEPARATION, label_stream)

    pos_train = gen_gaussian(PRESET_N_TRAIN, 2, stream=seeded_stream(seed, "preset/pos"))
    neg_train = target_sample(PRESET_N_TRAIN, seeded_stream(seed, "preset/neg"))
    eval_in = gen_gaussian(PRESET_N_MAP, 2, stream=seeded_stream(seed, "preset/eval_in"))
    holdout = target_sample(PRESET_N_MAP, seeded_stream(seed, "preset/holdout"))
    outputs = [out / f"{n}.csv" for n in ("data_pos", "data_neg", "inputs", "target_holdout")]
    for ds, path in zip((pos_train, neg_train, eval_in, holdout), outputs):
        save_csv(ds, path)

    train_started = time.time()
    trained = train(cfg, pos_train.points, neg_train.points, n_steps=spec["n_steps"],
                    batch_size=PRESET_BATCH, out_dir=out)
    train_seconds = time.time() - train_started
    outputs += [out / n for n in TRAIN_OUTPUTS]

    result, mapped, transport_outputs = _transport(
        out, cfg, eval_in.points, trained.ema_net.forward, "practical", nfe=PRESET_NFE,
        dump_trajectories=True)
    outputs += transport_outputs

    self_stream = seeded_stream(seed, "preset/self_distance")
    self_ds = [energy_distance(target_sample(PRESET_N_MAP, self_stream),
                               target_sample(PRESET_N_MAP, self_stream)).statistic
               for _ in range(PRESET_SELF_DISTANCE_PAIRS)]
    payload = {
        "preset": name,
        "volume_mode": volume_mode,
        **_evaluate(mapped, holdout, 200, seeded_stream(seed, "preset/metrics")),
        "target_self_median": float(np.median(self_ds)),
        "n_mapped": mapped.n,
        "n_failed": len(result.failures),
    }
    outputs.append(out / "metrics.json")
    _dump_json(payload, outputs[-1])
    config = cfg.to_dict() | {"n_steps": spec["n_steps"], "nfe": PRESET_NFE,
                              "train_seconds": train_seconds}
    return _Run(f"run-preset/{name}", config, seed, {}, outputs, payload)


# ---------------------------------------------------------------------------
# Parser and dispatch.

def _at_least(lo):
    """argparse type: a number >= lo, read as an int or a float like lo."""
    def parse(text):
        try:
            value = type(lo)(text)
        except ValueError:
            what = "an integer" if isinstance(lo, int) else "a number"
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None
        if not value >= lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}: {text!r}")
        return value
    return parse


def _finite(text) -> float:
    """A finite float; NaN and infinities raise ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _comma_list(parse_one):
    """argparse type: comma-separated values, each read by parse_one."""
    def parse(text):
        try:
            return tuple(parse_one(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated list: {text!r}") from None
    return parse


class _PresetNames:
    """`run-preset --name` choices: the names in `PRESETS` when argparse
    reads them, sorted, so a parser built earlier sees presets added since."""

    def __contains__(self, name) -> bool:
        return name in PRESETS

    def __iter__(self):
        return iter(sorted(PRESETS))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="efm",
        description="Electrostatic field transport between sample distributions.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, handler, *, config=True, seed=None, out_required=True):
        """A subparser with the --config, --seed and --out its stage takes."""
        sp = sub.add_parser(name, help=help)
        if config:
            sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=_at_least(0), default=seed)
        sp.add_argument("--out", required=out_required)
        sp.set_defaults(handler=handler)
        return sp

    g = command("generate-data", "sample a toy distribution to CSV", _cmd_generate_data,
                config=False, seed=0)
    g.add_argument("--kind", required=True,
                   choices=["gaussian", "swiss_roll", "two_gaussians"])
    g.add_argument("--n", type=_at_least(1), required=True)
    g.add_argument("--dim", type=_at_least(1), default=2)
    g.add_argument("--mean", type=float, default=0.0)
    g.add_argument("--std", type=_at_least(0.0), default=1.0)
    g.add_argument("--noise-std", type=_at_least(0.0), default=0.0)
    g.add_argument("--separation", type=float, default=8.0)

    t = command("train", "fit the normalized-field network", _cmd_train)
    t.add_argument("--data-pos", required=True)
    t.add_argument("--data-neg", required=True)
    t.add_argument("--steps", type=_at_least(0), required=True)
    t.add_argument("--batch-size", type=_at_least(1), default=1024)
    t.add_argument("--hidden", type=_comma_list(_at_least(1)), default=DEFAULT_HIDDEN_DIMS)
    t.add_argument("--mc-subsample", type=_at_least(1), default=None)

    tr = command("transport", "move samples along field lines", _cmd_transport)
    src = tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--exact-field", action="store_true")
    tr.add_argument("--data-pos")
    tr.add_argument("--data-neg")
    tr.add_argument("--policy", choices=["practical", "adaptive", "theoretical"],
                    default="practical")
    tr.add_argument("--nfe", type=_at_least(1), default=20)
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--dump-trajectories", action="store_true")

    tl = command("trace-lines", "alias of transport --policy adaptive --dump-trajectories",
                 _cmd_transport)
    tl.add_argument("--data-pos")
    tl.add_argument("--data-neg")
    tl.add_argument("--weights")
    tl.add_argument("--in", dest="infile", required=True)
    tl.set_defaults(policy="adaptive", nfe=20, dump_trajectories=True)

    fg = command("field-grid", "evaluate the exact field on a grid", _cmd_field_grid)
    fg.add_argument("--data-pos", required=True)
    fg.add_argument("--data-neg", required=True)
    fg.add_argument("--grid-min", type=_comma_list(_finite), required=True)
    fg.add_argument("--grid-max", type=_comma_list(_finite), required=True)
    fg.add_argument("--grid-shape", type=_comma_list(_at_least(1)), required=True)

    command("verify-physics", "run the electrostatics check suite", _cmd_verify_physics,
            out_required=False)

    ev = command("evaluate", "two-sample distances between CSVs", _cmd_evaluate,
                 config=False, seed=0)
    ev.add_argument("--a", required=True)
    ev.add_argument("--b", required=True)
    ev.add_argument("--n-perm", type=_at_least(0), default=200)

    rp = command("run-preset", "end-to-end toy experiment",
                 lambda out, a: _run_preset(out, a.name, a.seed, a.volume_mode),
                 config=False, seed=0)
    rp.add_argument("--name", required=True, choices=_PresetNames())
    rp.add_argument("--volume-mode", choices=VOLUME_MODES, default="interpolant")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `dispatch` reuses for the life of the process."""
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        run = args.handler(args.out, args)
    except (EfmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run.report
    print(report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True))
    return run.code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
