"""Command-line pipeline: generation, training, transport, verification, and
preset end-to-end experiment runs with file-based interchange."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import CapacitorConfig, EfmError, seeded_stream, validate_config
from .data import (Dataset, gen_gaussian, gen_swiss_roll, gen_two_gaussians,
                   load_csv, save_csv)
from .field import EmpiricalField, PlateSet
from .metrics import energy_distance, energy_distance_with_null, sliced_w1
from .model import load_weights
from .physics import run_verification_suite
from .training import train
from .transport import TransportPolicy, map_batch, trace_line_t

# Table of end-to-end experiment presets (2-D toy runs).
PRESETS = {
    "swissroll_L6": dict(target="swiss_roll", plate_gap=6.0, n_steps=1500),
    "swissroll_L30": dict(target="swiss_roll", plate_gap=30.0, n_steps=1500),
    "two_gaussians": dict(target="two_gaussians", plate_gap=6.0, n_steps=600),
}
PRESET_N_TRAIN = 2048
PRESET_N_MAP = 2048
PRESET_BATCH = 1024
PRESET_LR = 2e-3
PRESET_WEIGHT_DECAY = 0.0
PRESET_SIGMA = 0.001
PRESET_NFE = 20
PRESET_SWISS_NOISE = 0.05
PRESET_TWO_GAUSS_SEPARATION = 8.0
PRESET_SELF_DISTANCE_PAIRS = 9


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, subcommand: str, config: dict | None, seed,
                   inputs, outputs, started: float) -> Path:
    """Atomically record what a run consumed and produced."""
    out_dir = Path(out_dir)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectories_csv(trajectories, path) -> None:
    """line_id, step, z, x_1..x_D, termination (set on each line's last row)."""
    dim = trajectories[0].points.shape[1] - 1
    cols = ["line_id", "step", "z"] + [f"x_{i + 1}" for i in range(dim)] + ["termination"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, traj in enumerate(trajectories):
            last = len(traj.points) - 1
            for k, pt in enumerate(traj.points):
                term = traj.termination if k == last else ""
                coords = ",".join("%.17g" % v for v in pt[:-1])
                fh.write(f"{i},{k},{'%.17g' % pt[-1]},{coords},{term}\n")


def _load_config(args) -> CapacitorConfig:
    cfg = CapacitorConfig.from_json_file(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=int(args.seed))
    validate_config(cfg)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_generate_data(args) -> int:
    started = time.time()
    out = _out_dir(args)
    stream = seeded_stream(args.seed, f"generate-data/{args.kind}")
    if args.kind == "gaussian":
        ds = gen_gaussian(args.n, args.dim, args.mean, args.std ** 2, stream)
    elif args.kind == "swiss_roll":
        ds = gen_swiss_roll(args.n, args.noise_std, stream)
    else:
        ds = gen_two_gaussians(args.n, args.separation, stream, std=args.std)
    path = out / "data.csv"
    save_csv(ds, path)
    resolved = {k: v for k, v in vars(args).items() if k != "handler"}
    write_manifest(out, "generate-data", resolved, args.seed, [], [path], started)
    print(f"wrote {path} ({ds.n} x {ds.dim})")
    return 0


def _cmd_train(args) -> int:
    started = time.time()
    out = _out_dir(args)
    cfg = _load_config(args)
    pos = load_csv(args.data_pos)
    neg = load_csv(args.data_neg)
    hidden = tuple(int(h) for h in args.hidden.split(",")) if args.hidden else (128, 128, 128)
    train(cfg, pos.points, neg.points, n_steps=args.steps, batch_size=args.batch_size,
          learning_rate=args.lr, weight_decay=args.weight_decay,
          ema_decay=args.ema_decay, hidden_dims=hidden, activation=args.activation,
          mc_subsample=args.mc_subsample, out_dir=out, seed=cfg.seed)
    outputs = [out / "weights.json", out / "weights_ema.json", out / "loss_curve.csv"]
    write_manifest(out, "train", cfg.to_dict(), cfg.seed,
                   [args.config, args.data_pos, args.data_neg], outputs, started)
    print(f"trained {args.steps} steps -> {out}")
    return 0


def _build_exact_field(cfg, args, mc_subsample=None) -> EmpiricalField:
    pos = load_csv(args.data_pos)
    neg = load_csv(args.data_neg)
    return EmpiricalField(PlateSet(pos.points, 0.0, +1),
                          PlateSet(neg.points, cfg.plate_gap, -1),
                          cfg.field_epsilon, mc_subsample)


def _cmd_transport(args) -> int:
    started = time.time()
    out = _out_dir(args)
    cfg = _load_config(args)
    points = load_csv(args.infile)
    dtau = cfg.plate_gap / args.nfe
    mode = "practical_stop_at_L" if args.policy == "practical" else "theoretical_stochastic"
    direction = "forward_only" if args.policy == "practical" else "bidirectional"
    policy = TransportPolicy(mode, direction, dtau)
    inputs = [args.config, args.infile]
    if args.weights:
        # a network's field has no jump at the plate, so the flux-ratio
        # stop of the theoretical policy would never fire
        if policy.mode != "practical_stop_at_L":
            raise EfmError("--weights transport supports only --policy practical")
        net = load_weights(args.weights)
        field_fn = lambda pts, stream: net.forward(pts)
        inputs.append(args.weights)
    else:
        if not (args.data_pos and args.data_neg):
            raise EfmError("--exact-field transport needs --data-pos and --data-neg")
        field_fn = _build_exact_field(cfg, args, args.mc_subsample).evaluate
        inputs += [args.data_pos, args.data_neg]
    result = map_batch(points.points, field_fn, policy, plate_gap=cfg.plate_gap,
                       seed=cfg.seed, limit_epsilon=cfg.limit_epsilon)
    mapped_path = out / "mapped.csv"
    save_csv(Dataset(result.mapped[result.ok], "mapped"), mapped_path)
    outputs = [mapped_path]
    if args.dump_trajectories:
        traj_path = out / "trajectories.csv"
        write_trajectories_csv(result.trajectories, traj_path)
        outputs.append(traj_path)
    write_manifest(out, "transport",
                   cfg.to_dict() | {"nfe": args.nfe, "policy": args.policy,
                                    "n_failed": len(result.failures)},
                   cfg.seed, inputs, outputs, started)
    print(f"mapped {int(result.ok.sum())}/{len(result.ok)} points -> {mapped_path}")
    return 0


def _cmd_trace_lines(args) -> int:
    started = time.time()
    out = _out_dir(args)
    cfg = _load_config(args)
    starts = load_csv(args.infile)
    if args.weights:
        fn = load_weights(args.weights).forward
        inputs = [args.config, args.infile, args.weights]
    else:
        fn = _build_exact_field(cfg, args).evaluate
        inputs = [args.config, args.infile, args.data_pos, args.data_neg]
    trajectories = []
    z0 = cfg.limit_epsilon if args.direction > 0 else -cfg.limit_epsilon
    for x in starts.points:
        start = np.append(x, z0)
        trajectories.append(trace_line_t(start, fn, +1 if args.direction > 0 else -1,
                                         plate_gap=cfg.plate_gap,
                                         limit_epsilon=cfg.limit_epsilon))
    traj_path = out / "trajectories.csv"
    write_trajectories_csv(trajectories, traj_path)
    write_manifest(out, "trace-lines", cfg.to_dict(), cfg.seed, inputs,
                   [traj_path], started)
    print(f"traced {len(trajectories)} lines -> {traj_path}")
    return 0


def _cmd_field_grid(args) -> int:
    started = time.time()
    out = _out_dir(args)
    cfg = _load_config(args)
    field = _build_exact_field(cfg, args)
    lo = np.array([float(v) for v in args.grid_min.split(",")])
    hi = np.array([float(v) for v in args.grid_max.split(",")])
    shape = [int(v) for v in args.grid_shape.split(",")]
    if not (len(lo) == len(hi) == len(shape) == cfg.dim_d + 1):
        raise EfmError("grid specs must have D+1 entries")
    axes = [np.linspace(a, b, k) for a, b, k in zip(lo, hi, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = field.evaluate(pts)
    norms = np.linalg.norm(vals, axis=1)
    grid_path = out / "grid.csv"
    d = cfg.dim_d
    cols = ([f"x_{i + 1}" for i in range(d)] + ["z"]
            + [f"E_x_{i + 1}" for i in range(d)] + ["E_z", "E_norm"])
    with open(grid_path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for p, v, nv in zip(pts, vals, norms):
            row = list(p) + list(v) + [nv]
            fh.write(",".join("%.17g" % u for u in row) + "\n")
    write_manifest(out, "field-grid", cfg.to_dict(), cfg.seed,
                   [args.config, args.data_pos, args.data_neg], [grid_path], started)
    print(f"wrote {grid_path} ({len(pts)} points)")
    return 0


def _cmd_verify_physics(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    checks = run_verification_suite(cfg, cfg.seed)
    report = [c.to_dict() for c in checks]
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = _out_dir(args)
        path = out / "physics_report.json"
        with open(path, "w") as fh:
            fh.write(text + "\n")
        write_manifest(out, "verify-physics", cfg.to_dict(), cfg.seed,
                       [args.config], [path], started)
    return 0 if all(c.passed for c in checks) else 1


def _cmd_evaluate(args) -> int:
    started = time.time()
    out = _out_dir(args)
    a = load_csv(args.a)
    b = load_csv(args.b)
    stream = seeded_stream(args.seed, "evaluate")
    if args.n_perm:
        rep = energy_distance_with_null(a, b, args.n_perm, stream)
    else:
        rep = energy_distance(a, b)
    sw = sliced_w1(a, b, args.sliced_projections, stream)
    payload = {"energy_distance": rep.to_dict(), "sliced_w1": sw.to_dict()}
    path = out / "metrics.json"
    _dump_json(payload, path)
    write_manifest(out, "evaluate", None, args.seed, [args.a, args.b], [path], started)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def run_experiment_preset(name: str, seed: int = 0, out_dir=".",
                          volume_mode: str = "interpolant") -> dict:
    """End-to-end toy run: generate, train, transport, evaluate.

    Hyperparameters are the pinned 2-D toy settings (batch 1024, lr 2e-3,
    no weight decay, sigma 1e-3, 20 transport evaluations); swissroll_L30
    widens the plate gap to 30. Returns the metrics dict; artifacts land
    in out_dir.
    """
    if name not in PRESETS:
        raise EfmError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    started = time.time()
    spec = PRESETS[name]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = CapacitorConfig(dim_d=2, plate_gap=spec["plate_gap"],
                          noise_sigma=PRESET_SIGMA, volume_mode=volume_mode, seed=seed)
    validate_config(cfg)

    def target_sample(n, label_stream):
        if spec["target"] == "swiss_roll":
            return gen_swiss_roll(n, PRESET_SWISS_NOISE, label_stream)
        return gen_two_gaussians(n, PRESET_TWO_GAUSS_SEPARATION, label_stream)

    pos_train = gen_gaussian(PRESET_N_TRAIN, 2, stream=seeded_stream(seed, "preset/pos"))
    neg_train = target_sample(PRESET_N_TRAIN, seeded_stream(seed, "preset/neg"))
    eval_in = gen_gaussian(PRESET_N_MAP, 2, stream=seeded_stream(seed, "preset/eval_in"))
    holdout = target_sample(PRESET_N_MAP, seeded_stream(seed, "preset/holdout"))
    save_csv(pos_train, out / "data_pos.csv")
    save_csv(neg_train, out / "data_neg.csv")
    save_csv(eval_in, out / "inputs.csv")
    save_csv(holdout, out / "target_holdout.csv")

    train_started = time.time()
    result = train(cfg, pos_train.points, neg_train.points, n_steps=spec["n_steps"],
                   batch_size=PRESET_BATCH, learning_rate=PRESET_LR,
                   weight_decay=PRESET_WEIGHT_DECAY, out_dir=out, seed=seed)
    train_seconds = time.time() - train_started

    policy = TransportPolicy(step=cfg.plate_gap / PRESET_NFE)
    mapped = map_batch(eval_in.points, lambda pts, stream: result.ema_net.forward(pts),
                       policy, plate_gap=cfg.plate_gap, seed=seed)
    mapped_ds = Dataset(mapped.mapped[mapped.ok], "mapped")
    save_csv(mapped_ds, out / "mapped.csv")
    write_trajectories_csv(mapped.trajectories, out / "trajectories.csv")

    stream = seeded_stream(seed, "preset/metrics")
    rep = energy_distance_with_null(mapped_ds, holdout, 200, stream)
    sw = sliced_w1(mapped_ds, holdout, 64, stream)
    self_stream = seeded_stream(seed, "preset/self_distance")
    self_ds = [energy_distance(target_sample(PRESET_N_MAP, self_stream),
                               target_sample(PRESET_N_MAP, self_stream)).statistic
               for _ in range(PRESET_SELF_DISTANCE_PAIRS)]
    metrics_payload = {
        "preset": name,
        "volume_mode": volume_mode,
        "energy_distance": rep.to_dict(),
        "sliced_w1": sw.to_dict(),
        "target_self_median": float(np.median(self_ds)),
        "n_mapped": int(mapped.ok.sum()),
        "n_failed": len(mapped.failures),
    }
    _dump_json(metrics_payload, out / "metrics.json")
    write_manifest(out, f"run-preset/{name}",
                   cfg.to_dict() | {"n_steps": spec["n_steps"], "nfe": PRESET_NFE,
                                    "train_seconds": train_seconds},
                   seed, [],
                   [out / n for n in ("data_pos.csv", "data_neg.csv", "inputs.csv",
                                      "target_holdout.csv", "weights.json",
                                      "weights_ema.json", "loss_curve.csv",
                                      "mapped.csv", "trajectories.csv", "metrics.json")],
                   started)
    return metrics_payload


def _cmd_run_preset(args) -> int:
    payload = run_experiment_preset(args.name, args.seed, args.out, args.volume_mode)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch.

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="efm",
        description="Electrostatic field transport between sample distributions.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="sample a toy distribution to CSV")
    g.add_argument("--kind", required=True,
                   choices=["gaussian", "swiss_roll", "two_gaussians"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--mean", type=float, default=0.0)
    g.add_argument("--std", type=float, default=1.0)
    g.add_argument("--noise-std", type=float, default=0.0)
    g.add_argument("--separation", type=float, default=8.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_generate_data)

    t = sub.add_parser("train", help="fit the normalized-field network")
    t.add_argument("--config", required=True)
    t.add_argument("--data-pos", required=True)
    t.add_argument("--data-neg", required=True)
    t.add_argument("--steps", type=int, required=True)
    t.add_argument("--batch-size", type=int, default=1024)
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--weight-decay", type=float, default=0.0)
    t.add_argument("--ema-decay", type=float, default=0.99)
    t.add_argument("--hidden", default="128,128,128")
    t.add_argument("--activation", default="smooth_relu", choices=["tanh", "smooth_relu"])
    t.add_argument("--mc-subsample", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(handler=_cmd_train)

    tr = sub.add_parser("transport", help="move samples along field lines")
    src = tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--exact-field", action="store_true")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data-pos")
    tr.add_argument("--data-neg")
    tr.add_argument("--policy", choices=["practical", "theoretical"], default="practical")
    tr.add_argument("--nfe", type=int, default=20)
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--mc-subsample", type=int, default=None)
    tr.add_argument("--dump-trajectories", action="store_true")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--out", required=True)
    tr.set_defaults(handler=_cmd_transport)

    tl = sub.add_parser("trace-lines", help="adaptive field-line tracing")
    tl.add_argument("--config", required=True)
    tl.add_argument("--data-pos")
    tl.add_argument("--data-neg")
    tl.add_argument("--weights")
    tl.add_argument("--in", dest="infile", required=True)
    tl.add_argument("--direction", type=int, choices=[1, -1], default=1)
    tl.add_argument("--seed", type=int, default=None)
    tl.add_argument("--out", required=True)
    tl.set_defaults(handler=_cmd_trace_lines)

    fg = sub.add_parser("field-grid", help="evaluate the exact field on a grid")
    fg.add_argument("--config", required=True)
    fg.add_argument("--data-pos", required=True)
    fg.add_argument("--data-neg", required=True)
    fg.add_argument("--grid-min", required=True)
    fg.add_argument("--grid-max", required=True)
    fg.add_argument("--grid-shape", required=True)
    fg.add_argument("--seed", type=int, default=None)
    fg.add_argument("--out", required=True)
    fg.set_defaults(handler=_cmd_field_grid)

    vp = sub.add_parser("verify-physics", help="run the electrostatics check suite")
    vp.add_argument("--config", required=True)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--out", default=None)
    vp.set_defaults(handler=_cmd_verify_physics)

    ev = sub.add_parser("evaluate", help="two-sample distances between CSVs")
    ev.add_argument("--a", required=True)
    ev.add_argument("--b", required=True)
    ev.add_argument("--sliced-projections", type=int, default=64)
    ev.add_argument("--n-perm", type=int, default=200)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(handler=_cmd_evaluate)

    rp = sub.add_parser("run-preset", help="end-to-end toy experiment")
    rp.add_argument("--name", required=True, choices=sorted(PRESETS))
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--volume-mode", choices=["interpolant", "cube_mesh"],
                    default="interpolant")
    rp.add_argument("--out", required=True)
    rp.set_defaults(handler=_cmd_run_preset)

    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args) or 0
    except (EfmError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
