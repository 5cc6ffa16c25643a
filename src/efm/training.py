"""Training loop: capacitor-volume point sampling and normalized-field regression."""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import CapacitorConfig, EfmError, seeded_stream
from .field import EmpiricalField, PlateSet
from .model import (EmaState, FieldApproximator, OptimizerState, ema_update, loss_and_gradient,
                    optimizer_step, save_weights)

DEFAULT_HIDDEN_DIMS = (128, 128, 128)
LEARNING_RATE = 2e-3
EMA_DECAY = 0.99
# cube_mesh draws from the plates' bounding box widened by this much per axis.
CUBE_MARGIN = 1.0


def sample_noise(cfg: CapacitorConfig, stream, n: int) -> np.ndarray:
    """(n, D+1) isotropic displacement noise for training points.

    Draws eps ~ N(mean, sigma^2 I) in D+1 dims (mean is plate_gap/2 per
    coordinate, or zero), then returns |eps| times an independent random
    unit direction. Note the per-coordinate mean makes |eps| concentrate
    near (plate_gap/2) * sqrt(D+1).
    """
    d = cfg.dim_d + 1
    mean = cfg.plate_gap / 2.0 if cfg.noise_mean_mode == "per_coordinate_L_half" else 0.0
    eps = mean + cfg.noise_sigma * stream.standard_normal((n, d))
    radius = np.linalg.norm(eps, axis=1, keepdims=True)
    m = stream.standard_normal((n, d))
    m_norm = np.linalg.norm(m, axis=1, keepdims=True)
    m_norm[m_norm == 0] = 1.0
    return radius * m / m_norm


def sample_interpolant(x_plus, x_minus, t, noise, plate_gap: float) -> np.ndarray:
    """Training points between plate samples: row-wise convex combinations
    of the (m, D+1) x_plus and x_minus at the (m,) heights t, plus noise.

    With zero noise the z-coordinate equals t exactly (t=0 at the positive
    plate, t=plate_gap at the negative plate).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > plate_gap):
        raise EfmError("t must lie in [0, plate_gap]")
    w = (t / plate_gap)[:, None]
    return w * x_minus + (1.0 - w) * x_plus + noise


def draw_training_points(field: EmpiricalField, cfg: CapacitorConfig,
                         batch_size: int, stream) -> np.ndarray:
    """A batch of training points from the volume `cfg.volume_mode` names:
    uniform over both plates' sample box +/- CUBE_MARGIN with z in
    [0, plate_gap] ("cube_mesh"), or noisy plate interpolants ("interpolant")."""
    if cfg.volume_mode == "cube_mesh":
        pos, neg = field.plate_pos.samples, field.plate_neg.samples
        lo = np.minimum(pos.min(axis=0), neg.min(axis=0)) - CUBE_MARGIN
        hi = np.maximum(pos.max(axis=0), neg.max(axis=0)) + CUBE_MARGIN
        return stream.uniform(np.append(lo, 0.0), np.append(hi, cfg.plate_gap),
                              size=(batch_size, cfg.dim_d + 1))
    idx_p = stream.choice(field.plate_pos.n, size=batch_size, p=field.plate_pos.weights)
    idx_n = stream.choice(field.plate_neg.n, size=batch_size, p=field.plate_neg.weights)
    x_plus = field.sources[idx_p]
    x_minus = field.sources[field.plate_pos.n + idx_n]
    t = stream.uniform(0.0, cfg.plate_gap, size=batch_size)
    noise = sample_noise(cfg, stream, batch_size)
    return sample_interpolant(x_plus, x_minus, t, noise, cfg.plate_gap)


def draw_batch(field: EmpiricalField, cfg: CapacitorConfig, batch_size: int, stream,
               mc_subsample: int | None = None):
    """The draw half of a training step: points from `draw_training_points`
    and their normalized exact-field targets, with degenerate
    (vanishing-field) rows dropped. With `mc_subsample`, the targets are the
    field of `field.subsample`, drawn from `stream` after the points.
    Returns (points, targets, n_dropped); never reads the net.
    """
    points = draw_training_points(field, cfg, batch_size, stream)
    if not np.all(np.isfinite(points)):
        raise EfmError("training produced non-finite points")
    if mc_subsample is not None:
        field = field.subsample(mc_subsample, stream)
    targets, degenerate = field.normalized(points)
    n_dropped = int(degenerate.sum())
    if n_dropped == len(points):
        raise EfmError("batch entirely degenerate: no usable field targets")
    if n_dropped:
        points, targets = points[~degenerate], targets[~degenerate]
    return points, targets, n_dropped


def update_net(net: FieldApproximator, optimizer: OptimizerState, ema: EmaState,
               points, targets) -> float:
    """The update half of a training step: one Adam step on the squared
    error against `targets`, then the EMA. Returns the batch loss."""
    loss, grad = loss_and_gradient(net, points, targets)
    optimizer_step(net, grad, optimizer)
    ema_update(ema, net)
    return loss


@dataclass
class TrainResult:
    net: FieldApproximator
    ema_net: FieldApproximator
    loss_curve: list  # rows (step, loss, dropped_targets)


def write_loss_curve(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "dropped_targets"])
        for step, loss, dropped in rows:
            writer.writerow([step, "%.17g" % loss, dropped])


def train(cfg: CapacitorConfig, data_pos, data_neg, n_steps: int, batch_size: int = 1024,
          hidden_dims=DEFAULT_HIDDEN_DIMS, mc_subsample: int | None = None,
          out_dir=None) -> TrainResult:
    """Fit the normalized-field network on a two-plate system with Adam at
    LEARNING_RATE and an EMA_DECAY parameter average.

    data_pos / data_neg are (n, D) sample arrays for the positive and
    negative plates. Checkpoints and a loss-curve CSV land in out_dir when
    given. Fully deterministic for a fixed cfg (its seed included).

    Each step's draw (`draw_batch`: points and their exact-field targets)
    runs one step ahead on one worker thread, overlapping the main thread's
    `update_net` of the net; the results equal a sequential replay of
    `draw_batch` then `update_net` bit for bit. The worker is joined before
    this returns or raises.
    """
    seed = cfg.seed
    pos = PlateSet(data_pos)
    neg = PlateSet(data_neg)
    if pos.dim != cfg.dim_d:
        raise EfmError(f"data dimension {pos.dim} does not match dim_d {cfg.dim_d}")
    if batch_size < 1:
        raise EfmError("batch_size must be >= 1")
    if n_steps < 0:
        raise EfmError("n_steps must be >= 0")
    if mc_subsample is not None and mc_subsample < 1:
        raise EfmError("mc_subsample must be a positive integer")
    field = EmpiricalField(pos, neg, cfg.plate_gap, cfg.field_epsilon)

    dim = cfg.dim_d + 1
    net = FieldApproximator.init_random([dim, *hidden_dims, dim],
                                        seeded_stream(seed, "train/init"))
    optimizer = OptimizerState.for_net(net, LEARNING_RATE)
    ema = EmaState.from_net(net, EMA_DECAY)

    draw = partial(draw_batch, field, cfg, batch_size, seeded_stream(seed, "train/loop"),
                   mc_subsample)
    n_steps = int(n_steps)
    curve = []
    # The draw of step k + 1 runs on the worker while this thread updates
    # the net with step k's batch: the targets never read the net, and the
    # one worker reads the loop stream in step order. Leaving the block
    # joins the worker, also when a step raises.
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(draw) if n_steps else None
        for step in range(n_steps):
            points, targets, dropped = ahead.result()
            if step + 1 < n_steps:
                ahead = worker.submit(draw)
            curve.append((step, update_net(net, optimizer, ema, points, targets), dropped))

    ema_net = ema.shadow.copy()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_weights(net, out / "weights.json", created_from_seed=seed)
        save_weights(ema_net, out / "weights_ema.json", created_from_seed=seed)
        write_loss_curve(curve, out / "loss_curve.csv")
    return TrainResult(net, ema_net, curve)
