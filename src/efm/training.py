"""Training loop: capacitor-volume point sampling and normalized-field regression."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CapacitorConfig, EfmError, seeded_stream, validate_config
from .field import EmpiricalField, PlateSet
from .model import (EmaState, FieldApproximator, OptimizerState, ema_apply,
                    ema_update, loss_and_gradient, optimizer_step, save_weights)

DEFAULT_HIDDEN_DIMS = (128, 128, 128)
DEFAULT_ACTIVATION = "smooth_relu"


@dataclass(frozen=True)
class TrainingVolumeSampler:
    """Where training points come from: plate interpolation or a uniform box."""

    mode: str
    cfg: CapacitorConfig
    cube_lo: np.ndarray | None = None
    cube_hi: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("interpolant", "cube_mesh"):
            raise EfmError(f"unknown training-volume mode {self.mode!r}")
        if self.mode == "cube_mesh":
            if self.cube_lo is None or self.cube_hi is None:
                raise EfmError("cube_mesh mode requires cube bounds")
            lo = np.asarray(self.cube_lo, dtype=float)
            hi = np.asarray(self.cube_hi, dtype=float)
            if lo.shape != (self.cfg.dim_d + 1,) or hi.shape != lo.shape:
                raise EfmError("cube bounds must have length D+1")
            if not np.all(hi > lo):
                raise EfmError("cube bounds must satisfy lo < hi")
            if lo[-1] < 0.0 or hi[-1] > self.cfg.plate_gap:
                raise EfmError("cube z-range must lie within [0, plate_gap]")
            object.__setattr__(self, "cube_lo", lo)
            object.__setattr__(self, "cube_hi", hi)
        elif self.cube_lo is not None or self.cube_hi is not None:
            raise EfmError("cube bounds only apply to cube_mesh mode")

    @classmethod
    def from_plates(cls, cfg, field: EmpiricalField, margin: float = 1.0):
        """Cube bounds spanning both plates' samples plus a margin, z in [0, L]."""
        all_x = np.vstack([field.plate_pos.samples, field.plate_neg.samples])
        lo = np.append(all_x.min(axis=0) - margin, 0.0)
        hi = np.append(all_x.max(axis=0) + margin, cfg.plate_gap)
        return cls("cube_mesh", cfg, lo, hi)


def sample_noise(cfg: CapacitorConfig, stream, n: int | None = None) -> np.ndarray:
    """Isotropic displacement noise for training points.

    Draws eps ~ N(mean, sigma^2 I) in D+1 dims (mean is plate_gap/2 per
    coordinate, or zero), then returns |eps| times an independent random
    unit direction. Note the per-coordinate mean makes |eps| concentrate
    near (plate_gap/2) * sqrt(D+1).
    """
    d = cfg.dim_d + 1
    rows = 1 if n is None else int(n)
    mean = cfg.plate_gap / 2.0 if cfg.noise_mean_mode == "per_coordinate_L_half" else 0.0
    eps = mean + cfg.noise_sigma * stream.standard_normal((rows, d))
    radius = np.linalg.norm(eps, axis=1, keepdims=True)
    m = stream.standard_normal((rows, d))
    m_norm = np.linalg.norm(m, axis=1, keepdims=True)
    m_norm[m_norm == 0] = 1.0
    out = radius * m / m_norm
    return out[0] if n is None else out


def sample_interpolant(x_plus, x_minus, t, noise, plate_gap: float) -> np.ndarray:
    """Training point between plate samples: convex combination plus noise.

    With zero noise the z-coordinate equals t exactly (t=0 at the positive
    plate, t=plate_gap at the negative plate).
    """
    x_plus = np.atleast_2d(np.asarray(x_plus, dtype=float))
    x_minus = np.atleast_2d(np.asarray(x_minus, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    if np.any(t_arr < 0) or np.any(t_arr > plate_gap):
        raise EfmError("t must lie in [0, plate_gap]")
    w = t_arr / plate_gap
    out = w * x_minus + (1.0 - w) * x_plus + np.atleast_2d(noise)
    return out[0] if np.asarray(t).ndim == 0 else out


def sample_cube_mesh(sampler: TrainingVolumeSampler, n: int, stream) -> np.ndarray:
    """n points uniform over the sampler's box."""
    if sampler.mode != "cube_mesh":
        raise EfmError("sampler is not in cube_mesh mode")
    if n == 0:
        return np.empty((0, sampler.cfg.dim_d + 1))
    return stream.uniform(sampler.cube_lo, sampler.cube_hi,
                          size=(int(n), sampler.cfg.dim_d + 1))


def draw_training_points(field: EmpiricalField, sampler: TrainingVolumeSampler,
                         batch_size: int, stream) -> np.ndarray:
    cfg = sampler.cfg
    if sampler.mode == "cube_mesh":
        return sample_cube_mesh(sampler, batch_size, stream)
    idx_p = stream.choice(field.plate_pos.n, size=batch_size, p=field.plate_pos.weights)
    idx_n = stream.choice(field.plate_neg.n, size=batch_size, p=field.plate_neg.weights)
    x_plus = field.plate_pos.extended()[idx_p]
    x_minus = field.plate_neg.extended()[idx_n]
    t = stream.uniform(0.0, cfg.plate_gap, size=batch_size)
    noise = sample_noise(cfg, stream, batch_size)
    return sample_interpolant(x_plus, x_minus, t, noise, cfg.plate_gap)


def training_step(net: FieldApproximator, optimizer: OptimizerState, ema: EmaState,
                  field: EmpiricalField, batch_size: int,
                  sampler: TrainingVolumeSampler, stream):
    """One optimization step against normalized exact-field targets.

    Degenerate (vanishing-field) points are dropped from the batch and
    counted; returns (loss, n_dropped).
    """
    if batch_size < 1:
        raise EfmError("batch_size must be >= 1")
    points = draw_training_points(field, sampler, batch_size, stream)
    if not np.all(np.isfinite(points)):
        raise EfmError("training produced non-finite points")
    targets, degenerate = field.normalized(points, stream)
    keep = ~degenerate
    n_dropped = int(degenerate.sum())
    if not np.any(keep):
        raise EfmError("batch entirely degenerate: no usable field targets")
    loss, grads = loss_and_gradient(net, points[keep], targets[keep])
    optimizer_step(net, grads, optimizer)
    ema_update(ema, net)
    return loss, n_dropped


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


def train(cfg: CapacitorConfig, data_pos, data_neg, n_steps: int,
          batch_size: int = 1024, learning_rate: float = 2e-3,
          weight_decay: float = 0.0, ema_decay: float = 0.99,
          hidden_dims=DEFAULT_HIDDEN_DIMS, activation: str = DEFAULT_ACTIVATION,
          mc_subsample: int | None = None, out_dir=None, seed: int | None = None) -> TrainResult:
    """Fit the normalized-field network on a two-plate system.

    data_pos / data_neg are (n, D) sample arrays for the positive and
    negative plates. Checkpoints and a loss-curve CSV land in out_dir when
    given. Fully deterministic for a fixed (cfg, seed).
    """
    validate_config(cfg)
    if seed is None:
        seed = cfg.seed
    pos = PlateSet(np.asarray(data_pos, dtype=float), 0.0, +1)
    neg = PlateSet(np.asarray(data_neg, dtype=float), cfg.plate_gap, -1)
    if pos.dim != cfg.dim_d:
        raise EfmError(f"data dimension {pos.dim} does not match dim_d {cfg.dim_d}")
    field = EmpiricalField(pos, neg, cfg.field_epsilon, mc_subsample)
    if cfg.volume_mode == "cube_mesh":
        sampler = TrainingVolumeSampler.from_plates(cfg, field)
    else:
        sampler = TrainingVolumeSampler("interpolant", cfg)

    dim = cfg.dim_d + 1
    net = FieldApproximator.init_random([dim, *hidden_dims, dim], activation,
                                        seeded_stream(seed, "train/init"))
    optimizer = OptimizerState.for_net(net, learning_rate, weight_decay)
    ema = EmaState.from_net(net, ema_decay)

    loop_stream = seeded_stream(seed, "train/loop")
    curve = []
    for step in range(int(n_steps)):
        loss, dropped = training_step(net, optimizer, ema, field, batch_size,
                                      sampler, loop_stream)
        curve.append((step, loss, dropped))

    ema_net = ema_apply(ema)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_weights(net, out / "weights.json", created_from_seed=seed)
        save_weights(ema_net, out / "weights_ema.json", created_from_seed=seed)
        write_loss_curve(curve, out / "loss_curve.csv")
    return TrainResult(net, ema_net, curve)
