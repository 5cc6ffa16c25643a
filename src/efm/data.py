"""Toy distribution generators and CSV persistence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError

# Swiss-roll parameterization, declared repo constants: angle range
# [1.5 pi, 4.5 pi], radius growing linearly to SWISS_ROLL_SCALE so the
# clean curve fits inside [-2.5, 2.5]^2.
SWISS_ROLL_THETA_MIN = 1.5 * np.pi
SWISS_ROLL_THETA_MAX = 4.5 * np.pi
SWISS_ROLL_SCALE = 2.5


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise DataError("empty dataset")
        if not np.all(np.isfinite(pts)):
            raise DataError("dataset points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def gen_gaussian(n: int, dim: int, mean=0.0, cov_diag=1.0, stream=None,
                 label: str = "gaussian") -> Dataset:
    """i.i.d. normal draws with diagonal covariance."""
    if n < 1:
        raise DataError("n must be >= 1")
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (dim,))
    cov = np.broadcast_to(np.asarray(cov_diag, dtype=float), (dim,))
    if np.any(cov < 0):
        raise DataError("covariance diagonal must be nonnegative")
    pts = mean + np.sqrt(cov) * stream.standard_normal((n, dim))
    return Dataset(pts, label)


def swiss_roll_curve(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    r = SWISS_ROLL_SCALE * theta / SWISS_ROLL_THETA_MAX
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def gen_swiss_roll(n: int, noise_std: float = 0.0, stream=None,
                   label: str = "swiss_roll") -> Dataset:
    """2-D spiral: uniform angle on the declared range, linear radius,
    plus isotropic Gaussian jitter."""
    if n < 1:
        raise DataError("n must be >= 1")
    theta = stream.uniform(SWISS_ROLL_THETA_MIN, SWISS_ROLL_THETA_MAX, size=n)
    pts = swiss_roll_curve(theta)
    if noise_std > 0:
        pts = pts + noise_std * stream.standard_normal((n, 2))
    return Dataset(pts, label)


def gen_two_gaussians(n: int, separation: float, stream=None, std: float = 1.0,
                      label: str = "two_gaussians") -> Dataset:
    """Equal-weight mixture of two isotropic Gaussians split along axis 0."""
    if n < 2:
        raise DataError("n must be >= 2")
    pts = std * stream.standard_normal((n, 2))
    side = stream.integers(0, 2, size=n) * 2 - 1
    pts[:, 0] += side * separation / 2.0
    return Dataset(pts, label)


def save_csv(dataset: Dataset, path) -> None:
    """Write header x_1..x_D then one sample per line at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{i + 1}" for i in range(dataset.dim)) + "\n")
        for row in dataset.points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_csv(path, label: str | None = None) -> Dataset:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise DataError(f"empty dataset: {path} has no header")
    header = lines[0].split(",")
    dim = len(header)
    expect = [f"x_{i + 1}" for i in range(dim)]
    if header != expect:
        raise DataError(f"bad header in {path}: expected {','.join(expect)}")
    if len(lines) == 1:
        raise DataError(f"empty dataset: {path} has a header but no rows")
    rows = np.empty((len(lines) - 1, dim))
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != dim:
            raise DataError(f"ragged row at line {i} of {path}: "
                            f"{len(cells)} cells, expected {dim}")
        try:
            rows[i - 2] = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"non-numeric cell at line {i} of {path}") from exc
    return Dataset(rows, label if label is not None else str(path))

