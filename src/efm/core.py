"""Shared configuration, validation, and the deterministic randomness contract."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np


class EfmError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(EfmError):
    pass


class DataError(EfmError):
    pass


class FieldError(EfmError):
    pass


class TransportError(EfmError):
    pass


class WeightFormatError(EfmError):
    pass


NOISE_MEAN_MODES = ("per_coordinate_L_half", "zero")
VOLUME_MODES = ("interpolant", "cube_mesh")
# Default one-sided-limit offset at a plate, as a fraction of plate_gap.
LIMIT_EPSILON_FRACTION = 1e-3


def _finite(value) -> bool:
    """Whether `value` is a number, not a bool, with a finite float value."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class CapacitorConfig:
    """Geometry and numerics of the two-plate system.

    dim_d is the data dimension D; plates live in the (D+1)-dimensional
    augmented space at z=0 (positive) and z=plate_gap (negative).
    limit_epsilon None (`null` in a config file or manifest) means the
    default plate_gap * LIMIT_EPSILON_FRACTION: small enough to act as a
    one-sided limit at a plate, large enough to stay clear of the
    field_epsilon regularization scale. `map_batch` resolves it from the gap
    it transports with, so `dataclasses.replace` of plate_gap moves it too.
    field_epsilon 0 is the exact field: a point on a charge then raises
    FieldError.
    Construction runs `validate_config`, so `dataclasses.replace` and
    `from_json_file` raise ConfigError on an invalid value too.
    """

    dim_d: int
    plate_gap: float
    noise_sigma: float = 0.001
    noise_mean_mode: str = "per_coordinate_L_half"
    volume_mode: str = "interpolant"
    field_epsilon: float = 1e-4
    limit_epsilon: float | None = None
    seed: int = 0

    def __post_init__(self):
        validate_config(self)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CapacitorConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config field: {unknown[0]}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing config field: {missing[0]}")
        return cls(**d)

    def to_json_file(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_file(cls, path) -> "CapacitorConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(raw)


def validate_config(cfg: CapacitorConfig) -> None:
    """Check every config invariant, reporting the first violated one by name."""
    if not isinstance(cfg.dim_d, (int, np.integer)) or isinstance(cfg.dim_d, bool) or cfg.dim_d < 1:
        raise ConfigError("dim_d must be >= 1")
    if not _finite(cfg.plate_gap) or cfg.plate_gap <= 0:
        raise ConfigError("plate_gap must be positive")
    if not _finite(cfg.noise_sigma) or cfg.noise_sigma < 0:
        raise ConfigError("noise_sigma must be nonnegative")
    if cfg.noise_mean_mode not in NOISE_MEAN_MODES:
        raise ConfigError(f"noise_mean_mode must be one of {NOISE_MEAN_MODES}")
    if cfg.volume_mode not in VOLUME_MODES:
        raise ConfigError(f"volume_mode must be one of {VOLUME_MODES}")
    if not _finite(cfg.field_epsilon) or cfg.field_epsilon < 0:
        raise ConfigError("field_epsilon must be nonnegative")
    if cfg.limit_epsilon is not None and (not _finite(cfg.limit_epsilon)
                                          or not 0 < cfg.limit_epsilon < cfg.plate_gap / 10):
        raise ConfigError("limit_epsilon must lie in (0, plate_gap/10)")
    if not isinstance(cfg.seed, (int, np.integer)) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")


def seeded_stream(seed: int, substream_label: str) -> np.random.Generator:
    """Deterministic, label-addressed random stream.

    The generator is PCG64 seeded from (seed, SHA-256(label)), so identical
    (seed, label) pairs reproduce the same draw sequence on any platform
    running the same numpy generator algorithm, and distinct labels give
    statistically independent streams.
    """
    digest = hashlib.sha256(substream_label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))
