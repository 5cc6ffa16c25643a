"""Toy distribution generators and CSV persistence.

`save_csv` writes a binary shadow `<path>.f8` next to each CSV, and
`load_csv` reads the points from it instead of parsing the CSV, but only
while the shadow still describes that CSV's bytes (see `load_csv`).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import DataError

# Swiss-roll parameterization, declared repo constants: angle range
# [1.5 pi, 4.5 pi], radius growing linearly to SWISS_ROLL_SCALE so the
# clean curve fits inside [-2.5, 2.5]^2.
SWISS_ROLL_THETA_MIN = 1.5 * np.pi
SWISS_ROLL_THETA_MAX = 4.5 * np.pi
SWISS_ROLL_SCALE = 2.5

# Binary shadow of a CSV: an 8-byte magic and version, the SHA-256 of the
# CSV's bytes, n and D as little-endian int64, then the n*D float64 values
# row-major, little-endian. The 56-byte header keeps the payload 8-aligned.
_SHADOW_SUFFIX = ".f8"
_SHADOW_MAGIC = b"efm.f8\x00\x01"
_SHADOW_HEADER = struct.Struct("<8s32sqq")
# Bytes of CSV text formed or hashed at once, so no file is held in memory.
_CSV_CHUNK = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """Finite (n, D) sample points, read-only.

    `sha256` is the hex SHA-256 of the CSV bytes `load_csv` read the points
    from, when it hashed them to trust the CSV's shadow; otherwise None.
    """

    points: np.ndarray
    sha256: str | None = field(default=None, compare=False, repr=False)

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


def gen_gaussian(n: int, dim: int, mean=0.0, cov_diag=1.0, *, stream) -> Dataset:
    """i.i.d. normal draws with diagonal covariance, from `stream`."""
    if n < 1:
        raise DataError("n must be >= 1")
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (dim,))
    cov = np.broadcast_to(np.asarray(cov_diag, dtype=float), (dim,))
    if np.any(cov < 0):
        raise DataError("covariance diagonal must be nonnegative")
    pts = mean + np.sqrt(cov) * stream.standard_normal((n, dim))
    return Dataset(pts)


def swiss_roll_curve(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    r = SWISS_ROLL_SCALE * theta / SWISS_ROLL_THETA_MAX
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def gen_swiss_roll(n: int, noise_std: float = 0.0, *, stream) -> Dataset:
    """2-D spiral: uniform angle on the declared range, linear radius,
    plus isotropic Gaussian jitter, from `stream`."""
    if n < 1:
        raise DataError("n must be >= 1")
    theta = stream.uniform(SWISS_ROLL_THETA_MIN, SWISS_ROLL_THETA_MAX, size=n)
    pts = swiss_roll_curve(theta)
    if noise_std > 0:
        pts = pts + noise_std * stream.standard_normal((n, 2))
    return Dataset(pts)


def gen_two_gaussians(n: int, separation: float, stream, std: float = 1.0) -> Dataset:
    """Equal-weight mixture of two isotropic Gaussians split along axis 0,
    from `stream`."""
    if n < 2:
        raise DataError("n must be >= 2")
    pts = std * stream.standard_normal((n, 2))
    side = stream.integers(0, 2, size=n) * 2 - 1
    pts[:, 0] += side * separation / 2.0
    return Dataset(pts)


def save_csv(dataset: Dataset, path) -> None:
    """Write header x_1..x_D then one sample per line at 17 significant
    digits, and the CSV's binary shadow `<path>.f8`.

    The rows are formatted and hashed a chunk at a time, so neither the
    text nor a list of every value is held at once. The shadow carries
    the SHA-256 of the CSV bytes just written: it is a cache that
    `load_csv` trusts only while that digest still matches the CSV, so
    deleting it costs only speed.
    """
    points = dataset.points
    digest = hashlib.sha256()
    header = ",".join(f"x_{i + 1}" for i in range(dataset.dim)) + "\n"
    row = ",".join(["%.17g"] * dataset.dim) + "\n"
    step = max(1, _CSV_CHUNK // (24 * dataset.dim))  # a %.17g cell takes <= 24 bytes
    chunks = ("".join(row % tuple(v) for v in points[i0:i0 + step].tolist())
              for i0 in range(0, dataset.n, step))
    with open(path, "wb") as fh:
        for text in itertools.chain([header], chunks):
            data = text.encode()
            fh.write(data)
            digest.update(data)
    with open(os.fspath(path) + _SHADOW_SUFFIX, "wb") as fh:
        fh.write(_SHADOW_HEADER.pack(_SHADOW_MAGIC, digest.digest(), dataset.n, dataset.dim))
        fh.write(np.ascontiguousarray(points, dtype="<f8"))


def _csv_digest(path, n: int, dim: int):
    """SHA-256 of the file at `path`, hashed a chunk at a time, or None
    when it cannot be read or is not n rows under a D-wide header
    (n + 1 newlines)."""
    digest = hashlib.sha256()
    buf = bytearray(_CSV_CHUNK)
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            if header.count(b",") + 1 != dim:
                return None
            digest.update(header)
            newlines = header.count(b"\n")
            while size := fh.readinto(buf):
                digest.update(memoryview(buf)[:size])
                newlines += buf.count(b"\n", 0, size)
    except OSError:
        return None
    return digest.digest() if newlines == n + 1 else None


def _read_shadow(path):
    """(the (n, D) points of the shadow `<path>.f8`, the CSV's SHA-256), or
    None unless its magic, length, shape and digest all match the CSV at
    `path`. With no shadow there, the CSV is not opened."""
    try:
        fh = open(os.fspath(path) + _SHADOW_SUFFIX, "rb")
    except OSError:
        return None
    with fh:
        head = fh.read(_SHADOW_HEADER.size)
        if len(head) < _SHADOW_HEADER.size:
            return None
        magic, digest, n, dim = _SHADOW_HEADER.unpack(head)
        if (magic != _SHADOW_MAGIC or n < 1 or dim < 1
                or os.fstat(fh.fileno()).st_size != _SHADOW_HEADER.size + 8 * n * dim
                or _csv_digest(path, n, dim) != digest):
            return None
        points = np.fromfile(fh, dtype="<f8", count=n * dim)
    return (points.reshape(n, dim), digest) if points.size == n * dim else None


def _parse_rows(rows) -> np.ndarray:
    """Comma-separated float rows as an (n, D) array, by numpy's C parser.
    With comments=None a "#" is a bad cell, not the start of a comment."""
    return np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)


def load_csv(path) -> Dataset:
    """The points of a CSV written by `save_csv`, or by hand in its format.

    When `<path>.f8` is a current shadow of the CSV (magic, file length,
    n and D against the CSV's newline count and header width, and the
    SHA-256 of the CSV's bytes all match), its float64 payload is
    returned as is: `%.17g` round-trips every finite double, so these are
    exactly the values a parse would give, with the digest just checked as
    `Dataset.sha256`. In every other case (no shadow, a shadow of other
    bytes, a damaged one) the CSV is parsed; without a shadow it is not
    hashed at all. The parse raises DataError naming the first bad line: a
    non-numeric cell (bytes that are not UTF-8 count as one) or a ragged row.
    """
    shadow = _read_shadow(path)
    if shadow is not None:
        return Dataset(shadow[0], shadow[1].hex())
    try:
        # a byte that is not UTF-8 decodes to a lone surrogate, which no
        # number or header contains, so the bad line is named below
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # blank lines are skipped, but rows keep the line numbers of the file
    lines = [(i, ln) for i, ln in enumerate(lines, start=1) if ln.strip()]
    if not lines:
        raise DataError(f"empty dataset: {path} has no header")
    header_line, header = lines[0][0], lines[0][1].split(",")
    dim = len(header)
    expect = [f"x_{i + 1}" for i in range(dim)]
    if header != expect:
        raise DataError(f"bad header at line {header_line} of {path}: "
                        f"expected {','.join(expect)}")
    body = lines[1:]
    if not body:
        raise DataError(f"empty dataset: {path} has a header but no rows")
    # rows before the first ragged one are parsed first, so the error named
    # is the first bad line of the file, whichever kind it is
    cut = next((k for k, (_, ln) in enumerate(body) if ln.count(",") != dim - 1), len(body))
    if cut:
        try:
            points = _parse_rows([ln for _, ln in body[:cut]])
        except ValueError as exc:
            for i, ln in body[:cut]:
                try:
                    _parse_rows([ln])
                except ValueError:
                    raise DataError(f"non-numeric cell at line {i} of {path}") from exc
            raise
    if cut < len(body):
        i, ln = body[cut]
        raise DataError(f"ragged row at line {i} of {path}: "
                        f"{ln.count(',') + 1} cells, expected {dim}")
    return Dataset(points)
