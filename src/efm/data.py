"""Toy distribution generators and CSV persistence.

`save_csv` writes a binary shadow `<path>.f8` next to each CSV, and
`load_csv` reads the points from it instead of parsing the CSV, but only
while the shadow still describes that CSV's bytes (see `load_csv`).
"""

from __future__ import annotations

import functools
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

# `format_rows` formats a cell in bulk when 2**-36 <= |x| < 2**53. There the
# 17-digit decimal exponent X lies in [-11, 15], so |x| * 10**(16 - X), with
# |x| = m * 2**e, is m * 5**b / 2**s for b = 16 - X <= 27 (5**27 < 2**64) and
# a shift s in [0, 63]: one 128-bit product in two uint64 limbs. Every integer
# operand is typed, so numpy 1.x's value-based casting and numpy 2's NEP 50
# give the same uint64 arithmetic.
_FAST_MIN, _FAST_MAX = 2.0 ** -36, 2.0 ** 53
_X_MIN, _X_MAX = -11, 15
_POW5 = np.array([5 ** b for b in range(17 - _X_MIN)], dtype=np.uint64)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_ONE, _LOW32, _32, _63 = np.uint64(1), np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(63)
# A cell's bytes are gathered from a 32-byte source row: _ALPHABET, with the
# letters A..Q replaced by the cell's 17 significant digits. Each cell class
# (sign, X, significant digits left after the trailing zeros) has a template
# (`_template`) NUL-padded to _CELL - 1 bytes and ending in ","; the NULs are
# dropped once per chunk. The widest %.17g text, -1.2345678901234567e-308,
# takes 24 bytes.
_ALPHABET = "\0-.e,0123456789ABCDEFGHIJKLMNOPQ"
_CELL = 25
# Cells gathered at once. Their byte indices (intp) then take 100 KiB, no
# more than the chunk's other temporaries; a whole chunk's indices would be
# its largest allocation by far (0.5 MiB), and that shows in peak RSS.
_GATHER_CELLS = 512
# the source row's first 16 bytes, as little-endian words, "A" still blank
_HEAD = np.frombuffer(_ALPHABET[:15].encode() + b"\0", dtype="<u4")


def _quad_tables():
    """The 4 ASCII digits of 0..9999 as one little-endian word each, and
    how many of them are trailing zeros (4 for 0000)."""
    values = np.arange(10_000, dtype=np.uint16)
    text = np.empty((10_000, 4), dtype=np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        text[:, j] = values // np.uint16(p) % np.uint16(10) + np.uint16(48)
    zeros = sum((values % np.uint16(p) == 0).view(np.uint8) for p in (10, 100, 1000, 10_000))
    return text.view("<u4").ravel(), zeros


_QUAD_TEXT, _QUAD_ZEROS = _quad_tables()


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


def _template(neg: bool, X: int, nd: int) -> str:
    """The `%.17g` text of a value with sign `neg`, decimal exponent X
    (-11 <= X <= 15) and nd significant digits, its 17 digits written as the
    letters A..Q of _ALPHABET."""
    digits = "ABCDEFGHIJKLMNOPQ"[:max(nd, X + 1)]
    if X < -4:
        text = digits[0] + ("." + digits[1:] if nd > 1 else "") + "e-%02d" % -X
    elif X < 0:
        text = "0." + "0" * (-X - 1) + digits
    else:
        text = digits[:X + 1] + ("." + digits[X + 1:] if nd > X + 1 else "")
    return "-" * neg + text


@functools.cache
def _layouts() -> np.ndarray:
    """The source-row index of each of a cell's _CELL bytes, one row per cell
    class (neg, X, nd), in that order."""
    text = "".join(_template(neg, X, nd).ljust(_CELL - 1, "\0") + ","
                   for neg in (False, True) for X in range(_X_MIN, _X_MAX + 1)
                   for nd in range(1, 18))
    index = text.translate({ord(c): i for i, c in enumerate(_ALPHABET)}).encode("latin-1")
    return np.frombuffer(index, dtype=np.uint8).reshape(-1, _CELL)


def _scaled(m, e, X):
    """(q, r, s) with m * 2**e * 10**(16 - X) = q + r / 2**s and 0 <= r < 2**s,
    exactly, for uint64 m < 2**54 and the fast domain's exponents."""
    b = 16 - X
    f = _POW5[b]
    s = (-(e + b)).astype(np.uint64)
    # m * f = hi * 2**64 + lo, from 32-bit halves; mid < 2**54 + 2**63
    mh, ml, fh, fl = m >> _32, m & _LOW32, f >> _32, f & _LOW32
    mid = mh * fl + ml * fh
    low = ml * fl
    lo = low + (mid << _32)
    hi = mh * fh + (mid >> _32) + (lo < low)
    # q < 2**60, so the bits of hi shifted out of the word are zero
    q = ((hi << (_63 - s)) << _ONE) | (lo >> s)
    return q, lo & ((_ONE << s) - _ONE), s


def _significands(a):
    """(D, X) for magnitudes `a` in the fast domain: `'%.17g' % a` is the
    17-digit D in [10**16, 10**17), rounded half-even, times 10**(X - 16)."""
    frac, exp = np.frexp(a)
    m = (frac * 2.0 ** 54).astype(np.uint64)  # a = m * 2**e, 2**53 <= m < 2**54
    e = exp - 54
    X = np.floor(np.log10(a)).astype(np.int64)
    q, r, s = _scaled(m, e, X)
    # next to a power of ten log10 may be one off; the exact quotient says which way
    off = (q >= _E17).astype(np.int64) - (q < _E16)
    bad = np.flatnonzero(off)
    if bad.size:
        X[bad] += off[bad]
        q[bad], r[bad], s[bad] = _scaled(m[bad], e[bad], X[bad])
    # Rounding never carries q to 10**17: in the fast domain the double below
    # a power of ten is at least 4.5e-17 of it away, relatively, and half a
    # 17th digit is 5e-18.
    twice, half = r << _ONE, _ONE << s
    q += (twice > half) | ((twice == half) & ((q & _ONE) == _ONE))
    return q, X


def format_rows(block) -> bytes:
    """The CSV text of an (n, k) float64 block: each cell `'%.17g' % x`
    byte for byte, cells joined by commas and each row ended by a newline.

    A cell with 2**-36 <= |x| < 2**53 is formatted in bulk. Its 17-digit
    significand is the exact integer m * 5**b shifted right by s bits and
    rounded half-even (see _FAST_MIN), with the decimal exponent taken from
    log10 and fixed by one check of the quotient against [10**16, 10**17).
    Its text (sign, fixed or exponent form, trailing zeros stripped) is one
    gather from the per-class table `_layouts`. Every other cell (+-0,
    subnormals, |x| below 2**-36 or from 2**53 on, inf and nan) is
    formatted by Python's `'%.17g'`.
    """
    block = np.asarray(block, dtype=np.float64)
    n, k = block.shape
    x = block.ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= _FAST_MIN) & (a < _FAST_MAX)))
    a[slow] = 1.0  # their cells are overwritten below
    D, X = _significands(a)
    # D's digits: the leading one in `rest`, then four groups of four
    quads = np.empty((len(D), 4), dtype=np.int64)
    rest = D.astype(np.int64)
    for j in (3, 2, 1, 0):
        rest, quads[:, j] = np.divmod(rest, 10_000)
    source = np.empty((len(D), 8), dtype="<u4")
    source[:, :4] = _HEAD
    source[:, 3] |= (rest.astype(np.uint32) + np.uint32(48)) << np.uint32(24)
    source[:, 4:] = np.take(_QUAD_TEXT, quads)
    zeros = np.take(_QUAD_ZEROS, quads[:, 0])
    for j in (1, 2, 3):
        z = np.take(_QUAD_ZEROS, quads[:, j])
        zeros = np.where(z == 4, zeros + 4, z)
    cls = (np.signbit(x) * (_X_MAX - _X_MIN + 1) + X - _X_MIN) * 17 + 16 - zeros
    cells = np.empty((len(D), _CELL), dtype=np.uint8)
    flat = source.view(np.uint8).ravel()
    for i0 in range(0, len(D), _GATHER_CELLS):
        i1 = min(len(D), i0 + _GATHER_CELLS)
        index = np.take(_layouts(), cls[i0:i1], axis=0).astype(np.intp)
        index += np.arange(32 * i0, 32 * i1, 32)[:, None]
        np.take(flat, index, out=cells[i0:i1])
    if slow.size:
        text = "".join(("%.17g" % v).ljust(_CELL - 1, "\0") + "," for v in x[slow].tolist())
        cells[slow] = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, _CELL)
    cells.reshape(n, k, _CELL)[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def csv_chunk_rows(k: int) -> int:
    """Rows of a k-column block to format at once, so that about _CSV_CHUNK
    bytes of text are formed at a time."""
    return max(1, _CSV_CHUNK // (24 * k))  # a %.17g cell takes <= 24 bytes


def csv_chunks(block):
    """`format_rows` of an (n, k) block, `csv_chunk_rows(k)` rows at a time."""
    step = csv_chunk_rows(block.shape[1])
    return (format_rows(block[i0:i0 + step]) for i0 in range(0, len(block), step))


def save_csv(dataset: Dataset, path) -> None:
    """Write header x_1..x_D then one sample per line at 17 significant
    digits (`%.17g`), and the CSV's binary shadow `<path>.f8`.

    The rows are formatted by `format_rows` and hashed a chunk at a time
    (`csv_chunks`), so neither the text nor a list of every value is held
    at once. Most values are formatted in bulk; those outside its domain
    (+-0, |x| below 2**-36, |x| from 2**53 on) are formatted by Python.
    The shadow carries the SHA-256 of the CSV bytes just written: it is a
    cache that `load_csv` trusts only while that digest still matches the
    CSV, so deleting it costs only speed.
    """
    points = dataset.points
    digest = hashlib.sha256()
    header = (",".join(f"x_{i + 1}" for i in range(dataset.dim)) + "\n").encode()
    with open(path, "wb") as fh:
        for data in itertools.chain([header], csv_chunks(points)):
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
