"""Two-sample distances used to test distribution transport quantitatively.

The energy distance and its permutation null come from one pooled pass.
`energy_distance(a, b, n_perm, stream)` subsamples each side once, stacks
both into the pooled (N, D) `pool` once (`_pooled`) and runs
`_energy_statistics(pool, labels)` once, where `labels` is an
(N, 1 + n_perm) boolean matrix: column 0 marks the rows of sample a, and
column j > 0 those of a in permutation j. The kernel computes each
unordered pair of the pooled N×N Euclidean distance matrix once per chunk
of label columns, in row blocks sized to a core's L2 cache, and reads
every labelling's E|a-b|, E|a-a'| and E|b-b'| from the row sums and one
indicator product per label column (Székely & Rizzo, energy statistics).
Column 0 is the statistic; the other columns give the null quantiles.

Distances: below `_BLAS_MIN_DIM` coordinates (D alone, whatever the number
of label columns) a block is exact (`_exact_distances`): each coordinate's
differences x_i - x_j come from one exact two-term BLAS product of factors
built once per call (`_difference_factors`), are squared and added in
coordinate order, and the square root is taken, so every distance equals
scipy's `cdist` bit for bit. From there on a block is the field kernel's
squared-distance block, `efm.field._squared_distances`: one BLAS product,
then a square root, where the exact block makes three passes over the
block per coordinate. The two cross between D=3 and D=4 on a 2-vCPU host
(CHANGES.md); at D=33 the BLAS block takes half of `cdist`'s time on one
CPU. For the BLAS block the pool is centred on its mean first
(`_pooled`), and every squared distance at or under the expansion's
coincidence floor 4 eps (|p|^2 + |s|^2) is set to 0, so self-pairs and
duplicated points give exactly 0, as with the exact block. Accuracy: a squared distance is off by a few ulps of
|p|^2 + |s|^2, measured from the pool's mean, so a pair's distance r has a
relative error of about eps (|p|^2 + |s|^2) / r^2. Only pairs far closer
together than they are to the mean lose digits, and they add little to the
means: the statistic agrees with a difference-tensor reference to 1e-12 of
its scale at D=16, 33 and 64, on data shifted by +100 too.

`sliced_w1` projects both samples on a chunk of directions at a time, sorts
each side, merges the two sorted runs with one stable argsort and reads both
empirical CDFs from a running count of the merged rows that came from a.

Threads: both metrics share their independent pieces (energy row blocks,
sliced-W1 chunks of directions) between the caller and one worker thread
through `efm.field._split`, and the caller reduces every piece's result in
piece order, so each statistic is bit-identical to a one-thread run. Work
too small or too fine-grained to gain (`_SPLIT_MIN_*`) starts no thread;
at N=512, the size of the benchmark's trace workload, nothing does. The
worker runs only numpy, `_exact_distances` and
`efm.field._squared_distances`, never a function the benchmark's tracer
wraps.

Memory: the float temporaries stay bounded in bytes at any N, D and number
of permutations. A distance block holds at most `_PAIR_BLOCK` entries (the
field kernel's L2-sized block; an exact null's, at most twice that) and is
written into each thread's own workspace, next to a scratch block of the
same size: the exact block's squared differences, or the BLAS block's
|p|^2 + |s|^2. A BLAS block also takes its bool floor mask from there, so
it gets no null's row floor. The pool is centred in place, not copied; the
exact block's difference factors hold 4 N D floats. Label columns are
reduced in chunks of at most `_LABEL_BLOCK` entries per float temporary
(the first chunk's ones column aside). The partial sums of the row blocks
that run at once are stored in rounds of at most `_PAIR_BLOCK` floats.
Only the boolean label matrix grows with `n_perm`. A sliced-W1 chunk of
directions holds at most `_PAIR_BLOCK` projections, or one direction's N
when N is larger, so its temporaries stay O(N) whatever the number of
directions; one-direction chunks run on the caller alone, so two of them
are never alive at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DataError
from .field import _PAIR_BLOCK, _split, _squared_distances, _workspace

# Exact O(n^2) sums get expensive past this; larger inputs are subsampled.
MAX_EXACT_SIDE = 4096

# Float entries per chunk of label columns (4 MB of float64).
_LABEL_BLOCK = 500_000

# Fewest rows per exact distance block of a permutation null, while the
# block stays within 2 * _PAIR_BLOCK entries (so its dist and scratch pair
# within 4 * _PAIR_BLOCK floats): with several label columns, OpenBLAS runs
# a 16-row block's products at about half the rate of a 128-row block's.
_NULL_MIN_ROWS = 32

# From this many coordinates on, a distance block is one BLAS product
# (`efm.field._squared_distances`) instead of the exact block
# (`_exact_distances`). Measured on a 2-vCPU host with one BLAS thread
# (CHANGES.md): the exact block is faster at D=2 and 3 (a tie at D=3 with
# 2048 + 2048 points), the BLAS block from D=4 on.
_BLAS_MIN_DIM = 4

# When `efm.field._split` hands work to a second thread. Measured on a 2-vCPU
# host with one BLAS thread (CHANGES.md): a thread's start costs 0.25-0.6 ms,
# so the worker's share must hold at least _SPLIT_MIN_PAIRS pair distances
# (energy) or _SPLIT_MIN_PROJECTIONS projected values (sliced W1); and an
# energy block with fewer than _SPLIT_MIN_WIDTH coordinates plus label
# columns per pair is so light that the two threads' hand-offs of the GIL
# between its numpy calls cost what the second core saves.
_SPLIT_MIN_PAIRS = 2 * _PAIR_BLOCK
_SPLIT_MIN_PROJECTIONS = _PAIR_BLOCK // 2
_SPLIT_MIN_WIDTH = 16

NULL_QUANTILES = (0.50, 0.90, 0.95, 0.99)


@dataclass
class DistanceReport:
    statistic: float
    n_a: int
    n_b: int
    null_quantiles: dict | None = None

    def to_dict(self) -> dict:
        d = {"statistic": self.statistic, "n_a": self.n_a, "n_b": self.n_b}
        if self.null_quantiles is not None:
            d["null_quantiles"] = {str(k): v for k, v in self.null_quantiles.items()}
        return d


def _exact_distances(diffs, r0, r1, out, scratch) -> None:
    """Euclidean distances of points r0:r1 to points r0: of the pool that
    `diffs` holds, written into `out` (r1 - r0, N - r0), with `scratch` of
    the same shape.

    `diffs` holds, per coordinate x, the (N, 2) [x | 1] and the (2, N)
    [1 ; -x] (`_difference_factors`), whose product x_i - x_j is exact: both
    terms are exact products, so BLAS rounds their sum once, as a
    subtraction does, and forms it at twice the rate of numpy's broadcast
    subtraction. Each pair's squared differences are added in coordinate
    order before the square root, as scipy's `cdist` adds them, so the block
    equals `cdist`'s bit for bit."""
    lefts, rights = diffs
    for k in range(len(lefts)):
        term = scratch if k else out
        np.matmul(lefts[k, r0:r1], rights[k, :, r0:], out=term)
        np.multiply(term, term, out=term)
        if k:
            out += term
    np.sqrt(out, out=out)


def _difference_factors(pool):
    """Per coordinate x of the (N, D) `pool`, the factors [x | 1] (D, N, 2)
    and [1 ; -x] (D, 2, N) of `_exact_distances`."""
    coords = pool.T
    ones = np.ones_like(coords)
    return np.stack([coords, ones], axis=2), np.stack([ones, -coords], axis=1)


def _as_points(x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(getattr(x, "points", x), dtype=float))
    if len(pts) == 0:
        raise DataError("dataset is empty")
    if not np.isfinite(pts).all():
        raise DataError("dataset has non-finite coordinates")
    return pts


def _point_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise DataError("datasets must share a dimension")
    return pa, pb


def _maybe_subsample(pts):
    if len(pts) > MAX_EXACT_SIDE:
        warnings.warn(f"energy_distance: subsampling {len(pts)} points to "
                      f"{MAX_EXACT_SIDE} for the exact pairwise sums")
        stride = np.linspace(0, len(pts) - 1, MAX_EXACT_SIDE).round().astype(int)
        return pts[stride]
    return pts


def _row_rounds(n, rows, floats):
    """Starts of the row blocks of n rows, `rows` each, in runs whose stored
    partials, `floats(r0)` floats per block, total at most `_PAIR_BLOCK`
    (a run holds at least one block)."""
    run, held = [], 0
    for r0 in range(0, n, rows):
        if run and held + floats(r0) > _PAIR_BLOCK:
            yield run
            run, held = [], 0
        run.append(r0)
        held += floats(r0)
    if run:
        yield run


def _energy_statistics(pool, labels) -> np.ndarray:
    """Energy distance 2 E|a-b| - E|a-a'| - E|b-b'| for each labelling.

    pool: (N, D) points; labels: (N, k) bool, column j marks sample a of
    labelling j (every column needs at least one True and one False row).
    Returns k V-statistics, clamped at 0.

    Each unordered pair's distance is computed once. Row block r0:r1 is
    measured against rows r0: only, a (rows, N - r0) block of at most
    `_PAIR_BLOCK` entries that fits in a core's L2 cache. Below
    `_BLAS_MIN_DIM` coordinates `_exact_distances` builds the block from
    `pool`'s difference factors, next to its scratch block in the same
    workspace buffer (with k > 1, at least `_NULL_MIN_ROWS` rows while that
    stays within twice as many entries). From there on
    `efm.field._squared_distances` forms it with one BLAS product, next to
    its |p|^2 + |s|^2 block in that buffer; entries at or under the
    coincidence floor are set to 0 and the square root is taken in place.
    That path expects `pool` centred, as `_pooled` stacks it. The block's
    diagonal part is halved in place, so 2·x_rᵀ(block · x_r0:) adds both
    orders of every pair the block holds. The same halved block gives the
    row sums: its row sums over its rows and its column sums over its
    columns. In the first chunk a ones column leads the label matrix, so
    one BLAS product gives the block's row sums and label products, and one
    vector product its column sums.
    The statistic is symmetric in a and b, so x marks each column's smaller
    sample and y its larger one: with the full row sums r and S_xx = xᵀDx,
    S_xy = rᵀx - S_xx and S_yy = Σr - S_xx - 2 S_xy, whose rounding is then
    divided by the larger n_y². Label columns are taken in chunks of at
    most `_LABEL_BLOCK` float entries; each chunk recomputes the distances.

    Threads: a block's partials (its row sums and column sums in the first
    chunk, and its S_xx term per label column) depend on that block alone,
    so the blocks go through `efm.field._split` in runs, the leading ones on
    the caller and the trailing ones on one worker thread. The caller then
    adds every block's partials in block order, so the result is
    bit-identical to one thread's. Each thread forms its distances in its
    own workspace block, and a run's stored partials total at most
    `_PAIR_BLOCK` floats. No thread starts when the worker's share of a run
    holds fewer than `_SPLIT_MIN_PAIRS` pairs, or when D plus the chunk's
    label columns is below `_SPLIT_MIN_WIDTH`.
    """
    n = len(pool)
    n_a = labels.sum(axis=0)
    flip = n_a > n - n_a
    n_x = np.where(flip, n - n_a, n_a)
    n_y = n - n_x
    k = labels.shape[1]
    row_sum = np.zeros(n)
    s_xx, s_xy = np.zeros(k), np.zeros(k)
    blas = pool.shape[1] >= _BLAS_MIN_DIM
    if blas:
        pool_sq = np.einsum("ij,ij->i", pool, pool)
    else:
        diffs = _difference_factors(pool)
    rows = max(1, _PAIR_BLOCK // n)
    # an exact null: its products are slow below _NULL_MIN_ROWS rows
    if k > 1 and not blas:
        rows = max(rows, min(_NULL_MIN_ROWS, 2 * _PAIR_BLOCK // n))
    ones = np.ones(rows)
    cols = max(1, _LABEL_BLOCK // n)
    for c0 in range(0, k, cols):
        c = slice(c0, c0 + cols)
        # the first chunk also collects the row sums: a ones column leads its
        # labels, so the label product gives each block's row sums too
        first = int(c0 == 0)
        lab = np.empty((n, first + len(flip[c])))
        lab[:, :first] = 1.0
        in_x = lab[:, first:]
        np.not_equal(labels[:, c], flip[c], out=in_x)

        def partials(r0):
            r1 = min(r0 + rows, n)
            shape = (r1 - r0, n - r0)
            size = shape[0] * shape[1]
            buf = _workspace("energy_dist", 2 * rows * n)
            dist, scratch = buf[:size].reshape(shape), buf[size:2 * size].reshape(shape)
            if blas:
                near = _workspace("energy_near", rows * n, bool)[:size].reshape(shape)
                _squared_distances(pool[r0:r1], pool[r0:], pool_sq[r0:], dist, scratch, near)
                np.copyto(dist, 0.0, where=near)
                np.sqrt(dist, out=dist)
            else:
                _exact_distances(diffs, r0, r1, dist, scratch)
            dist[:, :r1 - r0] *= 0.5
            prod = dist @ lab[r0:]
            sxx = 2.0 * np.einsum("ij,ij->j", in_x[r0:r1], prod[:, first:])
            return (prod[:, 0].copy(), ones[:r1 - r0] @ dist) if first else None, sxx

        width = pool.shape[1] + in_x.shape[1]
        min_pairs = _SPLIT_MIN_PAIRS if width >= _SPLIT_MIN_WIDTH else math.inf
        for run in _row_rounds(n, rows, lambda r0: (rows + n - r0 if first else 0) + in_x.shape[1]):
            costs = [min(rows, n - r0) * (n - r0) for r0 in run]
            for r0, (sums, sxx) in zip(run, _split(partials, run, costs, min_pairs)):
                if first:
                    row_sum[r0:r0 + rows] += sums[0]
                    row_sum[r0:] += sums[1]
                s_xx[c] += sxx
        s_xy[c] = row_sum @ in_x - s_xx[c]
    s_yy = row_sum.sum() - s_xx - 2.0 * s_xy
    stat = 2.0 * s_xy / (n_x * n_y) - s_xx / (n_x * n_x) - s_yy / (n_y * n_y)
    return np.maximum(stat, 0.0)


def _pooled(pa, pb) -> np.ndarray:
    """The (N, D) stack of both samples, centred on its mean from
    `_BLAS_MIN_DIM` coordinates on, where `_energy_statistics` forms its
    distances by the quadratic expansion, whose error grows with |p|^2."""
    pool = np.vstack([pa, pb])
    if pool.shape[1] >= _BLAS_MIN_DIM:
        pool -= pool.mean(axis=0)
    return pool


def energy_distance(a, b, n_perm: int = 0, stream=None) -> DistanceReport:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs (V-statistic); with
    n_perm > 0 (at least 50), also the quantiles of its permutation null.

    One pass (see the module docstring); label column j > 0 takes the j-th
    permutation of N drawn from `stream`. They are drawn in chunks of at
    most `_PAIR_BLOCK` int64 entries, one `stream.permuted` call per chunk,
    which shuffles each row with the Fisher-Yates draws of
    `stream.permutation(N)`: the labels, and the stream position left for
    the caller, are those of one `permutation` call per column. OpenBLAS
    rounds the label product by its column count, so a statistic with a
    null can differ from the n_perm=0 one in its last bits.
    """
    if n_perm and n_perm < 50:
        raise DataError("n_perm must be >= 50")
    if n_perm and stream is None:
        raise DataError("a permutation null needs a stream")
    pa, pb = _point_pair(a, b)
    pa, pb = _maybe_subsample(pa), _maybe_subsample(pb)
    pool = _pooled(pa, pb)
    n = len(pool)
    labels = np.zeros((n, 1 + n_perm), dtype=bool)
    labels[:len(pa), 0] = True
    rows = max(1, _PAIR_BLOCK // n)
    for j0 in range(1, 1 + n_perm, rows):
        j = np.arange(j0, min(j0 + rows, 1 + n_perm))
        perms = stream.permuted(np.broadcast_to(np.arange(n), (len(j), n)), axis=1)
        labels[perms[:, :len(pa)], j[:, None]] = True
    stats = _energy_statistics(pool, labels)
    rep = DistanceReport(float(stats[0]), len(pa), len(pb))
    if n_perm:
        qs = np.quantile(stats[1:], NULL_QUANTILES)
        rep.null_quantiles = {f"{int(q * 100)}%": float(v) for q, v in zip(NULL_QUANTILES, qs)}
    return rep


def sliced_w1(a, b, n_projections: int, stream) -> DistanceReport:
    """Mean 1-D Wasserstein-1 over n_projections unit directions drawn from
    `stream` (see efm.core.seeded_stream).

    The directions are drawn up front and taken in chunks of at most
    `_PAIR_BLOCK` projected values; each chunk's distances depend on it
    alone. The chunks go through `efm.field._split`: the leading ones on
    the caller, the trailing ones on one worker thread, their distances
    kept in direction order, so the mean is bit-identical to one thread's.
    No thread starts when the worker's share holds fewer than
    `_SPLIT_MIN_PROJECTIONS` projected values, or when a chunk holds one
    direction: N alone then fills `_PAIR_BLOCK`, and two such chunks alive
    at once would double the peak memory.
    """
    pa, pb = _point_pair(a, b)
    if n_projections < 1:
        raise DataError("n_projections must be >= 1")
    dim = pa.shape[1]
    dirs = stream.standard_normal((n_projections, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_a, n_b = len(pa), len(pb)
    chunk = max(1, _PAIR_BLOCK // (n_a + n_b))

    def chunk_w1(p0):
        # each side sorted, then one stable merge of the two sorted runs; a
        # name is rebound as soon as its array is dead, so at most four
        # (directions, N) temporaries are alive at once
        u = dirs[p0:p0 + chunk]
        merged = np.concatenate([np.sort(u @ pa.T, axis=1), np.sort(u @ pb.T, axis=1)], axis=1)
        order = np.argsort(merged, axis=1, kind="stable")
        merged = np.take_along_axis(merged, order, axis=1)
        # CDF counts at each step between merged values; a tie is a 0 step, so
        # the order within it is moot
        below = np.cumsum(order[:, :-1] < n_a, axis=1)
        del order
        cdf_diff = below / n_a
        below = np.subtract(np.arange(1, n_a + n_b), below, out=below)  # now from b
        cdf_diff -= below / n_b
        del below
        np.abs(cdf_diff, out=cdf_diff)
        return np.einsum("ij,ij->i", cdf_diff, np.diff(merged, axis=1))

    starts = range(0, n_projections, chunk)
    costs = [min(chunk, n_projections - p0) * (n_a + n_b) for p0 in starts]
    min_cost = _SPLIT_MIN_PROJECTIONS if chunk > 1 else math.inf
    vals = np.concatenate(_split(chunk_w1, starts, costs, min_cost))
    return DistanceReport(float(np.mean(vals)), n_a, n_b)
