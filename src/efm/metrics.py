"""Two-sample distances used to test distribution transport quantitatively.

The energy distance and its permutation null come from one pooled pass.
`_energy_statistics(pool, labels)` computes each unordered pair of the
pooled N×N Euclidean distance matrix once, in row blocks sized to a core's
L2 cache, and reads every labelling's E|a-b|, E|a-a'| and E|b-b'| from the
row sums and one indicator product per label column (Székely & Rizzo,
energy statistics). `energy_distance` is that kernel with one labelling,
and the null is the same kernel with one label column per permutation.

`permutation_null` runs `_energy_statistics(pool, labels)` once: `pool` is
the (N, D) stack of both samples and `labels` an (N, n_perm) boolean matrix
whose column j marks the rows of sample a in permutation j.

Distances: below `_BLAS_MIN_DIM` coordinates (D alone, whatever the number
of label columns) a block is one `cdist` call. From there on it is the field
kernel's squared-distance block, `efm.field._squared_distances`: one BLAS
product, then a square root, where `cdist` loops over the coordinates of
each pair. The two cross between D=8 and D=12 on a 2-vCPU host
(CHANGES.md); at D=33 the BLAS block takes half of `cdist`'s time on one
CPU. The pool is centred on its mean first (`_pooled`), and every squared
distance at or under the expansion's coincidence floor 4 eps (|p|^2 +
|s|^2) is set to 0, so self-pairs and duplicated points give exactly 0, as
with `cdist`. Accuracy: a squared distance is off by a few ulps of |p|^2 +
|s|^2, measured from the pool's mean, so a pair's distance r has a relative
error of about eps (|p|^2 + |s|^2) / r^2. Only pairs far closer together
than they are to the mean lose digits, and they add little to the means:
the statistic agrees with a difference-tensor reference to 1e-12 of its
scale at D=16, 33 and 64, on data shifted by +100 too.

`sliced_w1` projects both samples on a chunk of directions at a time, sorts
each side, merges the two sorted runs with one stable argsort and reads both
empirical CDFs from a running count of the merged rows that came from a.

Threads: both metrics share their independent pieces (energy row blocks,
sliced-W1 chunks of directions) between the caller and one worker thread
through `efm.field._split`, and the caller reduces every piece's result in
piece order, so each statistic is bit-identical to a one-thread run. Work
too small or too fine-grained to gain (`_SPLIT_MIN_*`) starts no thread;
at N=512, the size of the benchmark's trace workload, nothing does. The
worker runs only numpy, `cdist` and `efm.field._squared_distances`, never
a function the benchmark's tracer wraps.

Memory: the float temporaries stay bounded in bytes at any N, D and number
of permutations. A distance block holds at most `_PAIR_BLOCK` entries (the
field kernel's L2-sized block; a `cdist` null's, at most twice that) and is
written into each thread's own workspace. A BLAS block also takes its
|p|^2 + |s|^2 block and its bool floor mask from there, so it gets no
null's row floor: its floats already total twice `_PAIR_BLOCK`. The pool
is centred in place, not copied. Label columns are reduced in chunks of
at most `_LABEL_BLOCK` entries per float temporary. The
partial sums of the row blocks that run at once are stored in rounds of at
most `_PAIR_BLOCK` floats. Only the boolean label matrix grows with
`n_perm`. A sliced-W1 chunk of directions holds at
most `_PAIR_BLOCK` projections, or one direction's N when N is larger, so
its temporaries stay O(N) whatever the number of directions; one-direction
chunks run on the caller alone, so two of them are never alive at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import DataError
from .field import _PAIR_BLOCK, _split, _squared_distances, _workspace

# Exact O(n^2) sums get expensive past this; larger inputs are subsampled.
MAX_EXACT_SIDE = 4096

# Float entries per chunk of label columns (4 MB of float64).
_LABEL_BLOCK = 500_000

# Fewest rows per distance block of a permutation null, while a block stays
# within 2 * _PAIR_BLOCK entries: with several label columns, OpenBLAS runs
# a 16-row block's products at about half the rate of a 128-row block's.
_NULL_MIN_ROWS = 32

# From this many coordinates on, a distance block is one BLAS product
# (`efm.field._squared_distances`) instead of `cdist`. Measured on a 2-vCPU
# host with one BLAS thread at N=2048 (CHANGES.md): `cdist` is faster at
# D=8, the BLAS block from D=12 on.
_BLAS_MIN_DIM = 12

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


def _subsampled_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = _point_pair(a, b)
    return _maybe_subsample(pa), _maybe_subsample(pb)


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
    `_BLAS_MIN_DIM` coordinates the block is `cdist`-ed (with k > 1, at
    least `_NULL_MIN_ROWS` rows while that stays within twice as many
    entries). From there on `efm.field._squared_distances` forms it with
    one BLAS product, next to its |p|^2 + |s|^2 block in the same workspace
    buffer; entries at or under the coincidence floor are set to 0 and the
    square root is taken in place. That path expects `pool` centred, as
    `_pooled` stacks it. The block's diagonal part is halved in place, so
    2·x_rᵀ(block · x_r0:) adds both orders of every pair the block holds.
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
    rows = max(1, _PAIR_BLOCK // n)
    # a cdist null: its products are slow below _NULL_MIN_ROWS rows
    if k > 1 and not blas:
        rows = max(rows, min(_NULL_MIN_ROWS, 2 * _PAIR_BLOCK // n))
    cols = max(1, _LABEL_BLOCK // n)
    for c0 in range(0, k, cols):
        c = slice(c0, c0 + cols)
        in_x = (labels[:, c] != flip[c]).astype(float)
        first = c0 == 0  # the first chunk also collects the row sums

        def partials(r0):
            r1 = min(r0 + rows, n)
            shape = (r1 - r0, n - r0)
            size = shape[0] * shape[1]
            buf = _workspace("energy_dist", (2 if blas else 1) * rows * n)
            dist = buf[:size].reshape(shape)
            if blas:
                near = _workspace("energy_near", rows * n, bool)[:size].reshape(shape)
                _squared_distances(pool[r0:r1], pool[r0:], pool_sq[r0:], dist,
                                   buf[size:2 * size].reshape(shape), near)
                np.copyto(dist, 0.0, where=near)
                np.sqrt(dist, out=dist)
            else:
                cdist(pool[r0:r1], pool[r0:], out=dist)
            sums = (dist.sum(axis=1), dist[:, r1 - r0:].sum(axis=0)) if first else None
            dist[:, :r1 - r0] *= 0.5
            return sums, 2.0 * np.einsum("ij,ij->j", in_x[r0:r1], dist @ in_x[r0:])

        width = pool.shape[1] + in_x.shape[1]
        min_pairs = _SPLIT_MIN_PAIRS if width >= _SPLIT_MIN_WIDTH else math.inf
        for run in _row_rounds(n, rows, lambda r0: (n - r0 if first else 0) + in_x.shape[1]):
            costs = [min(rows, n - r0) * (n - r0) for r0 in run]
            for r0, (sums, sxx) in zip(run, _split(partials, run, costs, min_pairs)):
                if first:
                    r1 = min(r0 + rows, n)
                    row_sum[r0:r1] += sums[0]
                    row_sum[r1:] += sums[1]
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


def energy_distance(a, b) -> DistanceReport:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs (V-statistic)."""
    pa, pb = _subsampled_pair(a, b)
    labels = np.zeros((len(pa) + len(pb), 1), dtype=bool)
    labels[:len(pa)] = True
    stat = _energy_statistics(_pooled(pa, pb), labels)[0]
    return DistanceReport(float(stat), len(pa), len(pb))


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


def permutation_null(a, b, n_perm: int, stream) -> dict:
    """Null quantiles of the energy distance under pooled-relabel permutations.

    Draws stream.permutation(N) once per permutation; its first len(a)
    entries are the rows of sample a. One `_energy_statistics` pass then
    gives all n_perm statistics.
    """
    if n_perm < 50:
        raise DataError("n_perm must be >= 50")
    pa, pb = _point_pair(a, b)
    pool = _pooled(pa, pb)
    labels = np.zeros((len(pool), n_perm), dtype=bool)
    for j in range(n_perm):
        labels[stream.permutation(len(pool))[:len(pa)], j] = True
    qs = np.quantile(_energy_statistics(pool, labels), NULL_QUANTILES)
    return {f"{int(q * 100)}%": float(v) for q, v in zip(NULL_QUANTILES, qs)}


def energy_distance_with_null(a, b, n_perm: int, stream) -> DistanceReport:
    """Energy distance plus its permutation null, both on one subsample per side."""
    pa, pb = _subsampled_pair(a, b)
    rep = energy_distance(pa, pb)
    rep.null_quantiles = permutation_null(pa, pb, n_perm=n_perm, stream=stream)
    return rep
