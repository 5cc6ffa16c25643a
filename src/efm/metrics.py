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

`sliced_w1` projects both samples on a chunk of directions at a time, sorts
each side, merges the two sorted runs with one stable argsort and reads both
empirical CDFs from a running count of the merged rows that came from a.

Memory: the float temporaries stay bounded in bytes at any N, D and number
of permutations. A distance block holds at most `_PAIR_BLOCK` entries (the
field kernel's L2-sized block), and label columns are reduced in chunks of
at most `_LABEL_BLOCK` entries per float temporary. Only the boolean label
matrix grows with `n_perm`. A sliced-W1 chunk of directions holds at most
`_PAIR_BLOCK` projections, or one direction's N when N is larger, so its
temporaries stay O(N) whatever the number of directions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import DataError
from .field import _PAIR_BLOCK

# Exact O(n^2) sums get expensive past this; larger inputs are subsampled.
MAX_EXACT_SIDE = 4096

# Float entries per chunk of label columns (4 MB of float64).
_LABEL_BLOCK = 500_000

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


def _energy_statistics(pool, labels) -> np.ndarray:
    """Energy distance 2 E|a-b| - E|a-a'| - E|b-b'| for each labelling.

    pool: (N, D) points; labels: (N, k) bool, column j marks sample a of
    labelling j (every column needs at least one True and one False row).
    Returns k V-statistics, clamped at 0.

    Each unordered pair's distance is computed once. Row block r0:r1 is
    `cdist`-ed against rows r0: only, a (rows, N - r0) block of at most
    `_PAIR_BLOCK` entries that fits in a core's L2 cache. Its diagonal part
    is halved in place, so 2·x_rᵀ(block · x_r0:) adds both orders of every
    pair the block holds. The statistic is symmetric in a and b, so x marks
    each column's smaller sample and y its larger one: with the full row
    sums r and S_xx = xᵀDx, S_xy = rᵀx - S_xx and S_yy = Σr - S_xx - 2 S_xy,
    whose rounding is then divided by the larger n_y². Label columns are
    taken in chunks of at most `_LABEL_BLOCK` float entries; each chunk
    recomputes the distances.
    """
    n = len(pool)
    n_a = labels.sum(axis=0)
    flip = n_a > n - n_a
    n_x = np.where(flip, n - n_a, n_a)
    n_y = n - n_x
    k = labels.shape[1]
    row_sum = np.zeros(n)
    s_xx, s_xy = np.zeros(k), np.zeros(k)
    rows = max(1, _PAIR_BLOCK // n)
    cols = max(1, _LABEL_BLOCK // n)
    for c0 in range(0, k, cols):
        c = slice(c0, c0 + cols)
        in_x = (labels[:, c] != flip[c]).astype(float)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            dist = cdist(pool[r0:r1], pool[r0:])
            if c0 == 0:
                row_sum[r0:r1] += dist.sum(axis=1)
                row_sum[r1:] += dist[:, r1 - r0:].sum(axis=0)
            dist[:, :r1 - r0] *= 0.5
            s_xx[c] += 2.0 * np.einsum("ij,ij->j", in_x[r0:r1], dist @ in_x[r0:])
        s_xy[c] = row_sum @ in_x - s_xx[c]
    s_yy = row_sum.sum() - s_xx - 2.0 * s_xy
    stat = 2.0 * s_xy / (n_x * n_y) - s_xx / (n_x * n_x) - s_yy / (n_y * n_y)
    return np.maximum(stat, 0.0)


def energy_distance(a, b) -> DistanceReport:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs (V-statistic)."""
    pa, pb = _subsampled_pair(a, b)
    labels = np.zeros((len(pa) + len(pb), 1), dtype=bool)
    labels[:len(pa)] = True
    stat = _energy_statistics(np.vstack([pa, pb]), labels)[0]
    return DistanceReport(float(stat), len(pa), len(pb))


def sliced_w1(a, b, n_projections: int, stream) -> DistanceReport:
    """Mean 1-D Wasserstein-1 over n_projections unit directions drawn from
    `stream` (see efm.core.seeded_stream)."""
    pa, pb = _point_pair(a, b)
    if n_projections < 1:
        raise DataError("n_projections must be >= 1")
    dim = pa.shape[1]
    dirs = stream.standard_normal((n_projections, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_a, n_b = len(pa), len(pb)
    chunk = max(1, _PAIR_BLOCK // (n_a + n_b))
    vals = np.empty(n_projections)
    for p0 in range(0, n_projections, chunk):
        u = dirs[p0:p0 + chunk]
        # each side sorted, then one stable merge of the two sorted runs
        both = np.concatenate([np.sort(u @ pa.T, axis=1), np.sort(u @ pb.T, axis=1)], axis=1)
        order = np.argsort(both, axis=1, kind="stable")
        merged = np.take_along_axis(both, order, axis=1)
        # CDF counts at each step between merged values; a tie is a 0 step, so
        # the order within it is moot
        below_a = np.cumsum(order[:, :-1] < n_a, axis=1)
        below_b = np.arange(1, n_a + n_b) - below_a
        cdf_diff = np.abs(below_a / n_a - below_b / n_b)
        vals[p0:p0 + chunk] = np.einsum("ij,ij->i", cdf_diff, np.diff(merged, axis=1))
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
    pool = np.vstack([pa, pb])
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
