"""Two-sample distances used to test distribution transport quantitatively.

The energy distance and its permutation null come from one pooled pass.
`_energy_statistics(pool, labels)` builds the pooled N×N Euclidean distance
matrix once, in row blocks, and reads every labelling's E|a-b|, E|a-a'| and
E|b-b'| from indicator products with each block (Székely & Rizzo, energy
statistics). `energy_distance` is that kernel with one labelling, and the
null is the same kernel with one label column per permutation.

`permutation_null` calls its `statistic_fn(pool, labels)` once: `pool` is the
(N, D) stack of both samples and `labels` an (N, k) boolean matrix whose
column j marks the rows of sample a in labelling j. It returns k values.

Memory: the float temporaries stay bounded in bytes at any N, D and number
of permutations. A distance block holds at most `_PAIR_BLOCK` entries, and
label columns are reduced in chunks of at most `_PAIR_BLOCK // 8` entries
per float temporary. Only the boolean label matrix grows with `n_perm`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance

from .core import DataError

# Exact O(n^2) sums get expensive past this; larger inputs are subsampled.
MAX_EXACT_SIDE = 4096

# Entries per block of the pooled distance matrix (32 MB of float64).
_PAIR_BLOCK = 4_000_000

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


def _require_stream(stream, name):
    if stream is None:
        raise DataError(f"{name} needs a random stream (see efm.core.seeded_stream)")


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
    """
    n = len(pool)
    n_a = labels.sum(axis=0)
    n_b = n - n_a
    k = labels.shape[1]
    # rows of sample a with a, rows of sample b with a, rows of b with b
    s_aa, s_ba, s_bb = np.zeros(k), np.zeros(k), np.zeros(k)
    rows = max(1, _PAIR_BLOCK // n)
    cols = max(1, _PAIR_BLOCK // 8 // n)
    for r0 in range(0, n, rows):
        dist = cdist(pool[r0:r0 + rows], pool)
        row_sum = dist.sum(axis=1)
        for c0 in range(0, k, cols):
            c = slice(c0, c0 + cols)
            in_a = labels[:, c].astype(float)
            to_a = dist @ in_a
            in_b = 1.0 - in_a[r0:r0 + rows]
            s_aa[c] += np.einsum("ij,ij->j", in_a[r0:r0 + rows], to_a)
            ba = np.einsum("ij,ij->j", in_b, to_a)
            s_ba[c] += ba
            s_bb[c] += row_sum @ in_b - ba
        del dist  # free this block before cdist allocates the next one
    stat = 2.0 * s_ba / (n_a * n_b) - s_aa / (n_a * n_a) - s_bb / (n_b * n_b)
    return np.maximum(stat, 0.0)


def energy_distance(a, b) -> DistanceReport:
    """2 E|a-b| - E|a-a'| - E|b-b'| over all pairs (V-statistic)."""
    pa, pb = _subsampled_pair(a, b)
    labels = np.zeros((len(pa) + len(pb), 1), dtype=bool)
    labels[:len(pa)] = True
    stat = _energy_statistics(np.vstack([pa, pb]), labels)[0]
    return DistanceReport(float(stat), len(pa), len(pb))


def sliced_w1(a, b, n_projections: int = 64, stream=None) -> DistanceReport:
    """Mean 1-D Wasserstein-1 over random unit projection directions."""
    pa, pb = _point_pair(a, b)
    if n_projections < 1:
        raise DataError("n_projections must be >= 1")
    _require_stream(stream, "sliced_w1")
    dim = pa.shape[1]
    dirs = stream.standard_normal((n_projections, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = [wasserstein_distance(pa @ u, pb @ u) for u in dirs]
    return DistanceReport(float(np.mean(vals)), len(pa), len(pb))


def permutation_null(a, b, statistic_fn, n_perm: int, stream) -> dict:
    """Null quantiles of statistic_fn under pooled-relabel permutations.

    Draws stream.permutation(N) once per permutation; its first len(a)
    entries are the rows of sample a. statistic_fn(pool, labels) gets the
    (N, D) pool and the (N, n_perm) boolean label matrix, and returns
    n_perm values.
    """
    if n_perm < 50:
        raise DataError("n_perm must be >= 50")
    pa, pb = _point_pair(a, b)
    _require_stream(stream, "permutation_null")
    pool = np.vstack([pa, pb])
    labels = np.zeros((len(pool), n_perm), dtype=bool)
    for j in range(n_perm):
        labels[stream.permutation(len(pool))[:len(pa)], j] = True
    stats = np.asarray(statistic_fn(pool, labels), dtype=float)
    if stats.shape != (n_perm,):
        raise DataError(f"statistic_fn returned shape {stats.shape}, expected ({n_perm},)")
    qs = np.quantile(stats, NULL_QUANTILES)
    return {f"{int(q * 100)}%": float(v) for q, v in zip(NULL_QUANTILES, qs)}


def energy_distance_with_null(a, b, n_perm: int = 200, stream=None) -> DistanceReport:
    """Energy distance plus its permutation null, both on one subsample per side."""
    _require_stream(stream, "energy_distance_with_null")
    pa, pb = _subsampled_pair(a, b)
    rep = energy_distance(pa, pb)
    rep.null_quantiles = permutation_null(pa, pb, _energy_statistics, n_perm, stream)
    return rep
