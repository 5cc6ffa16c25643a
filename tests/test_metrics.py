import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance

from efm import field, metrics
from efm.core import DataError, seeded_stream
from efm.metrics import NULL_QUANTILES, _energy_statistics, energy_distance, sliced_w1


def _pairwise_mean_reference(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).mean()


def _energy_reference(a, b):
    """Three-mean energy distance and its tolerance scale.

    Returns (max(2 E|a-b| - E|a-a'| - E|b-b'|, 0), 2 E|a-b| + E|a-a'| + E|b-b'|);
    the pooled kernel must agree to 1e-12 times the scale.
    """
    ab = _pairwise_mean_reference(a, b)
    aa = _pairwise_mean_reference(a, a)
    bb = _pairwise_mean_reference(b, b)
    return max(2.0 * ab - aa - bb, 0.0), 2.0 * ab + aa + bb


class TestEnergyDistance:
    @pytest.mark.parametrize("dim", [1, 2, 33])
    def test_matches_three_mean_reference(self, dim):
        stream = seeded_stream(30 + dim, "e")
        a = stream.standard_normal((70, dim))
        b = stream.standard_normal((45, dim)) * 1.3 + 0.2
        ref, scale = _energy_reference(a, b)
        assert abs(energy_distance(a, b).statistic - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("shift", [0.0, 100.0])
    @pytest.mark.parametrize("dim", [16, 33, 64])
    def test_blas_distances_match_three_mean_reference(self, monkeypatch, dim, shift):
        # from _BLAS_MIN_DIM coordinates on the distances come from the
        # quadratic expansion of centred points, in row blocks of 35;
        # duplicated points must give zero distances there too
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 350 * 35)
        stream = seeded_stream(70 + dim, "blas")
        a = stream.standard_normal((200, dim)) + shift
        b = stream.standard_normal((150, dim)) * 1.3 + 0.2 + shift
        a[10:20] = a[0]
        b[:5] = a[30:35]
        ref, scale = _energy_reference(a, b)
        assert abs(energy_distance(a, b).statistic - ref) <= 1e-12 * scale

    def test_self_distance_at_high_dim_as_cdist_gives(self, monkeypatch):
        # the coincidence floor zeroes the expansion's self-pairs and
        # duplicates: without it their rounding reads about 1e-10 here. What
        # is left is the rounding of the sums, the same size as cdist's
        for seed in range(8):
            a = seeded_stream(seed, "self").standard_normal((700, 33))
            monkeypatch.setattr(metrics, "_BLAS_MIN_DIM", 10**9)
            by_cdist = energy_distance(a, a).statistic
            monkeypatch.setattr(metrics, "_BLAS_MIN_DIM", 12)
            by_blas = energy_distance(a, a).statistic
            assert by_blas <= 1e-13
            if by_cdist == 0.0:
                assert by_blas == 0.0

    @pytest.mark.parametrize("dim", range(1, 12))
    def test_exact_block_equals_cdist(self, monkeypatch, dim):
        # below _BLAS_MIN_DIM (raised here to reach D=11) each distance block
        # is built in numpy: it must equal scipy's cdist bit for bit, on
        # duplicated rows and 1e6 from the origin too; 115 pooled rows give
        # row blocks of 40, 40 and 35
        monkeypatch.setattr(metrics, "_BLAS_MIN_DIM", 12)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 115 * 40)
        block, equal = metrics._exact_distances, []

        def checked(diffs, r0, r1, out, scratch):
            block(diffs, r0, r1, out, scratch)
            pts = diffs[0][:, :, 0].T
            equal.append(np.array_equal(out, cdist(pts[r0:r1], pts[r0:])))

        monkeypatch.setattr(metrics, "_exact_distances", checked)
        stream = seeded_stream(80 + dim, "exact")
        for shift in (0.0, 1e6):
            a = stream.standard_normal((70, dim)) * stream.uniform(0.1, 10.0, dim) + shift
            b = stream.standard_normal((45, dim)) + 0.2 + shift
            a[10:20] = a[0]
            b[:5] = a[30:35]
            energy_distance(a, b)
        assert equal == [True] * 6

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty"):
            energy_distance(np.zeros((0, 2)), np.ones((3, 2)))

    def test_nan_point_rejected(self):
        a = seeded_stream(21, "e").standard_normal((8, 2))
        a[3, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            energy_distance(a, np.zeros((4, 2)))

    def test_null_uses_the_statistic_subsample(self):
        stream = seeded_stream(22, "e")
        a = stream.standard_normal((5000, 1))
        b = stream.standard_normal((100, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = energy_distance(a, b, 50, seeded_stream(23, "perm"))
        assert [w.category for w in caught] == [UserWarning]
        assert rep.n_a == 4096
        assert np.isfinite(list(rep.null_quantiles.values())).all()

    def test_kernel_across_blocks_matches_reference(self, monkeypatch):
        # 115 pooled rows in row blocks of 40, 40 and 35, and 60 label columns
        # in chunks of 9 with a last one of 6; duplicated points give ties and
        # zero distances, and some columns have the larger sample as a
        n, n_a = 115, 70
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", n * 40)
        monkeypatch.setattr(metrics, "_LABEL_BLOCK", n * 9)
        stream = seeded_stream(28, "e")
        pool = stream.standard_normal((n, 3))
        pool[n_a:] = pool[n_a:] * 1.3 + 0.2
        pool[10:20] = pool[0]
        pool[n_a:n_a + 5] = pool[30:35]
        pool[-3:] = pool[-4]
        labels = np.zeros((n, 60), dtype=bool)
        labels[:n_a, 0] = True
        for j in range(1, 60):
            labels[stream.permutation(n)[:1 + (j * 7) % (n - 1)], j] = True
        stats = _energy_statistics(pool, labels)
        for j in range(60):
            ref, scale = _energy_reference(pool[labels[:, j]], pool[~labels[:, j]])
            assert abs(stats[j] - ref) <= 1e-12 * scale

    def test_unbalanced_samples_match_reference(self):
        # the subtracted sums of a 2000-point sample must not swamp the
        # within-sample term of a 4-point one
        stream = seeded_stream(31, "e")
        a = stream.standard_normal((2000, 2))
        b = stream.standard_normal((4, 2)) + 0.5

        def mean(x, y):
            return sum(cdist(x[i:i + 250], y).sum() for i in range(0, len(x), 250)) / (
                len(x) * len(y))

        ab, aa, bb = mean(a, b), mean(a, a), mean(b, b)
        ref, scale = 2.0 * ab - aa - bb, 2.0 * ab + aa + bb
        for x, y in ((a, b), (b, a)):
            assert abs(energy_distance(x, y).statistic - ref) <= 1e-12 * scale

    def test_null_draws_one_permutation_each(self):
        stream = seeded_stream(29, "e")
        a = stream.standard_normal((70, 2))
        b = stream.standard_normal((45, 2))
        used, ref = seeded_stream(30, "perm"), seeded_stream(30, "perm")
        energy_distance(a, b, 60, used)
        for _ in range(60):
            ref.permutation(len(a) + len(b))
        assert used.random() == ref.random()

    @pytest.mark.parametrize("n_side,dim,n_perm,mib", [(2000, 33, 50, 6), (100, 2, 20000, 16)])
    def test_memory_bounded(self, n_side, dim, n_perm, mib):
        # (2000, 33, 50) spans several distance row blocks; (100, 2, 20000)
        # spans several label-column chunks, and its peak is mostly the
        # (200, 20000) label matrix and one (200, 2500) float chunk
        stream = seeded_stream(24, "e")
        a = stream.standard_normal((n_side, dim))
        b = stream.standard_normal((n_side, dim))
        tracemalloc.start()
        try:
            energy_distance(a, b, n_perm, seeded_stream(25, "perm"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20

    def test_identical_multisets_zero(self):
        pts = seeded_stream(0, "e").standard_normal((64, 2))
        assert energy_distance(pts, pts.copy()).statistic == pytest.approx(0.0, abs=1e-12)

    def test_singleton_deltas(self):
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        assert energy_distance(a, b).statistic == pytest.approx(2.0)

    def test_symmetry(self):
        stream = seeded_stream(1, "e")
        a = stream.standard_normal((40, 3))
        b = stream.standard_normal((50, 3)) + 0.3
        assert energy_distance(a, b).statistic == pytest.approx(
            energy_distance(b, a).statistic, rel=1e-12)

    def test_same_distribution_below_null_quantile(self):
        # oracle: 200-permutation null of the pooled sample
        stream = seeded_stream(2, "e")
        a = stream.standard_normal((128, 2))
        b = stream.standard_normal((128, 2))
        rep = energy_distance(a, b, 200, seeded_stream(3, "perm"))
        assert rep.statistic < rep.null_quantiles["95%"]

    def test_shifted_distribution_above_null(self):
        stream = seeded_stream(4, "e")
        a = stream.standard_normal((128, 2))
        b = stream.standard_normal((128, 2)) + 2.0
        rep = energy_distance(a, b, 200, seeded_stream(5, "perm"))
        assert rep.statistic > rep.null_quantiles["99%"]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension"):
            energy_distance(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_oversize_input_subsampled_with_warning(self):
        stream = seeded_stream(6, "e")
        a = stream.standard_normal((5000, 1))
        b = stream.standard_normal((100, 1))
        with pytest.warns(UserWarning, match="subsampling"):
            rep = energy_distance(a, b)
        assert rep.n_a == 4096


class TestSlicedW1:
    def test_identical_zero(self):
        pts = seeded_stream(7, "s").standard_normal((64, 2))
        rep = sliced_w1(pts, pts.copy(), 16, seeded_stream(8, "proj"))
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)

    def test_1d_shift_exact(self):
        a = seeded_stream(9, "s").standard_normal((128, 1))
        b = a + 0.75
        rep = sliced_w1(a, b, 8, seeded_stream(10, "proj"))
        assert rep.statistic == pytest.approx(0.75, rel=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 33])
    def test_matches_per_direction_scipy(self, dim, monkeypatch):
        # chunks of 3 directions, so 10 directions end in a ragged chunk
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 115 * 3)
        stream = seeded_stream(40 + dim, "s")
        a = np.round(stream.standard_normal((70, dim)), 1)
        b = np.round(stream.standard_normal((45, dim)) * 1.3 + 0.2, 1)
        a[10:20] = a[0]
        b[:5] = a[30:35]
        dirs = seeded_stream(50, "proj").standard_normal((10, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ref = np.mean([wasserstein_distance(a @ u, b @ u) for u in dirs])
        rep = sliced_w1(a, b, 10, seeded_stream(50, "proj"))
        assert rep.statistic == pytest.approx(ref, rel=1e-12, abs=0)

    def test_memory_bounded(self):
        # one direction per chunk at this size; all 8 at once would take
        # about 200 MiB
        stream = seeded_stream(51, "s")
        a = stream.standard_normal((200_000, 2))
        b = stream.standard_normal((200_000, 2))
        tracemalloc.start()
        try:
            sliced_w1(a, b, 8, seeded_stream(52, "proj"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20

    def test_matches_exact_w1_in_1d(self):
        stream = seeded_stream(11, "s")
        a = stream.standard_normal((100, 1))
        b = stream.standard_normal((80, 1)) + 0.3
        rep = sliced_w1(a, b, 4, seeded_stream(12, "proj"))
        assert rep.statistic == pytest.approx(
            wasserstein_distance(a[:, 0], b[:, 0]), rel=1e-9)

    def test_rotation_invariance_of_both_datasets(self):
        stream = seeded_stream(13, "s")
        a = stream.standard_normal((200, 2))
        b = stream.standard_normal((200, 2)) * 0.5 + 1.0
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        r1 = sliced_w1(a, b, 512, seeded_stream(14, "proj"))
        r2 = sliced_w1(a @ rot.T, b @ rot.T, 512, seeded_stream(15, "proj"))
        assert r1.statistic == pytest.approx(r2.statistic, rel=0.1)

    def test_no_projections_rejected(self):
        pts = seeded_stream(16, "s").standard_normal((8, 2))
        with pytest.raises(DataError, match="n_projections must be >= 1"):
            sliced_w1(pts, pts, 0, seeded_stream(17, "proj"))


class TestPermutationNull:
    @pytest.mark.parametrize("dim,shift", [(3, 0.0), (33, 100.0)])
    def test_matches_per_permutation_reference(self, monkeypatch, dim, shift):
        # D=33 takes the expansion's distances of centred points, in row
        # blocks of 8
        if dim == 33:
            monkeypatch.setattr(metrics, "_PAIR_BLOCK", 75 * 8)
        stream = seeded_stream(26, "p")
        a = stream.standard_normal((30, dim)) + shift
        b = stream.standard_normal((45, dim)) + 0.4 + shift
        pool = np.vstack([a, b])
        ref_stream = seeded_stream(27, "perm")
        refs, scales = [], []
        for _ in range(60):
            perm = ref_stream.permutation(len(pool))
            ref, scale = _energy_reference(pool[perm[:30]], pool[perm[30:]])
            refs.append(ref)
            scales.append(scale)
        expected = np.quantile(refs, NULL_QUANTILES)
        new_stream = seeded_stream(27, "perm")
        q = energy_distance(a, b, 60, new_stream).null_quantiles
        assert np.abs(np.array(list(q.values())) - expected).max() <= 1e-12 * max(scales)
        assert new_stream.random() == ref_stream.random()

    @pytest.mark.parametrize("min_rows,rows", [(6, 6), (20, 8)])
    def test_null_row_floor_matches_reference(self, monkeypatch, min_rows, rows):
        # 4-row blocks by _PAIR_BLOCK; the null's floor raises them to
        # min_rows, capped where a block would pass 2 * _PAIR_BLOCK entries
        n = 115
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", n * 4)
        monkeypatch.setattr(metrics, "_NULL_MIN_ROWS", min_rows)
        seen = []
        block = metrics._exact_distances
        monkeypatch.setattr(metrics, "_exact_distances",
                            lambda diffs, r0, r1, *out: seen.append(r1 - r0) or block(
                                diffs, r0, r1, *out))
        stream = seeded_stream(32, "p")
        pool = stream.standard_normal((n, 2))
        labels = np.zeros((n, 3), dtype=bool)
        for j in range(3):
            labels[stream.permutation(n)[:40 + 10 * j], j] = True
        stats = _energy_statistics(pool, labels)
        assert max(seen) == rows
        for j in range(3):
            ref, scale = _energy_reference(pool[labels[:, j]], pool[~labels[:, j]])
            assert abs(stats[j] - ref) <= 1e-12 * scale

    def test_deterministic_given_seed(self):
        stream = seeded_stream(16, "p")
        a = stream.standard_normal((32, 2))
        b = stream.standard_normal((32, 2))
        r1 = energy_distance(a, b, 60, seeded_stream(17, "perm"))
        r2 = energy_distance(a, b, 60, seeded_stream(17, "perm"))
        assert r1 == r2

    def test_min_permutations_enforced(self):
        with pytest.raises(DataError, match="n_perm"):
            energy_distance(np.zeros((4, 1)), np.zeros((4, 1)), 10, seeded_stream(19, "perm"))

    def test_null_without_stream_rejected(self):
        with pytest.raises(DataError, match="stream"):
            energy_distance(np.zeros((4, 1)), np.ones((4, 1)), 50)

    @pytest.mark.parametrize("dim", [2, 33])
    def test_statistic_with_null_matches_without(self, dim):
        # column 0 of the null's pass rounds its label product with the
        # other columns, so it may differ from the one-column pass in its
        # last bits only
        stream = seeded_stream(33, "p")
        a = stream.standard_normal((256, dim))
        b = stream.standard_normal((256, dim)) + 0.2
        _, scale = _energy_reference(a, b)
        with_null = energy_distance(a, b, 200, seeded_stream(34, "perm")).statistic
        assert abs(with_null - energy_distance(a, b).statistic) <= 1e-12 * scale

    def test_null_computes_each_distance_once(self, monkeypatch):
        # 256 + 256 points, D=2 and 200 permutations, as the benchmark's trace
        # workload evaluates: the statistic and the null share one pass, whose
        # 201 label columns fit one chunk, so the exact blocks cover each
        # pooled row once
        rows = []
        block = metrics._exact_distances
        monkeypatch.setattr(metrics, "_exact_distances",
                            lambda diffs, r0, r1, *out: rows.append(r1 - r0) or block(
                                diffs, r0, r1, *out))
        stream = seeded_stream(35, "p")
        a = stream.standard_normal((256, 2))
        b = stream.standard_normal((256, 2)) + 0.2
        energy_distance(a, b, 200, seeded_stream(36, "perm"))
        assert sum(rows) == 512

    def test_coverage_calibration(self):
        # oracle: repeated same-distribution draws fall under the 95%
        # quantile about 95% of the time (checked loosely over 40 reps)
        hits = 0
        for k in range(40):
            stream = seeded_stream(k, "cov")
            a = stream.standard_normal((48, 1))
            b = stream.standard_normal((48, 1))
            rep = energy_distance(a, b, 99, seeded_stream(k, "cov-perm"))
            hits += rep.statistic < rep.null_quantiles["95%"]
        assert hits >= 32  # binomial(40, 0.95) has P(X < 32) ~ 2e-5


class TestTwoThreads:
    """Energy statistics and sliced W1 share their pieces between the caller
    and one worker thread (`efm.field._split`); the bytes must not change."""

    @staticmethod
    def pools_built(monkeypatch):
        built = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(field, "ThreadPoolExecutor", CountingPool)
        return built

    @staticmethod
    def on_cpus(monkeypatch, n, fn):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        before = threading.active_count()
        out = fn()
        assert threading.active_count() == before
        return out

    @staticmethod
    def calls(n, dim, seed, n_perm=60):
        stream = seeded_stream(seed, "two")
        a = stream.standard_normal((n // 2, dim))
        b = stream.standard_normal((n - n // 2, dim)) * 1.2 + 0.3
        return {"energy_distance": lambda: energy_distance(a, b).statistic,
                "permutation_null": lambda: energy_distance(a, b, n_perm, seeded_stream(seed, "p")),
                "sliced_w1": lambda: sliced_w1(a, b, 64, seeded_stream(seed, "proj")).statistic}

    @pytest.mark.parametrize("name,n,dim", [("energy_distance", 768, 32),
                                            ("permutation_null", 768, 2),
                                            ("sliced_w1", 2048, 2)])
    def test_byte_equal_to_one_cpu(self, monkeypatch, name, n, dim):
        fn = self.calls(n, dim, n + dim)[name]
        built = self.pools_built(monkeypatch)
        two = self.on_cpus(monkeypatch, 2, fn)
        assert built and all(kw == {"max_workers": 1} for kw in built)
        del built[:]
        one = self.on_cpus(monkeypatch, 1, fn)
        assert not built
        assert repr(two) == repr(one)

    def test_many_rounds_byte_equal_and_exact(self, monkeypatch):
        # 38 row blocks of 8 rows whose partials are stored in three rounds of
        # at most 2408 floats, each round with a worker: the ordered
        # reduction equals one thread's bit for bit, and the reference
        n, n_a = 301, 140
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", n * 8)
        monkeypatch.setattr(metrics, "_NULL_MIN_ROWS", 1)
        monkeypatch.setattr(metrics, "_SPLIT_MIN_PAIRS", 0)
        monkeypatch.setattr(metrics, "_SPLIT_MIN_WIDTH", 0)
        stream = seeded_stream(61, "two")
        pool = stream.standard_normal((n, 3))
        labels = np.zeros((n, 5), dtype=bool)
        labels[:n_a, 0] = True
        for j in range(1, 5):
            labels[stream.permutation(n)[:n_a + 20 * j], j] = True
        built = self.pools_built(monkeypatch)
        two = self.on_cpus(monkeypatch, 2, lambda: _energy_statistics(pool, labels))
        assert len(built) == 3
        one = self.on_cpus(monkeypatch, 1, lambda: _energy_statistics(pool, labels))
        assert two.tobytes() == one.tobytes()
        for j in range(5):
            ref, scale = _energy_reference(pool[labels[:, j]], pool[~labels[:, j]])
            assert abs(two[j] - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("name,n,dim", [("energy_distance", 768, 32),
                                            ("permutation_null", 768, 2),
                                            ("sliced_w1", 2048, 2)])
    def test_worker_exception_propagates(self, monkeypatch, name, n, dim):
        # energy distances come from the BLAS expansion at D=32, from the
        # exact block at D=2
        caller = threading.current_thread()
        target, attr = {"energy_distance": (metrics, "_squared_distances"),
                        "permutation_null": (metrics, "_exact_distances"),
                        "sliced_w1": (np, "argsort")}[name]
        inline = getattr(target, attr)

        def fail_off_caller(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker share failed")
            return inline(*args, **kwargs)

        monkeypatch.setattr(target, attr, fail_off_caller)
        fn = self.calls(n, dim, 62)[name]
        with pytest.raises(RuntimeError, match="worker share failed"):
            self.on_cpus(monkeypatch, 2, fn)

    @pytest.mark.parametrize("dim", [2, 32])
    def test_512_points_start_no_thread(self, monkeypatch, dim):
        # the size of the benchmark's trace workload, with its 200 permutations
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a 512-point metric started a worker thread")

        monkeypatch.setattr(field, "ThreadPoolExecutor", NoPool)
        for fn in self.calls(512, dim, 63, n_perm=200).values():
            self.on_cpus(monkeypatch, 2, fn)
