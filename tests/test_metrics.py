import tracemalloc
import warnings

import numpy as np
import pytest

from efm.core import DataError, seeded_stream
from efm.metrics import (NULL_QUANTILES, _energy_statistics, energy_distance,
                         energy_distance_with_null, permutation_null, sliced_w1)


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

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty"):
            energy_distance(np.zeros((0, 2)), np.ones((3, 2)))

    def test_nan_point_rejected(self):
        a = seeded_stream(21, "e").standard_normal((8, 2))
        a[3, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            energy_distance(a, np.zeros((4, 2)))

    def test_null_without_stream_rejected(self):
        with pytest.raises(DataError, match="stream"):
            energy_distance_with_null(np.zeros((4, 2)), np.ones((4, 2)))

    def test_null_uses_the_statistic_subsample(self):
        stream = seeded_stream(22, "e")
        a = stream.standard_normal((5000, 1))
        b = stream.standard_normal((100, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = energy_distance_with_null(a, b, 50, seeded_stream(23, "perm"))
        assert [w.category for w in caught] == [UserWarning]
        assert rep.n_a == 4096
        assert np.isfinite(list(rep.null_quantiles.values())).all()

    @pytest.mark.parametrize("n_side,dim,n_perm", [(2000, 33, 50), (100, 2, 20000)])
    def test_memory_bounded(self, n_side, dim, n_perm):
        # (2000, 33, 50) spans several distance row blocks; (100, 2, 20000)
        # spans several label-column chunks
        stream = seeded_stream(24, "e")
        a = stream.standard_normal((n_side, dim))
        b = stream.standard_normal((n_side, dim))
        tracemalloc.start()
        try:
            energy_distance_with_null(a, b, n_perm, seeded_stream(25, "perm"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

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
        rep = energy_distance_with_null(a, b, 200, seeded_stream(3, "perm"))
        assert rep.statistic < rep.null_quantiles["95%"]

    def test_shifted_distribution_above_null(self):
        stream = seeded_stream(4, "e")
        a = stream.standard_normal((128, 2))
        b = stream.standard_normal((128, 2)) + 2.0
        rep = energy_distance_with_null(a, b, 200, seeded_stream(5, "perm"))
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

    def test_matches_exact_w1_in_1d(self):
        from scipy.stats import wasserstein_distance
        stream = seeded_stream(11, "s")
        a = stream.standard_normal((100, 1))
        b = stream.standard_normal((80, 1)) + 0.3
        rep = sliced_w1(a, b, 4, seeded_stream(12, "proj"))
        assert rep.statistic == pytest.approx(
            wasserstein_distance(a[:, 0], b[:, 0]), rel=1e-9)

    def test_without_stream_rejected(self):
        with pytest.raises(DataError, match="stream"):
            sliced_w1(np.zeros((4, 2)), np.ones((4, 2)))

    def test_rotation_invariance_of_both_datasets(self):
        stream = seeded_stream(13, "s")
        a = stream.standard_normal((200, 2))
        b = stream.standard_normal((200, 2)) * 0.5 + 1.0
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        r1 = sliced_w1(a, b, 512, seeded_stream(14, "proj"))
        r2 = sliced_w1(a @ rot.T, b @ rot.T, 512, seeded_stream(15, "proj"))
        assert r1.statistic == pytest.approx(r2.statistic, rel=0.1)


class TestPermutationNull:
    def test_matches_per_permutation_reference(self):
        stream = seeded_stream(26, "p")
        a = stream.standard_normal((30, 3))
        b = stream.standard_normal((45, 3)) + 0.4
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
        q = permutation_null(a, b, _energy_statistics, 60, new_stream)
        assert np.abs(np.array(list(q.values())) - expected).max() <= 1e-12 * max(scales)
        assert new_stream.random() == ref_stream.random()

    def test_deterministic_given_seed(self):
        stream = seeded_stream(16, "p")
        a = stream.standard_normal((32, 2))
        b = stream.standard_normal((32, 2))
        q1 = permutation_null(a, b, _energy_statistics, 60, seeded_stream(17, "perm"))
        q2 = permutation_null(a, b, _energy_statistics, 60, seeded_stream(17, "perm"))
        assert q1 == q2

    def test_constant_statistic_degenerate(self):
        a = np.zeros((16, 1))
        b = np.zeros((16, 1))
        q = permutation_null(a, b, lambda pool, labels: np.full(labels.shape[1], 3.14),
                             50, seeded_stream(18, "perm"))
        assert set(q.values()) == {3.14}

    def test_min_permutations_enforced(self):
        with pytest.raises(DataError, match="n_perm"):
            permutation_null(np.zeros((4, 1)), np.zeros((4, 1)),
                             lambda x, y: 0.0, 10, seeded_stream(19, "perm"))

    def test_coverage_calibration(self):
        # oracle: repeated same-distribution draws fall under the 95%
        # quantile about 95% of the time (checked loosely over 40 reps)
        hits = 0
        for k in range(40):
            stream = seeded_stream(k, "cov")
            a = stream.standard_normal((48, 1))
            b = stream.standard_normal((48, 1))
            q = permutation_null(a, b, _energy_statistics, 99, seeded_stream(k, "cov-perm"))
            hits += energy_distance(a, b).statistic < q["95%"]
        assert hits >= 32  # binomial(40, 0.95) has P(X < 32) ~ 2e-5
