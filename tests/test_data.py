import numpy as np
import pytest

from efm.core import seeded_stream
from efm.data import (DataError, gen_gaussian, gen_swiss_roll,
                      gen_two_gaussians, load_csv, save_csv, swiss_roll_curve,
                      SWISS_ROLL_SCALE, SWISS_ROLL_THETA_MAX, SWISS_ROLL_THETA_MIN)


class TestGenGaussian:
    def test_mean_within_clt_bound(self):
        n = 20_000
        ds = gen_gaussian(n, 3, mean=[1.0, -2.0, 0.5], stream=seeded_stream(0, "g"))
        np.testing.assert_allclose(ds.points.mean(axis=0), [1.0, -2.0, 0.5],
                                   atol=4 / np.sqrt(n))

    def test_covariance_recovered(self):
        # oracle: sample covariance of 1e5 draws
        ds = gen_gaussian(100_000, 2, cov_diag=[4.0, 0.25],
                          stream=seeded_stream(1, "g"))
        np.testing.assert_allclose(ds.points.var(axis=0), [4.0, 0.25], rtol=0.03)

    def test_zero_count_rejected(self):
        with pytest.raises(DataError, match="n must be >= 1"):
            gen_gaussian(0, 2, stream=seeded_stream(2, "g"))


class TestGenSwissRoll:
    def test_points_inside_declared_box(self):
        ds = gen_swiss_roll(5000, noise_std=0.05, stream=seeded_stream(3, "s"))
        margin = SWISS_ROLL_SCALE + 5 * 0.05
        assert np.all(np.abs(ds.points) <= margin)

    def test_zero_noise_lies_on_curve(self):
        # oracle: invert the radius for theta, then compare with the curve
        ds = gen_swiss_roll(2000, noise_std=0.0, stream=seeded_stream(4, "s"))
        radius = np.linalg.norm(ds.points, axis=1)
        theta = radius * SWISS_ROLL_THETA_MAX / SWISS_ROLL_SCALE
        residual = np.linalg.norm(ds.points - swiss_roll_curve(theta), axis=1)
        assert residual.max() < 1e-9

    def test_radius_grows_with_angle(self):
        ds = gen_swiss_roll(2000, noise_std=0.0, stream=seeded_stream(5, "s"))
        radius = np.linalg.norm(ds.points, axis=1)
        theta = radius * SWISS_ROLL_THETA_MAX / SWISS_ROLL_SCALE
        order = np.argsort(theta)
        assert np.all(np.diff(radius[order]) >= -1e-12)
        assert theta.min() >= SWISS_ROLL_THETA_MIN - 1e-9
        assert theta.max() <= SWISS_ROLL_THETA_MAX + 1e-9


class TestGenTwoGaussians:
    def test_zero_separation_single_gaussian(self):
        ds = gen_two_gaussians(50_000, 0.0, seeded_stream(6, "t"))
        np.testing.assert_allclose(ds.points.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(ds.points.var(axis=0), 1.0, rtol=0.03)

    def test_cluster_means_recovered(self):
        # oracle: sign-split along the separation axis approximates 2-means
        ds = gen_two_gaussians(50_000, 10.0, seeded_stream(7, "t"))
        left = ds.points[ds.points[:, 0] < 0]
        right = ds.points[ds.points[:, 0] >= 0]
        assert left[:, 0].mean() == pytest.approx(-5.0, abs=0.05)
        assert right[:, 0].mean() == pytest.approx(5.0, abs=0.05)

    def test_class_counts_binomial(self):
        n = 40_000
        ds = gen_two_gaussians(n, 10.0, seeded_stream(8, "t"))
        n_left = int((ds.points[:, 0] < 0).sum())
        assert abs(n_left - n / 2) < 4 * np.sqrt(n * 0.25)


class TestCsv:
    def test_round_trip_lossless(self, tmp_path):
        ds = gen_gaussian(64, 3, stream=seeded_stream(9, "c"))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.points, ds.points)

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,x_2\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1\n1.0\nbanana\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,x_2\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

