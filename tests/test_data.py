import hashlib
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from efm import data
from efm.core import seeded_stream
from efm.data import (DataError, Dataset, format_rows, gen_gaussian, gen_swiss_roll,
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


class TestStreamRequired:
    @pytest.mark.parametrize("gen, args", [(gen_gaussian, (3, 2)), (gen_swiss_roll, (3,)),
                                           (gen_two_gaussians, (3, 1.0))])
    def test_missing_stream_rejected(self, gen, args):
        with pytest.raises(TypeError, match="stream"):
            gen(*args)

    def test_stream_after_defaults_is_keyword_only(self):
        with pytest.raises(TypeError):
            gen_gaussian(3, 2, 0.0, 1.0, seeded_stream(0, "g"))
        with pytest.raises(TypeError):
            gen_swiss_roll(3, 0.0, seeded_stream(0, "s"))


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

    @pytest.mark.parametrize("text, message", [
        ("x_1,x_2\n1,2\n\n\n3,abc\n", "non-numeric cell at line 5"),
        ("\nx_1,x_2\n1,2\n\n3\n", "ragged row at line 5"),
        # the first bad line of the file is named, whichever kind it is
        ("x_1,x_2\n1,2\n3,x\n4\n", "non-numeric cell at line 3"),
        ("x_1,x_2\n1,2\n4\n3,x\n", "ragged row at line 3"),
    ])
    def test_line_numbers_count_blank_lines(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["1#2", "#", "1_0", ""])
    def test_cell_that_float_syntax_rejects(self, tmp_path, cell):
        # "#" starts no comment, so it cannot silently truncate a row;
        # Python's digit-grouping underscore is not part of the CSV format
        path = tmp_path / "d.csv"
        path.write_text(f"x_1,x_2\n1,2\n3,4\n5,{cell}\n6,7\n")
        with pytest.raises(DataError, match="non-numeric cell at line 4"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\nx_1,x_2\n1,2\n\n3,4\n\n")
        np.testing.assert_array_equal(load_csv(path).points, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,x_2\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x_1,x_2\n1,2\n\n3,4\xff\n5,6\n")
        with pytest.raises(DataError, match=re.escape(f"non-numeric cell at line 4 of {path}")):
            load_csv(path)

    def test_undecodable_header_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\nx_1,x_\xff\n1,2\n")
        with pytest.raises(DataError, match=re.escape(f"bad header at line 2 of {path}")):
            load_csv(path)


def percent_rows(block) -> bytes:
    """The reference: each cell formatted by Python's `'%.17g'`."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(block).tolist()).encode()


def powers_of_ten_and_neighbours():
    """10**k for k in -20..20 (as parsed from "1e<k>"), and the doubles on
    either side of each."""
    out = []
    for k in range(-20, 21):
        p = float(f"1e{k}")
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return np.array(out)


class TestFormatRows:
    """format_rows is `'%.17g'` byte for byte, in bulk and in its fallback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.sampled_from([1, 2, 3, 33]))
    def test_equals_percent_formatting(self, data, width):
        # any finite double, subnormals included, plus the bulk domain
        # 2**-36 <= |x| < 2**53 drawn on its own so that it dominates
        elements = (st.floats(allow_nan=False, allow_infinity=False)
                    | st.floats(-2.0 ** 53, 2.0 ** 53, allow_subnormal=False))
        block = data.draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(width)),
                                 elements=elements))
        assert format_rows(block) == percent_rows(block)

    def test_random_bit_patterns_and_ties(self):
        rng = np.random.default_rng(20)
        patterns = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64).view(np.float64)
        decades = 10.0 ** rng.uniform(-12.0, 16.0, size=60_000)
        # m * 2**-k with up to 53 bits: many exact decimal ties at the 17th digit
        dyadic = (rng.integers(1, 2 ** 53, size=60_000).astype(float)
                  * 2.0 ** -rng.integers(0, 90, size=60_000).astype(float))
        for values in (patterns[np.isfinite(patterns)], decades, -dyadic, np.round(decades, 3)):
            block = values[:len(values) // 3 * 3].reshape(-1, 3)
            assert format_rows(block) == percent_rows(block)

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"), (-0.0, "-0"),
        # a half-even tie: 2**-25 = 2.98023223876953125e-08 exactly
        (2.0 ** -25, "2.9802322387695312e-08"),
        # the fixed/exponent notation switches at 1e-4 and 1e17
        (1e-4, "0.0001"), (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
        (1e16, "10000000000000000"), (1e17, "1e+17"),
        (np.nextafter(1e17, 0.0), "99999999999999984"),
        (5e-324, "4.9406564584124654e-324"), (1.7976931348623157e308, "1.7976931348623157e+308"),
        # the widest cell, 24 bytes as _CSV_CHUNK's comment assumes
        (-1.2345678901234567e-308, "-1.2345678901234567e-308"),
        # the edges of the bulk domain
        (2.0 ** -36, "1.4551915228366852e-11"),
        (np.nextafter(2.0 ** -36, 0.0), "1.455191522836685e-11"),
        (np.nextafter(2.0 ** 53, 0.0), "9007199254740991"), (2.0 ** 53, "9007199254740992"),
        (2.0 ** 51 + 0.5, "2251799813685248.5"),
        (np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"),
    ])
    def test_edge_cases(self, value, text):
        assert "%.17g" % value == text
        for width in (1, 2):
            row = ",".join([text] * width) + "\n"
            assert format_rows(np.full((2, width), value)) == (row * 2).encode()

    @pytest.mark.parametrize("width", [1, 2, 3, 33])
    def test_next_to_every_power_of_ten(self, width):
        values = powers_of_ten_and_neighbours()
        values = np.concatenate([values, -values])
        block = np.resize(values, (len(values) // width + 1, width))
        assert format_rows(block) == percent_rows(block)

    def test_save_csv_memory_does_not_grow_with_rows(self, tmp_path):
        save_csv(gen_gaussian(10, 32, stream=seeded_stream(0, "warm")), tmp_path / "warm.csv")
        peaks = []
        for n in (2048, 8192):
            ds = gen_gaussian(n, 32, stream=seeded_stream(1, "memory"))
            tracemalloc.start()
            try:
                save_csv(ds, tmp_path / f"d{n}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the peak is one chunk's working set, whatever the number of rows
        assert abs(peaks[1] - peaks[0]) < 64 * 1024
        assert max(peaks) < 2 * 1024 * 1024


def shadow(path) -> Path:
    return Path(f"{path}.f8")


def parsed(path) -> np.ndarray:
    """The points of the CSV at `path` by the parse path alone."""
    with mock.patch.object(data, "_read_shadow", return_value=None):
        return load_csv(path).points


def bits(points) -> np.ndarray:
    return np.asarray(points, dtype="<f8").view("<u8")


class TestShadow:
    """save_csv's binary shadow `<path>.f8` and load_csv's trust in it."""

    @pytest.fixture
    def saved(self, tmp_path):
        ds = gen_gaussian(40, 3, stream=seeded_stream(10, "shadow"))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        return ds, path

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        """Counts the parse path's calls of its row parser."""
        calls = []
        parse = data._parse_rows
        monkeypatch.setattr(data, "_parse_rows", lambda rows: calls.append(1) or parse(rows))
        return calls

    def test_layout(self, saved):
        ds, path = saved
        raw = shadow(path).read_bytes()
        magic, digest, n, dim = struct.unpack("<8s32sqq", raw[:56])
        assert magic == b"efm.f8\x00\x01"
        assert digest == hashlib.sha256(path.read_bytes()).digest()
        assert (n, dim) == (40, 3)
        assert raw[56:] == ds.points.astype("<f8").tobytes()

    def test_csv_bytes_are_the_17_digit_text(self, tmp_path):
        # the chunked writer must produce the same bytes as one join;
        # 700 rows at D=5 span several chunks
        ds = gen_gaussian(700, 5, stream=seeded_stream(11, "shadow"))
        save_csv(ds, tmp_path / "d.csv")
        want = "x_1,x_2,x_3,x_4,x_5\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in ds.points.tolist())
        assert (tmp_path / "d.csv").read_bytes() == want.encode()

    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, -1.0 / 3.0]

    @settings(max_examples=60, deadline=None)
    @given(points=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 64)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(EDGE)))
    @example(points=np.array([EDGE, EDGE[::-1]]))
    def test_hit_equals_parse_bit_for_bit(self, points):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            save_csv(Dataset(points), path)
            with mock.patch.object(data, "_parse_rows", side_effect=AssertionError("parsed")):
                hit = load_csv(path).points
            np.testing.assert_array_equal(bits(hit), bits(parsed(path)))
            np.testing.assert_array_equal(bits(hit), bits(points))

    def test_edited_csv_is_parsed(self, saved, parse_calls):
        _, path = saved
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = "1,2,3\n"
        path.write_text("".join(lines))
        assert load_csv(path).points[4].tolist() == [1.0, 2.0, 3.0]
        assert parse_calls

    def test_non_numeric_edit_keeps_its_error(self, saved, tmp_path):
        _, path = saved
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = "1,banana,3\n"
        path.write_text("".join(lines))
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(lines))
        for p in (path, bare):
            message = re.escape(f"non-numeric cell at line 8 of {p}") + "$"
            with pytest.raises(DataError, match=message):
                load_csv(p)

    @pytest.mark.parametrize("damage", ["truncated", "magic", "shape", "other_csv", "absent"])
    def test_untrusted_shadow_falls_back_to_the_parse(self, saved, tmp_path, parse_calls,
                                                      damage):
        ds, path = saved
        raw = bytearray(shadow(path).read_bytes())
        if damage == "truncated":
            shadow(path).write_bytes(raw[:-8])
        elif damage == "magic":
            shadow(path).write_bytes(b"EFM.F8\x00\x01" + raw[8:])
        elif damage == "shape":
            # 40 x 3 as 3 x 40: the same payload length
            shadow(path).write_bytes(raw[:40] + struct.pack("<qq", 3, 40) + raw[56:])
        elif damage == "other_csv":
            other = tmp_path / "other.csv"
            save_csv(Dataset(ds.points + 1.0), other)
            shadow(path).write_bytes(shadow(other).read_bytes())
        else:
            shadow(path).unlink()
        np.testing.assert_array_equal(bits(load_csv(path).points), bits(ds.points))
        assert parse_calls

    def test_without_shadow_the_file_is_not_hashed(self, saved, monkeypatch):
        ds, path = saved
        shadow(path).unlink()
        monkeypatch.setattr(data.hashlib, "sha256", mock.Mock(side_effect=AssertionError))
        np.testing.assert_array_equal(load_csv(path).points, ds.points)
