import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efm.core import seeded_stream
from efm.field import (EmpiricalField, FieldError, PlateSet, normalize_rows,
                       one_sided_ez, point_charge_field, scaled_superposition,
                       sphere_surface_area, superposition_field)


def two_point_capacitor(gap=6.0, field_epsilon=0.0):
    pos = PlateSet(np.zeros((1, 1)), 0.0, +1)
    neg = PlateSet(np.zeros((1, 1)), gap, -1)
    return EmpiricalField(pos, neg, field_epsilon)


class TestSphereSurfaceArea:
    def test_circle(self):
        assert sphere_surface_area(1) == pytest.approx(2 * math.pi)

    def test_two_sphere(self):
        assert sphere_surface_area(2) == pytest.approx(4 * math.pi)

    def test_three_sphere(self):
        assert sphere_surface_area(3) == pytest.approx(2 * math.pi ** 2)

    def test_zero_sphere_two_points(self):
        assert sphere_surface_area(0) == pytest.approx(2.0)


class TestPointChargeField:
    def test_unit_charge_3d(self):
        e = point_charge_field(np.array([1.0, 0.0, 0.0]), np.zeros(3), 1.0)
        np.testing.assert_allclose(e, [1 / (4 * math.pi), 0, 0], rtol=1e-14)

    def test_unit_charge_2d_at_distance_two(self):
        e = point_charge_field(np.array([2.0, 0.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(e, [1 / (4 * math.pi), 0], rtol=1e-14)

    def test_at_source_regularized(self):
        e = point_charge_field(np.zeros(2), np.zeros(2), 1.0, field_epsilon=1e-3)
        np.testing.assert_array_equal(e, np.zeros(2))

    def test_regularizer_vanishes_away_from_source(self):
        x = np.array([0.7, -0.3, 0.2])
        exact = point_charge_field(x, np.zeros(3), 1.3)
        for eps in (1e-2, 1e-4, 1e-6):
            reg = point_charge_field(x, np.zeros(3), 1.3, field_epsilon=eps)
            assert np.linalg.norm(reg - exact) <= np.linalg.norm(
                point_charge_field(x, np.zeros(3), 1.3, field_epsilon=10 * eps) - exact) + 1e-18
        np.testing.assert_allclose(
            point_charge_field(x, np.zeros(3), 1.3, field_epsilon=1e-8), exact, rtol=1e-12)


class TestEvaluate:
    def test_two_charge_midpoint_hand_sum(self):
        # oracle: two explicit inverse-power terms summed by hand
        gap = 6.0
        field = two_point_capacitor(gap)
        got = field.evaluate(np.array([0.0, gap / 2]))
        s1 = 2 * math.pi
        term_pos = (1 / s1) * np.array([0.0, gap / 2]) / (gap / 2) ** 2
        term_neg = (-1 / s1) * np.array([0.0, -gap / 2]) / (gap / 2) ** 2
        np.testing.assert_allclose(got, term_pos + term_neg, rtol=1e-14)
        np.testing.assert_allclose(got, [0.0, 4 / (2 * math.pi * gap)], rtol=1e-14)

    def test_midplane_symmetry_kills_lateral_component(self):
        stream = seeded_stream(0, "midplane")
        samples = stream.standard_normal((64, 2))
        gap = 4.0
        field = EmpiricalField(PlateSet(samples, 0.0, +1),
                               PlateSet(samples, gap, -1), 0.0)
        pts = np.column_stack([stream.uniform(-2, 2, (5, 2)), np.full(5, gap / 2)])
        vals = field.evaluate(pts)
        np.testing.assert_allclose(vals[:, :2], 0.0, atol=1e-14)
        assert np.all(vals[:, 2] > 0)

    def test_superposition_linearity(self):
        stream = seeded_stream(1, "superpose")
        a = stream.standard_normal((16, 2))
        b = stream.standard_normal((16, 2)) + 1.0
        pts = np.column_stack([stream.uniform(-1, 1, (8, 2)), stream.uniform(1, 2, 8)])
        charges = np.full(16, 1.0 / 16)
        ea = superposition_field(pts, np.hstack([a, np.zeros((16, 1))]), charges)
        eb = superposition_field(pts, np.hstack([b, np.zeros((16, 1))]), charges)
        union = np.vstack([a, b])
        eu = superposition_field(pts, np.hstack([union, np.zeros((32, 1))]),
                                 np.full(32, 1.0 / 32))
        np.testing.assert_allclose(eu, 0.5 * (ea + eb), rtol=1e-12)

    @pytest.mark.parametrize("dim", [3, 40])
    def test_point_on_charge_without_regularizer_rejected(self, dim):
        # small integer coordinates make the quadratic-expansion r2 exactly 0;
        # standard-normal ones leave a rounding residue (1.1e-16 at dim 3)
        samples = np.arange(2.0 * (dim - 1)).reshape(2, dim - 1) % 3
        sources = np.hstack([samples, np.zeros((2, 1))])
        rounded = np.random.default_rng(0).standard_normal((2, dim))
        for s in (sources, rounded):
            with pytest.raises(FieldError, match="coincides with a charge"):
                superposition_field(s[:1], s, np.array([1.0, -1.0]), 0.0)
        field = EmpiricalField(PlateSet(samples, 0.0, +1), PlateSet(samples, 2.0, -1), 0.0)
        with pytest.raises(FieldError, match="coincides with a charge"):
            field.evaluate(sources[0])

    def test_mc_subsample_needs_stream(self):
        field = EmpiricalField(PlateSet(np.zeros((4, 1)), 0.0, +1),
                               PlateSet(np.ones((4, 1)), 2.0, -1),
                               mc_subsample=2)
        with pytest.raises(FieldError, match="stream"):
            field.evaluate(np.array([0.0, 1.0]))

    def test_mc_subsample_zero_weight_draw_rejected(self):
        # a one-row draw of a zero-weight sample has no charge to renormalize
        field = EmpiricalField(PlateSet(np.arange(4.0)[:, None], 0.0, +1,
                                        np.array([1.0, 0.0, 0.0, 0.0])),
                               PlateSet(np.ones((4, 1)), 2.0, -1), mc_subsample=1)
        with pytest.raises(FieldError, match="zero-weight samples of the positive plate"):
            field.evaluate(np.array([0.5, 1.0]), seeded_stream(0, "x"))

    def test_mc_subsample_full_size_matches_exact(self):
        stream = seeded_stream(2, "mc")
        pos = stream.standard_normal((8, 1))
        neg = stream.standard_normal((8, 1)) + 2
        exact = EmpiricalField(PlateSet(pos, 0.0, +1), PlateSet(neg, 3.0, -1))
        sub = EmpiricalField(PlateSet(pos, 0.0, +1), PlateSet(neg, 3.0, -1),
                             mc_subsample=8)
        pt = np.array([0.3, 1.1])
        np.testing.assert_allclose(sub.evaluate(pt, seeded_stream(0, "s")),
                                   exact.evaluate(pt), rtol=1e-12)

    def test_mc_subsample_sums_over_its_own_draw(self):
        # oracle: replay the same draws by hand and sum the drawn rows with
        # charges renormalized to +-1 over the draw
        stream = seeded_stream(3, "mc-draw")
        pos, neg = stream.standard_normal((12, 2)), stream.standard_normal((10, 2)) + 2
        w_pos, w_neg = stream.uniform(0.5, 1.5, 12), stream.uniform(0.5, 1.5, 10)
        w_pos, w_neg = w_pos / w_pos.sum(), w_neg / w_neg.sum()
        gap = 3.0
        field = EmpiricalField(PlateSet(pos, 0.0, +1, w_pos),
                               PlateSet(neg, gap, -1, w_neg), mc_subsample=5)
        pts = np.column_stack([stream.uniform(-2, 2, (6, 2)), stream.uniform(0.5, 2.5, 6)])
        got = field.evaluate(pts, seeded_stream(0, "draw"))

        replay = seeded_stream(0, "draw")
        idx_p = replay.choice(12, size=5, replace=False)
        idx_n = replay.choice(10, size=5, replace=False)
        sources = np.vstack([np.column_stack([pos[idx_p], np.zeros(5)]),
                             np.column_stack([neg[idx_n], np.full(5, gap)])])
        charges = np.concatenate([w_pos[idx_p] / w_pos[idx_p].sum(),
                                  -w_neg[idx_n] / w_neg[idx_n].sum()])
        want = superposition_field(pts, sources, charges, field.field_epsilon)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestNormalized:
    def test_unit_norm_or_zero(self):
        field = two_point_capacitor()
        pts = np.column_stack([np.linspace(-3, 3, 9), np.linspace(0.5, 5.5, 9)])
        unit, degenerate = field.normalized(pts)
        norms = np.linalg.norm(unit, axis=1)
        assert np.all((np.isclose(norms, 1.0, atol=1e-12)) | (norms == 0.0))
        assert not degenerate.any()

    def test_values_match_direct_normalization(self):
        e = np.array([[3.0, 0.0, 4.0]])
        unit, degenerate = normalize_rows(e)
        np.testing.assert_allclose(unit[0], [0.6, 0.0, 0.8], rtol=1e-15)
        assert not degenerate[0]

    def test_zero_field_flagged(self):
        unit, degenerate = normalize_rows(np.zeros((1, 3)))
        assert degenerate[0]
        np.testing.assert_array_equal(unit[0], np.zeros(3))


class TestZLimits:
    """One-sided E_z limits at a plate (`one_sided_ez`)."""

    def test_symmetric_capacitor_signs_near_positive_plate(self):
        # oracle: direct summation; field points away from the positive
        # plate on both sides of it
        stream = seeded_stream(3, "zlim")
        pos = stream.standard_normal((256, 1)) * 0.5
        neg = stream.standard_normal((256, 1)) * 0.5
        field = EmpiricalField(PlateSet(pos, 0.0, +1), PlateSet(neg, 6.0, -1), 1e-6)
        e_lo, e_hi = one_sided_ez(field.evaluate, np.array([0.0]), 0.0, 5e-3)
        assert e_hi > 0
        assert e_lo < 0

    def test_far_point_continuous(self):
        field = two_point_capacitor()
        e_lo, e_hi = one_sided_ez(field.evaluate, np.array([50.0]), 0.0, 1e-3)
        assert e_hi == pytest.approx(e_lo, rel=1e-3)

    def test_single_charge_jump_positive_and_stable(self):
        # oracle: direct summation with a shrinking one-sided limit
        pos = PlateSet(np.zeros((1, 1)), 0.0, +1)
        neg = PlateSet(np.full((1, 1), 100.0), 50.0, -1)
        field = EmpiricalField(pos, neg, 0.0)
        jumps = []
        for eps in (1e-2, 1e-3, 1e-4):
            e_lo, e_hi = one_sided_ez(field.evaluate, np.array([0.0]), 0.0, eps)
            assert e_hi - e_lo > 0
            jumps.append((e_hi - e_lo) * eps)  # atomic charge: jump ~ 1/(pi eps)
        np.testing.assert_allclose(jumps, 1 / math.pi, rtol=1e-3)

    def test_one_call_matches_evaluate_row_by_row(self):
        stream = seeded_stream(5, "zlim")
        field = EmpiricalField(PlateSet(stream.standard_normal((64, 2)), 0.0, +1),
                               PlateSet(stream.standard_normal((64, 2)), 6.0, -1), 1e-4)
        x = stream.standard_normal((5, 2))
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return field.evaluate(pts)

        e_lo, e_hi = one_sided_ez(counting, x, 6.0, 1e-3)
        assert calls == [10]
        for i in range(5):
            assert e_lo[i] == pytest.approx(field.evaluate(np.append(x[i], 6.0 - 1e-3))[-1],
                                            rel=1e-12)
            assert e_hi[i] == pytest.approx(field.evaluate(np.append(x[i], 6.0 + 1e-3))[-1],
                                            rel=1e-12)


class TestHighDimensionalStability:
    @pytest.mark.parametrize("field_epsilon", [0.0, 1e-4])
    @pytest.mark.parametrize("dim", [32, 33, 40, 129])
    def test_log_accumulation_matches_direct_at_moderate_distance(self, dim, field_epsilon):
        # dim 32 is the last plain-power dimension, 33 the first log-space one
        stream = seeded_stream(4, "highd")
        sources = stream.standard_normal((6, dim)) * 0.1
        charges = np.array([0.5, 0.3, 0.2, -0.6, -0.25, -0.15])
        pts = stream.standard_normal((3, dim))
        got = superposition_field(pts, sources, charges, field_epsilon)
        # direct reference accumulated per charge in float64
        ref = sum(point_charge_field(pts, sources[i], charges[i], field_epsilon)
                  for i in range(6))
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_kernel_memory_does_not_grow_with_dimension(self):
        # every temporary is (rows, n): 64 x 2048 float64 is 1 MiB each,
        # where a (rows, n, D+1) temporary at D+1=129 would be 128 MiB
        stream = seeded_stream(5, "highd-memory")
        sources = stream.standard_normal((2048, 129))
        charges = np.full(2048, 1.0 / 2048)
        pts = stream.standard_normal((64, 129))
        tracemalloc.start()
        try:
            scaled_superposition(pts, sources, charges, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_far_field_direction_survives_underflow(self):
        dim = 64
        sources = np.zeros((1, dim))
        charges = np.array([1.0])
        pt = np.zeros(dim)
        pt[0] = 1e6  # 1e6**64 overflows float64 in the naive power
        vec, log_scale = scaled_superposition(pt[None], sources, charges)
        unit, degenerate = normalize_rows(vec)
        assert not degenerate[0]
        np.testing.assert_allclose(unit[0, 0], 1.0, rtol=1e-12)


class TestPlateSetInvariants:
    def test_bad_sign_rejected(self):
        with pytest.raises(FieldError, match="sign"):
            PlateSet(np.zeros((2, 1)), 0.0, 2)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(FieldError, match="sum to 1"):
            PlateSet(np.zeros((2, 1)), 0.0, +1, weights=np.array([0.7, 0.7]))

    def test_empty_plate_rejected(self):
        with pytest.raises(FieldError, match="nonempty"):
            PlateSet(np.zeros((0, 1)), 0.0, +1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 20))
    def test_uniform_weights_total_unit_charge(self, n):
        plate = PlateSet(np.zeros((n, 2)), 0.0, +1)
        assert plate.weights.sum() == pytest.approx(1.0)
