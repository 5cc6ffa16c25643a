import math
import os
import resource
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efm.field
from efm.core import seeded_stream
from efm.field import (_PAIR_BLOCK, LOG_ACCUMULATION_DIM, EmpiricalField, FieldError, PlateSet,
                       _split, normalize_rows, one_sided_ez, point_charge_field, scaled_superposition,
                       sphere_surface_area, superposition_field)


def allocating_scaled_superposition(points, sources, charges, field_epsilon=0.0,
                                    sources_sq=None):
    """Frozen copy of `scaled_superposition` as it was before its temporaries
    moved into a per-thread workspace, with every (rows, n) temporary freshly
    allocated: the bit-for-bit reference of the kernel tests. Like the
    kernel, its log-accumulation branch leaves vec unscaled and puts
    -log S_(d-1) into log_scale."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    charges = np.asarray(charges, dtype=float)
    m, d = points.shape
    if sources.shape[1] != d:
        raise FieldError("points and sources must share a dimension")
    n = sources.shape[0]
    if d > LOG_ACCUMULATION_DIM:
        inv_area = 1.0
        log_area = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
    else:
        inv_area = 1.0 / sphere_surface_area(d - 1)
    eps2 = field_epsilon * field_epsilon
    vec = np.empty((m, d))
    log_scale = np.zeros(m)
    block = max(1, _PAIR_BLOCK // max(n, 1))
    s_sq = sources_sq if sources_sq is not None else np.einsum("ij,ij->i", sources, sources)
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        blk = points[i0:i1]
        blk_sq = np.einsum("ij,ij->i", blk, blk)[:, None]
        r2 = blk_sq + s_sq[None, :] - 2.0 * (blk @ sources.T)
        np.maximum(r2, 0.0, out=r2)
        if eps2 == 0.0 and np.any(r2 <= 4.0 * np.finfo(float).eps * (blk_sq + s_sq[None, :])):
            raise FieldError("evaluation point coincides with a charge and field_epsilon is 0")
        r2 += eps2
        if d > LOG_ACCUMULATION_DIM:
            with np.errstate(divide="ignore"):
                logw = np.log(np.abs(charges))[None, :] - (0.5 * d) * np.log(r2)
            shift = np.max(logw, axis=1)
            shift[~np.isfinite(shift)] = 0.0
            w = np.sign(charges)[None, :] * np.exp(logw - shift[:, None])
            log_scale[i0:i1] = shift - log_area
        elif d % 2 == 0:
            w = charges[None, :] / r2 ** (d // 2)
        else:
            w = charges[None, :] / (r2 ** (d // 2) * np.sqrt(r2))
        vec[i0:i1] = inv_area * (blk * w.sum(axis=1)[:, None] - w @ sources)
    return vec, log_scale


def kernel_inputs(seed, m, n, dim):
    """m points and n charges in `dim` dimensions, every fifth charge of
    zero weight (log|c| = -inf on the log-accumulation branch)."""
    stream = seeded_stream(seed, f"kernel/{m}/{n}/{dim}")
    sources = stream.standard_normal((n, dim))
    charges = stream.uniform(-1.0, 1.0, n)
    charges[::5] = 0.0
    return 1.5 * stream.standard_normal((m, dim)), sources, charges


def two_point_capacitor(gap=6.0, field_epsilon=0.0):
    pos = PlateSet(np.zeros((1, 1)))
    neg = PlateSet(np.zeros((1, 1)))
    return EmpiricalField(pos, neg, gap, field_epsilon)


class TestSphereSurfaceArea:
    def test_circle(self):
        assert sphere_surface_area(1) == 2 * math.pi

    def test_two_sphere(self):
        assert sphere_surface_area(2) == 4 * math.pi

    def test_three_sphere(self):
        assert sphere_surface_area(3) == pytest.approx(2 * math.pi ** 2)

    def test_zero_sphere_two_points(self):
        assert sphere_surface_area(0) == pytest.approx(2.0)

    def test_within_16_ulps_of_closed_forms(self):
        # S_(2k-1) = 2 pi^k / (k-1)! and S_(2k) = 2^(k+1) pi^k / (2k-1)!!,
        # exact in the float pi and integer factorials, rounded once
        pi = Fraction(math.pi)
        ulps = {}
        for n in range(65):
            k = (n + 1) // 2
            if n % 2:
                exact = 2 * pi ** k / math.factorial(k - 1)
            else:
                exact = 2 ** (k + 1) * pi ** k / math.prod(range(1, 2 * k, 2))
            ulps[n] = abs(sphere_surface_area(n) - float(exact)) / math.ulp(float(exact))
        assert max(ulps.values()) <= 16, ulps


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
        got, = field.evaluate(np.array([[0.0, gap / 2]]))
        s1 = 2 * math.pi
        term_pos = (1 / s1) * np.array([0.0, gap / 2]) / (gap / 2) ** 2
        term_neg = (-1 / s1) * np.array([0.0, -gap / 2]) / (gap / 2) ** 2
        np.testing.assert_allclose(got, term_pos + term_neg, rtol=1e-14)
        np.testing.assert_allclose(got, [0.0, 4 / (2 * math.pi * gap)], rtol=1e-14)

    def test_midplane_symmetry_kills_lateral_component(self):
        stream = seeded_stream(0, "midplane")
        samples = stream.standard_normal((64, 2))
        gap = 4.0
        field = EmpiricalField(PlateSet(samples), PlateSet(samples), gap, 0.0)
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
        field = EmpiricalField(PlateSet(samples), PlateSet(samples), 2.0, 0.0)
        with pytest.raises(FieldError, match="coincides with a charge"):
            field.evaluate(sources[:1])

    def test_mc_subsample_zero_weight_draw_rejected(self):
        # a one-row draw of a zero-weight sample has no charge to renormalize
        field = EmpiricalField(PlateSet(np.arange(4.0)[:, None],
                                        np.array([1.0, 0.0, 0.0, 0.0])),
                               PlateSet(np.ones((4, 1))), 2.0)
        with pytest.raises(FieldError, match="zero-weight samples of the positive plate"):
            field.subsample(1, seeded_stream(0, "x"))

    def test_mc_subsample_full_size_matches_exact(self):
        stream = seeded_stream(2, "mc")
        pos = stream.standard_normal((8, 1))
        neg = stream.standard_normal((8, 1)) + 2
        exact = EmpiricalField(PlateSet(pos), PlateSet(neg), 3.0)
        pt = np.array([[0.3, 1.1]])
        np.testing.assert_allclose(exact.subsample(8, seeded_stream(0, "s")).evaluate(pt),
                                   exact.evaluate(pt), rtol=1e-12)

    def test_mc_subsample_sums_over_its_own_draw(self):
        # oracle: replay the same draws by hand and sum the drawn rows with
        # charges renormalized to +-1 over the draw
        stream = seeded_stream(3, "mc-draw")
        pos, neg = stream.standard_normal((12, 2)), stream.standard_normal((10, 2)) + 2
        w_pos, w_neg = stream.uniform(0.5, 1.5, 12), stream.uniform(0.5, 1.5, 10)
        w_pos, w_neg = w_pos / w_pos.sum(), w_neg / w_neg.sum()
        gap = 3.0
        field = EmpiricalField(PlateSet(pos, w_pos), PlateSet(neg, w_neg), gap)
        pts = np.column_stack([stream.uniform(-2, 2, (6, 2)), stream.uniform(0.5, 2.5, 6)])
        got = field.subsample(5, seeded_stream(0, "draw")).evaluate(pts)

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
        field = EmpiricalField(PlateSet(pos), PlateSet(neg), 6.0, 1e-6)
        e_lo, e_hi = one_sided_ez(field.evaluate, np.array([0.0]), 0.0, 5e-3)
        assert e_hi > 0
        assert e_lo < 0

    def test_far_point_continuous(self):
        field = two_point_capacitor()
        e_lo, e_hi = one_sided_ez(field.evaluate, np.array([50.0]), 0.0, 1e-3)
        assert e_hi == pytest.approx(e_lo, rel=1e-3)

    def test_single_charge_jump_positive_and_stable(self):
        # oracle: direct summation with a shrinking one-sided limit
        pos = PlateSet(np.zeros((1, 1)))
        neg = PlateSet(np.full((1, 1), 100.0))
        field = EmpiricalField(pos, neg, 50.0, 0.0)
        jumps = []
        for eps in (1e-2, 1e-3, 1e-4):
            e_lo, e_hi = one_sided_ez(field.evaluate, np.array([0.0]), 0.0, eps)
            assert e_hi - e_lo > 0
            jumps.append((e_hi - e_lo) * eps)  # atomic charge: jump ~ 1/(pi eps)
        np.testing.assert_allclose(jumps, 1 / math.pi, rtol=1e-3)

    def test_one_call_matches_evaluate_row_by_row(self):
        stream = seeded_stream(5, "zlim")
        field = EmpiricalField(PlateSet(stream.standard_normal((64, 2))),
                               PlateSet(stream.standard_normal((64, 2))), 6.0, 1e-4)
        x = stream.standard_normal((5, 2))
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return field.evaluate(pts)

        e_lo, e_hi = one_sided_ez(counting, x, 6.0, 1e-3)
        assert calls == [10]
        for i in range(5):
            lo, hi = field.evaluate(np.column_stack([[x[i], x[i]], [6.0 - 1e-3, 6.0 + 1e-3]]))
            assert e_lo[i] == pytest.approx(lo[-1], rel=1e-12)
            assert e_hi[i] == pytest.approx(hi[-1], rel=1e-12)


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

    def test_far_point_on_the_power_branch_keeps_a_unit_direction(self):
        # D+1=17 is below LOG_ACCUMULATION_DIM, and r^16 of a point at
        # x_1 = 1e20 overflows float64: its block takes the log branch
        stream = seeded_stream(8, "far/17")
        field = EmpiricalField(PlateSet(stream.standard_normal((128, 16))),
                               PlateSet(stream.standard_normal((128, 16)) + 0.5), 6.0)
        pt = np.zeros((1, 17))
        pt[0, 0] = 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, degenerate = field.normalized(pt)
        assert not degenerate[0]
        assert np.all(np.isfinite(unit))
        assert np.linalg.norm(unit[0]) == pytest.approx(1.0, rel=1e-14)

    def test_far_block_matches_exact_differences(self):
        # D+1=32: r^32 overflows from r of about 7e9. The far point's block,
        # and the near point that shares it, equal a log-space sum over exact
        # differences, up to the squared-distance expansion's rounding
        dim = 32
        stream = seeded_stream(8, "far/32")
        sources = stream.standard_normal((64, dim))
        sources[32:, -1] += 6.0
        charges = np.repeat([1 / 32, -1 / 32], 32)
        u = stream.standard_normal(dim)
        pts = np.vstack([1e10 * u / np.linalg.norm(u), stream.standard_normal(dim)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec, log_scale = scaled_superposition(pts, sources, charges, 1e-4)
        diff = pts[:, None, :] - sources[None, :, :]
        log_w = (np.log(np.abs(charges))
                 - 0.5 * dim * np.log(np.einsum("ijk,ijk->ij", diff, diff) + 1e-8))
        shift = log_w.max(axis=1, keepdims=True)
        ref = np.einsum("ij,ijk->ik", np.sign(charges) * np.exp(log_w - shift), diff)
        got, _ = normalize_rows(vec)
        want, _ = normalize_rows(ref)
        np.testing.assert_allclose(got[0], want[0], atol=1e-5)
        np.testing.assert_allclose(got[1], want[1], atol=1e-13)
        # log_scale carries the shift and -log S_31, so vec is unscaled
        np.testing.assert_allclose(vec[1] * np.exp(log_scale[1]),
                                   ref[1] * np.exp(shift[1, 0]) / sphere_surface_area(dim - 1),
                                   rtol=1e-12)

    @pytest.mark.parametrize("dim", [300, 500])
    def test_unit_rows_where_the_area_leaves_float_range(self, dim):
        # 1/S_dim passes 1e154 at dim 300 (a row norm's squares would
        # overflow) and S_dim underflows to 0 at dim 500
        stream = seeded_stream(6, f"area-range/{dim}")
        field = EmpiricalField(PlateSet(stream.standard_normal((20, dim))),
                               PlateSet(stream.standard_normal((20, dim)) + 1.0), 6.0)
        pts = np.column_stack([stream.standard_normal((4, dim)), np.full(4, 3.0)])
        unit, degenerate = field.normalized(pts)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=1e-14)
        assert not degenerate.any()

    def test_evaluate_matches_direct_formula_on_the_log_branch(self):
        # D=33: vec * exp(log_scale), with log_scale carrying -log S_33, is the
        # direct sum of c_j (p - s_j) / (S_33 r^34) with S_33 from log-gamma
        dim = 33
        stream = seeded_stream(7, "log-branch-area")
        field = EmpiricalField(PlateSet(stream.standard_normal((40, dim))),
                               PlateSet(stream.standard_normal((40, dim)) + 0.5), 6.0)
        pts = np.column_stack([stream.standard_normal((8, dim)), stream.uniform(1.0, 5.0, 8)])
        half = 0.5 * (dim + 1)
        area = 2.0 * math.exp(half * math.log(math.pi) - math.lgamma(half))
        diff = pts[:, None, :] - field.sources[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + field.field_epsilon ** 2
        ref = np.einsum("ij,ijk->ik", field.charges / r2 ** half, diff) / area
        got = field.evaluate(pts)
        err = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() <= 1e-13


class TestKernelWorkspace:
    """`scaled_superposition` writes its temporaries into a per-thread
    workspace; it must equal the allocating kernel bit for bit."""

    DIMS = [2, 3, 4, 9, 32, 33, 65]  # even and odd, both sides of the log branch

    @staticmethod
    def assert_same(got, want):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("field_epsilon", [0.0, 1e-4])
    @pytest.mark.parametrize("dim", DIMS)
    def test_bit_identical_to_allocating_kernel(self, dim, field_epsilon):
        n = 3000
        block = _PAIR_BLOCK // n
        for m in (1, block - 1, block, block + 1, 3 * block + 5):
            pts, sources, charges = kernel_inputs(dim, m, n, dim)
            self.assert_same(scaled_superposition(pts, sources, charges, field_epsilon),
                             allocating_scaled_superposition(pts, sources, charges,
                                                             field_epsilon))

    @pytest.mark.parametrize("field_epsilon", [0.0, 1e-4])
    @pytest.mark.parametrize("dim", DIMS)
    def test_bit_identical_with_one_row_blocks(self, dim, field_epsilon):
        # more charges than _PAIR_BLOCK: a block is one row, and the
        # workspace grows to hold that row
        pts, sources, charges = kernel_inputs(dim, 8, _PAIR_BLOCK + 3, dim)
        sq = np.einsum("ij,ij->i", sources, sources)
        for m in (1, 2, 8):
            self.assert_same(scaled_superposition(pts[:m], sources, charges, field_epsilon, sq),
                             allocating_scaled_superposition(pts[:m], sources, charges,
                                                             field_epsilon, sq))

    @pytest.mark.parametrize("dim", [3, 33])
    def test_coincidence_in_a_later_block_raises_and_leaves_no_trace(self, dim):
        pts, sources, charges = kernel_inputs(1, 3 * (_PAIR_BLOCK // 3000) + 5, 3000, dim)
        pts[-1] = sources[7]
        with pytest.raises(FieldError, match="coincides with a charge"):
            scaled_superposition(pts, sources, charges, 0.0)
        self.assert_same(scaled_superposition(pts[:-1], sources, charges, 0.0),
                         allocating_scaled_superposition(pts[:-1], sources, charges, 0.0))

    def test_concurrent_threads_match_sequential_calls(self):
        # more threads than cores, switching often, each cycling through
        # shapes that need different workspace sizes
        cases = [kernel_inputs(k, 200, 700 + 50 * k, dim) for k, dim in enumerate((3, 33, 4, 65))]
        want = [scaled_superposition(*case, 1e-4) for case in cases]
        start = threading.Barrier(4, timeout=60)
        got = {}

        def run(name):
            start.wait()
            got[name] = [(k, scaled_superposition(*cases[k], 1e-4))
                         for r in range(5) for k in np.roll(range(4), name + r)]

        threads = [threading.Thread(target=run, args=(name,)) for name in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for results in got.values():
            for k, result in results:
                self.assert_same(result, want[k])

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="per-thread rusage is Linux-only")
    def test_warm_calls_fault_in_no_pages(self):
        # in a fresh interpreter, where the allocator still has its default
        # thresholds: a (rows, n) temporary allocated per call is then
        # mmapped and faulted in anew on every call
        probe = textwrap.dedent("""
            import resource
            import numpy as np
            from efm.field import scaled_superposition
            faults = []
            for m, n, dim in ((512, 512, 3), (512, 512, 33), (23, 4096, 3)):
                rng = np.random.default_rng(m + n + dim)
                pts, sources = rng.standard_normal((m, dim)), rng.standard_normal((n, dim))
                charges = np.full(n, 1.0 / n)
                charges[n // 2:] *= -1.0
                sq = np.einsum("ij,ij->i", sources, sources)
                for _ in range(3):
                    scaled_superposition(pts, sources, charges, 1e-4, sq)
                before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
                for _ in range(10):
                    scaled_superposition(pts, sources, charges, 1e-4, sq)
                faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
            print(*faults)
        """)
        src = os.path.dirname(os.path.dirname(efm.field.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        # 512x512 at D+1=3 and 33, and an exact-oracle-sized 23x4096 call
        assert run.stdout.split() == ["0", "0", "0"]


class TestSplit:
    """`_split`: the leading share of the pieces on the caller, the trailing
    share on one worker thread, results in piece order."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return use

    @staticmethod
    def run(costs, min_cost=0):
        """(results, [thread of each piece], threads alive before, after)."""
        caller = threading.current_thread()
        before = threading.active_count()
        got = _split(lambda p: (p * p, threading.current_thread() is caller),
                     list(range(len(costs))), costs, min_cost)
        return [r for r, _ in got], [on for _, on in got], before, threading.active_count()

    @pytest.mark.parametrize("costs,lead", [([5, 5], 1), ([1, 1, 1, 1, 1], 2),
                                            ([9, 1, 1, 1], 1), ([1, 1, 1, 9], 3),
                                            ([4, 3, 2, 1], 1), ([3, 3, 2, 2], 2)])
    def test_cut_balances_costs(self, cpus, costs, lead):
        cpus(2)
        results, on_caller, before, after = self.run(costs)
        assert results == [p * p for p in range(len(costs))]
        assert on_caller == [True] * lead + [False] * (len(costs) - lead)
        assert after == before

    @pytest.mark.parametrize("n_cpus,costs,min_cost", [(1, [5, 5], 0), (2, [5], 0),
                                                        (2, [], 0), (2, [9, 2, 2], 5)])
    def test_no_thread(self, cpus, monkeypatch, n_cpus, costs, min_cost):
        cpus(n_cpus)

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("_split started a worker thread")

        monkeypatch.setattr(efm.field, "ThreadPoolExecutor", NoPool)
        results, on_caller, _, _ = self.run(costs, min_cost)
        assert results == [p * p for p in range(len(costs))]
        assert all(on_caller)

    def test_trailing_share_at_min_cost_splits(self, cpus):
        cpus(2)
        assert self.run([9, 2, 2], 4)[1] == [True, False, False]

    @pytest.mark.parametrize("fail_on_caller", [False, True])
    def test_exception_propagates_after_join(self, cpus, fail_on_caller):
        cpus(2)
        caller = threading.current_thread()
        before = threading.active_count()

        def piece(p):
            if (threading.current_thread() is caller) == fail_on_caller:
                raise RuntimeError(f"piece {p} failed")
            return p

        with pytest.raises(RuntimeError, match="piece [01] failed"):
            _split(piece, [0, 1], [1, 1])
        assert threading.active_count() == before

    def test_worker_keeps_callers_error_state(self, cpus):
        cpus(2)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                _split(lambda p: np.float64(1.0) / np.float64(p), [1.0, 0.0], [1, 1])
        with np.errstate(divide="ignore"):
            assert _split(lambda p: np.float64(1.0) / np.float64(p), [1.0, 0.0], [1, 1]) == [
                1.0, np.inf]


class TestPlateSetInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(FieldError, match="sum to 1"):
            PlateSet(np.zeros((2, 1)), weights=np.array([0.7, 0.7]))

    def test_empty_plate_rejected(self):
        with pytest.raises(FieldError, match="nonempty"):
            PlateSet(np.zeros((0, 1)))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 20))
    def test_uniform_weights_total_unit_charge(self, n):
        plate = PlateSet(np.zeros((n, 2)))
        assert plate.weights.sum() == pytest.approx(1.0)


class TestEmpiricalFieldInvariants:
    def test_sources_lift_positive_plate_to_zero_and_negative_to_gap(self):
        pos, neg = np.array([[1.0], [2.0]]), np.array([[3.0]])
        field = EmpiricalField(PlateSet(pos, np.array([0.25, 0.75])), PlateSet(neg), 5.0)
        np.testing.assert_array_equal(field.sources, [[1.0, 0.0], [2.0, 0.0], [3.0, 5.0]])
        np.testing.assert_array_equal(field.charges, [0.25, 0.75, -1.0])
        np.testing.assert_array_equal(field.sources_sq, [1.0, 4.0, 34.0])

    def test_plates_must_share_a_dimension(self):
        with pytest.raises(FieldError, match="share the data dimension"):
            EmpiricalField(PlateSet(np.zeros((1, 1))), PlateSet(np.zeros((1, 2))), 6.0)

    @pytest.mark.parametrize("gap", [0.0, -1.0, np.inf, np.nan])
    def test_bad_gap_rejected(self, gap):
        with pytest.raises(FieldError, match="plate_gap"):
            two_point_capacitor(gap=gap, field_epsilon=1e-4)

    @pytest.mark.parametrize("eps", [-1e-4, np.inf, np.nan])
    def test_bad_field_epsilon_rejected(self, eps):
        with pytest.raises(FieldError, match="field_epsilon"):
            two_point_capacitor(field_epsilon=eps)
