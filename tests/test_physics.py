import math

import numpy as np
import pytest

from efm.core import EfmError, seeded_stream
from efm.field import EmpiricalField, PlateSet, superposition_field
from efm.physics import (CapSpec, FluxReport, cap_solid_angle, circulation,
                         flux_through_box, flux_through_sphere, gaussian_kde_density,
                         plate_jump_residual, silverman_bandwidth, solid_angle_flux)


def point_fn(source, q, dim):
    src = np.asarray(source, dtype=float).reshape(1, dim)
    return lambda pts: superposition_field(pts, src, np.array([q]))


class TestFluxThroughSphere:
    def test_unit_charge_centered_is_exact(self):
        fn = point_fn(np.zeros(3), 1.0, 3)
        rep = flux_through_sphere(fn, np.zeros(3), 2.0, 500, seeded_stream(0, "f"),
                                  target=1.0)
        assert rep.estimate == pytest.approx(1.0, rel=1e-12)

    def test_unit_charge_off_center(self):
        fn = point_fn([0.4, -0.2, 0.1], 1.0, 3)
        rep = flux_through_sphere(fn, np.zeros(3), 1.5, 50_000, seeded_stream(1, "f"),
                                  target=1.0)
        assert rep.estimate == pytest.approx(1.0, abs=0.02)

    def test_charge_outside_is_zero(self):
        fn = point_fn([5.0, 0.0, 0.0], 1.0, 3)
        rep = flux_through_sphere(fn, np.zeros(3), 1.5, 50_000, seeded_stream(2, "f"))
        assert rep.estimate == pytest.approx(0.0, abs=0.02)

    def test_dipole_inside_cancels(self):
        src = np.array([[0.3, 0.0, 0.0], [-0.3, 0.0, 0.0]])
        fn = lambda pts: superposition_field(pts, src, np.array([1.0, -1.0]))
        rep = flux_through_sphere(fn, np.zeros(3), 2.0, 50_000, seeded_stream(3, "f"))
        assert rep.estimate == pytest.approx(0.0, abs=0.02)

    def test_standard_error_scales_like_inverse_sqrt(self):
        # oracle: empirical spread of repeated estimates over a 4x ladder
        fn = point_fn([0.5, 0.1, -0.2], 1.0, 3)

        def spread(n_mc, tag):
            reps = [flux_through_sphere(fn, np.zeros(3), 1.2, n_mc,
                                        seeded_stream(k, tag)).estimate
                    for k in range(20)]
            return np.std(reps)

        s1 = spread(1000, "se1")
        s4 = spread(4000, "se4")
        assert 1.4 < s1 / s4 < 2.9  # ideal ratio 2

    def test_report_relative_error_contract(self):
        rep = FluxReport.build(1.1, 1.0, 10)
        assert rep.relative_error == pytest.approx(0.1)
        rep = FluxReport.build(0.3, 0.0, 10)
        assert rep.relative_error == pytest.approx(0.3)  # max(|target|, 1) floor


class TestFluxThroughBox:
    def test_empty_space_between_plates(self):
        field = EmpiricalField(PlateSet(np.zeros((1, 1)), 0.0, +1),
                               PlateSet(np.zeros((1, 1)), 6.0, -1))
        rep = flux_through_box(field.evaluate, [0.5, 2.0], [1.5, 4.0], 400)
        assert rep.estimate == pytest.approx(0.0, abs=1e-3)

    def test_box_around_positive_plate(self):
        stream = seeded_stream(4, "box")
        field = EmpiricalField(PlateSet(stream.uniform(-1, 1, (128, 1)), 0.0, +1),
                               PlateSet(stream.uniform(-1, 1, (128, 1)), 8.0, -1))
        rep = flux_through_box(field.evaluate, [-4.0, -2.0], [4.0, 2.0], 3000,
                               target=1.0)
        assert rep.estimate == pytest.approx(1.0, rel=0.02)

    def test_degenerate_box_rejected(self):
        with pytest.raises(EfmError, match="empty box"):
            flux_through_box(lambda p: p, [0.0, 0.0], [0.0, 1.0], 10)


class TestCirculation:
    @staticmethod
    def circle(center, radius, n):
        ang = np.linspace(0.0, 2 * math.pi, n + 1)
        return center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def test_closed_loop_around_point_charge(self):
        fn = point_fn([0.2, -0.1], 1.0, 2)
        loop = self.circle(np.zeros(2), 1.0, 512)
        assert abs(circulation(fn, loop)) < 1e-6

    def test_loop_in_capacitor_midspace(self):
        field = EmpiricalField(PlateSet(np.zeros((1, 1)), 0.0, +1),
                               PlateSet(np.zeros((1, 1)), 6.0, -1))
        loop = self.circle(np.array([0.0, 3.0]), 1.0, 512)
        assert abs(circulation(field.evaluate, loop)) < 1e-6

    def test_refinement_shrinks_residual(self):
        # oracle: comparing two quadrature resolutions of the same loop
        fn = point_fn([0.3, 0.0], 1.0, 2)
        coarse = abs(circulation(fn, self.circle(np.zeros(2), 1.0, 64)))
        fine = abs(circulation(fn, self.circle(np.zeros(2), 1.0, 128)))
        assert fine <= coarse + 1e-15

    def test_open_polyline_rejected(self):
        pts = np.random.default_rng(0).standard_normal((12, 2))
        with pytest.raises(EfmError, match="open polyline"):
            circulation(lambda p: p, pts)

    def test_too_few_segments_rejected(self):
        loop = self.circle(np.zeros(2), 1.0, 4)
        with pytest.raises(EfmError, match="at least 8"):
            circulation(lambda p: p, loop)


class TestSolidAngle:
    def test_closed_form_against_brute_force_mc(self):
        # oracle: fraction of uniformly drawn sphere directions inside the
        # cap, compared within 4 binomial standard deviations
        n_mc = 200_000
        for dim in (2, 3, 4):
            for theta in (0.3, math.pi / 4, 1.2, 2.0):
                stream = seeded_stream(dim, f"cap{theta}")
                dirs = stream.standard_normal((n_mc, dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                frac = float(np.mean(dirs[:, -1] >= math.cos(theta)))
                from efm.field import sphere_surface_area
                area = sphere_surface_area(dim - 1)
                p = cap_solid_angle(dim, theta) / area
                sigma = math.sqrt(p * (1 - p) / n_mc)
                assert abs(frac - p) < 4 * sigma + 1e-12

    def test_known_3d_values(self):
        assert cap_solid_angle(3, math.pi / 2) == pytest.approx(2 * math.pi)
        assert cap_solid_angle(3, math.pi / 3) == pytest.approx(math.pi)
        assert cap_solid_angle(3, math.pi) == pytest.approx(4 * math.pi)

    def test_hemisphere_flux_is_half(self):
        cap = CapSpec(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]), math.pi / 2)
        rep = solid_angle_flux(point_fn(np.zeros(3), 1.0, 3), 1.0, cap, 200_000,
                               seeded_stream(7, "hemi"))
        assert rep.target == pytest.approx(0.5)
        assert rep.estimate == pytest.approx(0.5, rel=0.01)

    def test_full_sphere_flux_is_one(self):
        cap = CapSpec(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]), math.pi)
        rep = solid_angle_flux(point_fn(np.zeros(3), 1.0, 3), 1.0, cap, 10_000,
                               seeded_stream(8, "full"))
        assert rep.estimate == pytest.approx(1.0, rel=1e-9)

    def test_zero_cap_flux_is_zero(self):
        cap = CapSpec(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]), 0.0)
        rep = solid_angle_flux(point_fn(np.zeros(3), 1.0, 3), 1.0, cap, 10_000,
                               seeded_stream(9, "zero"))
        assert rep.estimate == 0.0
        assert rep.target == 0.0


class TestPlateJump:
    @staticmethod
    def uniform_plate_field(n, seed=0, gap=50.0):
        stream = seeded_stream(seed, "jump-plate")
        plate = PlateSet(stream.uniform(-1, 1, (n, 1)), 0.0, +1)
        far = PlateSet(np.zeros((1, 1)), gap, -1)
        return EmpiricalField(plate, far, 1e-6)

    def test_uniform_density_recovered(self):
        # oracle: direct field summation; uniform density on [-1, 1] is 1/2
        field = self.uniform_plate_field(100_000)
        pts = np.linspace(-0.5, 0.5, 7)[:, None]
        reports = plate_jump_residual(field, pts, limit_epsilon=0.04)
        jumps = [r.jump for r in reports]
        np.testing.assert_allclose(jumps, 0.5, atol=0.05)
        for r in reports:
            assert abs(r.residual) == pytest.approx(abs(r.jump - r.density_estimate))

    def test_far_outside_support_vanishes(self):
        field = self.uniform_plate_field(20_000)
        rep = plate_jump_residual(field, np.array([[30.0]]), limit_epsilon=0.04)[0]
        assert abs(rep.jump) < 1e-3
        assert rep.density_estimate < 1e-6

    def test_halving_epsilon_stays_within_noise(self):
        # oracle: two one-sided-limit widths must agree up to the MC floor
        field = self.uniform_plate_field(100_000)
        pts = np.array([[0.1]])
        a = plate_jump_residual(field, pts, limit_epsilon=0.04)[0].jump
        b = plate_jump_residual(field, pts, limit_epsilon=0.02)[0].jump
        assert abs(a - b) < 0.05

    def test_kde_matches_closed_form_gaussian(self):
        # oracle: KDE of many standard-normal samples approximates the pdf
        stream = seeded_stream(11, "kde")
        samples = stream.standard_normal((50_000, 1))
        w = np.full(len(samples), 1.0 / len(samples))
        dens = gaussian_kde_density(samples, w, silverman_bandwidth(samples),
                                    np.array([[0.0], [1.0]]))
        expect = [1 / math.sqrt(2 * math.pi), math.exp(-0.5) / math.sqrt(2 * math.pi)]
        np.testing.assert_allclose(dens, expect, rtol=0.05)
