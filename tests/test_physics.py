import math

import numpy as np
import pytest

from efm.core import CapacitorConfig, EfmError, seeded_stream
from efm.field import (EmpiricalField, PlateSet, one_sided_ez, sphere_surface_area,
                       superposition_field)
from efm.physics import (CapSpec, cap_solid_angle, circulation, flux_through_sphere,
                         plate_enclosure_checks, plate_system, solid_angle_flux)


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

    @pytest.mark.parametrize("case", ["point_charge", "between_plates"])
    def test_charge_outside_is_zero(self, case):
        if case == "point_charge":
            fn, center = point_fn([5.0, 0.0, 0.0], 1.0, 3), np.zeros(3)
        else:
            # the exact two-plate field in the charge-free gap
            field = EmpiricalField(PlateSet(np.zeros((1, 1))),
                                   PlateSet(np.zeros((1, 1))), 6.0)
            fn, center = field.evaluate, np.array([1.0, 3.0])
        rep = flux_through_sphere(fn, center, 1.5, 50_000, seeded_stream(2, "f"))
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

    @pytest.mark.parametrize("radius, n_mc, match", [
        (0.0, 10, "radius must be positive"),
        (1.0, 0, "n_mc must be >= 1"),
    ], ids=["zero_radius", "no_samples"])
    def test_degenerate_sphere_rejected(self, radius, n_mc, match):
        with pytest.raises(EfmError, match=match):
            flux_through_sphere(lambda p: p, np.zeros(2), radius, n_mc,
                                seeded_stream(4, "f"))


class TestPlateEnclosure:
    def test_plate_checks_pass_at_dim_32(self):
        # D+1 = 33 runs the kernel's log-accumulation branch; the sphere must
        # hold every positive charge and no negative one at this D too. At a
        # third of the suite's sample count the neutral pair's standard
        # error is about 0.003, against its 0.02 tolerance.
        system = plate_system(CapacitorConfig(dim_d=32, plate_gap=6.0), seed=0)
        pos_r = np.linalg.norm(system.plate_pos.samples, axis=1).max()
        neg_r = np.sqrt(np.min(np.sum(system.plate_neg.samples ** 2, axis=1)) + 36.0)
        assert pos_r < neg_r
        checks = plate_enclosure_checks(system, seed=0, n_mc=33_000)
        assert [c.check_name for c in checks] == ["gauss_positive_plate",
                                                  "gauss_neutral_pair"]
        assert [c.check_name for c in checks if not c.passed] == []

    def test_plates_unchanged_at_dim_2(self):
        # the spread factor is exactly 1 up to D=2
        system = plate_system(CapacitorConfig(dim_d=2, plate_gap=6.0), seed=3)
        stream = seeded_stream(3, "verify/plates")
        np.testing.assert_array_equal(system.plate_pos.samples,
                                      stream.standard_normal((512, 2)))
        np.testing.assert_array_equal(system.plate_neg.samples,
                                      stream.standard_normal((512, 2)) + 1.0)


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
        field = EmpiricalField(PlateSet(np.zeros((1, 1))),
                               PlateSet(np.zeros((1, 1))), 6.0)
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
                area = sphere_surface_area(dim - 1)
                p = cap_solid_angle(dim, theta) / area
                sigma = math.sqrt(p * (1 - p) / n_mc)
                assert abs(frac - p) < 4 * sigma + 1e-12

    def test_known_3d_values(self):
        assert cap_solid_angle(3, math.pi / 2) == 2 * math.pi  # exactly half of S_2 = 4 pi
        assert cap_solid_angle(3, math.pi / 3) == pytest.approx(math.pi)
        assert cap_solid_angle(3, math.pi) == pytest.approx(4 * math.pi)
        # closed forms: an arc of half-angle theta, and 2 pi (1 - cos theta),
        # taken as 4 pi sin^2(theta / 2) so that small caps keep their digits
        for theta in (1e-6, 0.3, math.pi / 4, math.pi / 2, 2.0, math.pi - 1e-6):
            assert cap_solid_angle(2, theta) == pytest.approx(2 * theta, rel=1e-13)
            assert cap_solid_angle(3, theta) == pytest.approx(
                4 * math.pi * math.sin(theta / 2) ** 2, rel=1e-13)

    def test_matches_incomplete_beta_closed_form(self):
        # oracle: scipy's regularized incomplete beta, the cap's closed form
        # 0.5 S_(dim-1) I_(sin^2 theta)((dim-1)/2, 1/2) for theta <= pi/2
        from scipy.special import betainc
        small = np.geomspace(1e-6, math.pi / 2, 12)
        for dim in range(2, 65):
            full = sphere_surface_area(dim - 1)
            for theta in np.concatenate([small, math.pi - small]):
                half = 0.5 * full * betainc((dim - 1) / 2, 0.5,
                                            math.sin(min(theta, math.pi - theta)) ** 2)
                want = half if theta <= math.pi / 2 else full - half
                # caps that underflow to subnormals carry no relative precision
                assert cap_solid_angle(dim, theta) == pytest.approx(want, rel=1e-13,
                                                                    abs=1e-300)

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

    @pytest.mark.parametrize("make, match", [
        (lambda: CapSpec(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]), 1.5 * math.pi),
         "polar_angle"),
        (lambda: CapSpec(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]), math.nan),
         "polar_angle"),
        (lambda: CapSpec(np.zeros(3), 1.0, np.zeros(3), 1.0), "axis"),
        (lambda: CapSpec(np.zeros(3), 1.0, np.array([0.0, 1.0]), 1.0), "axis"),
        (lambda: CapSpec(np.zeros(3), 0.0, np.array([0.0, 0.0, 1.0]), 1.0), "radius"),
        (lambda: CapSpec(np.zeros(3), -1.0, np.array([0.0, 0.0, 1.0]), 1.0), "radius"),
        (lambda: cap_solid_angle(3, math.nan), "polar_angle"),
        (lambda: cap_solid_angle(3, 4.0), "polar_angle"),
        (lambda: cap_solid_angle(3, -1.0), "polar_angle"),
        (lambda: cap_solid_angle(1, 1.0), "dimension"),
    ], ids=["polar_angle_above_pi", "polar_angle_nan", "zero_axis", "axis_shape",
            "zero_radius", "negative_radius", "solid_angle_nan", "solid_angle_above_pi",
            "solid_angle_negative", "solid_angle_dim_1"])
    def test_invalid_cap_rejected(self, make, match):
        with pytest.raises(EfmError, match=match):
            make()


class TestPlateJump:
    @staticmethod
    def uniform_plate_field(n, seed=0, gap=50.0):
        stream = seeded_stream(seed, "jump-plate")
        plate = PlateSet(stream.uniform(-1, 1, (n, 1)))
        far = PlateSet(np.zeros((1, 1)))
        return EmpiricalField(plate, far, gap, 1e-6)

    @staticmethod
    def jumps(field, pts, limit_epsilon):
        e_lo, e_hi = one_sided_ez(field.evaluate, np.atleast_2d(pts), 0.0, limit_epsilon)
        return e_hi - e_lo

    def test_uniform_density_recovered(self):
        # oracle: direct field summation; uniform density on [-1, 1] is 1/2
        field = self.uniform_plate_field(100_000)
        pts = np.linspace(-0.5, 0.5, 7)[:, None]
        np.testing.assert_allclose(self.jumps(field, pts, 0.04), 0.5, atol=0.05)

    def test_far_outside_support_vanishes(self):
        field = self.uniform_plate_field(20_000)
        assert abs(self.jumps(field, [[30.0]], 0.04)[0]) < 1e-3

    def test_halving_epsilon_stays_within_noise(self):
        # oracle: two one-sided-limit widths must agree up to the MC floor
        field = self.uniform_plate_field(100_000)
        pts = np.array([[0.1]])
        a = self.jumps(field, pts, 0.04)[0]
        b = self.jumps(field, pts, 0.02)[0]
        assert abs(a - b) < 0.05
