import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efm.core import TransportError, seeded_stream
from efm.field import EmpiricalField, PlateSet
from efm.model import FieldApproximator
from efm.transport import (DOMAIN_RADIUS_FACTOR, TransportPolicy, _line_stream,
                           direction_probability, map_batch, stochastic_map,
                           stop_probability, trace_line_t)


def constant_field(*components):
    def fn(pts, stream=None):
        return np.tile(np.asarray(components, dtype=float), (len(np.atleast_2d(pts)), 1))
    return fn


def uniform_up_field(pts, stream=None):
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    out[:, -1] = 1.0
    return out


def sideways(pts, stream=None):
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    out[:, 0] = 1.0
    return out


def two_point_capacitor(a=0.0, b=0.0, gap=6.0, dim=1, eps=1e-4):
    pos = PlateSet(np.full((1, dim), float(a)), 0.0, +1)
    neg = PlateSet(np.full((1, dim), float(b)), gap, -1)
    return EmpiricalField(pos, neg, eps)


class TestEulerStep:
    """One z-grid Euler step: map_batch with plate_gap equal to the step."""

    def test_unit_slope(self):
        res = map_batch([[0.0]], constant_field(1.0, 1.0), TransportPolicy(step=0.5),
                        plate_gap=0.5)
        np.testing.assert_allclose(res.trajectories[0].points[-1], [0.5, 0.5])

    def test_pure_z_advance(self):
        res = map_batch([[0.3]], constant_field(0.0, 1.0), TransportPolicy(step=0.25),
                        plate_gap=0.25)
        np.testing.assert_allclose(res.trajectories[0].points[-1], [0.3, 0.25])

    def test_degenerate_rejected(self):
        res = map_batch([[0.0]], constant_field(1.0, 0.0), TransportPolicy(step=0.1),
                        plate_gap=0.1)
        assert res.failures == [(0, "field_degenerate")]
        assert np.isnan(res.mapped).all()


class TestStopProbability:
    def test_opposite_signs_stop(self):
        assert stop_probability(2.0, -1.0) == 1.0

    def test_same_sign_flux_fraction(self):
        assert stop_probability(4.0, 1.0) == pytest.approx(0.75)

    def test_equal_limits_continue(self):
        assert stop_probability(3.0, 3.0) == 0.0

    def test_zero_limit_stops(self):
        assert stop_probability(0.0, 1.0) == 1.0
        assert stop_probability(1.0, 0.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= stop_probability(a, b) <= 1.0


class TestDirectionProbability:
    def test_opposite_signs_flux_split(self):
        assert direction_probability(1.0, -3.0) == pytest.approx(0.25)

    def test_same_sign_always_forward(self):
        assert direction_probability(2.0, 5.0) == 1.0

    def test_symmetric_split(self):
        assert direction_probability(1.0, -1.0) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= direction_probability(a, b) <= 1.0


class TestTraceLineZ:
    """Practical transport: map_batch's fixed z-grid Euler loop."""

    def test_uniform_field_straight_line(self):
        res = map_batch([[0.7, -0.2]], uniform_up_field, TransportPolicy(step=0.3),
                        plate_gap=6.0)
        traj = res.trajectories[0]
        assert traj.termination == "reached_target_plate"
        np.testing.assert_allclose(traj.points[-1], [0.7, -0.2, 6.0], atol=1e-12)
        assert len(traj.points) == 21

    def test_exact_field_eval_count(self):
        calls = []

        def counting(pts, stream):
            calls.append(len(np.atleast_2d(pts)))
            return uniform_up_field(pts)

        res = map_batch([[0.0]], counting, TransportPolicy(step=0.3), plate_gap=6.0)
        assert sum(calls) == 20  # L / dtau evaluations exactly
        assert res.trajectories[0].n_field_evals == 20

    def test_two_charge_symmetry_axis(self):
        field = two_point_capacitor(0.0, 0.0, 6.0, dim=2)
        res = map_batch([[0.0, 0.0]], field.evaluate, TransportPolicy(step=0.3),
                        plate_gap=6.0)
        np.testing.assert_allclose(res.trajectories[0].points[:, :2], 0.0, atol=1e-12)

    def test_bad_dtau_rejected(self):
        with pytest.raises(TransportError, match="evenly divide"):
            map_batch([[0.0]], uniform_up_field, TransportPolicy(step=0.7), plate_gap=6.0)

    def test_first_order_convergence(self):
        # oracle: Richardson comparison against a dtau/64 reference. The
        # trace runs mid-gap (smooth field, away from the terminal charge
        # whose basin would swallow the endpoint error): z=1..3 of a gap-4
        # capacitor, shifted down to z=0..2.
        field = two_point_capacitor(0.0, 1.0, 4.0, dim=1)

        def shifted(pts, stream):
            return field.evaluate(pts + [0.0, 1.0])

        span = 2.0

        def endpoint(dtau):
            # off the straight inter-charge line
            res = map_batch([[-0.35]], shifted, TransportPolicy(step=dtau), plate_gap=span)
            return res.mapped[0, 0]

        ref = endpoint(span / 1280)
        err1 = abs(endpoint(span / 20) - ref)
        err2 = abs(endpoint(span / 40) - ref)
        order = math.log2(err1 / err2)
        assert 0.8 < order < 1.2

    def test_batch_matches_per_line(self):
        field = two_point_capacitor(0.0, 1.0, 6.0, dim=2)
        starts = np.array([[0.1, 0.0], [0.4, -0.3], [-0.2, 0.2]])
        policy = TransportPolicy(step=0.3)
        batch = map_batch(starts, field.evaluate, policy, plate_gap=6.0)
        for i, x in enumerate(starts):
            one = map_batch(x[None], field.evaluate, policy, plate_gap=6.0).trajectories[0]
            np.testing.assert_allclose(batch.trajectories[i].points, one.points,
                                       rtol=1e-12)
            assert batch.trajectories[i].termination == one.termination


class TestTraceLineT:
    def test_uniform_field_stops_at_plate(self):
        traj = trace_line_t(np.array([0.5, 0.001]), uniform_up_field, plate_gap=6.0)
        assert traj.termination == "reached_target_plate"
        assert traj.points[-1][-1] == pytest.approx(6.0, abs=1e-9)
        assert traj.points[-1][0] == pytest.approx(0.5, abs=1e-9)
        assert traj.crossings and traj.crossings[-1][1] == 6.0

    def test_round_trip_retraces(self):
        # oracle: forward-then-backward integration must return to the start;
        # the tracer's event plane serves as the turn-around marker, and the
        # negated field runs the line backward
        field = two_point_capacitor(0.0, 1.5, 6.0, dim=1)
        fn = field.evaluate
        start = np.array([0.3, 0.5])
        fwd = trace_line_t(start, fn, plate_gap=3.0)
        mid = fwd.points[-1]
        assert mid[-1] == pytest.approx(3.0, abs=1e-9)
        back = trace_line_t(mid, lambda p: -fn(p), plate_gap=0.5)
        end = back.points[-1]
        assert np.linalg.norm(end - start) < 10 * 1e-4

    def test_degenerate_field_flagged(self):
        zero_fn = lambda pts: np.zeros_like(np.atleast_2d(pts))
        traj = trace_line_t(np.array([0.0, 0.5]), zero_fn, plate_gap=6.0)
        assert traj.termination == "field_degenerate"

    def test_runaway_line_leaves_domain(self):
        # a lateral field never reaches the plate, and its error-free steps
        # grow 5x each, so the line leaves the domain long before max_steps
        traj = trace_line_t(np.array([0.0, 3.0]), sideways, plate_gap=6.0,
                            max_steps=50)
        assert traj.termination == "left_domain"
        assert np.all(np.isfinite(traj.points))
        assert np.linalg.norm(traj.points[-1] - [0.0, 3.0]) > DOMAIN_RADIUS_FACTOR * 9.0
        assert traj.n_field_evals <= 1 + 6 * 12

    def test_step_limit(self):
        # f = (-(z - 3), x) circles (0, 3) at radius 1: bounded, never at a plate
        def circulating(pts, stream=None):
            pts = np.atleast_2d(pts)
            return np.stack([3.0 - pts[:, 1], pts[:, 0]], axis=1)

        traj = trace_line_t(np.array([1.0, 3.0]), circulating, plate_gap=6.0,
                            max_steps=50)
        assert traj.termination == "step_limit"
        assert traj.n_field_evals <= 1 + 6 * 50
        radii = np.linalg.norm(traj.points - [0.0, 3.0], axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-2)

    def test_no_revisiting_on_exact_field(self):
        # no closed loops: the polyline never returns near an earlier point
        # after having moved away
        field = two_point_capacitor(-0.5, 0.5, 6.0, dim=1)
        traj = trace_line_t(np.array([-0.5, 0.01]), field.evaluate, plate_gap=6.0)
        pts = traj.points
        assert traj.termination == "reached_target_plate"
        for i in range(len(pts)):
            ahead = pts[i + 2:]
            if len(ahead) == 0:
                continue
            d = np.linalg.norm(ahead - pts[i], axis=1)
            moved_away = np.maximum.accumulate(d) > 0.5
            returned = (d < 1e-6) & moved_away
            assert not returned.any()


class TestStochasticMap:
    def test_two_point_system_practical(self):
        # the straight segment between the two charges is itself a field
        # line, so the z-stepped scheme follows it exactly
        field = two_point_capacitor(a=0.0, b=2.0, gap=6.0)
        res = map_batch([[0.0]], field.evaluate, TransportPolicy(step=0.05), plate_gap=6.0)
        assert res.trajectories[0].termination == "reached_target_plate"
        assert res.mapped[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_two_point_system_theoretical(self):
        field = two_point_capacitor(a=0.0, b=2.0, gap=6.0)
        policy = TransportPolicy("theoretical_stochastic", "bidirectional", 0.05)
        for k in range(4):
            x, traj = stochastic_map(np.array([0.05]), field.evaluate, policy,
                                     seeded_stream(k, "t"), plate_gap=6.0)
            assert traj.termination in ("reached_target_plate",
                                        "continued_past_plate_then_returned")
            assert x[0] == pytest.approx(2.0, abs=0.05)

    def test_separated_targets_produce_multi_crossing_lines(self):
        # widely separated negative blobs push some lines past the far
        # plate before they curve back
        stream = seeded_stream(1, "sep")
        pos = PlateSet(stream.standard_normal((400, 1)), 0.0, +1)
        side = stream.integers(0, 2, size=400) * 2 - 1
        neg = PlateSet((stream.standard_normal((400, 1)) * 0.5 + side[:, None] * 4.0),
                       6.0, -1)
        field = EmpiricalField(pos, neg, 1e-4)
        policy = TransportPolicy("theoretical_stochastic", "forward_only", 0.05,
                                 max_steps=40_000)
        multi = 0
        for k in range(12):
            x0 = np.array([stream.normal() * 0.3])
            _, traj = stochastic_map(x0, field.evaluate, policy, seeded_stream(k, "line"),
                                     plate_gap=6.0)
            far_crossings = [c for c in traj.crossings if c[1] == 6.0]
            if len(far_crossings) >= 2:
                multi += 1
        assert multi >= 1

    def test_practical_policy_validation(self):
        with pytest.raises(TransportError, match="forward_only"):
            TransportPolicy("practical_stop_at_L", "bidirectional", 0.1)


class TestMapBatch:
    def test_batch_of_one_matches_single_call(self):
        field = two_point_capacitor(a=0.0, b=1.0, gap=6.0)
        policy = TransportPolicy("theoretical_stochastic", "bidirectional", 0.1)
        x0 = np.array([0.2])
        res = map_batch(x0[None], field.evaluate, policy, plate_gap=6.0, seed=3)
        x, _ = stochastic_map(x0, field.evaluate, policy, _line_stream(3, x0),
                              plate_gap=6.0)
        np.testing.assert_allclose(res.mapped[0], x, rtol=1e-12)

    def test_permutation_equivariance(self):
        field = two_point_capacitor(a=0.0, b=1.0, gap=6.0)
        policy = TransportPolicy("theoretical_stochastic", "bidirectional", 0.1)
        pts = seeded_stream(4, "pts").standard_normal((6, 1)) * 0.2
        fwd = map_batch(pts, field.evaluate, policy, plate_gap=6.0, seed=7)
        perm = np.array([3, 1, 5, 0, 2, 4])
        back = map_batch(pts[perm], field.evaluate, policy, plate_gap=6.0, seed=7)
        np.testing.assert_allclose(back.mapped, fwd.mapped[perm], rtol=1e-12)

    def test_monte_carlo_field_practical(self):
        # one plate subsample per z-step for the whole batch: fixed by the
        # seed, and the same for any order of the batch
        stream = seeded_stream(5, "mc")
        pos = PlateSet(stream.standard_normal((64, 2)), 0.0, +1)
        neg = PlateSet(stream.standard_normal((64, 2)) * 0.5 + 1.0, 6.0, -1)
        field = EmpiricalField(pos, neg, 1e-4, mc_subsample=16)
        pts = stream.standard_normal((8, 2)) * 0.5
        policy = TransportPolicy(step=0.3)
        first = map_batch(pts, field.evaluate, policy, plate_gap=6.0, seed=2)
        again = map_batch(pts, field.evaluate, policy, plate_gap=6.0, seed=2)
        other = map_batch(pts, field.evaluate, policy, plate_gap=6.0, seed=3)
        np.testing.assert_array_equal(again.mapped, first.mapped)
        assert not np.allclose(other.mapped, first.mapped)
        perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
        back = map_batch(pts[perm], field.evaluate, policy, plate_gap=6.0, seed=2)
        np.testing.assert_allclose(back.mapped, first.mapped[perm], rtol=1e-12, atol=1e-12)
        assert all(t.termination == "reached_target_plate" for t in first.trajectories)

    def test_network_batch_transport(self):
        res = map_batch(np.array([[0.1], [0.5]]), uniform_up_field,
                        TransportPolicy(step=0.3), plate_gap=6.0)
        assert res.ok.all()
        np.testing.assert_allclose(res.mapped, [[0.1], [0.5]], atol=1e-12)
        assert all(t.n_field_evals == 20 for t in res.trajectories)

    def test_untrained_net_lines_leave_domain_without_overflow(self):
        # an untrained net's field grows with |x|; its lines must end typed
        # instead of running on until the arithmetic overflows
        net = FieldApproximator.init_random([3, 32, 32, 3], "smooth_relu",
                                            seeded_stream(0, "weak"))
        pts = seeded_stream(1, "weak-pts").standard_normal((4, 2))
        policy = TransportPolicy("theoretical_stochastic", "forward_only", 0.1,
                                 max_steps=2000)
        res = map_batch(pts, lambda p, stream: net.forward(p), policy, plate_gap=6.0)
        assert [f[1] for f in res.failures] == ["left_domain"] * 4
        assert np.isnan(res.mapped).all()
        assert all(t.n_field_evals < 1000 for t in res.trajectories)

    def test_lines_stalled_at_a_net_sink_end_early(self):
        # a weak net's lines converge to a sink above the target plate and
        # creep there; they must end typed instead of spending max_steps
        net = FieldApproximator.init_random([3, 16, 16, 3], "smooth_relu",
                                            seeded_stream(0, "weak"))
        pts = seeded_stream(1, "weak-pts").standard_normal((4, 2))
        policy = TransportPolicy("theoretical_stochastic", "forward_only", 0.1)
        res = map_batch(pts, lambda p, stream: net.forward(p), policy, plate_gap=6.0)
        assert [f[1] for f in res.failures] == ["stalled"] * 4
        assert np.isnan(res.mapped).all()
        assert all(t.n_field_evals < 1000 for t in res.trajectories)

    def test_failures_recorded_batch_continues(self):
        res = map_batch(np.array([[0.1], [0.5]]), sideways, TransportPolicy(step=0.3),
                        plate_gap=6.0)
        assert not res.ok.any()
        assert len(res.failures) == 2
        assert res.failures[0][1] == "field_degenerate"
        assert [t.n_field_evals for t in res.trajectories] == [1, 1]
        assert [len(t.points) for t in res.trajectories] == [1, 1]
