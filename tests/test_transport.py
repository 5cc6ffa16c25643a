import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efm.field
from efm import transport
from efm.core import TransportError, seeded_stream
from efm.field import EmpiricalField, PlateSet
from efm.model import FieldApproximator
from efm.transport import (_SHARE_LINES, DOMAIN_RADIUS_FACTOR, _euler_lines,
                           direction_probability, map_batch, stop_probability, trace_lines_t)


def constant_field(*components):
    def fn(pts):
        return np.tile(np.asarray(components, dtype=float), (len(np.atleast_2d(pts)), 1))
    return fn


def uniform_up_field(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    out[:, -1] = 1.0
    return out


def sideways(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    out[:, 0] = 1.0
    return out


def trace_one(start, field_fn, **kwargs):
    """trace_lines_t on a batch of one line."""
    return trace_lines_t(np.asarray(start, dtype=float)[None], field_fn, **kwargs)[0]


def mixed_field(pts):
    """Elementwise field on (x, label, z) points. The label column never
    moves and picks how a line ends: 0 reaches the plate, 1 runs away
    sideways, 2 circles (x, z) = (0, 2) through z=0 until the step limit,
    3 creeps into a sink at (0.5, 3), 4 vanishes above z=1 and 5 is zero."""
    x, label, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.zeros_like(pts)
    up = label < 0.5
    out[up, 0] = 0.3 * np.sin(2.0 * x[up] + z[up])
    out[up, 2] = 1.0 + 0.2 * np.cos(x[up])
    side = (label >= 0.5) & (label < 1.5)
    out[side, 0] = 1.0 + 0.1 * x[side] ** 2
    circ = (label >= 1.5) & (label < 2.5)
    out[circ, 0] = 2.0 - z[circ]
    out[circ, 2] = x[circ]
    sink = (label >= 2.5) & (label < 3.5)
    out[sink, 0] = -(x[sink] - 0.5)
    out[sink, 2] = -(z[sink] - 3.0)
    low = (label >= 3.5) & (label < 4.5) & (z < 1.0)
    out[low, 0] = 0.1 * x[low]
    out[low, 2] = 1.0
    return out


def two_point_capacitor(a=0.0, b=0.0, gap=6.0, dim=1, eps=1e-4):
    pos = PlateSet(np.full((1, dim), float(a)))
    neg = PlateSet(np.full((1, dim), float(b)))
    return EmpiricalField(pos, neg, gap, eps)


class TestEulerStep:
    """One z-grid Euler step: map_batch with plate_gap equal to the step."""

    def test_unit_slope(self):
        res = map_batch([[0.0]], constant_field(1.0, 1.0), "practical", nfe=1,
                        plate_gap=0.5)
        np.testing.assert_allclose(res.trajectories[0].points[-1], [0.5, 0.5])

    def test_pure_z_advance(self):
        res = map_batch([[0.3]], constant_field(0.0, 1.0), "practical", nfe=1,
                        plate_gap=0.25)
        np.testing.assert_allclose(res.trajectories[0].points[-1], [0.3, 0.25])

    def test_degenerate_rejected(self):
        res = map_batch([[0.0]], constant_field(1.0, 0.0), "practical", nfe=1,
                        plate_gap=0.1)
        assert res.failures == [(0, "field_degenerate")]
        assert np.isnan(res.mapped).all()


class TestStopProbability:
    def test_opposite_signs_stop(self):
        assert stop_probability(below=2.0, above=-1.0) == 1.0

    def test_same_sign_flux_fraction(self):
        assert stop_probability(below=4.0, above=1.0) == pytest.approx(0.75)

    def test_equal_limits_continue(self):
        assert stop_probability(below=3.0, above=3.0) == 0.0

    def test_zero_limit_stops(self):
        assert stop_probability(below=0.0, above=1.0) == 1.0
        assert stop_probability(below=1.0, above=0.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= stop_probability(below=a, above=b) <= 1.0

    def test_positional_limits_rejected(self):
        with pytest.raises(TypeError):
            stop_probability(4.0, 1.0)


class TestDirectionProbability:
    def test_opposite_signs_flux_split(self):
        assert direction_probability(below=-3.0, above=1.0) == pytest.approx(0.25)

    def test_same_sign_always_forward(self):
        assert direction_probability(below=5.0, above=2.0) == 1.0

    def test_symmetric_split(self):
        assert direction_probability(below=-1.0, above=1.0) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_always_in_unit_interval(self, a, b):
        assert 0.0 <= direction_probability(below=a, above=b) <= 1.0

    def test_positional_limits_rejected(self):
        with pytest.raises(TypeError):
            direction_probability(-3.0, 1.0)


class TestTraceLineZ:
    """Practical transport: map_batch's fixed z-grid Euler loop."""

    def test_uniform_field_straight_line(self):
        res = map_batch([[0.7, -0.2]], uniform_up_field, "practical", nfe=20,
                        plate_gap=6.0)
        traj = res.trajectories[0]
        assert traj.termination == "reached_target_plate"
        np.testing.assert_allclose(traj.points[-1], [0.7, -0.2, 6.0], atol=1e-12)
        assert len(traj.points) == 21

    def test_exact_field_eval_count(self):
        calls = []

        def counting(pts):
            calls.append(len(np.atleast_2d(pts)))
            return uniform_up_field(pts)

        res = map_batch([[0.0]], counting, "practical", nfe=20, plate_gap=6.0)
        assert sum(calls) == 20  # nfe evaluations exactly
        assert res.trajectories[0].n_field_evals == 20

    def test_two_charge_symmetry_axis(self):
        field = two_point_capacitor(0.0, 0.0, 6.0, dim=2)
        res = map_batch([[0.0, 0.0]], field.evaluate, "practical", nfe=20,
                        plate_gap=6.0)
        np.testing.assert_allclose(res.trajectories[0].points[:, :2], 0.0, atol=1e-12)

    def test_nfe_below_one_rejected(self):
        with pytest.raises(TransportError, match="nfe must be at least 1"):
            map_batch([[0.0]], uniform_up_field, "practical", nfe=0, plate_gap=6.0)

    @pytest.mark.parametrize("gap, nfe", [(6.0, 47), (30.0, 11)])
    def test_last_step_lands_on_the_plate_exactly(self, gap, nfe):
        # nfe * (gap / nfe) rounds below gap for these pairs
        res = map_batch([[0.1], [0.5]], uniform_up_field, "practical", nfe=nfe,
                        plate_gap=gap)
        for traj in res.trajectories:
            assert traj.points[-1, -1] == gap
            assert traj.crossings == [(nfe, gap)]

    def test_first_order_convergence(self):
        # oracle: Richardson comparison against a dtau/64 reference. The
        # trace runs mid-gap (smooth field, away from the terminal charge
        # whose basin would swallow the endpoint error): z=1..3 of a gap-4
        # capacitor, shifted down to z=0..2.
        field = two_point_capacitor(0.0, 1.0, 4.0, dim=1)

        def shifted(pts):
            return field.evaluate(pts + [0.0, 1.0])

        span = 2.0

        def endpoint(nfe):
            # off the straight inter-charge line
            res = map_batch([[-0.35]], shifted, "practical", nfe=nfe, plate_gap=span)
            return res.mapped[0, 0]

        ref = endpoint(1280)
        err1 = abs(endpoint(20) - ref)
        err2 = abs(endpoint(40) - ref)
        order = math.log2(err1 / err2)
        assert 0.8 < order < 1.2

    def test_batch_matches_per_line(self):
        field = two_point_capacitor(0.0, 1.0, 6.0, dim=2)
        starts = np.array([[0.1, 0.0], [0.4, -0.3], [-0.2, 0.2]])
        batch = map_batch(starts, field.evaluate, "practical", plate_gap=6.0)
        for i, x in enumerate(starts):
            one = map_batch(x[None], field.evaluate, "practical",
                            plate_gap=6.0).trajectories[0]
            np.testing.assert_allclose(batch.trajectories[i].points, one.points,
                                       rtol=1e-12)
            assert batch.trajectories[i].termination == one.termination


class TestTraceLineT:
    def test_uniform_field_stops_at_plate(self):
        traj = trace_one([0.5, 0.001], uniform_up_field, plate_gap=6.0)
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
        fwd = trace_one(start, fn, plate_gap=3.0)
        mid = fwd.points[-1]
        assert mid[-1] == pytest.approx(3.0, abs=1e-9)
        back = trace_one(mid, lambda p: -fn(p), plate_gap=0.5)
        end = back.points[-1]
        assert np.linalg.norm(end - start) < 10 * 1e-4

    def test_degenerate_field_flagged(self):
        zero_fn = lambda pts: np.zeros_like(np.atleast_2d(pts))
        traj = trace_one([0.0, 0.5], zero_fn, plate_gap=6.0)
        assert traj.termination == "field_degenerate"

    def test_runaway_line_leaves_domain(self, monkeypatch):
        # a lateral field never reaches the plate, and its error-free steps
        # grow 5x each, so the line leaves the domain long before MAX_STEPS
        monkeypatch.setattr(transport, "MAX_STEPS", 50)
        traj = trace_one([0.0, 3.0], sideways, plate_gap=6.0)
        assert traj.termination == "left_domain"
        assert np.all(np.isfinite(traj.points))
        assert np.linalg.norm(traj.points[-1] - [0.0, 3.0]) > DOMAIN_RADIUS_FACTOR * 9.0
        assert traj.n_field_evals <= 1 + 6 * 12

    def test_step_limit(self, monkeypatch):
        # f = (-(z - 3), x) circles (0, 3) at radius 1: bounded, never at a plate
        def circulating(pts):
            pts = np.atleast_2d(pts)
            return np.stack([3.0 - pts[:, 1], pts[:, 0]], axis=1)

        monkeypatch.setattr(transport, "MAX_STEPS", 50)
        traj = trace_one([1.0, 3.0], circulating, plate_gap=6.0)
        assert traj.termination == "step_limit"
        assert traj.n_field_evals <= 1 + 6 * 50
        radii = np.linalg.norm(traj.points - [0.0, 3.0], axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-2)

    def test_zero_steps_leave_each_line_at_its_start(self, monkeypatch):
        # the field vanishes left of x=0 and points straight up right of it
        def half_zero(pts):
            out = uniform_up_field(pts)
            out[pts[:, 0] < 0] = 0.0
            return out

        starts = np.array([[1.0, 0.5], [-1.0, 0.5], [2.0, 0.5]])
        monkeypatch.setattr(transport, "MAX_STEPS", 0)
        trajs = trace_lines_t(starts, half_zero, plate_gap=6.0)
        assert [t.termination for t in trajs] == ["step_limit", "field_degenerate",
                                                  "step_limit"]
        for traj, start in zip(trajs, starts):
            np.testing.assert_array_equal(traj.points, start[None])
            assert traj.n_field_evals == 1 and traj.crossings == []

    def test_no_revisiting_on_exact_field(self):
        # no closed loops: the polyline never returns near an earlier point
        # after having moved away
        field = two_point_capacitor(-0.5, 0.5, 6.0, dim=1)
        traj = trace_one([-0.5, 0.01], field.evaluate, plate_gap=6.0)
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

    def test_batch_equals_lines_traced_alone(self, monkeypatch):
        # every way a line ends, in one batch: each line's arithmetic is its
        # own, so it equals the same line traced as a batch of one
        starts = np.array([[x0, label, z0]
                           for label, z0 in ((0, 0.01), (1, 3.0), (3, 1.0), (4, 0.01), (5, 0.5))
                           for x0 in (-0.7, 0.2, 1.1)]
                          + [[3.0 + 0.1 * x0, 2, 2.0] for x0 in (-0.7, 0.2, 1.1)])
        monkeypatch.setattr(transport, "MAX_STEPS", 100)
        batch = trace_lines_t(starts, mixed_field, plate_gap=6.0)
        assert [t.termination for t in batch] == (
            ["reached_target_plate"] * 3 + ["left_domain"] * 3 + ["stalled"] * 3
            + ["field_degenerate"] * 6 + ["step_limit"] * 3)
        assert all(len(t.crossings) > 2 for t in batch[-3:])  # z=0, crossed back and forth
        for start, traj in zip(starts, batch):
            one = trace_one(start, mixed_field, plate_gap=6.0)
            assert traj.termination == one.termination
            assert traj.crossings == one.crossings
            assert traj.n_field_evals == one.n_field_evals
            np.testing.assert_allclose(traj.points, one.points, rtol=1e-12)

    def test_both_planes_crossed_in_one_step_are_met_in_time_order(self):
        # at plate_gap 0.1 the fifth step spans both planes, upward for the
        # line at x=0 and downward for the line at x=10
        def field(pts):
            out = np.tile([0.3, 1.0], (len(pts), 1))
            out[pts[:, 0] > 5.0, 1] = -1.0
            return out

        starts = np.array([[0.0, -0.2], [10.0, 0.3]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "MAX_STEPS", 12)
            never = trace_lines_t(starts, field, plate_gap=0.1,
                                  on_crossing=lambda idx, at, plate: np.zeros(len(idx), bool))
        assert [t.crossings for t in never] == [[(5, 0.0), (6, 0.1)], [(5, 0.1), (6, 0.0)]]
        assert never[0].points[5, 0] < never[0].points[6, 0]
        default = trace_lines_t(starts, field, plate_gap=0.1)
        assert [t.termination for t in default] == ["reached_target_plate"] * 2
        assert [t.crossings for t in default] == [[(5, 0.0), (6, 0.1)], [(5, 0.1)]]

    def test_one_field_call_per_stage(self):
        # each Cash-Karp stage evaluates every line still moving in one call
        stream = seeded_stream(2, "stage-calls")
        field = EmpiricalField(PlateSet(stream.standard_normal((16, 1))),
                               PlateSet(stream.standard_normal((16, 1)) + 1.0), 6.0, 1e-4)
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return field.evaluate(pts)

        starts = np.column_stack([stream.standard_normal(64), np.full(64, 0.006)])
        trajs = trace_lines_t(starts, counting, plate_gap=6.0)
        assert all(t.termination == "reached_target_plate" for t in trajs)
        # a line's evaluations are 1 + 5 per attempt + 1 per accepted step
        attempts = max((t.n_field_evals - 1) // 5 for t in trajs)
        assert len(calls) <= 1 + 6 * attempts
        assert sum(calls) == sum(t.n_field_evals for t in trajs)


class TestStochasticMap:
    def test_two_point_system_practical(self):
        # the straight segment between the two charges is itself a field
        # line, so the z-stepped scheme follows it exactly
        field = two_point_capacitor(a=0.0, b=2.0, gap=6.0)
        res = map_batch([[0.0]], field.evaluate, "practical", nfe=120, plate_gap=6.0)
        assert res.trajectories[0].termination == "reached_target_plate"
        assert res.mapped[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_two_point_system_theoretical(self):
        field = two_point_capacitor(a=0.0, b=2.0, gap=6.0)
        for k in range(4):
            res = map_batch([[0.05]], field.evaluate, "theoretical", plate_gap=6.0, seed=k)
            assert res.trajectories[0].termination in ("reached_target_plate",
                                                       "continued_past_plate_then_returned")
            assert res.mapped[0, 0] == pytest.approx(2.0, abs=0.05)

    def test_separated_targets_produce_multi_crossing_lines(self):
        # widely separated negative blobs push some lines past the far
        # plate before they curve back
        stream = seeded_stream(1, "sep")
        pos = PlateSet(stream.standard_normal((400, 1)))
        side = stream.integers(0, 2, size=400) * 2 - 1
        neg = PlateSet((stream.standard_normal((400, 1)) * 0.5 + side[:, None] * 4.0))
        field = EmpiricalField(pos, neg, 6.0, 1e-4)
        x0 = stream.normal(size=(12, 1)) * 0.3
        res = map_batch(x0, field.evaluate, "theoretical", plate_gap=6.0, seed=1)
        multi = sum(len([c for c in traj.crossings if c[1] == 6.0]) >= 2
                    for traj in res.trajectories)
        assert multi >= 1


class TestMapBatch:
    def test_batch_of_one_matches_single_call(self):
        # each line of a theoretical batch, two of them past the plate and
        # back, equals its point mapped alone. The exact field is evaluated
        # row by row: BLAS rounds a row differently inside a larger block,
        # and lines that end in a point charge amplify that last bit.
        field = two_point_capacitor(a=0.0, b=1.0, gap=6.0)

        def rowwise(pts):
            return np.vstack([field.evaluate(row[None]) for row in pts])

        pts = np.array([[0.2], [-0.4], [0.05], [0.7], [-1.5]])
        res = map_batch(pts, rowwise, "theoretical", plate_gap=6.0, seed=3)
        assert sum(len(t.crossings) > 1 for t in res.trajectories) >= 2
        for i, x0 in enumerate(pts):
            one = map_batch(x0[None], rowwise, "theoretical", plate_gap=6.0, seed=3)
            np.testing.assert_allclose(res.mapped[i], one.mapped[0], rtol=1e-12)
            assert res.trajectories[i].termination == one.trajectories[0].termination
            assert res.trajectories[i].crossings == one.trajectories[0].crossings
            assert res.trajectories[i].n_field_evals == one.trajectories[0].n_field_evals

    def test_permutation_equivariance(self):
        field = two_point_capacitor(a=0.0, b=1.0, gap=6.0)
        pts = seeded_stream(4, "pts").standard_normal((6, 1)) * 0.2
        fwd = map_batch(pts, field.evaluate, "theoretical", plate_gap=6.0, seed=7)
        perm = np.array([3, 1, 5, 0, 2, 4])
        back = map_batch(pts[perm], field.evaluate, "theoretical", plate_gap=6.0, seed=7)
        np.testing.assert_allclose(back.mapped, fwd.mapped[perm], rtol=1e-12)

    def test_network_batch_transport(self):
        res = map_batch(np.array([[0.1], [0.5]]), uniform_up_field, "practical", nfe=20,
                        plate_gap=6.0)
        assert res.ok.all()
        np.testing.assert_allclose(res.mapped, [[0.1], [0.5]], atol=1e-12)
        assert all(t.n_field_evals == 20 for t in res.trajectories)

    def test_untrained_net_lines_leave_domain_without_overflow(self):
        # an untrained net's field grows with |x|; its lines must end typed
        # instead of running on until the arithmetic overflows
        net = FieldApproximator.init_random([3, 32, 32, 3], seeded_stream(0, "weak"))
        pts = seeded_stream(1, "weak-pts").standard_normal((4, 2))
        res = map_batch(pts, net.forward, "adaptive", plate_gap=6.0)
        assert [f[1] for f in res.failures] == ["left_domain"] * 4
        assert np.isnan(res.mapped).all()
        assert all(t.n_field_evals < 1000 for t in res.trajectories)

    def test_lines_stalled_at_a_net_sink_end_early(self):
        # a weak net's lines cross the target plate, converge to a sink above
        # it and creep there; they must end typed instead of spending the
        # step limit. The lines are traced on past the plate, as a
        # flux-ratio stop does where the field has no jump.
        net = FieldApproximator.init_random([3, 16, 16, 3], seeded_stream(0, "weak"))
        pts = seeded_stream(1, "weak-pts").standard_normal((4, 2))
        trajs = trace_lines_t(np.column_stack([pts, np.full(4, 0.006)]), net.forward,
                              plate_gap=6.0,
                              on_crossing=lambda idx, at, plate: np.zeros(len(idx), dtype=bool))
        assert [t.termination for t in trajs] == ["stalled"] * 4
        assert all(any(plate == 6.0 for _, plate in t.crossings) for t in trajs)
        assert all(t.n_field_evals < 1000 for t in trajs)

    def test_failures_recorded_batch_continues(self):
        res = map_batch(np.array([[0.1], [0.5]]), sideways, "practical", plate_gap=6.0)
        assert not res.ok.any()
        assert len(res.failures) == 2
        assert res.failures[0][1] == "field_degenerate"
        assert [t.n_field_evals for t in res.trajectories] == [1, 1]
        assert [len(t.points) for t in res.trajectories] == [1, 1]

    def test_adaptive_is_the_tracer_from_limit_epsilon(self):
        field = two_point_capacitor(a=0.0, b=1.0, gap=6.0)
        res = map_batch([[0.2]], field.evaluate, "adaptive", plate_gap=6.0,
                        limit_epsilon=0.01)
        traj = trace_one([0.2, 0.01], field.evaluate, plate_gap=6.0)
        np.testing.assert_array_equal(res.trajectories[0].points, traj.points)
        assert res.trajectories[0].termination == "reached_target_plate"
        np.testing.assert_array_equal(res.mapped[0], traj.points[-1, :-1])

    def test_unknown_policy_rejected(self):
        with pytest.raises(TransportError, match="unknown transport policy"):
            map_batch([[0.0]], uniform_up_field, "forward_only", plate_gap=6.0)


    @pytest.mark.parametrize("policy", ["practical", "adaptive", "theoretical"])
    def test_empty_batch_rejected(self, policy):
        with pytest.raises(TransportError, match="empty batch"):
            map_batch(np.empty((0, 1)), uniform_up_field, policy, plate_gap=6.0)

class TestLineShares:
    """`map_batch` cuts a batch of at least 2 * _SHARE_LINES lines into a
    leading share, moved by the caller, and a trailing share, moved by one
    worker thread."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)
        return use

    @pytest.fixture
    def net(self):
        return FieldApproximator.init_random([3, 128, 128, 3], seeded_stream(11, "init"))

    @staticmethod
    def starts(m, seed):
        return seeded_stream(seed, "share-starts").standard_normal((m, 2))

    @staticmethod
    def no_pool(monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("map_batch started a worker thread")

        monkeypatch.setattr(efm.field, "ThreadPoolExecutor", NoPool)

    @staticmethod
    def assert_same_bytes(a, b):
        assert a.mapped.tobytes() == b.mapped.tobytes()
        assert a.ok.tobytes() == b.ok.tobytes()
        assert a.failures == b.failures
        for ta, tb in zip(a.trajectories, b.trajectories, strict=True):
            assert ta.points.tobytes() == tb.points.tobytes()
            assert (ta.termination, ta.crossings, ta.n_field_evals) == (
                tb.termination, tb.crossings, tb.n_field_evals)

    @pytest.mark.parametrize("policy", ["practical", "adaptive", "theoretical"])
    def test_one_cpu_starts_no_thread(self, net, cpus, monkeypatch, policy):
        # one CPU moves the same two shares in turn: the bytes must not change
        if policy == "theoretical":
            stream = seeded_stream(21, "share-plates")
            fn = EmpiricalField(PlateSet(stream.standard_normal((32, 2))),
                                PlateSet(stream.standard_normal((32, 2)) + 1.0), 6.0,
                                1e-4).evaluate
        else:
            fn = net.forward
        pts = self.starts(2 * _SHARE_LINES + 37, 22)
        built = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(efm.field, "ThreadPoolExecutor", CountingPool)
        cpus(2)
        before = threading.active_count()
        two = map_batch(pts, fn, policy, plate_gap=6.0, seed=3)
        assert threading.active_count() == before
        assert built == [{"max_workers": 1}]
        assert two.ok.all()
        self.no_pool(monkeypatch)
        cpus(1)
        one = map_batch(pts, fn, policy, plate_gap=6.0, seed=3)
        assert threading.active_count() == before
        self.assert_same_bytes(two, one)

    def test_practical_net_shares_equal_the_whole_batch(self, net, cpus):
        # each row meets the same forward block in its share as in the whole
        # batch, so the shares change no bit of a net's Euler transport
        pts = self.starts(4 * _SHARE_LINES, 23)
        cpus(2)
        got = map_batch(pts, net.forward, "practical", plate_gap=6.0)
        whole = _euler_lines(pts, net.forward, 20, 6.0)
        for traj, ref in zip(got.trajectories, whole, strict=True):
            assert traj.points.tobytes() == ref.points.tobytes()

    @pytest.mark.parametrize("m,rows", [(2 * _SHARE_LINES, [_SHARE_LINES, _SHARE_LINES]),
                                        (2 * _SHARE_LINES + 1, [_SHARE_LINES, _SHARE_LINES + 1]),
                                        (3 * _SHARE_LINES, [2 * _SHARE_LINES, _SHARE_LINES]),
                                        (4 * _SHARE_LINES - 1,
                                         [2 * _SHARE_LINES, 2 * _SHARE_LINES - 1])])
    def test_cut_at_the_block_boundary_nearest_the_middle(self, cpus, m, rows):
        caller = threading.current_thread()
        seen = {}

        def recording(pts):
            seen.setdefault(threading.current_thread() is caller, len(pts))
            return uniform_up_field(pts)

        cpus(2)
        res = map_batch(self.starts(m, 24), recording, "practical", plate_gap=6.0)
        assert res.ok.all()
        assert [seen[True], seen[False]] == rows

    @pytest.mark.parametrize("policy", ["practical", "adaptive"])
    def test_failure_in_trailing_share_has_its_global_index(self, cpus, policy):
        # the field vanishes at lines 5 and 1500, one in each share
        pts = self.starts(3 * _SHARE_LINES, 25)
        pts[[5, 1500], 0] = 99.0

        def holed(pts):
            out = uniform_up_field(pts)
            out[pts[:, 0] > 50.0] = 0.0
            return out

        cpus(2)
        res = map_batch(pts, holed, policy, plate_gap=6.0)
        assert res.failures == [(5, "field_degenerate"), (1500, "field_degenerate")]
        assert np.flatnonzero(~res.ok).tolist() == [5, 1500]
        assert np.isnan(res.mapped[[5, 1500]]).all()
        np.testing.assert_allclose(res.mapped[1501], pts[1501], atol=1e-12)

    def test_worker_exception_propagates(self, cpus):
        caller = threading.current_thread()

        def fail_off_caller(pts):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker share failed")
            return uniform_up_field(pts)

        cpus(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker share failed"):
            map_batch(self.starts(2 * _SHARE_LINES, 26), fail_off_caller, "practical",
                      plate_gap=6.0)
        assert threading.active_count() == before

    def test_worker_keeps_callers_error_state(self, net, cpus):
        # only a worker line's field turns NaN; under the caller's "ignore"
        # it must not warn (pytest turns a RuntimeWarning into an error)
        pts = self.starts(2 * _SHARE_LINES, 27)
        pts[-1] = [np.inf, -np.inf]
        cpus(2)
        with np.errstate(all="ignore"):
            res = map_batch(pts, net.forward, "practical", plate_gap=6.0)
        assert np.isnan(res.mapped[-1]).all()
        assert np.all(np.isfinite(res.mapped[:-1]))

    def test_fewer_lines_start_no_thread(self, cpus, monkeypatch):
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return uniform_up_field(pts)

        self.no_pool(monkeypatch)
        cpus(2)
        res = map_batch(self.starts(2 * _SHARE_LINES - 1, 28), counting, "practical",
                        plate_gap=6.0)
        assert res.ok.all()
        assert calls == [2 * _SHARE_LINES - 1] * 20
