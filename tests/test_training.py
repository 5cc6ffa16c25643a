import hashlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efm import field as efm_field
from efm import training
from efm.core import CapacitorConfig, EfmError, seeded_stream
from efm.data import gen_gaussian, gen_swiss_roll
from efm.field import EmpiricalField, PlateSet
from efm.model import EmaState, FieldApproximator, OptimizerState, loss_and_gradient
from efm.training import (CUBE_MARGIN, EMA_DECAY, LEARNING_RATE, draw_batch,
                          draw_training_points, sample_interpolant, sample_noise, train,
                          update_net)
from test_field import allocating_scaled_superposition
from test_model import textbook_ema_update, textbook_optimizer_step


def toy_config(**kw):
    base = dict(dim_d=2, plate_gap=6.0, noise_sigma=0.001, seed=0)
    base.update(kw)
    return CapacitorConfig(**base)


def small_field(stream, n=64, gap=6.0, dim=2):
    pos = PlateSet(stream.standard_normal((n, dim)))
    neg = PlateSet(stream.standard_normal((n, dim)) + 1.0)
    return EmpiricalField(pos, neg, gap, 1e-4)


class TestSampleNoise:
    def test_zero_sigma_zero_mean_gives_zero(self):
        cfg = toy_config(noise_sigma=0.0, noise_mean_mode="zero")
        out = sample_noise(cfg, seeded_stream(0, "n"), 1)
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_norm_concentrates_at_half_gap_times_sqrt_dim(self):
        # oracle: |N(L/2 * 1, sigma^2 I)| concentrates at (L/2) sqrt(D+1)
        cfg = toy_config()
        draws = sample_noise(cfg, seeded_stream(1, "n"), n=100_000)
        norms = np.linalg.norm(draws, axis=1)
        assert norms.mean() == pytest.approx(3 * math.sqrt(3), abs=1e-3)
        assert norms.std() < 5 * cfg.noise_sigma

    def test_zero_mean_mode_norm_scales_with_sigma(self):
        cfg = toy_config(noise_sigma=0.5, noise_mean_mode="zero")
        draws = sample_noise(cfg, seeded_stream(2, "n"), n=50_000)
        norms = np.linalg.norm(draws, axis=1)
        # chi distribution with D+1=3 dof: mean sigma * 2 sqrt(2/pi)
        assert norms.mean() == pytest.approx(0.5 * 2 * math.sqrt(2 / math.pi), rel=0.02)

    def test_directions_are_isotropic(self):
        cfg = toy_config()
        draws = sample_noise(cfg, seeded_stream(3, "n"), n=50_000)
        unit = draws / np.linalg.norm(draws, axis=1, keepdims=True)
        np.testing.assert_allclose(unit.mean(axis=0), 0.0, atol=0.02)


class TestSampleInterpolant:
    def test_endpoints(self):
        xp = np.array([[1.0, 2.0, 0.0]])
        xm = np.array([[-1.0, 0.5, 6.0]])
        np.testing.assert_array_equal(sample_interpolant(xp, xm, [0.0], 0.0, 6.0), xp)
        np.testing.assert_array_equal(sample_interpolant(xp, xm, [6.0], 0.0, 6.0), xm)

    def test_midpoint(self):
        xp = np.zeros((1, 3))
        xm = np.array([[2.0, 2.0, 6.0]])
        np.testing.assert_allclose(sample_interpolant(xp, xm, [3.0], 0.0, 6.0),
                                   [[1.0, 1.0, 3.0]])

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 6.0))
    def test_zero_noise_z_equals_t(self, t):
        xp = np.array([[0.4, -0.2, 0.0]])
        xm = np.array([[1.0, 3.0, 6.0]])
        out = sample_interpolant(xp, xm, [t], np.zeros((1, 3)), 6.0)
        assert out.shape == (1, 3)
        assert out[0, -1] == pytest.approx(t, abs=1e-12)

    def test_t_out_of_range_rejected(self):
        with pytest.raises(EfmError, match="t must lie"):
            sample_interpolant(np.zeros((1, 2)), np.ones((1, 2)), [7.0], 0.0, 6.0)


class TestCubeMesh:
    CFG = toy_config(volume_mode="cube_mesh")
    # both plates' samples span [-1, 1]^2, so the box is that +/- CUBE_MARGIN
    LO = np.array([-1.0 - CUBE_MARGIN, -1.0 - CUBE_MARGIN, 0.0])
    HI = np.array([1.0 + CUBE_MARGIN, 1.0 + CUBE_MARGIN, 6.0])

    def draw(self, n, stream):
        s = seeded_stream(3, "plates")
        pos = np.vstack([[-1.0, 1.0], s.uniform(-1.0, 1.0, (30, 2))])
        neg = np.vstack([[1.0, -1.0], s.uniform(-1.0, 1.0, (30, 2))])
        field = EmpiricalField(PlateSet(pos), PlateSet(neg), 6.0, 1e-4)
        return draw_training_points(field, self.CFG, n, stream)

    def test_all_points_inside(self):
        pts = self.draw(500, seeded_stream(4, "c"))
        assert np.all(pts >= self.LO) and np.all(pts <= self.HI)
        # and the margin is used: the draws reach the box's faces
        assert np.all(pts.min(axis=0) < self.LO + 0.1)
        assert np.all(pts.max(axis=0) > self.HI - 0.1)

    def test_mean_near_center(self):
        # oracle: sample statistics of the uniform distribution
        pts = self.draw(50_000, seeded_stream(5, "c"))
        np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0, 3.0], atol=0.05)

    def test_zero_count_empty(self):
        assert self.draw(0, seeded_stream(6, "c")).shape == (0, 3)


class TestTrainingStep:
    """One training step as `train` takes it: `draw_batch`, then `update_net`."""

    def setup_step(self, lr=1e-3):
        cfg = toy_config()
        field = small_field(seeded_stream(8, "f"))
        net = FieldApproximator.init_random([3, 16, 3], seeded_stream(9, "i"))
        opt = OptimizerState.for_net(net, learning_rate=lr)
        ema = EmaState.from_net(net, 0.99)
        return cfg, field, net, opt, ema

    def test_first_loss_finite_positive(self):
        cfg, field, net, opt, ema = self.setup_step()
        points, targets, dropped = draw_batch(field, cfg, 64, seeded_stream(10, "s"))
        loss = update_net(net, opt, ema, points, targets)
        assert np.isfinite(loss) and loss > 0
        assert dropped == 0

    def test_zero_learning_rate_freezes_params(self):
        cfg, field, net, opt, ema = self.setup_step(lr=0.0)
        before = [w.copy() for w in net.weights]
        update_net(net, opt, ema, *draw_batch(field, cfg, 64, seeded_stream(11, "s"))[:2])
        for b, w in zip(before, net.weights):
            np.testing.assert_array_equal(b, w)

    def test_mc_subsample_drawn_after_the_training_points(self):
        # one stream feeds the training points, then the subsample; this
        # order keeps weight files reproducible across versions
        cfg, field, net, opt, ema = self.setup_step()
        replay = seeded_stream(14, "s")
        points = draw_training_points(field, cfg, 64, replay)
        targets, degenerate = field.subsample(16, replay).normalized(points)
        assert not degenerate.any()
        want, _ = loss_and_gradient(net, points, targets)
        points, targets, _ = draw_batch(field, cfg, 64, seeded_stream(14, "s"), 16)
        assert update_net(net, opt, ema, points, targets) == want

    def test_training_points_stay_finite(self):
        cfg = toy_config()
        field = small_field(seeded_stream(12, "f"))
        pts = draw_training_points(field, cfg, 256, seeded_stream(13, "s"))
        assert np.all(np.isfinite(pts))
        assert pts.shape == (256, 3)


class TestTrain:
    def test_zero_steps_returns_initial_net(self):
        cfg = toy_config()
        stream = seeded_stream(14, "d")
        pos = stream.standard_normal((32, 2))
        neg = stream.standard_normal((32, 2))
        result = train(cfg, pos, neg, n_steps=0, batch_size=16, hidden_dims=(8,))
        fresh = FieldApproximator.init_random([3, 8, 3], seeded_stream(cfg.seed, "train/init"))
        for a, b in zip(result.net.weights, fresh.weights):
            np.testing.assert_array_equal(a, b)
        assert result.loss_curve == []

    def test_same_seed_identical_loss(self):
        cfg = toy_config(seed=5)
        stream = seeded_stream(15, "d")
        pos = stream.standard_normal((32, 2))
        neg = stream.standard_normal((32, 2)) + 1
        r1 = train(cfg, pos, neg, n_steps=5, batch_size=32, hidden_dims=(8,))
        r2 = train(cfg, pos, neg, n_steps=5, batch_size=32, hidden_dims=(8,))
        assert r1.loss_curve == r2.loss_curve

    def test_artifacts_written(self, tmp_path):
        cfg = toy_config()
        stream = seeded_stream(16, "d")
        pos = stream.standard_normal((32, 2))
        neg = stream.standard_normal((32, 2)) + 1
        train(cfg, pos, neg, n_steps=3, batch_size=16, hidden_dims=(8,),
              out_dir=tmp_path)
        assert (tmp_path / "weights.json").exists()
        assert (tmp_path / "weights_ema.json").exists()
        lines = (tmp_path / "loss_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,dropped_targets"
        assert len(lines) == 4

    def test_cube_mesh_mode_runs(self):
        cfg = toy_config(volume_mode="cube_mesh")
        stream = seeded_stream(17, "d")
        pos = stream.standard_normal((32, 2))
        neg = stream.standard_normal((32, 2)) + 1
        result = train(cfg, pos, neg, n_steps=3, batch_size=16, hidden_dims=(8,))
        assert len(result.loss_curve) == 3

    def test_a_then_b_then_a_writes_the_same_files(self, tmp_path):
        # B's deeper, wider net on a larger batch leaves every workspace slot
        # of loss_and_gradient grown and dirty before A trains again
        pos, neg = two_plates(19)
        runs = [("a1", 3, 24, (8, 8)), ("b", 4, 48, (16, 32, 8)), ("a2", 3, 24, (8, 8))]
        for name, seed, batch_size, hidden_dims in runs:
            train(toy_config(seed=seed), pos, neg, n_steps=4, batch_size=batch_size,
                  hidden_dims=hidden_dims, out_dir=tmp_path / name)
        for name in ("weights.json", "weights_ema.json", "loss_curve.csv"):
            assert (tmp_path / "a1" / name).read_bytes() == (tmp_path / "a2" / name).read_bytes()


def two_plates(seed):
    stream = seeded_stream(seed, "d")
    return stream.standard_normal((32, 2)), stream.standard_normal((32, 2)) + 1


def replay_training_steps(cfg, pos, neg, n_steps, batch_size, hidden_dims, mc_subsample):
    """train's loop run sequentially: `draw_batch` then `update_net`, step
    after step on the loop stream, from the same init."""
    field = EmpiricalField(PlateSet(pos), PlateSet(neg), cfg.plate_gap, cfg.field_epsilon)
    net = FieldApproximator.init_random([3, *hidden_dims, 3],
                                        seeded_stream(cfg.seed, "train/init"))
    opt = OptimizerState.for_net(net, LEARNING_RATE)
    ema = EmaState.from_net(net, EMA_DECAY)
    stream = seeded_stream(cfg.seed, "train/loop")
    curve = []
    for step in range(n_steps):
        points, targets, dropped = draw_batch(field, cfg, batch_size, stream, mc_subsample)
        curve.append((step, update_net(net, opt, ema, points, targets), dropped))
    return curve, net, ema


class TestTrainPipeline:
    @pytest.mark.parametrize("volume_mode, mc_subsample", [("interpolant", 16),
                                                            ("cube_mesh", None)])
    def test_equals_sequential_training_steps(self, volume_mode, mc_subsample):
        cfg = toy_config(seed=7, volume_mode=volume_mode)
        pos, neg = two_plates(18)
        result = train(cfg, pos, neg, n_steps=6, batch_size=24, hidden_dims=(8, 8),
                       mc_subsample=mc_subsample)
        curve, net, ema = replay_training_steps(cfg, pos, neg, 6, 24, (8, 8), mc_subsample)
        assert result.loss_curve == curve
        np.testing.assert_array_equal(result.net.params, net.params)
        np.testing.assert_array_equal(result.ema_net.params, ema.shadow.params)

    def test_draws_run_on_one_worker_thread(self, monkeypatch):
        before = threading.active_count()
        seen = []
        draw = training.draw_training_points

        def watched(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return draw(*args)

        monkeypatch.setattr(training, "draw_training_points", watched)
        train(toy_config(), *two_plates(19), n_steps=4, batch_size=16, hidden_dims=(8,))
        assert len(seen) == 4
        assert len({thread for thread, _ in seen}) == 1
        assert seen[0][0] is not threading.main_thread()
        assert {count for _, count in seen} == {before + 1}
        assert threading.active_count() == before

    def test_failed_draw_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        before = threading.active_count()
        calls = []
        draw = training.draw_training_points

        def third_draw_has_nan(*args):
            calls.append(None)
            points = draw(*args)
            if len(calls) == 3:
                points[0, 0] = np.nan
            return points

        monkeypatch.setattr(training, "draw_training_points", third_draw_has_nan)
        with pytest.raises(EfmError, match="training produced non-finite points"):
            train(toy_config(), *two_plates(20), n_steps=5, batch_size=16, hidden_dims=(8,),
                  out_dir=tmp_path / "out")
        assert len(calls) == 3
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_steps, batch_size, bad", [(0, 0, "batch_size"),
                                                          (3, 0, "batch_size"),
                                                          (-3, 16, "n_steps")])
    def test_bad_sizes_rejected_up_front(self, tmp_path, monkeypatch, n_steps, batch_size, bad):
        before = threading.active_count()

        def no_draw(*args):
            raise AssertionError("drew a batch")

        monkeypatch.setattr(training, "draw_training_points", no_draw)
        with pytest.raises(EfmError, match=f"{bad} must be >= "):
            train(toy_config(), *two_plates(21), n_steps=n_steps, batch_size=batch_size,
                  hidden_dims=(8,), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == before


class TestTrainOutputs:
    @pytest.mark.parametrize("dim, n_plate, n_steps", [(2, 2048, 10), (32, 1024, 12)])
    def test_files_equal_the_allocating_kernel_and_textbook_updates(
            self, tmp_path, monkeypatch, dim, n_plate, n_steps):
        # the benchmark's swissroll_train and gauss_d32 training sizes, fewer
        # steps at D=2; the reference run swaps in the allocating field
        # kernel and the textbook Adam and EMA
        cfg = CapacitorConfig(dim_d=dim, plate_gap=6.0, seed=1)
        stream = seeded_stream(34, "plates")
        if dim == 2:
            pos = gen_gaussian(n_plate, 2, stream=stream).points
            neg = gen_swiss_roll(n_plate, noise_std=0.05, stream=stream).points
        else:
            pos = gen_gaussian(n_plate, dim, stream=stream).points
            neg = gen_gaussian(n_plate, dim, mean=2.0, cov_diag=0.25, stream=stream).points

        def run(out):
            train(cfg, pos, neg, n_steps=n_steps, batch_size=512, mc_subsample=256,
                  out_dir=out)
            return [hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("weights.json", "weights_ema.json", "loss_curve.csv")]

        got = run(tmp_path / "workspace")
        monkeypatch.setattr(efm_field, "scaled_superposition", allocating_scaled_superposition)
        monkeypatch.setattr(training, "optimizer_step", textbook_optimizer_step)
        monkeypatch.setattr(training, "ema_update", textbook_ema_update)
        assert run(tmp_path / "reference") == got
