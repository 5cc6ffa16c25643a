import math
import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from efm import field, model
from efm.core import EfmError, WeightFormatError, seeded_stream
from efm.model import (EmaState, FieldApproximator, FwdBwdBuffers, OptimizerState, _act,
                       _act_deriv, ema_update, load_weights, loss_and_gradient,
                       optimizer_step, save_weights)


def scalar_forward(net, x):
    """Independent oracle: the same chain computed with plain scalar loops."""
    y = list(map(float, x))
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += y[i] * float(w[i, j])
            out.append(acc)
        if li != last:
            out = [math.log1p(math.exp(-abs(v))) + max(v, 0.0) for v in out]
        y = out
    return np.array(y)


def finite_difference_grads(net, points, targets, h=1e-4):
    """Independent oracle: central differences on every entry of params."""
    def loss_of(flat):
        probe = net.copy()
        probe.params[...] = flat
        return loss_and_gradient(probe, points, targets)[0]

    flat0 = net.params.copy()
    grad = np.empty_like(flat0)
    for k in range(len(flat0)):
        up = flat0.copy(); up[k] += h
        dn = flat0.copy(); dn[k] -= h
        grad[k] = (loss_of(up) - loss_of(dn)) / (2 * h)
    return grad


def reference_loss_and_gradient(net, x, t):
    """The allocating forward/backward pass that the buffered one replaced:
    fresh arrays for every activation and delta."""
    n, last = len(x), len(net.weights) - 1
    post, y = [x], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        y = y @ w
        y += b
        if i != last:
            y = _act(y)
            post.append(y)
    resid = y - t
    loss = float(np.einsum("ij,ij->", resid, resid) / n)
    grad = np.empty_like(net.params)
    grad_w, grad_b = net.layers(grad)
    delta = 2.0 * resid / n
    for i in range(last, -1, -1):
        np.matmul(post[i].T, delta, out=grad_w[i])
        np.sum(delta, axis=0, out=grad_b[i])
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= _act_deriv(post[i])
    return loss, grad


def reference_optimizer_steps(arrays, grads, learning_rate,
                              beta1=0.9, beta2=0.999, eps_opt=1e-8):
    """The per-array Adam loop that optimizer_step replaced: `arrays` is a
    list of parameter arrays, updated in place, and `grads` one list of
    matching gradient arrays per step."""
    ms = [np.zeros_like(p) for p in arrays]
    vs = [np.zeros_like(p) for p in arrays]
    for t, gs in enumerate(grads, start=1):
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for p, g, m, v in zip(arrays, gs, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            step = (m / c1) / (np.sqrt(v / c2) + eps_opt)
            p -= learning_rate * step
    return ms, vs


def textbook_optimizer_step(net, grad, state):
    """Adam as the textbook writes it (Kingma & Ba, arXiv 1412.6980), every
    intermediate a fresh array: the bit-for-bit reference of optimizer_step."""
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    m *= model.BETA1
    m += (1.0 - model.BETA1) * grad
    v *= model.BETA2
    v += (1.0 - model.BETA2) * grad * grad
    c1, c2 = 1.0 - model.BETA1 ** t, 1.0 - model.BETA2 ** t
    net.params -= state.learning_rate * ((m / c1) / (np.sqrt(v / c2) + model.ADAM_EPS))
    return net, state


def textbook_ema_update(ema, net):
    """The EMA with a fresh (1 - decay) * params array: the bit-for-bit
    reference of ema_update."""
    ema.shadow.params *= ema.decay
    ema.shadow.params += (1.0 - ema.decay) * net.params
    return ema


def reference_ema_update(shadows, currents, decay):
    """The per-array EMA loop that ema_update replaced."""
    for shadow, cur in zip(shadows, currents):
        shadow *= decay
        shadow += (1.0 - decay) * cur


def block_rows(net):
    """Rows per block of `forward` for `net`."""
    return model._PAIR_BLOCK // max(net.layer_dims[1:])


def multi_block_batch(net, seed):
    """Two full blocks of `forward` plus a ragged tail of 37 rows."""
    return seeded_stream(seed, "pts").standard_normal((2 * block_rows(net) + 37,
                                                       net.layer_dims[0]))


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def split(net, flat):
    """`flat` cut into net's per-layer arrays: all weights, then all biases."""
    weights, biases = net.layers(flat)
    return weights + biases


class TestSoftplus:
    GRID = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                           [0.0, 1e-300, -1e-300, 1e300, -1e300],
                           np.linspace(37.0, 41.0, 4001)])

    def test_within_4_ulp_of_logaddexp(self):
        a = self.GRID.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _act(a)
        ref = np.logaddexp(0.0, self.GRID)
        np.testing.assert_array_equal(a, self.GRID)  # input untouched
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_derivative_from_output_is_logistic(self):
        a = self.GRID[np.abs(self.GRID) < 700]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _act_deriv(_act(a))
        ref = np.exp(-np.logaddexp(0.0, -a))
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


class TestForward:
    def test_zero_net_maps_to_zero(self):
        net = FieldApproximator([3, 5, 3])
        np.testing.assert_array_equal(net.forward(np.array([[1.0, -2.0, 0.5]])), np.zeros((1, 3)))

    def test_identity_single_layer(self):
        net = FieldApproximator([3, 3], weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_tiny_net_matches_scalar_arithmetic(self):
        w1 = np.array([[0.5, -0.25, 0.1], [0.2, 0.3, -0.4]])
        b1 = np.array([0.05, -0.1, 0.2])
        w2 = np.array([[1.0, 0.5], [-0.5, 0.25], [0.75, -1.0]])
        b2 = np.array([-0.3, 0.6])
        net = FieldApproximator([2, 3, 2], [w1, w2], [b1, b2])
        x = np.array([0.7, -1.1])
        np.testing.assert_allclose(net.forward(x[None]), scalar_forward(net, x)[None],
                                   rtol=1e-12, atol=1e-14)

    def test_batch_matches_rowwise(self):
        net = FieldApproximator.init_random([3, 8, 3], seeded_stream(0, "init"))
        xs = seeded_stream(1, "pts").standard_normal((5, 3))
        batch = net.forward(xs)
        rows = np.concatenate([net.forward(x[None]) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-14)

    def test_input_left_unmodified(self, two_cpus):
        net = FieldApproximator.init_random([3, 8, 8, 3], seeded_stream(6, "init"))
        batch = seeded_stream(7, "pts").standard_normal((4, 3))
        for xs in (batch, np.array([[0.3, -1.0, 2.0]]), multi_block_batch(net, 8)):
            before = xs.copy()
            net.forward(xs)
            np.testing.assert_array_equal(xs, before)

    def test_finite_on_huge_inputs(self):
        net = FieldApproximator.init_random([3, 16, 16, 3], seeded_stream(2, "init"))
        x = np.array([[1e6, -1e6, 1e6]])
        assert np.all(np.isfinite(net.forward(x)))

    def test_dimension_mismatch_rejected(self):
        net = FieldApproximator([3, 4, 3])
        with pytest.raises(Exception, match="dimension"):
            net.forward(np.zeros((1, 5)))


class TestForwardBlocks:
    """`forward` in row blocks, one after another on the calling thread."""

    @pytest.fixture
    def net(self):
        return FieldApproximator.init_random([3, 128, 128, 3], seeded_stream(11, "init"))

    def test_equals_its_blocks_forwarded_alone(self, net, monkeypatch, two_cpus):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("forward started a worker thread")

        monkeypatch.setattr(field, "ThreadPoolExecutor", NoPool)
        xs = multi_block_batch(net, 12)
        rows = block_rows(net)
        before = threading.active_count()
        got = net.forward(xs)
        assert threading.active_count() == before
        want = np.concatenate([net.forward(xs[i:i + rows]) for i in range(0, len(xs), rows)])
        np.testing.assert_array_equal(got, want)

    def test_empty_batch(self, net, two_cpus):
        assert net.forward(np.empty((0, 3))).shape == (0, 3)

    def test_two_threads_at_once_equal_one(self, net):
        # each thread keeps its own workspace buffers, so calls that overlap
        # on two threads (as map_batch's line shares do) change no bit
        batches = [multi_block_batch(net, 16 + k) for k in range(8)]
        want = [net.forward(xs).tobytes() for xs in batches]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda xs: net.forward(xs).tobytes(), batches * 4))
        assert got == want * 4


class TestLossAndGradient:
    def test_perfect_prediction_zero_loss_zero_grad(self):
        net = FieldApproximator([2, 2], weights=[np.eye(2)], biases=[np.zeros(2)])
        pts = np.array([[0.1, 0.2], [0.5, -0.5]])
        loss, grad = loss_and_gradient(net, pts, pts)
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_zero_net_unit_target(self):
        net = FieldApproximator([3, 3])
        loss, _ = loss_and_gradient(net, np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        assert loss == pytest.approx(1.0)

    @pytest.mark.parametrize("dims, points, targets, match", [
        ([2, 2], np.zeros((0, 2)), np.zeros((0, 2)), "empty"),
        ([3, 8, 3], np.zeros((4, 3)), np.zeros((4, 1)), "target dimension 1 does not match"),
        ([3, 8, 3], np.zeros((4, 2)), np.zeros((4, 3)), "input dimension 2 does not match"),
    ], ids=["empty", "target_width", "input_width"])
    def test_malformed_batch_rejected(self, dims, points, targets, match):
        net = FieldApproximator(dims)
        with pytest.raises(EfmError, match=match):
            loss_and_gradient(net, points, targets)

    @pytest.mark.parametrize("dims", [[3, 6, 3], [2, 5, 5, 2]])
    def test_gradient_matches_finite_differences(self, dims):
        net = FieldApproximator.init_random(dims, seeded_stream(3, f"smooth_relu{dims}"))
        stream = seeded_stream(4, "batch")
        pts = stream.standard_normal((6, dims[0]))
        tgt = stream.standard_normal((6, dims[0]))
        tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
        _, analytic = loss_and_gradient(net, pts, tgt)
        numeric = finite_difference_grads(net, pts, tgt)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-7


class TestFwdBwdBuffers:
    NET = FieldApproximator.init_random([3, 16, 8, 3], seeded_stream(5, "buffered"))
    STREAM = seeded_stream(6, "batch")
    PTS = STREAM.standard_normal((40, 3))
    TGT = STREAM.standard_normal((40, 3))

    @pytest.mark.parametrize("rows", [40, 37, 1])
    def test_bit_identical_to_the_allocating_pass(self, rows):
        # rows < 40: a batch with dropped targets uses the buffers' leading rows
        pts, tgt = self.PTS[:rows], self.TGT[:rows]
        want_loss, want_grad = reference_loss_and_gradient(self.NET, pts, tgt)
        buffers = FwdBwdBuffers(self.NET, 40)
        loss_and_gradient(self.NET, self.PTS, self.TGT, buffers)  # leaves every row dirty
        for got_loss, got_grad in (loss_and_gradient(self.NET, pts, tgt, buffers),
                                   loss_and_gradient(self.NET, pts, tgt)):
            assert got_loss == want_loss
            np.testing.assert_array_equal(got_grad, want_grad)
        assert loss_and_gradient(self.NET, pts, tgt, buffers)[1] is buffers.grad

    def test_grad_aliases_no_params_or_moments(self):
        net = self.NET.copy()
        state = OptimizerState.for_net(net, 0.01)
        _, grad = loss_and_gradient(net, self.PTS, self.TGT, FwdBwdBuffers(net, 40))
        for other in (net.params, state.first_moment, state.second_moment):
            assert not np.shares_memory(grad, other)
        before = grad.copy()
        optimizer_step(net, grad, state)
        np.testing.assert_array_equal(grad, before)

    def test_inputs_left_unmodified(self):
        pts, tgt = self.PTS.copy(), self.TGT.copy()
        loss_and_gradient(self.NET, pts, tgt, FwdBwdBuffers(self.NET, 40))
        np.testing.assert_array_equal(pts, self.PTS)
        np.testing.assert_array_equal(tgt, self.TGT)

    def test_batch_larger_than_buffers_rejected(self):
        with pytest.raises(Exception, match="buffers hold 8 rows"):
            loss_and_gradient(self.NET, self.PTS, self.TGT, FwdBwdBuffers(self.NET, 8))


class TestOptimizer:
    def test_zero_gradient_no_decay_is_noop(self):
        net = FieldApproximator.init_random([2, 3, 2], seeded_stream(5, "i"))
        before = [w.copy() for w in net.weights]
        state = OptimizerState.for_net(net, learning_rate=0.1)
        optimizer_step(net, np.zeros_like(net.params), state)
        for b, w in zip(before, net.weights):
            np.testing.assert_array_equal(b, w)
        assert state.step_count == 1

    def test_descends_on_quadratic(self):
        # f(w) = w^2 seen through a 1-layer net with input 1, target 0
        net = FieldApproximator([1, 1], weights=[np.array([[1.0]])],
                                biases=[np.zeros(1)])
        state = OptimizerState.for_net(net, learning_rate=0.1)
        _, grad = loss_and_gradient(net, np.ones((1, 1)), np.zeros((1, 1)))
        optimizer_step(net, grad, state)
        assert net.weights[0][0, 0] < 1.0

    def test_linear_regression_reaches_least_squares(self):
        # oracle: closed-form least squares via lstsq
        stream = seeded_stream(6, "lr")
        X = stream.standard_normal((64, 2))
        true_w = np.array([[1.5, -0.5], [0.25, 2.0]])
        Y = X @ true_w
        w_star, *_ = np.linalg.lstsq(X, Y, rcond=None)
        net = FieldApproximator([2, 2])
        state = OptimizerState.for_net(net, learning_rate=0.05)
        for _ in range(200):
            loss, grad = loss_and_gradient(net, X, Y)
            optimizer_step(net, grad, state)
        assert loss < 1e-3
        np.testing.assert_allclose(net.weights[0], w_star, atol=0.05)


class TestInPlaceUpdates:
    """optimizer_step and ema_update write into work vectors their states own."""

    def test_five_optimizer_steps_equal_textbook_adam(self):
        net = FieldApproximator.init_random([3, 16, 16, 3], seeded_stream(28, "i"))
        ref = net.copy()
        stream = seeded_stream(29, "g")
        grads = [stream.standard_normal(net.params.shape) for _ in range(5)]
        for g in grads:
            g[::3] = 0.0  # zero entries next to negative and positive ones
        state, ref_state = (OptimizerState.for_net(n, 0.01) for n in (net, ref))
        for g in grads:
            optimizer_step(net, g, state)
            textbook_optimizer_step(ref, g, ref_state)
        assert state.step_count == ref_state.step_count == 5
        for got, want in ((net.params, ref.params),
                          (state.first_moment, ref_state.first_moment),
                          (state.second_moment, ref_state.second_moment)):
            np.testing.assert_array_equal(got, want)

    def test_ema_updates_equal_textbook_ema(self):
        net = FieldApproximator.init_random([3, 16, 3], seeded_stream(30, "i"))
        ema, ref = EmaState.from_net(net, 0.99), EmaState.from_net(net, 0.99)
        stream = seeded_stream(31, "p")
        for _ in range(5):
            net.params += stream.standard_normal(net.params.shape)
            ema_update(ema, net)
            textbook_ema_update(ref, net)
        np.testing.assert_array_equal(ema.shadow.params, ref.shadow.params)

    def test_no_param_sized_allocation_after_the_first_step(self):
        net = FieldApproximator.init_random([3, 128, 128, 3], seeded_stream(32, "i"))
        stream = seeded_stream(33, "g")
        state, ema = OptimizerState.for_net(net, 0.01), EmaState.from_net(net, 0.99)

        tracemalloc.start()
        try:
            for k in range(5):
                grad = stream.standard_normal(net.params.shape)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                optimizer_step(net, grad, state)
                ema_update(ema, net)
                if k:  # the first step may set up its work vectors
                    assert tracemalloc.get_traced_memory()[1] - base < net.params.nbytes // 4
        finally:
            tracemalloc.stop()


class TestEma:
    def test_decay_zero_copies_current(self):
        net = FieldApproximator.init_random([2, 3, 2], seeded_stream(7, "i"))
        ema = EmaState.from_net(FieldApproximator([2, 3, 2]), 0.0)
        ema_update(ema, net)
        for s, w in zip(ema.shadow.weights, net.weights):
            np.testing.assert_array_equal(s, w)

    def test_constant_net_geometric_convergence(self):
        net = FieldApproximator([1, 1], weights=[np.array([[1.0]])], biases=[np.zeros(1)])
        ema = EmaState.from_net(FieldApproximator([1, 1]), 0.5)
        gaps = []
        for _ in range(5):
            ema_update(ema, net)
            gaps.append(abs(ema.shadow.weights[0][0, 0] - 1.0))
        np.testing.assert_allclose(gaps, [0.5 ** k for k in range(1, 6)], rtol=1e-12)

    def test_two_value_blend_hand_computed(self):
        # shadow after 0 then 1.0 with decay 0.99: 0.99*0 + 0.01*1 = 0.01
        net = FieldApproximator([1, 1], weights=[np.array([[1.0]])], biases=[np.zeros(1)])
        ema = EmaState.from_net(FieldApproximator([1, 1]), 0.99)
        ema_update(ema, net)
        assert ema.shadow.weights[0][0, 0] == pytest.approx(0.01)
        ema_update(ema, net)
        assert ema.shadow.weights[0][0, 0] == pytest.approx(0.99 * 0.01 + 0.01)

    def test_apply_never_mutates_live_net(self):
        net = FieldApproximator.init_random([2, 4, 2], seeded_stream(8, "i"))
        before = [w.copy() for w in net.weights]
        ema = EmaState.from_net(net, 0.9)
        snap = ema.shadow.copy()
        snap.weights[0][...] = 99.0
        for b, w in zip(before, net.weights):
            np.testing.assert_array_equal(b, w)


class TestPersistence:
    def test_round_trip_bit_identical(self, tmp_path):
        net = FieldApproximator.init_random([3, 7, 3], seeded_stream(9, "i"))
        path = tmp_path / "w.json"
        save_weights(net, path, created_from_seed=9)
        back = load_weights(path)
        assert back.layer_dims == net.layer_dims
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_truncated_file_rejected(self, tmp_path):
        net = FieldApproximator([2, 2])
        path = tmp_path / "w.json"
        save_weights(net, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(WeightFormatError, match="corrupt weight file"):
            load_weights(path)

    def test_mismatched_dims_rejected(self, tmp_path):
        import json
        net = FieldApproximator([2, 3, 2])
        path = tmp_path / "w.json"
        save_weights(net, path)
        payload = json.loads(path.read_text())
        payload["layer_dims"] = [2, 4, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(WeightFormatError, match="size does not match"):
            load_weights(path)

    def test_other_activation_rejected(self, tmp_path):
        import json
        path = tmp_path / "w.json"
        save_weights(FieldApproximator([2, 2]), path)
        payload = json.loads(path.read_text())
        assert payload["activation"] == "smooth_relu"
        payload["activation"] = "tanh"
        path.write_text(json.dumps(payload))
        with pytest.raises(WeightFormatError, match="activation 'tanh' not supported"):
            load_weights(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        net = FieldApproximator([2, 2])
        path = tmp_path / "w.json"
        save_weights(net, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(path)


class TestParams:
    def assert_views_of_params(self, net):
        for a in net.weights + net.biases:
            assert np.shares_memory(a, net.params)
        x = np.array([[0.3, -0.7, 1.1]])
        before = net.forward(x)
        net.params += 0.25
        assert not np.array_equal(net.forward(x), before)

    def test_layers_are_views_after_every_constructor(self, tmp_path):
        net = FieldApproximator.init_random([3, 5, 4, 3], seeded_stream(20, "i"))
        save_weights(net, tmp_path / "w.json")
        ema = EmaState.from_net(net, 0.9)
        for made in (net, load_weights(tmp_path / "w.json"), net.copy(), ema.shadow.copy()):
            self.assert_views_of_params(made)

    def test_copies_own_their_params(self):
        net = FieldApproximator.init_random([3, 4, 3], seeded_stream(21, "i"))
        ema = EmaState.from_net(net, 0.9)
        for made in (net.copy(), ema.shadow.copy(), ema.shadow):
            assert not np.shares_memory(made.params, net.params)
        assert not np.shares_memory(ema.shadow.copy().params, ema.shadow.params)

    def test_constructor_copies_given_arrays(self):
        w, b = np.eye(2), np.zeros(2)
        net = FieldApproximator([2, 2], weights=[w], biases=[b])
        net.params += 1.0
        np.testing.assert_array_equal(w, np.eye(2))
        np.testing.assert_array_equal(b, np.zeros(2))


class TestFlatMatchesPerArrayLoops:
    def test_three_optimizer_steps_bit_identical(self):
        net = FieldApproximator.init_random([3, 8, 8, 3], seeded_stream(24, "i"))
        ref = [a.copy() for a in net.weights + net.biases]
        stream = seeded_stream(25, "g")
        grads = [stream.standard_normal(net.params.shape) for _ in range(3)]
        state = OptimizerState.for_net(net, learning_rate=0.01)
        for g in grads:
            optimizer_step(net, g, state)
        ms, vs = reference_optimizer_steps(
            ref, [split(net, g) for g in grads], 0.01)
        assert state.step_count == 3
        for got, want in zip(net.weights + net.biases, ref):
            np.testing.assert_array_equal(got, want)
        for flat, arrays in ((state.first_moment, ms), (state.second_moment, vs)):
            for got, want in zip(split(net, flat), arrays):
                np.testing.assert_array_equal(got, want)

    def test_three_ema_updates_bit_identical(self):
        net = FieldApproximator.init_random([3, 8, 3], seeded_stream(26, "i"))
        ema = EmaState.from_net(net, 0.97)
        ref = [a.copy() for a in net.weights + net.biases]
        stream = seeded_stream(27, "p")
        for _ in range(3):
            net.params += stream.standard_normal(net.params.shape)
            ema_update(ema, net)
            reference_ema_update(ref, net.weights + net.biases, 0.97)
        for got, want in zip(ema.shadow.weights + ema.shadow.biases, ref):
            np.testing.assert_array_equal(got, want)
