"""From-scratch MLP field approximator with Adam, EMA, and JSON persistence."""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field

import numpy as np

from .core import EfmError, WeightFormatError
from .field import _PAIR_BLOCK, _workspace

WEIGHT_FORMAT_VERSION = 1
# The one hidden-layer activation, as the weight file names it.
_ACTIVATION = "smooth_relu"


# Softplus log(1 + exp(a)) is max(log1p(exp(min(a, 40))), a): four vectorised
# ufunc passes over one buffer, within 2 ulp of np.logaddexp(0, a), which
# runs element by element at several times the cost. The clip keeps exp
# finite; above 40, exp(-a) is below half an ulp of a, so the result rounds
# to a anyway.
_SOFTPLUS_CLIP = 40.0


def _act(a, out=None):
    """Hidden-layer activation (softplus), into `out` (a new array by
    default, never `a` itself); never modifies `a`."""
    out = np.minimum(a, _SOFTPLUS_CLIP, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.maximum(out, a, out=out)


def _act_deriv(y, out=None):
    """Activation derivative, from the activation's output y = _act(a), into
    `out` (a new array by default; `y` itself works)."""
    # softplus' = logistic sigmoid = 1 - exp(-softplus)
    out = np.negative(y, out=out)
    np.expm1(out, out=out)
    return np.negative(out, out=out)


class FieldApproximator:
    """Plain MLP mapping R^(D+1) -> R^(D+1): affine-activation chain with an
    affine final layer. Every parameter lives in the float64 vector `params`;
    `weights[i]` ((fan_in, fan_out) matrices) and `biases[i]` are views into
    it, so assign through them (`w[...] = ...`), never rebind them."""

    def __init__(self, layer_dims, weights=None, biases=None):
        layer_dims = [int(d) for d in layer_dims]
        if len(layer_dims) < 2:
            raise EfmError("layer_dims needs at least input and output sizes")
        if any(d < 1 for d in layer_dims):
            raise EfmError("layer_dims must be positive")
        self.layer_dims = layer_dims
        self.params = np.zeros(sum((a + 1) * b for a, b in zip(layer_dims[:-1], layer_dims[1:])))
        self.weights, self.biases = self.layers(self.params)
        if weights is not None:
            given = [np.asarray(a, dtype=float) for a in [*weights, *biases]]
            views = self.weights + self.biases
            if (len(weights) != len(self.weights)
                    or [a.shape for a in given] != [v.shape for v in views]):
                raise WeightFormatError("parameter shapes do not chain with layer_dims")
            for view, a in zip(views, given):
                view[...] = a
            if not np.all(np.isfinite(self.params)):
                raise EfmError("parameters must be finite")

    def layers(self, flat):
        """(weights, biases): per-layer views into `flat`, laid out like `params`."""
        weights, biases, k = [], [], 0
        for a, b in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(flat[k:k + a * b].reshape(a, b))
            biases.append(flat[k + a * b:k + (a + 1) * b])
            k += (a + 1) * b
        return weights, biases

    @classmethod
    def init_random(cls, layer_dims, stream) -> "FieldApproximator":
        """Uniform init scaled by 1/sqrt(fan_in), deterministic given the stream."""
        net = cls(layer_dims)
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = stream.uniform(-bound, bound, size=w.shape)
            b[...] = stream.uniform(-bound, bound, size=b.shape)
        return net

    def copy(self) -> "FieldApproximator":
        return FieldApproximator(self.layer_dims, self.weights, self.biases)

    def forward(self, x) -> np.ndarray:
        """Network output for a batch (n, d) of points.

        Rows go through in blocks of `block` rows, the last one ragged, where
        a (block, widest layer) float64 buffer holds `_PAIR_BLOCK` entries and
        so stays in a core's L2 cache. Each block is forwarded with the same
        operations in the same order as one unblocked pass, and its rows come
        out bit-identical to forwarding that block on its own. They equal one
        unblocked pass bit for bit wherever BLAS rounds a row the same in the
        block as in the whole batch, as in every batch of the benchmark (2048
        rows at D=2, 1024 at D=32). Not every BLAS does so for every batch:
        OpenBLAS takes other kernels for one row and for small products, so a
        one-row tail, a tail of a few hundred rows at D=32 or a batch of more
        than 2604 rows at D=2 can differ from one pass in the last bits.

        The blocks run one after another on the calling thread, with their
        temporaries in two ping-pong buffers of _PAIR_BLOCK entries of this
        thread's workspace (`efm.field._workspace`; block x widest hidden
        layer never exceeds it). A warm call allocates only its output, and
        calls on two threads at once (`efm.transport.map_batch` makes them)
        share no scratch.
        """
        y = np.atleast_2d(np.asarray(x, dtype=float))
        if y.shape[1] != self.layer_dims[0]:
            raise EfmError(f"input dimension {y.shape[1]} does not match "
                           f"network input {self.layer_dims[0]}")
        out = np.empty((len(y), self.layer_dims[-1]))
        block = max(1, _PAIR_BLOCK // max(self.layer_dims[1:]))
        for i in range(0, len(y), block):
            self._forward_rows(y[i:i + block], out[i:i + block])
        return out

    def _forward_rows(self, x, out):
        """Forward the rows of `x`, at most one block, into `out`. The hidden
        layers ping-pong between two buffers of this thread's workspace:
        affine output, then activation."""
        size = len(x) * max(self.layer_dims[1:-1], default=0)
        pre, post = _workspace("forward_pre", size), _workspace("forward_post", size)
        *hidden, (w_out, b_out) = zip(self.weights, self.biases)
        y = x
        for w, b in hidden:
            shape = (len(y), w.shape[1])
            a = np.matmul(y, w, out=pre[:shape[0] * shape[1]].reshape(shape))
            a += b
            y = _act(a, out=post[:shape[0] * shape[1]].reshape(shape))
        np.matmul(y, w_out, out=out)
        out += b_out


class FwdBwdBuffers:
    """Work arrays of `loss_and_gradient` for batches of up to `rows` points,
    allocated once so that repeated calls fault in no fresh pages.

    `pre[i]` holds layer i's affine output, `post[i]` hidden layer i's
    activation; the backward pass reuses both for its deltas. A batch of
    n < rows points uses their leading n rows. `grad` is laid out like the
    net's params and is overwritten by every call.
    """

    def __init__(self, net: FieldApproximator, rows: int):
        widths = net.layer_dims[1:]
        self.rows = int(rows)
        self.pre = [np.empty((self.rows, w)) for w in widths]
        self.post = [np.empty((self.rows, w)) for w in widths[:-1]]
        self.grad = np.empty_like(net.params)


def loss_and_gradient(net: FieldApproximator, points, targets,
                      buffers: FwdBwdBuffers | None = None):
    """Mean squared-error loss over a batch and its reverse-mode gradient.

    loss = mean_i || f(x_i) - t_i ||^2 (sum over components, mean over the
    batch). Returns (loss, grad), with grad laid out like net.params. With
    `buffers` (sized for `net` and at least this batch) every intermediate
    and grad itself live in them; the results are bit-identical to a call
    without.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(x) == 0:
        raise EfmError("empty batch")
    if x.shape[0] != t.shape[0]:
        raise EfmError("points and targets must pair up")
    if x.shape[1] != net.layer_dims[0]:
        raise EfmError(f"input dimension {x.shape[1]} does not match "
                       f"network input {net.layer_dims[0]}")
    if t.shape[1] != net.layer_dims[-1]:
        raise EfmError(f"target dimension {t.shape[1]} does not match "
                       f"network output {net.layer_dims[-1]}")
    n = len(x)
    last = len(net.weights) - 1
    if buffers is None:
        buffers = FwdBwdBuffers(net, n)
    elif buffers.rows < n:
        raise EfmError(f"buffers hold {buffers.rows} rows, batch has {n}")
    pre = [a[:n] for a in buffers.pre]
    post = [x, *(a[:n] for a in buffers.post)]  # layer inputs

    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        np.matmul(post[i], w, out=pre[i])
        pre[i] += b
        if i != last:
            _act(pre[i], out=post[i + 1])

    resid = np.subtract(pre[last], t, out=pre[last])
    loss = float(np.einsum("ij,ij->", resid, resid) / n)

    grad = buffers.grad
    grad_w, grad_b = net.layers(grad)
    delta = resid
    delta *= 2.0
    delta /= n
    for i in range(last, -1, -1):
        np.matmul(post[i].T, delta, out=grad_w[i])
        np.sum(delta, axis=0, out=grad_b[i])
        if i > 0:
            # post[i] and pre[i - 1] are dead from here on: the first takes
            # the activation's derivative, the second the next delta
            delta = np.matmul(delta, net.weights[i].T, out=pre[i - 1])
            delta *= _act_deriv(post[i], out=post[i])
    return loss, grad


# Adam moment decays and denominator guard (Kingma & Ba, arXiv 1412.6980).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adaptive-moment optimizer state; each moment is one vector laid out
    like the net's params. `optimizer_step` writes its intermediates into
    two more such vectors, allocated here once."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    _work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._work = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))

    @classmethod
    def for_net(cls, net, learning_rate) -> "OptimizerState":
        return cls(learning_rate, np.zeros_like(net.params), np.zeros_like(net.params))


def optimizer_step(net: FieldApproximator, grad, state: OptimizerState):
    """One bias-corrected moment update; mutates net and state in place and
    allocates no param-sized array. Each element sees the same operations in
    the same order as the textbook expressions m += (1-b1)*g,
    v += (1-b2)*g*g and p -= lr * (m/c1) / (sqrt(v/c2) + eps)."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    m, v = state.first_moment, state.second_moment
    a, b = state._work
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=a)
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=a)
    a *= grad
    v += a
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    np.divide(m, c1, out=a)
    a /= b
    a *= state.learning_rate
    net.params -= a
    return net, state


@dataclass
class EmaState:
    """Exponential moving average of the network parameters, kept as a
    shadow network."""

    decay: float
    shadow: FieldApproximator
    _work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.decay < 1.0):
            raise EfmError("ema decay must lie in [0, 1)")
        self._work = np.empty_like(self.shadow.params)

    @classmethod
    def from_net(cls, net: FieldApproximator, decay: float) -> "EmaState":
        return cls(decay, net.copy())


def ema_update(ema: EmaState, net: FieldApproximator) -> EmaState:
    """shadow <- decay * shadow + (1 - decay) * current, in place, with no
    param-sized allocation."""
    ema.shadow.params *= ema.decay
    ema.shadow.params += np.multiply(net.params, 1.0 - ema.decay, out=ema._work)
    return ema


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape) -> np.ndarray:
    if not isinstance(text, str):
        raise WeightFormatError("corrupt weight file: arrays must be base64 strings")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise WeightFormatError(f"corrupt weight file: bad base64 ({exc})") from exc
    expect = int(np.prod(shape)) * 8
    if len(raw) != expect:
        raise WeightFormatError("corrupt weight file: array size does not match "
                                "declared dims")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def save_weights(net: FieldApproximator, path, created_from_seed=None) -> None:
    """Persist the network: JSON header plus base64 row-major little-endian
    float64 arrays per layer, in layer order."""
    payload = {
        "format_version": WEIGHT_FORMAT_VERSION,
        "layer_dims": net.layer_dims,
        "activation": _ACTIVATION,
        "created_from_seed": created_from_seed,
        "layers": [{"weight": _encode(w), "bias": _encode(b)}
                   for w, b in zip(net.weights, net.biases)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_weights(path) -> FieldApproximator:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WeightFormatError(f"corrupt weight file: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise WeightFormatError("corrupt weight file: missing header")
    if payload["format_version"] != WEIGHT_FORMAT_VERSION:
        raise WeightFormatError(f"weight file version {payload['format_version']} "
                                f"not supported (expected {WEIGHT_FORMAT_VERSION})")
    try:
        dims = [int(d) for d in payload["layer_dims"]]
        activation = payload["activation"]
        layers = payload["layers"]
        if not isinstance(layers, list):
            raise TypeError("layers must be a list")
        arrays = [(layer["weight"], layer["bias"]) for layer in layers]
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFormatError(f"corrupt weight file: bad header or layers ({exc})") from exc
    if activation != _ACTIVATION:
        raise WeightFormatError(f"activation {activation!r} not supported "
                                f"(expected {_ACTIVATION!r})")
    if len(arrays) != len(dims) - 1:
        raise WeightFormatError("corrupt weight file: layer count does not match dims")
    weights, biases = [], []
    for (weight, bias), a, b in zip(arrays, dims[:-1], dims[1:]):
        weights.append(_decode(weight, (a, b)))
        biases.append(_decode(bias, (b,)))
    return FieldApproximator(dims, weights, biases)
