"""From-scratch MLP field approximator with Adam, EMA, and JSON persistence."""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass

import numpy as np

from .core import EfmError, WeightFormatError

ACTIVATIONS = ("tanh", "smooth_relu")

WEIGHT_FORMAT_VERSION = 1


# Softplus log(1 + exp(a)) is max(log1p(exp(min(a, 40))), a): four vectorised
# ufunc passes over one buffer, within 2 ulp of np.logaddexp(0, a), which
# runs element by element at several times the cost. The clip keeps exp
# finite; above 40, exp(-a) is below half an ulp of a, so the result rounds
# to a anyway.
_SOFTPLUS_CLIP = 40.0


def _act(name, a):
    """Hidden-layer activation; never modifies `a`."""
    if name == "tanh":
        return np.tanh(a)
    out = np.minimum(a, _SOFTPLUS_CLIP)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.maximum(out, a, out=out)


def _act_deriv(name, y):
    """Activation derivative, from the activation's output y = _act(name, a)."""
    if name == "tanh":
        return 1.0 - y * y
    # softplus' = logistic sigmoid = 1 - exp(-softplus)
    out = np.negative(y)
    np.expm1(out, out=out)
    return np.negative(out, out=out)


class FieldApproximator:
    """Plain MLP mapping R^(D+1) -> R^(D+1): affine-activation chain with an
    affine final layer. Weights are (fan_in, fan_out) float64 matrices."""

    def __init__(self, layer_dims, activation="smooth_relu", weights=None, biases=None):
        layer_dims = [int(d) for d in layer_dims]
        if len(layer_dims) < 2:
            raise EfmError("layer_dims needs at least input and output sizes")
        if any(d < 1 for d in layer_dims):
            raise EfmError("layer_dims must be positive")
        if activation not in ACTIVATIONS:
            raise EfmError(f"activation must be one of {ACTIVATIONS}")
        self.layer_dims = layer_dims
        self.activation = activation
        if weights is None:
            self.weights = [np.zeros((a, b)) for a, b in zip(layer_dims[:-1], layer_dims[1:])]
            self.biases = [np.zeros(b) for b in layer_dims[1:]]
        else:
            self.weights = [np.asarray(w, dtype=float) for w in weights]
            self.biases = [np.asarray(b, dtype=float) for b in biases]
            self._check_shapes()

    def _check_shapes(self):
        expect = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        got_w = [w.shape for w in self.weights]
        got_b = [b.shape for b in self.biases]
        if got_w != expect or got_b != [(b,) for _, b in expect]:
            raise WeightFormatError("parameter shapes do not chain with layer_dims")
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise EfmError("parameters must be finite")

    @classmethod
    def init_random(cls, layer_dims, activation, stream) -> "FieldApproximator":
        """Uniform init scaled by 1/sqrt(fan_in), deterministic given the stream."""
        net = cls(layer_dims, activation)
        for i, (a, b) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            bound = 1.0 / np.sqrt(a)
            net.weights[i] = stream.uniform(-bound, bound, size=(a, b))
            net.biases[i] = stream.uniform(-bound, bound, size=b)
        return net

    def copy(self) -> "FieldApproximator":
        return FieldApproximator(self.layer_dims, self.activation,
                                 [w.copy() for w in self.weights],
                                 [b.copy() for b in self.biases])

    def forward(self, x) -> np.ndarray:
        """Network output for one point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        y = np.atleast_2d(x)
        if y.shape[1] != self.layer_dims[0]:
            raise EfmError(f"input dimension {y.shape[1]} does not match "
                           f"network input {self.layer_dims[0]}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            y = y @ w
            y += b
            if i != last:
                y = _act(self.activation, y)
        return y[0] if squeeze else y

def loss_and_gradient(net: FieldApproximator, points, targets):
    """Mean squared-error loss over a batch and its reverse-mode gradient.

    loss = mean_i || f(x_i) - t_i ||^2 (sum over components, mean over the
    batch). Returns (loss, (weight_grads, bias_grads)).
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(x) == 0:
        raise EfmError("empty batch")
    if x.shape[0] != t.shape[0]:
        raise EfmError("points and targets must pair up")
    n = len(x)
    last = len(net.weights) - 1

    post = [x]     # layer inputs (post-activation of previous layer)
    y = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        y = y @ w
        y += b
        if i != last:
            y = _act(net.activation, y)
            post.append(y)

    resid = y - t
    loss = float(np.einsum("ij,ij->", resid, resid) / n)

    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = 2.0 * resid / n
    for i in range(last, -1, -1):
        grad_w[i] = post[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= _act_deriv(net.activation, post[i])
    return loss, (grad_w, grad_b)


@dataclass
class OptimizerState:
    """Adaptive-moment optimizer state with decoupled weight decay."""

    learning_rate: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    step_count: int = 0
    first_moment: tuple | None = None
    second_moment: tuple | None = None

    @classmethod
    def for_net(cls, net, learning_rate, weight_decay=0.0, **kw) -> "OptimizerState":
        zeros_w = [np.zeros_like(w) for w in net.weights]
        zeros_b = [np.zeros_like(b) for b in net.biases]
        return cls(learning_rate, weight_decay,
                   first_moment=([z.copy() for z in zeros_w], [z.copy() for z in zeros_b]),
                   second_moment=(zeros_w, zeros_b), **kw)


def optimizer_step(net: FieldApproximator, grads, state: OptimizerState):
    """One bias-corrected moment update; mutates net and state in place."""
    grad_w, grad_b = grads
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for kind in (0, 1):
        params = net.weights if kind == 0 else net.biases
        gs = grad_w if kind == 0 else grad_b
        ms = state.first_moment[kind]
        vs = state.second_moment[kind]
        for p, g, m, v in zip(params, gs, ms, vs):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            step = (m / c1) / (np.sqrt(v / c2) + state.eps_opt)
            if state.weight_decay:
                step = step + state.weight_decay * p
            p -= state.learning_rate * step
    return net, state


@dataclass
class EmaState:
    """Exponential moving average of the network parameters."""

    decay: float
    shadow_weights: list
    shadow_biases: list
    layer_dims: list
    activation: str

    def __post_init__(self):
        if not (0.0 <= self.decay < 1.0):
            raise EfmError("ema decay must lie in [0, 1)")

    @classmethod
    def from_net(cls, net: FieldApproximator, decay: float) -> "EmaState":
        return cls(decay, [w.copy() for w in net.weights], [b.copy() for b in net.biases],
                   list(net.layer_dims), net.activation)


def ema_update(ema: EmaState, net: FieldApproximator) -> EmaState:
    """shadow <- decay * shadow + (1 - decay) * current, in place."""
    for shadow, cur in zip(ema.shadow_weights, net.weights):
        shadow *= ema.decay
        shadow += (1.0 - ema.decay) * cur
    for shadow, cur in zip(ema.shadow_biases, net.biases):
        shadow *= ema.decay
        shadow += (1.0 - ema.decay) * cur
    return ema


def ema_apply(ema: EmaState) -> FieldApproximator:
    """Materialize the shadow parameters as a fresh network."""
    return FieldApproximator(ema.layer_dims, ema.activation,
                             [w.copy() for w in ema.shadow_weights],
                             [b.copy() for b in ema.shadow_biases])


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape) -> np.ndarray:
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
        "activation": net.activation,
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
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFormatError(f"corrupt weight file: bad header ({exc})") from exc
    if len(layers) != len(dims) - 1:
        raise WeightFormatError("corrupt weight file: layer count does not match dims")
    weights, biases = [], []
    for (a, b), layer in zip(zip(dims[:-1], dims[1:]), layers):
        weights.append(_decode(layer["weight"], (a, b)))
        biases.append(_decode(layer["bias"], (b,)))
    return FieldApproximator(dims, activation, weights, biases)
