"""Exact electrostatic fields of point-charge plates in D+1 dimensions.

Direct summation over weighted sample charges; this is the ground-truth
oracle used both for training targets and for transport on small problems.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import FieldError

# Norms below this are treated as a vanishing field when normalizing.
TINY_FIELD_NORM = 1e-30

# Above this ambient dimension the inverse-power weights c / r**d are formed
# in log space with per-row shifts: r**d leaves float range long before the
# normalized field direction stops being meaningful. At or below it the plain
# powers stay in range and are cheaper to form.
LOG_ACCUMULATION_DIM = 32

# Natural log of the largest float64: at ambient dimension d, a squared
# distance above exp(2 * _LOG_FLOAT_MAX / d) overflows when raised to d/2.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Max pairwise entries materialized at once. A (rows, n) float64 temporary
# then takes 512 KiB, so a block's temporaries stay in a core's L2 cache.
_PAIR_BLOCK = 65_536

# Per-thread scratch buffers of the hot loops, by slot name (`_workspace`).
_WORKSPACE = threading.local()


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit n-sphere embedded in R^(n+1),
    S_n = 2 pi^((n+1)/2) / Gamma((n+1)/2).

    Formed in stdlib floats by the recursion S_0 = 2, S_1 = 2 pi,
    S_n = S_(n-2) * (2 pi / (n-1)), so S_1 = 2 pi and S_2 = 4 pi exactly.
    For n <= 64 it is within 2 ulps of the closed forms 2 pi^k / (k-1)!
    (n = 2k-1) and 2^(k+1) pi^k / (2k-1)!! (n = 2k) taken exactly in the
    float pi, and within 10 ulps of the true value (the formula through
    exp and log-gamma in floats is off by up to 154). S_n underflows to 0
    from n = 455 on: the field kernel's high-D branch carries log S_n
    instead.
    """
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    area = 2.0 if n % 2 == 0 else 2.0 * math.pi
    for m in range(n % 2 + 2, n + 1, 2):
        area *= 2.0 * math.pi / (m - 1)
    return area


def point_charge_field(x, source, q: float, field_epsilon: float = 0.0) -> np.ndarray:
    """Field of a single point charge q at `source`, evaluated at `x`.

    E(x) = q / S_{d-1} * (x - source) / (|x - source|^2 + eps^2)^(d/2),
    which is the exact inverse-power law when field_epsilon is zero.
    """
    x = np.asarray(x, dtype=float)
    source = np.asarray(source, dtype=float)
    d = x.shape[-1]
    diff = x - source
    r2 = np.sum(diff * diff, axis=-1, keepdims=True) + field_epsilon ** 2
    return q / sphere_surface_area(d - 1) * diff / r2 ** (0.5 * d)


def _workspace(slot: str, size: int, dtype=float) -> np.ndarray:
    """This thread's flat scratch buffer named `slot`, of at least `size`
    entries of `dtype`.

    A buffer holds max(_PAIR_BLOCK, size) entries and is replaced only by a
    larger request, so a hot loop faults in its pages once per thread, not
    once per call. That saves pages only on a thread that lives across
    calls: `_split` starts a fresh worker thread on every call, so the
    worker's slots are allocated and faulted in again each time (the
    caller's are kept). Work that can be live at the same time on one
    thread uses different slots. Work that cannot may share one: the net's
    `FieldApproximator.forward` ping-pongs through the layer-0 pair
    `fwdbwd_pre0`/`fwdbwd_post0` of `efm.model.loss_and_gradient`. Neither
    calls the other or returns a view of that pair, so on one thread the two
    never hold it at once, and the net keeps one set of scratch per thread.
    """
    buf = getattr(_WORKSPACE, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(max(_PAIR_BLOCK, size), dtype)
        setattr(_WORKSPACE, slot, buf)
    return buf


def _split(fn, pieces, costs, min_cost=0) -> list:
    """[fn(p) for p in pieces], shared between the caller and one worker thread.

    The pieces are cut in two where their `costs` balance best: the caller
    runs the leading share, and one `ThreadPoolExecutor(max_workers=1)`
    worker runs the trailing share at the same time, under the caller's
    `np.errstate`. The results come back in piece order, whichever thread
    made them. The worker is joined before this returns or raises, and its
    exception propagates from here. No thread starts when the trailing share
    would cost less than `min_cost` (or is empty), or when the process may
    use only one CPU.

    `fn` runs on both threads at once: it keeps its scratch in `_workspace`
    and writes no state that another piece reads. It may call a function
    that the benchmark's tracer wraps, as `efm.transport.map_batch`'s shares
    call `field_fn` (a net's traced `forward` under `--trace 1`): the
    tracer's one span stack for all threads stays balanced, but a span may
    take the other thread's open span as its parent, and each share counts
    as its own call.
    """
    if len(pieces) < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [fn(p) for p in pieces]
    lead_cost = np.cumsum(costs, dtype=float)[:-1]  # the caller's share at each cut
    trail_cost = sum(costs) - lead_cost
    cut = int(np.argmin(np.maximum(lead_cost, trail_cost))) + 1
    if trail_cost[cut - 1] < min_cost:
        return [fn(p) for p in pieces]
    errstate = np.geterr()

    def trailing():
        with np.errstate(**errstate):
            return [fn(p) for p in pieces[cut:]]

    with ThreadPoolExecutor(max_workers=1) as worker:
        trail = worker.submit(trailing)
        lead = [fn(p) for p in pieces[:cut]]
        return lead + trail.result()


def _squared_distances(points, sources, sources_sq, out, sums, near=None) -> None:
    """Squared distances |p_i - s_j|^2 of the (m, d) `points` to the (n, d)
    `sources`, written into `out` (m, n).

    One BLAS product per call: out = (|p|^2 + |s|^2) - 2 p.s, in that order,
    clamped at 0 because rounding can push a tiny value below it.
    `sources_sq` holds the row norms |s_j|^2 and `sums` is an (m, n)
    scratch block that is left holding |p_i|^2 + |s_j|^2. The expansion's
    absolute error is a few ulps of that sum, so an entry is only accurate
    to about eps * (|p_i|^2 + |s_j|^2): centre both sets of points first
    when they sit far from the origin.

    With an (m, n) bool `near` given, `sums` is scaled to the coincidence
    floor 4 eps (|p_i|^2 + |s_j|^2) and `near` marks the entries of `out`
    at or under it: pairs that coincide up to the expansion's rounding.
    """
    np.matmul(points, sources.T, out=out)
    out *= 2.0
    np.add(np.einsum("ij,ij->i", points, points)[:, None], sources_sq, out=sums)
    np.subtract(sums, out, out=out)
    np.maximum(out, 0.0, out=out)
    if near is not None:
        sums *= 4.0 * np.finfo(float).eps
        np.less_equal(out, sums, out=near)


def scaled_superposition(points, sources, charges, field_epsilon: float = 0.0,
                         sources_sq=None):
    """Direct-sum field of many charges, split as (vec, log_scale).

    The true field is vec * exp(log_scale)[:, None]. Every dimension uses
    one identity: with per-pair weights w_ij = c_j / r_ij^d,
    sum_j w_ij (p_i - s_j) = p_i * sum_j w_ij - (W @ S)_i, two BLAS-friendly
    terms, over the squared distances r_ij^2 of `_squared_distances`. For
    ambient dimension <= LOG_ACCUMULATION_DIM the weights are the plain
    powers, vec carries the factor 1/S_(d-1) and log_scale = 0. Above it
    the weights are formed in log space and shifted by their row maximum,
    and vec is left unscaled: log_scale is that maximum minus
    log S_(d-1) (by `math.lgamma`), so the direction stays representable
    even when the magnitude under- or overflows, and so does 1/S_(d-1)
    itself: it passes 1e154, where a row norm's squares overflow, from
    d = 262 on, and S_(d-1) underflows to 0 from d = 456 on. A block at
    or below LOG_ACCUMULATION_DIM takes the log branch too when its bound
    ((max|p| + max|s|)^2 + eps^2)^(d/2) on r^d would overflow, so a far
    point keeps its direction; every other block's bytes are those of the
    plain powers. Every
    (rows, n) temporary is written in place into this thread's workspace
    (`_workspace`): two float64
    buffers and one bool buffer of max(_PAIR_BLOCK, n) entries each, kept
    between calls, so a warm call faults in no fresh pages whatever the
    dimension. `sources_sq` may carry precomputed row norms of `sources`
    for hot loops. With field_epsilon == 0 an evaluation point on a charge,
    at or under `_squared_distances`' coincidence floor, raises FieldError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    charges = np.asarray(charges, dtype=float)
    m, d = points.shape
    if sources.shape[1] != d:
        raise FieldError("points and sources must share a dimension")
    n = sources.shape[0]
    eps2 = field_epsilon * field_epsilon
    vec = np.empty((m, d))
    log_scale = np.zeros(m)
    block = max(1, _PAIR_BLOCK // max(n, 1))
    s_sq = sources_sq if sources_sq is not None else np.einsum("ij,ij->i", sources, sources)
    size = min(block, m) * n
    r2_buf, sum_buf = _workspace("kernel_r2", size), _workspace("kernel_sum", size)
    if d <= LOG_ACCUMULATION_DIM:
        # a block's r2 is at most (max|p| + max|s|)^2 + eps^2; above
        # r2_max, r2^(d/2) could overflow
        p_sq = np.einsum("ij,ij->i", points, points)
        s_norm = math.sqrt(float(s_sq.max(initial=0.0)))
        r2_max = math.exp(2.0 * _LOG_FLOAT_MAX / d)
        inv_area = 1.0 / sphere_surface_area(d - 1)
    log_c = None
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        blk = points[i0:i1]
        rows = i1 - i0
        r2, sums = r2_buf[:rows * n].reshape(rows, n), sum_buf[:rows * n].reshape(rows, n)
        # with field_epsilon 0, an r2 at or under the floor is a point on a charge
        near = None if eps2 else _workspace("kernel_near", size, bool)[:rows * n].reshape(rows, n)
        _squared_distances(blk, sources, s_sq, r2, sums, near)
        if near is not None and near.any():
            raise FieldError("evaluation point coincides with a charge and field_epsilon is 0")
        r2 += eps2
        in_log = d > LOG_ACCUMULATION_DIM
        if not in_log:
            reach = math.sqrt(float(p_sq[i0:i1].max())) + s_norm
            in_log = reach * reach + eps2 > r2_max
        # the weights c_j / r_ij^d, formed in place over r2
        w = r2
        if in_log:
            if log_c is None:
                with np.errstate(divide="ignore"):
                    log_c = np.log(np.abs(charges))
                sign_c = np.sign(charges)
                log_area = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
            with np.errstate(divide="ignore"):
                np.log(w, out=w)
            w *= 0.5 * d
            np.subtract(log_c, w, out=w)
            shift = np.max(w, axis=1, out=log_scale[i0:i1])
            shift[~np.isfinite(shift)] = 0.0
            w -= shift[:, None]
            shift -= log_area
            np.exp(w, out=w)
            w *= sign_c
        else:
            if d % 2:
                root = np.sqrt(w, out=sums)
            if d > 3:  # pow(x, 1) is x: skip that pass
                w **= d // 2
            if d % 2:
                w *= root
            np.divide(charges, w, out=w)
        vec[i0:i1] = blk * w.sum(axis=1)[:, None] - w @ sources
        if not in_log:
            vec[i0:i1] *= inv_area
    return vec, log_scale


def superposition_field(points, sources, charges, field_epsilon: float = 0.0) -> np.ndarray:
    """Direct-sum field of many point charges at (m, d) evaluation points."""
    vec, log_scale = scaled_superposition(points, sources, charges, field_epsilon)
    return vec * np.exp(log_scale)[:, None]


def one_sided_ez(field_fn, x, plate_z: float, eps: float):
    """One-sided E_z limits at m points x (m, D) of a plate at z=plate_z:
    (E_z at z=plate_z - eps, E_z at z=plate_z + eps), two length-m arrays
    from one call of the batch callable `field_fn` on 2m rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.repeat([plate_z - eps, plate_z + eps], len(x))[:, None]
    ez = field_fn(np.hstack([np.vstack([x, x]), z]))[:, -1]
    return ez[:len(x)], ez[len(x):]


def normalize_rows(vals):
    """Unit rows plus a degeneracy mask.

    A row is degenerate when its direction is numerically meaningless
    (norm below TINY_FIELD_NORM in the given representation); rows whose
    absolute magnitude underflows but arrive pre-scaled (the `vec` of a
    (vec, log_scale) pair) still carry a valid direction and are
    normalized normally.
    """
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    norms = np.linalg.norm(vals, axis=1)
    degenerate = norms < TINY_FIELD_NORM
    unit = np.zeros_like(vals)
    ok = ~degenerate
    unit[ok] = vals[ok] / norms[ok, None]
    return unit, degenerate


@dataclass(frozen=True)
class PlateSet:
    """A plate's charge distribution: (N, D) samples with nonnegative
    weights summing to 1, uniform 1/N by default.

    A plate carries no position or sign: `EmpiricalField` places the
    positive plate at z=0 and the negative plate at z=plate_gap.
    """

    samples: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise FieldError("plate samples must be nonempty")
        if not np.all(np.isfinite(samples)):
            raise FieldError("plate samples must be finite")
        if self.weights is None:
            weights = np.full(len(samples), 1.0 / len(samples))
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (len(samples),):
                raise FieldError("weights must match the number of samples")
            if np.any(weights < 0):
                raise FieldError("weights must be nonnegative")
            total = weights.sum()
            if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
                raise FieldError("weights must sum to 1")
        samples.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class EmpiricalField:
    """Two-plate field: `plate_pos` at z=0 with total charge +1, `plate_neg`
    at z=plate_gap with total charge -1.

    The exact field of every weighted sample of both plates, by direct
    summation. The constructor lifts both plates into D+1 dimensions once:
    `sources` holds the positive plate's rows, then the negative plate's,
    `charges` their signed weights and `sources_sq` their squared norms.
    `field_epsilon` 0 is the kernel's exact mode. `subsample(n, stream)`
    returns the field of a random draw of the charges: the Monte Carlo
    estimate of the plate integrals.
    """

    plate_pos: PlateSet
    plate_neg: PlateSet
    plate_gap: float
    field_epsilon: float = 1e-4
    sources: np.ndarray = dc_field(init=False, repr=False, compare=False)
    charges: np.ndarray = dc_field(init=False, repr=False, compare=False)
    sources_sq: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.plate_pos.dim != self.plate_neg.dim:
            raise FieldError("plates must share the data dimension")
        if not (np.isfinite(self.plate_gap) and self.plate_gap > 0):
            raise FieldError("plate_gap must be finite and > 0")
        if not (np.isfinite(self.field_epsilon) and self.field_epsilon >= 0):
            raise FieldError("field_epsilon must be finite and >= 0")
        z = np.repeat([0.0, self.plate_gap], [self.plate_pos.n, self.plate_neg.n])
        sources = np.column_stack([np.vstack([self.plate_pos.samples, self.plate_neg.samples]), z])
        charges = np.concatenate([self.plate_pos.weights, -self.plate_neg.weights])
        sources.flags.writeable = False
        charges.flags.writeable = False
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "sources_sq", np.einsum("ij,ij->i", sources, sources))

    @property
    def dim(self) -> int:
        return self.plate_pos.dim

    def subsample(self, n: int, stream) -> "EmpiricalField":
        """The field of a without-replacement draw of up to n rows per plate
        from `stream`, positive plate first, with each plate's drawn
        weights renormalized to total charge 1."""
        if n < 1:
            raise FieldError("mc_subsample must be a positive integer")
        plates = []
        for plate, name in ((self.plate_pos, "positive"), (self.plate_neg, "negative")):
            idx = stream.choice(plate.n, size=min(n, plate.n), replace=False)
            total = plate.weights[idx].sum()
            if total == 0.0:
                raise FieldError(f"mc_subsample drew only zero-weight samples of the {name} plate")
            plates.append(PlateSet(plate.samples[idx], plate.weights[idx] / total))
        return EmpiricalField(*plates, self.plate_gap, self.field_epsilon)

    def scaled_evaluate(self, points):
        """(vec, log_scale) form of evaluate; see scaled_superposition."""
        return scaled_superposition(points, self.sources, self.charges, self.field_epsilon,
                                    sources_sq=self.sources_sq)

    def evaluate(self, points) -> np.ndarray:
        """Field at (m, D+1) points, by direct summation."""
        vec, log_scale = self.scaled_evaluate(points)
        return vec * np.exp(log_scale)[:, None]

    def normalized(self, points):
        """Unit-norm field rows and the mask of degenerate (vanishing) rows."""
        vec, _ = self.scaled_evaluate(points)
        return normalize_rows(vec)
