"""Movement along field lines from the positive plate (z=0) to the negative
plate (z=plate_gap).

`map_batch` is the one entry point. It takes a batch field callable
`field_fn(pts)` that maps (m, D+1) points to their (m, D+1) field, and one
of three policy names. `EmpiricalField.evaluate` and a network's `forward`
both fit the callable unchanged.

- "practical": one vectorised Euler loop over the whole batch on a z-grid
  of `nfe` steps.
- "adaptive": `trace_lines_t`, one adaptive Cash-Karp trace of the whole
  batch from z=limit_epsilon, stopping each line at its first z=plate_gap
  arrival.
- "theoretical": the same batched trace with the flux-ratio start
  direction and stop at its plate-crossing events. Each line draws these
  from a stream keyed by its start point.

Threads: the lines of a batch are independent, and `map_batch` is the one
place that moves them on two cores, one share of the lines per thread.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import LIMIT_EPSILON_FRACTION, TransportError, seeded_stream
from .field import _PAIR_BLOCK, TINY_FIELD_NORM, _split, one_sided_ez

_SUCCESS = ("reached_target_plate", "continued_past_plate_then_returned")

# Relative f_z threshold below which the z-stepped update is rejected.
DEGENERACY_RATIO = 1e-8

# `map_batch` cuts its line shares at a multiple of this many lines: one
# forward block of the 128-wide net (`FieldApproximator.forward` takes
# _PAIR_BLOCK // 128 rows at a time), so a row of a share meets the same
# forward block as in the whole batch while no line of it has ended.
_SHARE_LINES = _PAIR_BLOCK // 128

# An adaptive line ends as "left_domain" once |x - start| exceeds this many
# times (plate_gap + |start|). Exact-field lines on the swiss-roll preset
# reach at most about 300 times; a runaway net-driven line would otherwise
# grow until it overflows.
DOMAIN_RADIUS_FACTOR = 1e4


@dataclass
class Trajectory:
    """One traced field line: visited points, how it ended, and every
    z=0 / z=plate_gap plane crossing as (point index, plate z)."""

    points: np.ndarray
    termination: str
    crossings: list = dc_field(default_factory=list)
    n_field_evals: int = 0


def stop_probability(*, below: float, above: float) -> float:
    """Probability of terminating at a z=plate_gap crossing, from the
    one-sided limits `below` (E_z at plate - eps) and `above` (at plate + eps).

    1 when the one-sided fields point at the plate from both sides (or
    either limit vanishes); otherwise the absorbed-flux fraction
    (below - above) / below, clamped to [0, 1].
    """
    if not (np.isfinite(below) and np.isfinite(above)):
        raise TransportError("z limits must be finite")
    if below == 0.0 or above == 0.0 or (below > 0) != (above > 0):
        return 1.0
    return float(min(1.0, max(0.0, (below - above) / below)))


def direction_probability(*, below: float, above: float) -> float:
    """Probability of starting a line forward (toward the target plate),
    from the one-sided limits `below` (E_z at z=-eps) and `above` (at z=+eps)
    at the source plate.

    1 when both one-sided fields share a sign (backward movement
    impossible); otherwise the forward-flux fraction
    above / (above + |below|), clamped to [0, 1].
    """
    if not (np.isfinite(below) and np.isfinite(above)):
        raise TransportError("z limits must be finite")
    if below >= 0.0:
        return 1.0  # backward movement impossible
    if above <= 0.0:
        return 0.0  # no forward flux
    return float(min(1.0, above / (above + abs(below))))


# ---------------------------------------------------------------------------
# Adaptive embedded Runge-Kutta tracer with plane-crossing events.

# Cash-Karp 4(5) tableau; the 5th-order solution is propagated. The field is
# autonomous, so the stage times are never needed.
_CK_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [3 / 10, -9 / 10, 6 / 5, 0, 0],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
])
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])
RTOL, ATOL = 1e-4, 1e-4

# A line ends as "stalled" once its last STALL_WINDOW points all lie within
# STALL_RADIUS of their mean: it creeps at a sink of a net field. Exact-field
# lines on the swiss-roll preset never come near (tightest window: radius 6.2).
STALL_WINDOW = 50
STALL_RADIUS = 100 * ATOL

# A line still moving after this many step attempts ends as "step_limit".
MAX_STEPS = 20_000


# 2**-47 < 1e-14: the crossing parameter is known to below 1e-14 of the step.
_BISECTIONS = 47


def _combo(coeffs, ks):
    """sum_j coeffs[j] * ks[j], accumulated in order, row by row."""
    acc = coeffs[0] * ks[0]
    for c, k in zip(coeffs[1:], ks[1:]):
        acc += c * k
    return acc


def _hermite(y0, k0, y1, k1, h, s):
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * k0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * k1)


def _locate_crossings(y0, k0, y1, k1, h, plate):
    """Bisection on each row's cubic Hermite interpolant z-component: the
    step fractions s (n,) where z crosses `plate`, and the points there."""
    z = (y0[:, -1], k0[:, -1], y1[:, -1], k1[:, -1], h)
    below = y0[:, -1] - plate > 0
    lo, hi = np.zeros(len(h)), np.ones(len(h))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = (_hermite(*z, mid) - plate > 0) == below
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    s = 0.5 * (lo + hi)
    return s, _hermite(y0, k0, y1, k1, h[:, None], s[:, None])


def trace_lines_t(starts, field_fn, *, plate_gap: float, on_crossing=None) -> list:
    """Adaptive trace of d(point)/dt = field(point) for a batch of lines
    starting at the rows of `starts` (m, D+1); returns m Trajectories.

    Every line keeps its own point, field, step size and counters in
    arrays indexed by line, and each Cash-Karp stage is one `field_fn` call
    on the rows of the lines still moving, in line order. The tracer adds
    no dependence on the batch around a line, but `field_fn` may: a kernel
    whose rounding depends on its block (BLAS paths differ by row count)
    moves a line's endpoint and evaluation count with its batch.
    Crossings of z=0 and z=plate_gap are located on each accepted step by
    sign change plus Hermite-interpolant bisection, and each line meets its
    crossings in time order. `on_crossing(line_idx, points, plate) -> bool
    array` decides all crossings of one plane in one call (True = stop
    there); by default a line stops at its first z=plate_gap arrival.
    A line farther than DOMAIN_RADIUS_FACTOR * (plate_gap + |start|) from
    its start ends as "left_domain", one that stops moving (STALL_WINDOW) as
    "stalled", and one still moving after MAX_STEPS step attempts as
    "step_limit". Double crossings of one plane inside a single accepted
    step are not detected; step sizes near the plates are small enough in
    practice that this never matters at the solver tolerance.
    """
    if on_crossing is None:
        def on_crossing(line_idx, points, plate):
            return np.full(len(line_idx), plate == plate_gap)

    y = np.array(np.atleast_2d(starts), dtype=float)
    m = len(y)
    origin = y.copy()
    points = [[row] for row in origin]
    crossings = [[] for _ in range(m)]
    reach = DOMAIN_RADIUS_FACTOR * (plate_gap + np.linalg.norm(origin, axis=1))
    k = np.array(field_fn(y), dtype=float)
    evals = np.ones(m, dtype=int)
    speed = np.linalg.norm(k, axis=1)
    h = 0.01 * plate_gap / np.maximum(speed, 1e-12)
    hits = np.zeros(m, dtype=int)  # z=plate_gap crossings continued past
    short = np.zeros(m, dtype=int)  # consecutive accepted steps shorter than 2 * STALL_RADIUS
    # a line holds "step_limit" while it runs, and its termination once it ends
    terms = np.full(m, "step_limit", dtype=object)
    terms[speed < TINY_FIELD_NORM] = "field_degenerate"

    for _ in range(MAX_STEPS):
        ids = np.flatnonzero(terms == "step_limit")
        if len(ids) == 0:
            break

        # embedded step attempt of every line still moving
        y_live, h_live = y[ids], h[ids]
        ks = [k[ids]]
        for i in range(1, 6):
            ks.append(field_fn(y_live + h_live[:, None] * _combo(_CK_A[i, :i], ks)))
        evals[ids] += 5
        with np.errstate(over="ignore", invalid="ignore"):
            y5 = y_live + h_live[:, None] * _combo(_CK_B5, ks)
            y4 = y_live + h_live[:, None] * _combo(_CK_B4, ks)
            err = np.abs(y5 - y4)
            tol = ATOL + RTOL * np.maximum(np.abs(y_live), np.abs(y5))
            ratio = np.max(err / tol, axis=1)
        finite = np.isfinite(ratio)
        h[ids[~finite]] *= 0.2
        rejected = finite & (ratio > 1.0)
        h[ids[rejected]] *= np.maximum(0.1, 0.9 * ratio[rejected] ** -0.25)
        acc = np.flatnonzero(finite & (ratio <= 1.0))
        if len(acc) == 0:
            continue

        lines = ids[acc]
        y0, y1, k0, h_acc = y_live[acc], y5[acc], ks[0][acc], h_live[acc]
        k1 = field_fn(y1)
        evals[lines] += 1
        stop = np.linalg.norm(k1, axis=1) < TINY_FIELD_NORM
        for j in np.flatnonzero(stop):
            points[lines[j]].append(y1[j])
        terms[lines[stop]] = "field_degenerate"

        # plane crossings on this step: (rows of lines, s, points, plate, rank)
        events = []
        for plate in (0.0, plate_gap):
            g0, g1 = y0[:, -1] - plate, y1[:, -1] - plate
            rows = np.flatnonzero(~stop & (g0 != 0.0) & ((g0 > 0) != (g1 > 0)))
            if len(rows):
                s, at = _locate_crossings(y0[rows], k0[rows], y1[rows], k1[rows],
                                          h_acc[rows], plate)
                at[:, -1] = plate
                events.append((rows, s, at, plate, np.zeros(len(rows), dtype=int)))
        if len(events) == 2:
            # a line that crosses both planes meets the earlier one first
            (rows0, s0, _, _, rank0), (rows_g, s_g, _, _, rank_g) = events
            _, i0, i_g = np.intersect1d(rows0, rows_g, return_indices=True)
            rank0[i0] = s_g[i_g] < s0[i0]
            rank_g[i_g] = s0[i0] <= s_g[i_g]
        for rank in (0, 1):
            for rows, _, at, plate, ranks in events:
                pick = np.flatnonzero((ranks == rank) & ~stop[rows])
                if len(pick) == 0:
                    continue
                rows, at = rows[pick], at[pick]
                halt = np.asarray(on_crossing(lines[rows], at, plate), dtype=bool)
                for line, point in zip(lines[rows], at):
                    points[line].append(point)
                    crossings[line].append((len(points[line]) - 1, plate))
                done = lines[rows[halt]]
                terms[done] = "continued_past_plate_then_returned"
                if plate == plate_gap:
                    terms[done[hits[done] == 0]] = "reached_target_plate"
                    hits[lines[rows[~halt]]] += 1
                stop[rows[halt]] = True

        go = np.flatnonzero(~stop)
        moved = lines[go]
        y1, k1 = y1[go], k1[go]
        # a window within STALL_RADIUS of its mean is a run of short steps
        step = np.linalg.norm(y1 - y0[go], axis=1)
        short[moved] = np.where(step < 2 * STALL_RADIUS, short[moved] + 1, 0)
        y[moved], k[moved] = y1, k1
        for line, row in zip(moved, y1):
            points[line].append(row)
        away = np.linalg.norm(y1 - origin[moved], axis=1) > reach[moved]
        terms[moved[away]] = "left_domain"
        for line in moved[~away & (short[moved] >= STALL_WINDOW - 1)]:
            window = np.array(points[line][-STALL_WINDOW:])
            if np.all(np.linalg.norm(window - window.mean(axis=0), axis=1) < STALL_RADIUS):
                terms[line] = "stalled"
        h[moved] *= np.minimum(5.0, 0.9 * np.maximum(ratio[acc[go]], 1e-10) ** -0.2)

    return [Trajectory(np.array(points[i]), terms[i], crossings[i], int(evals[i]))
            for i in range(m)]


# ---------------------------------------------------------------------------
# Transport of a batch.

def _euler_lines(starts_x, field_fn, n: int, plate_gap: float) -> list:
    """Euler steps x += (f_x / f_z) dz on an n-step z-grid from 0 to plate_gap.

    The grid's last z is plate_gap exactly. A line whose f_z turns
    degenerate stops there, keeping only the points and field evaluations
    it used. Each line's points are a view into one shared history array.
    """
    m, d = starts_x.shape
    zs = np.linspace(0.0, plate_gap, n + 1)
    dz = plate_gap / n
    state = np.hstack([starts_x, np.zeros((m, 1))])
    history = np.empty((n + 1, m, d + 1))
    history[0] = state
    active = np.ones(m, dtype=bool)
    evals = np.full(m, n)
    for k in range(n):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        f = np.atleast_2d(np.asarray(field_fn(state[idx]), dtype=float))
        fz = f[:, -1]
        bad = (np.abs(fz) < DEGENERACY_RATIO * np.linalg.norm(f, axis=1)) | (fz == 0.0)
        active[idx[bad]] = False
        evals[idx[bad]] = k + 1
        good = ~bad
        state[idx[good], :-1] += f[good, :-1] / fz[good, None] * dz
        state[idx[good], -1] = zs[k + 1]
        history[k + 1] = state
    return [Trajectory(history[:, i], "reached_target_plate", [(n, plate_gap)],
                       n_field_evals=n) if active[i]
            else Trajectory(history[:evals[i], i], "field_degenerate",
                            n_field_evals=int(evals[i]))
            for i in range(m)]


@dataclass
class MapResult:
    mapped: np.ndarray
    ok: np.ndarray
    trajectories: list
    failures: list


def _line_stream(seed: int, x) -> np.random.Generator:
    # keyed by point content, so permuting a batch permutes the outputs
    digest = hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()
    return seeded_stream(seed, f"transport/{digest}")


def _theoretical_lines(points, field_fn, seed: int, plate_gap: float,
                       limit_epsilon: float) -> list:
    """The flux-ratio policy: start each line forward or backward by the
    direction probability, trace the batch, and at each z=plate_gap
    crossing stop with the stop probability. The one-sided E_z limits are
    rows of `field_fn` at z = plate -/+ limit_epsilon, one call per plane
    visit. Line i makes its draws, in order, from its own `_line_stream`.
    """
    streams = [_line_stream(seed, x) for x in points]
    e_lo, e_hi = one_sided_ez(field_fn, points, 0.0, limit_epsilon)
    forward = np.array([stream.uniform() < direction_probability(below=lo, above=hi)
                        for stream, lo, hi in zip(streams, e_lo, e_hi)])
    starts = np.column_stack([points, np.where(forward, limit_epsilon, -limit_epsilon)])

    def on_crossing(line_idx, at, plate):
        if plate != plate_gap:
            return np.zeros(len(line_idx), dtype=bool)
        e_lo, e_hi = one_sided_ez(field_fn, at[:, :-1], plate_gap, limit_epsilon)
        return np.array([streams[i].uniform() < stop_probability(below=lo, above=hi)
                         for i, lo, hi in zip(line_idx, e_lo, e_hi)])

    return trace_lines_t(starts, field_fn, plate_gap=plate_gap, on_crossing=on_crossing)


def map_batch(points, field_fn, policy: str, *, plate_gap: float, nfe: int = 20,
              seed: int = 0, limit_epsilon: float | None = None) -> MapResult:
    """Transport a batch of source points x (m, D) to z=plate_gap along `field_fn`.

    `field_fn(pts)` returns the field at an (m, D+1) batch, and every policy
    calls it on the rows of all lines still moving: "practical" once per
    z-step of its `nfe`, "adaptive" and "theoretical" once per Cash-Karp
    stage of `trace_lines_t`. A theoretical line draws its direction and
    stops from a stream keyed by `seed` and its start point. Results are
    deterministic for a seed and batch. The policies add no dependence on
    the batch around a line, but `field_fn` may: the exact field's kernel
    rounds a row by its block, and near a charge that moves a traced
    endpoint by up to 1e-3. Per-line failures are recorded and the batch
    continues. `limit_epsilon` None means plate_gap * LIMIT_EPSILON_FRACTION.

    Threads: a batch of at least 2 * _SHARE_LINES lines is cut at the
    _SHARE_LINES boundary nearest its middle, whatever the CPU count, and
    each share runs the policy's whole loop through `efm.field._split`: the
    caller moves the leading share while one worker thread moves the
    trailing one. `field_fn` is then called on both threads at once, each
    time on rows of one share (the exact field and a net's `forward` keep
    their scratch per thread). Results come back in line order and equal
    one CPU's bit for bit. A smaller batch is one share and starts no thread.

    On the exact field, "theoretical" (the flux-ratio rule) is the oracle
    map. "adaptive" stops each line at its first arrival at z=plate_gap and
    matches that oracle only at D=2. Beyond it, many oracle lines cross the
    target plate and come back, so first arrival lands elsewhere: at D=8 its
    energy distance to the target reads 5.5 to 8.6 over charge counts,
    smoothing and gaps, against the oracle's 0.033.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise TransportError("empty batch")
    if limit_epsilon is None:
        limit_epsilon = float(plate_gap) * LIMIT_EPSILON_FRACTION
    if policy == "practical":
        if nfe < 1:
            raise TransportError("nfe must be at least 1")

        def move(share):
            return _euler_lines(share, field_fn, nfe, plate_gap)
    elif policy == "adaptive":
        def move(share):
            starts = np.column_stack([share, np.full(len(share), limit_epsilon)])
            return trace_lines_t(starts, field_fn, plate_gap=plate_gap)
    elif policy == "theoretical":
        def move(share):
            return _theoretical_lines(share, field_fn, seed, plate_gap, limit_epsilon)
    else:
        raise TransportError(f"unknown transport policy {policy!r}")
    shares = [points]
    if len(points) >= 2 * _SHARE_LINES:
        cut = _SHARE_LINES * ((len(points) + _SHARE_LINES) // (2 * _SHARE_LINES))
        shares = [points[:cut], points[cut:]]
    trajectories = [traj for lines in _split(move, shares, [len(s) for s in shares])
                    for traj in lines]
    mapped = np.full(points.shape, np.nan)
    ok = np.zeros(len(points), dtype=bool)
    failures = []
    for i, traj in enumerate(trajectories):
        if traj.termination in _SUCCESS:
            mapped[i] = traj.points[-1, :-1]
            ok[i] = True
        else:
            failures.append((i, traj.termination))
    return MapResult(mapped, ok, trajectories, failures)
