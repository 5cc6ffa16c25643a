"""Movement along field lines from the positive plate (z=0) to the negative
plate (z=plate_gap).

`map_batch` is the one entry point. It takes a batch field callable
`field_fn(pts, stream)` that maps (m, D+1) points to their (m, D+1) field.
`EmpiricalField.evaluate` fits it unchanged; a network fits it through a
wrapper that ignores the stream. Only a Monte Carlo field reads the stream.

- practical_stop_at_L: one vectorised fixed-z-grid Euler loop over the
  whole batch, every step evaluated with one batch stream.
- theoretical_stochastic: `stochastic_map` per line, with a stream keyed by
  the line's start point: flux-ratio start and stop around an adaptive
  t-parameterized tracer with plate-crossing events (`trace_line_t`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import TransportError, seeded_stream
from .field import TINY_FIELD_NORM, one_sided_ez

_SUCCESS = ("reached_target_plate", "continued_past_plate_then_returned")

# Relative f_z threshold below which the z-stepped update is rejected.
DEGENERACY_RATIO = 1e-8

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


@dataclass(frozen=True)
class TransportPolicy:
    """How lines are started and stopped.

    practical_stop_at_L: forward start, fixed z-grid Euler, stop at the
    first arrival at z=plate_gap. theoretical_stochastic: adaptive tracing
    with flux-ratio stopping at plate crossings and an optional stochastic
    forward/backward start.
    """

    mode: str = "practical_stop_at_L"
    direction: str = "forward_only"
    step: float = 0.3
    max_steps: int = 20_000

    def __post_init__(self):
        if self.mode not in ("practical_stop_at_L", "theoretical_stochastic"):
            raise TransportError(f"unknown policy mode {self.mode!r}")
        if self.direction not in ("forward_only", "bidirectional"):
            raise TransportError(f"unknown policy direction {self.direction!r}")
        if self.step <= 0:
            raise TransportError("policy step must be positive")
        if self.mode == "practical_stop_at_L" and self.direction != "forward_only":
            raise TransportError("practical_stop_at_L implies forward_only")


def stop_probability(e_z_minus: float, e_z_plus: float) -> float:
    """Probability of terminating at a z=plate_gap crossing.

    1 when the one-sided fields point at the plate from both sides (or
    either limit vanishes); otherwise the absorbed-flux fraction
    (E_z_minus - E_z_plus) / E_z_minus, clamped to [0, 1].
    """
    if not (np.isfinite(e_z_minus) and np.isfinite(e_z_plus)):
        raise TransportError("z limits must be finite")
    if e_z_minus == 0.0 or e_z_plus == 0.0 or (e_z_minus > 0) != (e_z_plus > 0):
        return 1.0
    return float(min(1.0, max(0.0, (e_z_minus - e_z_plus) / e_z_minus)))


def direction_probability(e_z_plus: float, e_z_minus: float) -> float:
    """Probability of starting a line forward (toward the target plate).

    1 when both one-sided fields at the source plate share a sign (backward
    movement impossible); otherwise the forward-flux fraction
    E_z_plus / (E_z_plus + |E_z_minus|), clamped to [0, 1].
    """
    if not (np.isfinite(e_z_minus) and np.isfinite(e_z_plus)):
        raise TransportError("z limits must be finite")
    if e_z_minus >= 0.0:
        return 1.0  # backward movement impossible
    if e_z_plus <= 0.0:
        return 0.0  # no forward flux
    return float(min(1.0, e_z_plus / (e_z_plus + abs(e_z_minus))))


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


def _hermite(y0, k0, y1, k1, h, s):
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * k0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * k1)


def _locate_crossing(y0, k0, y1, k1, h, plate):
    """Bisection on the cubic Hermite interpolant's z-component."""
    g0 = y0[-1] - plate
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gm = _hermite(y0[-1], k0[-1], y1[-1], k1[-1], h, mid) - plate
        if (gm > 0) == (g0 > 0):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    s = 0.5 * (lo + hi)
    return s, _hermite(y0, k0, y1, k1, h, s)


def trace_line_t(start, field_fn, *, plate_gap: float, max_steps: int = 20_000,
                 on_crossing=None) -> Trajectory:
    """Adaptive trace of d(point)/dt = field(point) for a batch callable
    `field_fn`, called on one row at a time.

    Crossings of z=0 and z=plate_gap are located on each accepted step by
    sign change plus Hermite-interpolant bisection and reported to
    `on_crossing(point, plate, going_up) -> bool` (True = stop there).
    By default the line stops at its first z=plate_gap arrival. A line
    farther than DOMAIN_RADIUS_FACTOR * (plate_gap + |start|) from its start
    ends as "left_domain", and one that stops moving (STALL_WINDOW) as
    "stalled". Double crossings of one plane inside a single accepted step
    are not detected; step sizes near the plates are small enough in
    practice that this never matters at the solver tolerance.
    """
    if on_crossing is None:
        def on_crossing(point, plate, going_up):
            return plate == plate_gap

    y = origin = np.array(start, dtype=float)
    max_travel = DOMAIN_RADIUS_FACTOR * (plate_gap + np.linalg.norm(origin))
    evals = 0

    def g(p):
        nonlocal evals
        evals += 1
        return field_fn(p[None])[0]

    k_start = g(y)
    speed = np.linalg.norm(k_start)
    if speed < TINY_FIELD_NORM:
        return Trajectory(np.array([y]), "field_degenerate", [], evals)
    h = 0.01 * plate_gap / max(speed, 1e-12)

    points = [y]
    crossings: list = []
    plate_hits = 0  # z=plate_gap crossings continued past
    short_steps = 0  # consecutive accepted steps shorter than 2 * STALL_RADIUS
    ks = np.empty((6, len(y)))

    for _ in range(max_steps):
        # embedded step attempt
        ks[0] = k_start
        for i in range(1, 6):
            ks[i] = g(y + h * (_CK_A[i, :i] @ ks[:i]))
        y5 = y + h * (_CK_B5 @ ks)
        y4 = y + h * (_CK_B4 @ ks)
        err = np.abs(y5 - y4)
        tol = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y5))
        ratio = float(np.max(err / tol))
        if not np.isfinite(ratio):
            h *= 0.2
            continue
        if ratio > 1.0:
            h *= max(0.1, 0.9 * ratio ** -0.25)
            continue

        k_end = g(y5)
        if np.linalg.norm(k_end) < TINY_FIELD_NORM:
            points.append(y5)
            return Trajectory(np.array(points), "field_degenerate", crossings, evals)

        # plane crossings on this step, earliest first
        events = []
        for plate in (0.0, plate_gap):
            g0, g1 = y[-1] - plate, y5[-1] - plate
            if g0 == 0.0 or (g0 > 0) == (g1 > 0):
                continue
            s, y_ev = _locate_crossing(y, k_start, y5, k_end, h, plate)
            events.append((s, plate, y_ev))
        for s, plate, y_ev in sorted(events):
            y_ev[-1] = plate
            points.append(y_ev)
            crossings.append((len(points) - 1, plate))
            going_up = y5[-1] > y[-1]
            if on_crossing(y_ev, plate, going_up):
                term = ("reached_target_plate" if plate == plate_gap and plate_hits == 0
                        else "continued_past_plate_then_returned")
                return Trajectory(np.array(points), term, crossings, evals)
            if plate == plate_gap:
                plate_hits += 1

        # a window within STALL_RADIUS of its mean is a run of short steps
        short_steps = short_steps + 1 if np.linalg.norm(y5 - y) < 2 * STALL_RADIUS else 0
        y = y5
        k_start = k_end
        points.append(y)
        if np.linalg.norm(y - origin) > max_travel:
            return Trajectory(np.array(points), "left_domain", crossings, evals)
        if short_steps >= STALL_WINDOW - 1:
            window = np.array(points[-STALL_WINDOW:])
            if np.all(np.linalg.norm(window - window.mean(axis=0), axis=1) < STALL_RADIUS):
                return Trajectory(np.array(points), "stalled", crossings, evals)
        h *= min(5.0, 0.9 * max(ratio, 1e-10) ** -0.2)

    return Trajectory(np.array(points), "step_limit", crossings, evals)


# ---------------------------------------------------------------------------
# Transport of a batch.

def _euler_lines(starts_x, field_fn, dtau: float, plate_gap: float, stream) -> list:
    """Fixed z-grid Euler, x += (f_x / f_z) dz, from z=0 to z=plate_gap.

    The grid lands on plate_gap exactly in round(plate_gap/dtau) steps. A
    line whose f_z turns degenerate stops there, keeping only the points
    and field evaluations it used. Each line's points are a view into one
    shared history array.
    """
    m, d = starts_x.shape
    n = int(round(plate_gap / dtau))
    if n < 1 or not np.isclose(n * dtau, plate_gap, rtol=1e-9, atol=1e-12):
        raise TransportError("dtau must evenly divide the distance to the plate")
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
        f = np.atleast_2d(np.asarray(field_fn(state[idx], stream), dtype=float))
        fz = f[:, -1]
        bad = (np.abs(fz) < DEGENERACY_RATIO * np.linalg.norm(f, axis=1)) | (fz == 0.0)
        active[idx[bad]] = False
        evals[idx[bad]] = k + 1
        good = ~bad
        state[idx[good], :-1] += f[good, :-1] / fz[good, None] * dz
        state[idx[good], -1] = (k + 1) * dz
        history[k + 1] = state
    return [Trajectory(history[:, i], "reached_target_plate", [(n, plate_gap)],
                       n_field_evals=n) if active[i]
            else Trajectory(history[:evals[i], i], "field_degenerate",
                            n_field_evals=int(evals[i]))
            for i in range(m)]


def stochastic_map(x_plus, field_fn, policy: TransportPolicy, stream, *,
                   plate_gap: float, limit_epsilon: float | None = None):
    """Transport one source-plate point to the target plate (theoretical mode).

    Start forward or backward by the flux-ratio direction probability,
    trace adaptively, and at each z=plate_gap crossing stop with the
    flux-ratio stop probability. The one-sided E_z limits are two rows of
    `field_fn`, at z = plate -/+ limit_epsilon. `stream` feeds `field_fn`
    and both draws. Returns (mapped x, Trajectory).
    """
    x_plus = np.asarray(x_plus, dtype=float)
    if limit_epsilon is None:
        limit_epsilon = plate_gap * 1e-3

    def line_fn(pts):
        return field_fn(pts, stream)

    forward = True
    if policy.direction == "bidirectional":
        (e_lo,), (e_hi,) = one_sided_ez(line_fn, x_plus, 0.0, limit_epsilon)
        forward = stream.uniform() < direction_probability(e_hi, e_lo)
    start = np.append(x_plus, limit_epsilon if forward else -limit_epsilon)

    def on_crossing(point, plate, going_up):
        if plate != plate_gap:
            return False
        (e_lo,), (e_hi,) = one_sided_ez(line_fn, point[:-1], plate_gap, limit_epsilon)
        return stream.uniform() < stop_probability(e_lo, e_hi)

    traj = trace_line_t(start, line_fn, plate_gap=plate_gap, max_steps=policy.max_steps,
                        on_crossing=on_crossing)
    return traj.points[-1][:-1].copy(), traj


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


def map_batch(points, field_fn, policy: TransportPolicy, *, plate_gap: float,
              seed: int = 0, limit_epsilon: float | None = None) -> MapResult:
    """Transport a batch of source points x (m, D) to z=plate_gap along `field_fn`.

    `field_fn(pts, stream)` returns the field at an (m, D+1) batch. The
    practical policy calls it once per z-step for all lines still moving,
    with the stream seeded_stream(seed, "transport/batch"). The theoretical
    policy calls it per line, with a stream keyed by that line's start
    point, which also draws the line's direction and stops. Results are
    deterministic for a seed and equivariant under reordering of the batch
    up to rounding. Per-line failures are recorded and the batch continues.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise TransportError("empty batch")
    if policy.mode == "practical_stop_at_L":
        trajectories = _euler_lines(points, field_fn, policy.step, plate_gap,
                                    seeded_stream(seed, "transport/batch"))
    else:
        trajectories = [stochastic_map(x, field_fn, policy, _line_stream(seed, x),
                                       plate_gap=plate_gap, limit_epsilon=limit_epsilon)[1]
                        for x in points]
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
