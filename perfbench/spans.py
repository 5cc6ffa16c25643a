"""Span tracing for the benchmark.

The tracer replaces efm functions, at the module attributes where their
callers look them up, with wrappers that record one span per call: name,
start, end, parent span and operation id, plus counts read from the call's
arguments or result. Spans stay in memory; `layer_metrics` turns one
operation's spans into per-layer numbers. A name that no longer exists is
reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from efm import field as efm_field
from efm import metrics as efm_metrics

# Pair block of efm.metrics._pairwise_mean. It is a literal there, not a
# constant, so this copy has to be kept in step with it by hand.
METRICS_PAIR_BLOCK = 4_000_000


def _kernel_counts(args, kwargs, result):
    points, sources = np.atleast_2d(args[0]), np.atleast_2d(args[1])
    m, d = points.shape
    n = len(sources)
    counts = {"pairs": m * n}
    block = getattr(efm_field, "_PAIR_BLOCK", None)
    log_dim = getattr(efm_field, "LOG_ACCUMULATION_DIM", None)
    if block is not None and log_dim is not None:
        # largest temporary: the (rows, n) distance block, or (rows, n, d)
        # differences on the log-accumulation branch
        rows = min(max(1, block // max(n, 1)), m)
        counts["block_bytes"] = rows * n * 8 * (d if d > log_dim else 1)
    return counts


def _energy_counts(args, kwargs, result):
    side = getattr(efm_metrics, "MAX_EXACT_SIDE", None)
    if side is None:
        return {}
    a, b = (np.atleast_2d(np.asarray(getattr(x, "points", x))) for x in args[:2])
    n_a, n_b, d = min(len(a), side), min(len(b), side), a.shape[1]
    pairs = n_a * n_b + n_a * n_a + n_b * n_b
    blocks = [min(max(1, METRICS_PAIR_BLOCK // n), m) * n * d * 8
              for m, n in ((n_a, n_b), (n_a, n_a), (n_b, n_b))]
    return {"pairs": pairs, "block_bytes": max(blocks)}


def _null_counts(args, kwargs, result):
    return {"perms": int(args[3] if len(args) > 3 else kwargs["n_perm"])}


def _forward_counts(args, kwargs, result):
    return {"rows": len(np.atleast_2d(args[1]))}


def _step_counts(args, kwargs, result):
    return {"dropped": int(result[1])}


def _lines(trajectories):
    return {"line_evals": [int(t.n_field_evals) for t in trajectories],
            "terms": [str(t.termination) for t in trajectories]}


def _map_counts(args, kwargs, result):
    return _lines(result.trajectories)


def _line_counts(args, kwargs, result):
    return _lines([result])


# (module, attribute path, span name, counter). Line counts are taken where
# efm.cli receives whole lines, so no line is counted twice.
TARGETS = (
    ("efm.field", "scaled_superposition", "field.kernel", _kernel_counts),
    ("efm.field", "EmpiricalField.evaluate", "field.evaluate", None),
    ("efm.field", "EmpiricalField.z_limits", "field.z_limits", None),
    ("efm.model", "FieldApproximator.forward", "model.forward", _forward_counts),
    ("efm.training", "loss_and_gradient", "model.fwd_bwd", None),
    ("efm.training", "optimizer_step", "model.optimizer", None),
    ("efm.training", "ema_update", "model.ema", None),
    ("efm.training", "draw_training_points", "training.sample", None),
    ("efm.training", "training_step", "training.step", _step_counts),
    ("efm.cli", "map_batch", "transport.map_batch", _map_counts),
    ("efm.cli", "map_batch_fn", "transport.map_batch_fn", _map_counts),
    ("efm.cli", "trace_line_t", "transport.trace_line_t", _line_counts),
    ("efm.transport", "stochastic_map", "transport.stochastic_map", None),
    ("efm.transport", "trace_line_t", "transport.trace_line_t", None),
    ("efm.cli", "energy_distance", "metrics.energy_distance", _energy_counts),
    ("efm.metrics", "energy_distance", "metrics.energy_distance", _energy_counts),
    ("efm.metrics", "permutation_null", "metrics.permutation_null", _null_counts),
    ("efm.cli", "sliced_w1", "metrics.sliced_w1", None),
    ("efm.cli", "load_csv", "data.csv_read", None),
    ("efm.cli", "save_csv", "data.csv_write", None),
    ("efm.cli", "write_trajectories_csv", "cli.trajectories_csv", None),
    ("efm.cli", "write_manifest", "cli.manifest", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "error")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, start, parent, op
        self.counts = None
        self.error = None

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.counts, self.error]


class Tracer:
    """In-memory span recorder. `installed()` patches TARGETS for its duration."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.op = None
        self.unmeasured: list[str] = []
        self._stack: list[int] = []

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        patched = []
        unmeasured = []
        for module_name, path, name, count in self.targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                unmeasured.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name, count))
            patched.append((owner, attr, original))
        self.unmeasured = unmeasured
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def layer_metrics(spans, lo: int, hi: int):
    """Per-layer numbers of the operation whose spans are spans[lo:hi].

    Returns (metrics, line_evals, line_ms): busy times and counts are 0 for
    a layer that did no work; a ratio with no sample is left out. The two
    lists are per-line samples, pooled across operations by the caller.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i].parent
        if parent is not None and parent >= lo:
            child[parent - lo] += spans[i].end - spans[i].start
    total, self_time, calls, counts = {}, {}, {}, {}
    line_evals, terms, stochastic_ms, traced_ms = [], {}, [], []
    ed_outside_null = 0.0
    for i in range(lo, hi):
        s = spans[i]
        dur = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child[i - lo]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "transport.stochastic_map":
            stochastic_ms.append(dur * 1e3)
        elif s.name == "transport.trace_line_t":
            traced_ms.append(dur * 1e3)
        elif (s.name == "metrics.energy_distance"
              and (s.parent is None or spans[s.parent].name != "metrics.permutation_null")):
            ed_outside_null += dur
        for key, value in (s.counts or {}).items():
            if key == "line_evals":
                line_evals.extend(value)
            elif key == "terms":
                for t in value:
                    terms[t] = terms.get(t, 0) + 1
            elif key == "block_bytes":
                counts[(s.name, key)] = max(counts.get((s.name, key), 0), value)
            else:
                counts[(s.name, key)] = counts.get((s.name, key), 0) + value

    def count(span_name, key):
        # 0 where the layer did no work; None (left out) where it ran but its
        # count could not be computed because an efm constant has gone
        if (span_name, key) in counts or span_name not in calls:
            return counts.get((span_name, key), 0)
        return None

    m = {
        "field.kernel_s": total.get("field.kernel", 0.0),
        "field.kernel_pairs": count("field.kernel", "pairs"),
        "field.block_bytes_max": count("field.kernel", "block_bytes"),
        "field.exact_eval_calls": calls.get("field.evaluate", 0),
        "field.exact_eval_s": total.get("field.evaluate", 0.0),
        "model.fwd_bwd_s": total.get("model.fwd_bwd", 0.0),
        "model.optimizer_s": total.get("model.optimizer", 0.0),
        "model.ema_s": total.get("model.ema", 0.0),
        "model.forward_calls": calls.get("model.forward", 0),
        "model.forward_rows": counts.get(("model.forward", "rows"), 0),
        "model.forward_s": total.get("model.forward", 0.0),
        "training.sample_s": total.get("training.sample", 0.0),
        "training.step_self_s": self_time.get("training.step", 0.0),
        "training.dropped_targets": counts.get(("training.step", "dropped"), 0),
        "transport.self_s": sum(v for k, v in self_time.items() if k.startswith("transport.")),
        "transport.field_evals": sum(line_evals),
        "transport.z_limit_calls": calls.get("field.z_limits", 0),
        "transport.term.reached_target_plate": terms.pop("reached_target_plate", 0),
        "metrics.energy_distance_s": ed_outside_null,
        "metrics.null_s": total.get("metrics.permutation_null", 0.0),
        "metrics.null_perms": counts.get(("metrics.permutation_null", "perms"), 0),
        "metrics.pair_distances": count("metrics.energy_distance", "pairs"),
        "metrics.block_bytes_max": count("metrics.energy_distance", "block_bytes"),
        "metrics.sliced_w1_s": total.get("metrics.sliced_w1", 0.0),
        "data.csv_read_s": total.get("data.csv_read", 0.0),
        "data.csv_write_s": total.get("data.csv_write", 0.0),
        "cli.trajectories_csv_s": total.get("cli.trajectories_csv", 0.0),
        "cli.manifest_s": total.get("cli.manifest", 0.0),
        "trace.spans": hi - lo,
    }
    m = {k: v for k, v in m.items() if v is not None}
    for term, n in terms.items():
        m[f"transport.term.{term}"] = n
    if m["field.kernel_s"] > 0 and "field.kernel_pairs" in m:
        m["field.pairs_per_s"] = m["field.kernel_pairs"] / m["field.kernel_s"]
    if m["field.exact_eval_calls"]:
        m["field.us_per_call"] = 1e6 * m["field.exact_eval_s"] / m["field.exact_eval_calls"]
    # a line is a stochastic_map call where there is one, else a traced line
    return m, line_evals, stochastic_ms or traced_ms


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_max"):
        return "bytes"
    return "count"
