"""Span tracing of odnet from the outside, for the benchmark's traced run.

``Tracer.install`` replaces the public functions and methods of the
measured odnet modules with wrappers that record one span per call:
name, start, end, span id, parent span id and trace id. Every binding of
a wrapped function is replaced, including the ones other modules made
with ``from .x import f``, so calls between modules are seen too. Nothing
under ``src/`` is edited, and ``uninstall`` puts the originals back.

Autodiff ops get two spans: ``autodiff.<op>`` around the forward call and
``autodiff.bwd.<op>`` around the backward rule the op recorded on the
tape (found by wrapping ``Tape.record`` while the op runs).

A trace is one unit of work: a span whose name is in ``roots`` starts a
new trace id and its descendants share it, so all spans of one training
epoch or one inference call carry one id. Spans are kept in memory and
written out by ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import statistics
import time

# The modules whose work the benchmark measures, one layer each. ``cli`` is
# argparse and manifest glue and ``errors`` holds no work.
LAYERS = (
    "autodiff", "networks", "trunks", "partition", "pod",
    "training", "data", "checkpoint", "evaluation", "runconfig",
)

# Called far too often to be worth a span, and holds no work.
_SKIP = {("autodiff", "as_tensor")}

# Private callables that still mark a unit of work the metrics need.
_PRIVATE = {("training", "_step")}

STEP_ROOT = "training._step"
EVAL_ROOT = "evaluation.evaluate_model"
SETUP_ROOT = "bench.setup"
CHECK_ROOT = "bench.check"


def _nbytes(x):
    data = getattr(x, "data", None)
    return int(getattr(data, "nbytes", 0))


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _matmul_flops(args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    return {"flops": 2 * a.data.shape[0] * a.data.shape[1] * out.data.shape[1]}


def _embed_counts(args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    return {"useful_rows": a.data.shape[0], "dense_rows": out.data.shape[0]}


# Computed counts attached to spans: fn(args, kwargs, result) -> dict.
_COUNTERS = {
    "autodiff.matmul": _matmul_flops,
    "autodiff.embed_rows": _embed_counts,
    "autodiff.Tape.backward": lambda a, k, out: {"records": len(a[0])},
    "networks.MLP.forward": lambda a, k, out: {"rows": out.data.shape[0]},
    "data.gen_reaction_diffusion_2d": lambda a, k, out: {"samples": out.n_samples},
    "data.write_dataset": lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 1, "path"))},
    "data.read_dataset": lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
    "checkpoint.save_checkpoint": lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 2, "path"))},
    "checkpoint.load_checkpoint": lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Records spans of the odnet calls made while it is installed."""

    roots = frozenset((STEP_ROOT, EVAL_ROOT, SETUP_ROOT, CHECK_ROOT))

    def __init__(self):
        # (name, start, end, span_id, parent_id, trace_id, counts or None)
        self.spans = []
        self.trace_roots = {}  # trace_id -> name of the span that started it
        self._stack = []  # (span_id, trace_id) of the open spans
        self._next_span = 1
        self._next_trace = 1
        self._op = None  # autodiff op currently running, for Tape.record
        self._restore = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        parent, trace = self._stack[-1] if self._stack else (0, 0)
        if name in self.roots:
            trace = self._next_trace
            self._next_trace += 1
            self.trace_roots[trace] = name
        sid = self._next_span
        self._next_span += 1
        self._stack.append((sid, trace))
        return sid, parent, trace

    def _exit(self, name, start, ids, counts):
        self._stack.pop()
        sid, parent, trace = ids
        self.spans.append((name, start, time.perf_counter(), sid, parent, trace, counts))

    @contextlib.contextmanager
    def region(self, name):
        """Record a span around benchmark code."""
        ids = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, start, ids, None)

    def _wrap(self, name, fn, op=None):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ids = tracer._enter(name)
            outer_op = tracer._op
            tracer._op = op
            start = time.perf_counter()
            counts = None
            try:
                out = fn(*args, **kwargs)
                if op is not None:
                    counts = {"bytes": _nbytes(out)}
                if counter is not None:
                    counts = {**(counts or {}), **counter(args, kwargs, out)}
                return out
            finally:
                tracer._op = outer_op
                tracer._exit(name, start, ids, counts)

        return wrapper

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, out, inputs, backward_fn):
            name = f"autodiff.bwd.{tracer._op or 'unknown'}"
            is_matmul = tracer._op == "matmul"

            def timed_backward(g):
                ids = tracer._enter(name)
                start = time.perf_counter()
                grads = None
                try:
                    grads = backward_fn(g)
                    return grads
                finally:
                    counts = None
                    if is_matmul and grads is not None:
                        # Each input gradient is one (m x n) by (n x k) product.
                        flops = sum(2 * g.size * gi.shape[1 if j == 0 else 0]
                                    for j, gi in enumerate(grads) if gi is not None)
                        counts = {"flops": flops}
                    tracer._exit(name, start, ids, counts)

            return record(tape, out, inputs, timed_backward)

        return traced_record

    # -- installing --------------------------------------------------------

    def install(self, package):
        """Wrap the public callables of every module in ``LAYERS``."""
        modules = {
            name: mod for name, mod in vars(package).items()
            if inspect.ismodule(mod) and mod.__name__.startswith(package.__name__ + ".")
        }
        modules[""] = package
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not self._wanted(layer, attr):
                        continue
                    op = attr if layer == "autodiff" else None
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, op))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        # Rebind the originals wherever any module holds them.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None:
                    self._set(mod, attr, hit[1])

    def _wanted(self, layer, attr):
        if (layer, attr) in _SKIP:
            return False
        return not attr.startswith("_") or (layer, attr) in _PRIVATE

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if layer == "autodiff" and qual == "Tape.record":
                self._set(cls, attr, self._wrap_record(obj))
            elif self._wanted(layer, qual):
                self._set(cls, attr, self._wrap(f"{layer}.{qual}", obj))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as gzip-compressed JSON (times in ns from the
        first span)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [name, round((a - t0) * 1e9), round((b - t0) * 1e9), sid, parent, trace, counts]
            for name, a, b, sid, parent, trace, counts in self.spans
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "id", "parent", "trace", "counts"],
                       "spans": rows}, fh)


# -- aggregation -------------------------------------------------------------


class TraceIndex:
    """Spans grouped by trace, with each span's parent and child time."""

    def __init__(self, spans, trace_roots):
        self.trace_roots = trace_roots
        self.by_id = {s[3]: s for s in spans}
        self.traces = {}
        for s in spans:
            self.traces.setdefault(s[5], []).append(s)
        self.children_time = {}
        for s in spans:
            if s[4]:
                self.children_time[s[4]] = self.children_time.get(s[4], 0.0) + (s[2] - s[1])

    def rooted_at(self, root):
        """Span lists of the traces whose root span is named ``root``."""
        return [spans for trace, spans in self.traces.items()
                if self.trace_roots.get(trace) == root]

    def parent_name(self, s):
        parent = self.by_id.get(s[4])
        return parent[0] if parent else ""

    def self_time(self, s):
        return (s[2] - s[1]) - self.children_time.get(s[3], 0.0)


def median_over(traces, fn):
    """Median of ``fn(spans)`` over traces; 0.0 when there are none."""
    values = [fn(spans) for spans in traces]
    return float(statistics.median(values)) if values else 0.0


def select(spans, name=None, parent=None, index=None, prefix=None):
    """The spans of one trace with this name (or name prefix) and, if
    given, whose parent span has the name ``parent``."""
    for s in spans:
        if name is not None and s[0] != name:
            continue
        if prefix is not None and not s[0].startswith(prefix):
            continue
        if parent is not None and index.parent_name(s) != parent:
            continue
        yield s


def total_ms(spans, name=None, parent=None, index=None, prefix=None):
    """Summed duration in ms of the selected spans."""
    return 1e3 * sum(s[2] - s[1] for s in select(spans, name, parent, index, prefix))


def count_sum(spans, key, name=None, parent=None, index=None, prefix=None):
    """Summed computed count ``key`` over the selected spans."""
    return sum(s[6].get(key, 0) for s in select(spans, name, parent, index, prefix) if s[6])


def n_spans(spans, name):
    return sum(1 for s in spans if s[0] == name)
