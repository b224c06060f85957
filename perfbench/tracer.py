"""In-memory span tracer that wraps curvewave's entry points at run time.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function in the module that defines it and at every import site inside the
``curvewave`` package (``sparsity.analyze``, ``cli.build_frame``, the
package namespace, ...), and :func:`Tracer.uninstall` puts the originals
back.  Each span records its name, start, end, parent span and thread.
Span stacks are thread-local because ``build_matrix`` computes columns on a
thread pool; a span opened on a pool thread has no parent, so the summed
busy time of all layers may exceed the wall time of the stage around them.

Besides spans the tracer keeps exact counters (FFT calls and points, RK4
steps, Laplacian applications, trig-sum terms, CSV bytes and rows, window
points).  They depend only on the inputs, so two traced runs with the same
seed must report identical counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import scipy.fft


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def span(self, name: str, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    @contextlib.contextmanager
    def record(self):
        """Trace the enclosed block; the yielded dict receives its summary on exit."""
        first, before, out = len(self.spans), dict(self.counters), {}
        self.enabled = True
        try:
            yield out
        finally:
            self.enabled = False
            self_ms, calls = self.self_times(first)
            counters = {k: v - before.get(k, 0) for k, v in self.counters.items() if v != before.get(k, 0)}
            out.update(self_ms=self_ms, calls=calls, counters=counters, busy_ms=sum(self_ms.values()))

    # -- summaries -------------------------------------------------------
    def self_times(self, first: int = 0) -> tuple[dict, dict]:
        """Per-name (self ms, calls) over spans[first:].

        Children of a span run on its own thread and never overlap, so
        self time is the span's duration minus the sum of its children's.
        """
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, start, end, _, _ in spans:
            self_ms[name] += 1e3 * (end - start - child_time.get(sid, 0.0))
            calls[name] += 1
        return dict(self_ms), dict(calls)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, tid in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "thread": tid}
                fh.write(json.dumps(record) + "\n")

    # -- patching --------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            if label is None:  # counter-only entry point
                out = fn(*args, **kwargs)
            else:
                out = tracer.span(label, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module: str, attr: str, name, after=None) -> None:
        """Wrap module.attr wherever a curvewave module imported it."""
        orig = getattr(importlib.import_module(module), attr)
        new = self._wrap(orig, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "curvewave" or mod_name.startswith("curvewave.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, key, new)

    def patch_method(self, module: str, cls_name: str, attr: str, name, after=None) -> None:
        """Wrap a method (plain or classmethod) and every class-level alias of it."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapped = self._wrap(func, name, after)
        new = classmethod(wrapped) if is_classmethod else wrapped
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                self._replace(cls, key, new)

    def patch_attr(self, owner, attr: str, name, after=None) -> None:
        self._replace(owner, attr, self._wrap(getattr(owner, attr), name, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


def _count_fft(tracer, args, kwargs, out):
    """FFTs are charged to the module of the innermost open span."""
    inner = tracer.innermost()
    layer = inner.split(".", 1)[0] if inner else "untraced"
    tracer.count(f"{layer}.fft.calls")
    tracer.count(f"{layer}.fft.points", out.size)


def _count_window_points(tracer, args, kwargs, out):
    tracer.count("windows.points_evaluated", out.size)


def _count_omega_pairs(tracer, args, kwargs, out):
    tracer.count("distance.omega.pairs", out.size)


def _count_column(tracer, args, kwargs, out):
    table, op = args[0], args[1]
    tracer.count("sparsity.nnz", out.nnz)
    tracer.count("sparsity.coeffs_analyzed", table.size * (3 if op.is_vector else 1))


def _count_csv_bytes(tracer, args, kwargs, out):
    tracer.count("sparsity.csv_bytes_written", os.path.getsize(args[1]))


def _count_csv_rows(tracer, args, kwargs, out):
    tracer.count("sparsity.csv_rows_read", out.total_entries())


def _count_format_bytes(tracer, args, kwargs, out):
    tracer.count("formats.bytes_written", os.path.getsize(args[0]))


def _count_trig_terms(key):
    def after(tracer, args, kwargs, out):
        tracer.count(key, out.size * args[0].size)  # points x (frequencies | support)

    return after


def _counter(key):
    def after(tracer, args, kwargs, out):
        tracer.count(key)

    return after


def _operator_span(args) -> str:
    return "propagators." + args[0].kind.replace("-", "_")


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced entry point; the tracer records only while enabled."""
    for mod in ("windows", "frame", "propagators", "flow", "distance", "sparsity", "formats", "cli", "_core"):
        importlib.import_module(f"curvewave.{mod}")

    for method in ("radial", "angular", "lowpass", "highpass"):
        tracer.patch_method("curvewave.windows", "WindowFamily", method, "windows.eval", _count_window_points)

    for fn in ("build_frame", "analyze", "synthesize", "frame_atom"):
        tracer.patch_function("curvewave.frame", fn, f"frame.{fn}")
    tracer.patch_method("curvewave.frame", "FrameTable", "index_of_flat", "frame.index_of_flat")
    kernels = importlib.import_module("curvewave._core").kernels
    for fn in ("wedge_gather", "wedge_scatter"):
        tracer.patch_attr(kernels, fn, "frame.gather_scatter")
    for fn in ("fft2", "ifft2"):
        tracer.patch_attr(scipy.fft, fn, None, _count_fft)

    tracer.patch_method("curvewave.propagators", "OperatorSpec", "apply", _operator_span)
    tracer.patch_function("curvewave.propagators", "_laplacian", None, _counter("propagators.laplacian.calls"))
    tracer.patch_function(
        "curvewave.propagators", "_eval_fourier_at_points", "propagators.eval_fourier_at_points",
        _count_trig_terms("propagators.trig_terms"),
    )

    for fn in ("flow", "flow_index", "predicted_curvelet"):
        tracer.patch_function("curvewave.flow", fn, f"flow.{fn}")
    tracer.patch_function("curvewave.flow", "flow_step", None, _counter("flow.rk4_steps"))
    tracer.patch_function(
        "curvewave.flow", "_scattered_trig_sum", "flow.scattered_trig_sum", _count_trig_terms("flow.trig_terms")
    )

    tracer.patch_function("curvewave.distance", "omega", "distance.omega", _count_omega_pairs)

    tracer.patch_function("curvewave.sparsity", "curvelet_column", "sparsity.curvelet_column", _count_column)
    for fn in ("build_matrix", "column_omegas", "decay_report", "truncation_error"):
        tracer.patch_function("curvewave.sparsity", fn, f"sparsity.{fn}")
    tracer.patch_method(
        "curvewave.sparsity", "SparseOperatorMatrix", "write_csv", "sparsity.write_csv", _count_csv_bytes
    )
    tracer.patch_method("curvewave.sparsity", "SparseOperatorMatrix", "read_csv", "sparsity.read_csv", _count_csv_rows)

    for fn in ("write_coeffs_csv", "write_field", "write_pgm"):
        tracer.patch_function("curvewave.formats", fn, f"formats.{fn}", _count_format_bytes)

    tracer.patch_function("curvewave.cli", "main", "cli.main")
    return tracer
