"""In-memory span recorder that wraps curvecast's public functions from the
outside.

Installing a :class:`Tracer` rebinds every module attribute (and the two
class methods) listed in :data:`TARGETS` to a wrapper that records one span
per call: name, start, end and the index of the enclosing span. Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts the originals back.
Spans are kept in flat arrays because the hottest wrapped function
(``controller.stopping_layer``) is called about half a million times per
1000-point stream.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

_ROOT = -1


def _on_fit(tracer, result):
    tracer.counters["fitting.calls"] += 1
    tracer.counters["fitting.iterations"] += result.iterations
    if not result.converged:
        tracer.counters["fitting.nonconverged_fits"] += 1


def _on_epsilon(tracer, result):
    if result is not None:
        tracer.counters["trace.epsilon_defined"] += 1


def _on_json(tracer, result):
    tracer.counters["reports.json_bytes"] += len(result.encode("utf-8"))


def _on_svg(tracer, result):
    tracer.counters["plotting.svg_bytes"] += len(result.encode("utf-8"))


def _on_suite(tracer, result):
    if result.all_passed:
        tracer.counters["synth.theorem_suite_passes"] += 1


# (module, attribute path, span name, result hook). A dotted attribute path
# names a method on a class of that module.
TARGETS = (
    ("curvecast.fitting", "fit_power_law", "fitting.fit_power_law", _on_fit),
    ("curvecast.anchoring", "fit_anchored_trend", "anchoring.fit_anchored_trend", None),
    ("curvecast.anchoring", "next_canonical_anchor", "anchoring.next_canonical_anchor", None),
    ("curvecast.model", "ObservationSeries.with_point", "model.with_point", None),
    ("curvecast.levels", "working_level", "levels.working_level", None),
    ("curvecast.levels", "prediction_level", "levels.prediction_level", None),
    ("curvecast.trace", "LearningTrace.converged_view", "trace.converged_view", None),
    ("curvecast.trace", "extend_trace", "trace.extend_trace", None),
    ("curvecast.trace", "trend_intersection", "trace.trend_intersection", None),
    ("curvecast.trace", "epsilon_bound", "trace.epsilon_bound", _on_epsilon),
    ("curvecast.controller", "stopping_layer", "controller.stopping_layer", None),
    ("curvecast.controller", "ingest", "controller.ingest", None),
    ("curvecast.controller", "run_stream", "controller.run_stream", None),
    ("curvecast.controller", "run_batch", "controller.run_batch", None),
    ("curvecast.reports", "build_run_report", "reports.build_run_report", None),
    ("curvecast.reports", "report_to_json", "reports.report_to_json", _on_json),
    ("curvecast.plotting", "render_svg", "plotting.render_svg", _on_svg),
    ("curvecast.metrics", "evaluate_runs", "metrics.evaluate_runs", None),
    ("curvecast.synth", "generate_series", "synth.generate_series", None),
    ("curvecast.synth", "build_traces", "synth.build_traces", None),
    ("curvecast.synth", "theorem_suite", "synth.theorem_suite", _on_suite),
)


class Tracer:
    """Span store plus the counters derived from wrapped calls' results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [_ROOT]
        self._restore: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(self._nid(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self._nid(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Rebind every target in every loaded curvecast module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "curvecast" or n.startswith("curvecast."))]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----- derived figures -------------------------------------------------

    def arrays(self):
        """(name_id, parent, duration, self time) as numpy arrays; self time
        is the span's duration minus the durations of its direct children."""
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        return name_id, parent, duration, duration - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        name_id, _, duration, own = self.arrays()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def child_time(self, parent_name: str, child_name: str) -> tuple[int, float]:
        """(count, seconds) of ``child_name`` spans directly under a
        ``parent_name`` span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0, 0.0
        name_id, parent, duration, _ = self.arrays()
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        under = (name_id == cid) & (parent >= 0)
        under[under] = name_id[parent[under]] == pid
        return int(under.sum()), float(duration[under].sum())

    def save(self, path) -> None:
        """Write every span (name, start, end, parent index) to ``path``."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
