"""Span recording around calls into brt's modules, for the traced run.

The package binds names at import time (``from .boosting import
fit_ensemble``), so each function is wrapped where it is looked up: on the
module that calls it, or on the class for methods. Spans are aggregated by
(name, parent) into count, total and self time, so per-tree calls keep
memory bounded; ``cli.main`` spans are also kept whole. Every wrapper is
removed again when the ``Tracer`` context exits.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter


def _predict_evals(a, kw, result):
    """Trees evaluated by predict_batch(model, X, n_stages): stages x rows."""
    k = a[2] if len(a) > 2 else kw.get("n_stages")
    return (a[0].n_stages if k is None else k) * len(a[1])


def _file_bytes(a, kw, result):
    return os.path.getsize(a[0])


# (owner, attribute, span name, {counter: fn(args, kwargs, result)})
TARGETS = (
    ("brt.cli", "main", "cli.main", {}),
    ("brt.cli", "load_model_table", "data.load_table", {}),
    ("brt.boosting", "sample_without_replacement", "rng.sample", {"rng.draws": lambda a, kw, r: a[1]}),
    ("brt.tree:TreeFitter", "fit", "tree.fit", {}),
    ("brt.tree:RegressionTree", "predict_batch", "tree.route", {"tree.rows_routed": lambda a, kw, r: len(a[1])}),
    ("brt.interpret", "split_improvements", "tree.split_improvements", {}),
    ("brt.cli", "fit_ensemble", "boosting.fit", {"boosting.degenerate_stages": lambda a, kw, r: r.degenerate_stages}),
    ("brt.boosting", "line_search_gamma", "boosting.line_search", {}),
    ("brt.cli", "predict_batch", "boosting.predict_batch", {"boosting.tree_evals": _predict_evals}),
    ("brt.interpret", "predict_batch", "boosting.predict_batch", {"boosting.tree_evals": _predict_evals}),
    ("brt.cli", "staged_metric", "boosting.staged_metric", {}),
    ("brt.cli", "save_model", "model_io.save", {"model_io.bytes": lambda a, kw, r: os.path.getsize(a[1])}),
    ("brt.cli", "load_model", "model_io.load", {}),
    ("brt.cli", "interaction_report", "interpret.interaction", {}),
    ("brt.cli", "relative_influence", "interpret.influence", {}),
    ("brt.cli", "partial_dependence_1d", "interpret.pd_1d", {}),
    ("brt.cli", "partial_dependence_2d", "interpret.pd_2d", {}),
    ("brt.interpret", "_pd_means", "interpret.pd_sweep", {}),
    ("brt.cli", "fit_report", "metrics.fit_report", {}),
    ("brt.svg", "line_chart", "svg.write", {"svg.bytes_written": _file_bytes}),
    ("brt.svg", "bar_chart", "svg.write", {"svg.bytes_written": _file_bytes}),
    ("brt.svg", "heatmap", "svg.write", {"svg.bytes_written": _file_bytes}),
)


def _owner(path: str):
    """The module or class at ``module[:Class]``, or None when it is gone."""
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Context manager that wraps TARGETS and records their spans."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [count, total, self]
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.installed: set[str] = set()  # span names with at least one wrapper in place
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner_path, attr, name, counters in TARGETS:
            owner = _owner(owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))
            self.installed.add(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, fn, name: str, counters: dict):
        stack, agg, counts, spans = self.stack, self.agg, self.counts, self.spans
        keep = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            parent = stack[-1][0] if stack else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*a, **kw)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if keep:
                    spans.append((name, frame[1], end, parent))
            for counter, f in counters.items():
                counts[counter] += f(a, kw, result)
            return result

        return wrapper

    def total(self, name: str) -> float:
        return sum(rec[1] for (n, _), rec in self.agg.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.agg.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.agg.items() if n == name)
