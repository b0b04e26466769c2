"""Spans recorded from outside the library, around calls into its modules.

The tracer replaces public functions and methods of the conceptspace modules
with thin wrappers while it records, and puts the originals back when it
stops, so an untraced run executes the library untouched. A function that a
module imported by name (``from .data import whole_batch``) is wrapped in
every namespace that holds it, because that is where the caller looks it up.

A span is ``[name, parent, start_ns, end_ns]``; ``parent`` is the index of
the enclosing span, or -1. A span's self time is its duration minus the time
its direct children cover. Calls are nested and single-threaded, so children
never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute path) of every traced call site; the span name is
# "<module>.<attribute path>".
TARGETS = (
    ("data", "generate_xor_and_xor"),
    ("data", "split"),
    ("data", "betweenness"),
    ("data", "as_arrays"),
    ("data", "batches"),
    ("data", "whole_batch"),
    ("data", "translation_batch"),
    ("nn", "Linear.forward"),
    ("nn", "Linear.backward"),
    ("nn", "GraphConv.forward"),
    ("nn", "GraphConv.backward"),
    ("nn", "LeakyReLU.forward"),
    ("nn", "LeakyReLU.backward"),
    ("nn", "GumbelSoftmax.forward"),
    ("nn", "GumbelSoftmax.backward"),
    ("nn", "BatchRescale.forward"),
    ("nn", "BatchRescale.backward"),
    ("nn", "Adam.step"),
    ("model", "SharedConceptModel.forward"),
    ("model", "SharedConceptModel.backward"),
    ("model", "SharedConceptModel.index_spaces"),
    ("model", "SharedStage.forward"),
    ("model", "SharedStage.backward"),
    ("model", "load_model"),
    ("model", "save_model"),
    ("training", "train"),
    ("training", "train_task_only"),
    ("explain", "build_index"),
    ("explain", "encode_samples"),
    ("explain", "neighborhood"),
    ("explain", "cross_modal_retrieve"),
    ("explain", "prototype"),
    ("explain", "substitute_missing"),
    ("explain", "substitute_matrix"),
    ("evaluation", "evaluate_model"),
    ("evaluation", "accuracy"),
    ("evaluation", "completeness"),
    ("evaluation", "model_codes"),
    ("evaluation", "missing_modality_eval"),
    ("evaluation", "retrieval_label_match"),
    ("tree", "BinaryCodeTree.fit"),
    ("tree", "BinaryCodeTree.predict"),
    ("baselines", "train_baseline"),
    ("baselines", "RelativeModel.index_spaces"),
    ("baselines", "RelativeModel.set_anchors"),
)

PACKAGE = "conceptspace"


class Tracer:
    """Collects spans while recording; does nothing otherwise."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    @property
    def recording(self) -> bool:
        return bool(self._restore)

    def _wrap(self, name: str, fn):
        # span() inlined: this runs on every traced call, some of them only
        # a few microseconds long
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return traced

    @contextmanager
    def record(self):
        """Trace every target for the duration of the block."""
        if self.recording:
            raise RuntimeError("tracer is already recording")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for mod_name, path in TARGETS:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                name = f"{mod_name}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(owner, path)
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, orig))
            yield self
        finally:
            for obj, attr, orig in reversed(self._restore):
                setattr(obj, attr, orig)
            self._restore.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; free when not recording."""
        if not self.recording:
            yield
            return
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, stack[-1] if stack else -1, time.perf_counter_ns(), 0])
        stack.append(idx)
        try:
            yield
        finally:
            spans[idx][3] = time.perf_counter_ns()
            stack.pop()

    def take(self) -> list:
        """Hand over the spans recorded so far and start an empty list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list[int]:
    """Self time of each span, in ns."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nesting_problems(spans) -> list[str]:
    """What is wrong with the recorded spans: a span left open, a child that
    starts before or ends after its parent, or one that overlaps the sibling
    before it. Spans that pass nest properly, so each self time is at least
    0 and the self times under any span add up to its duration."""
    problems = []
    last_end: dict = {}
    for i, (name, parent, start, end) in enumerate(spans):
        if not 0 < start <= end:
            problems.append(f"span {i} ({name}) is not closed: [{start}, {end}]")
        elif parent >= 0:
            p_name, _, p_start, p_end = spans[parent]
            if parent >= i or not p_start <= start <= end <= p_end:
                problems.append(f"span {i} ({name}) lies outside its parent "
                                f"{parent} ({p_name})")
            elif start < last_end.get(parent, 0):
                problems.append(f"span {i} ({name}) overlaps the sibling before it")
            last_end[parent] = end
        if len(problems) >= 5:
            break
    return problems


def layer_metric(spans, selfs, metric: str) -> float:
    """Evaluate one per-layer metric name over recorded spans.

    ``<layer>.calls`` counts spans, ``<layer>.self_ms`` sums their self time
    and ``<layer>.self_us`` is the median self time of one call. A layer
    matches its own span name and any ``<layer>.<method>`` below it, so
    ``nn.LeakyReLU`` covers forward and backward.
    """
    layer, _, stat = metric.rpartition(".")
    prefix = layer + "."
    picked = [s for (name, _, _, _), s in zip(spans, selfs)
              if name == layer or name.startswith(prefix)]
    if stat == "calls":
        return float(len(picked))
    if stat == "self_ms":
        return sum(picked) / 1e6
    if stat == "self_us":
        return statistics.median(picked) / 1e3 if picked else 0.0
    raise ValueError(f"unknown per-layer statistic in {metric!r}")
