"""Spans and counters recorded around scmbench's module-level functions.

The tracer replaces functions at their module attributes (every scmbench
module that binds the same function object gets the same wrapper), so nothing
under ``src/`` changes. Spans are kept in memory and written out when the run
ends. A span's self time is its duration minus the time its direct child spans
cover; calls in one process are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    cell: tuple  # (master_seed, dag_id, level, method); None where not yet known


def _after_identify(counts, args, kwargs, result):
    counts["identifier.rounds"] += result.rounds_run
    counts["identifier.evictions"] += len(result.final_weights) - len(result.estimated_set)


def _after_icp(counts, args, kwargs, result):
    counts["icp.subsets"] += len(result.p_values)
    counts["icp.accepted"] += len(result.accepted_subsets)


def _after_ksample(counts, args, kwargs, result):
    permutations = kwargs["num_permutations"] if "num_permutations" in kwargs else args[1]
    counts["distmetrics.permutations"] += permutations


# (defining module, attribute, metric name, hook); names in COUNT_ONLY get a
# call count but no span, so their time stays in the caller's self time.
# _dag_task, _run_method, _mean_variance_pvalue and _emit are private: they are
# the only places that see a cell's id, the mean-variance p-value and the
# output writers as one call each.
TARGETS = (
    ("scmbench.cli", "main", "cli.main", None),
    ("scmbench.configfile", "read_config", "cli.read_config", None),
    ("scmbench.cli", "_emit", "cli.emit", None),
    ("scmbench.harness", "run_experiment", "harness.run_experiment", None),
    ("scmbench.harness", "_dag_task", "harness.dag", None),
    ("scmbench.harness", "_run_method", "harness.cell", None),
    ("scmbench.scm", "random_scm", "scm.generate", None),
    ("scmbench.scm", "add_confounders", "scm.generate", None),
    ("scmbench.harness", "environments_for", "scm.generate", None),
    ("scmbench.scm", "sample", "scm.sample", None),
    ("scmbench.identifier", "identify_parents", "identifier.identify_parents", _after_identify),
    ("scmbench.identifier", "train_regressor", "identifier.train_regressor", None),
    ("scmbench.icp", "icp_identify", "icp.icp_identify", _after_icp),
    ("scmbench.icp", "invariance_pvalue", "icp.invariance_pvalue", None),
    ("scmbench.icp", "_mean_variance_pvalue", "icp.invariance_pvalue", None),
    ("scmbench.distmetrics", "ksample_equality_test", "distmetrics.ksample_equality_test",
     _after_ksample),
    ("scmbench.distmetrics", "fit_gaussian", "distmetrics.fit_gaussian", None),
)
COUNT_ONLY = {"distmetrics.fit_gaussian"}


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the
    original functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.master_seed: int | None = None
        self._stack: list[int] = []
        self._cell = [None, None, None]  # dag_id, level, method
        self._patched: list[tuple[object, str, object]] = []

    def _cell_hook(self, attr: str, args: tuple) -> None:
        if attr == "main":
            self._cell = [None, None, None]
        elif attr == "_dag_task":
            self._cell = [args[0][1], None, None]
        elif attr == "add_confounders":
            self._cell[1] = args[1]
        elif attr == "_run_method":
            self._cell = [args[3], args[4], args[0]]

    def _wrap(self, attr, fn, span_name, hook):
        count_key = span_name + ".calls"
        counts = self.counts

        if span_name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[count_key] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[count_key] += 1
            self._cell_hook(attr, args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(span_name, start, end, parent,
                                    (self.master_seed, *self._cell))
                if attr == "_run_method":
                    self._cell[2] = None
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "scmbench" or name.startswith("scmbench.")]
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(attr, original, span_name, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def busy(self, name: str) -> float:
        """Summed duration of ``name`` spans, outermost only."""
        spans = self.spans
        return sum(s.end - s.start for s in spans
                   if s.name == name and (s.parent < 0 or spans[s.parent].name != name))

    def self_times(self) -> Counter:
        """Self time per span name: duration minus direct children."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "cell": list(s.cell)}) + "\n")
