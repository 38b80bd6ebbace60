"""In-memory span tracer installed on aggdiff's public functions from outside.

A traced function is replaced by a wrapper on every aggdiff module attribute
that holds it. aggdiff's modules call each other through such attributes
(``solver`` calls ``chemical_potential`` as its own module global, ``cli``
calls ``run`` the same way), so every caller sees the wrapper and nothing
under ``src/`` changes. Each call records one span: name, start, end and
the index of its parent span. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import collections
import csv
import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float  # total minus the time covered by direct child spans


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def install(self, targets) -> None:
        """``targets``: (span name, function, result hook or None) triples.
        A hook receives (counts, result) after each call returns."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "aggdiff" or name.startswith("aggdiff.")]
        for span_name, fn, on_result in targets:
            wrapper = self._wrap(span_name, fn, on_result)
            holders = [(mod, attr) for mod in modules
                       for attr, value in vars(mod).items() if value is fn]
            if not holders:
                raise LookupError(f"{span_name}: function not found on any aggdiff module")
            for mod, attr in holders:
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, span_name, fn, on_result):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def stats(self) -> dict:
        """SpanStats per span name."""
        calls = collections.Counter()
        total = collections.defaultdict(float)
        child = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {name: SpanStats(calls[name], total[name], total[name] - child[name])
                for name in calls}

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent"))
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((index, name, repr(start), repr(end), parent))
