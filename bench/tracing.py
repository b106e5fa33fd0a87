"""Spans and counts recorded around the benchmark's calls into fskel.

Nothing inside fskel is instrumented: a span covers one call that the
benchmark makes into a module's public function, named "<module>.<stage>".
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, name):
        pass

    def end(self):
        pass

    def count(self, name, value=1):
        pass


class Tracer:
    """Records (name, start, end, parent) spans and named counts.

    hooks maps a span name to a function of (args, result, exception) that
    returns the counts to add for that call."""

    enabled = True

    def __init__(self, hooks=None):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.hooks = hooks or {}
        self._stack: list[int] = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args):
        self.begin(name)
        result, exc = None, None
        try:
            result = fn(*args)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            self.end()
            hook = self.hooks.get(name)
            if hook is not None:
                for key, value in hook(args, result, exc).items():
                    self.counts[key] += value

    def count(self, name, value=1):
        self.counts[name] += value

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out
