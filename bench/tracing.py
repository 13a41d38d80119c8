"""Spans around the calls into edlkit's public functions, kept in memory.

A function is wrapped under every name its callers look it up by: the
attribute of its own module, and each attribute of another edlkit module
that a ``from .x import f`` bound to the same object (``robustness`` holds
its own ``p_noise``, the package root re-exports most names). Calls made
while the tracer is inactive go straight through and record nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.active = False
        self.tag = 0  # stored with each span; the benchmark uses the pass number
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """fn with a span per active call; count(args, kwargs, result) -> {counter: amount}."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.tag]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        return traced

    def install(self, module, attr: str, name: str, count=None) -> int:
        """Replace module.attr by its traced version wherever an edlkit module binds it.

        Returns the number of bindings replaced.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "edlkit" or mod_name.startswith("edlkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per name over spans[first:]: calls, total seconds, and self seconds.

        Self time is a span's duration minus that of its direct children;
        calls nest strictly, so the children never overlap.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), nested in zip(spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - nested
        return out

    def write(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "tag": tag}
                ) + "\n")
