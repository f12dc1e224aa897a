"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps layer entry points of the ``radialheat`` package where their
callers look them up: every ``radialheat`` module attribute bound to the
original function is replaced by a wrapper for the duration of the run and
restored afterwards.  Each wrapped call records one span (name, start, end,
parent span) plus optional counters observed at the boundary.  Spans stay in
memory and are written out by the caller when the run ends.  A wrapped call
is recorded only inside a span the caller opened (the benchmark opens one
per set-up and per operation), so work done between operations, such as
checking results, leaves no spans.  Untraced runs install no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EntryPoint:
    """A layer function to wrap: ``module.attr`` traced as span ``name``.

    observe(args, kwargs, result) returns counters stored on the span.
    """

    module: str
    attr: str
    name: str
    observe: Callable | None = None


class Tracer:
    """Records nested spans; one process, one thread, one caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, entry: EntryPoint, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside every span the caller opened
                return fn(*args, **kwargs)
            idx = self._open(entry.name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].info["error"] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if entry.observe is not None:
                self.spans[idx].info.update(entry.observe(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self, entries):
        """Wrap every entry point where radialheat modules bind it; restore
        the originals on exit."""
        patched = []
        try:
            for entry in entries:
                original = getattr(importlib.import_module(entry.module),
                                   entry.attr)
                wrapper = self.wrap(entry, original)
                for name, mod in list(sys.modules.items()):
                    if (name == "radialheat" or name.startswith("radialheat.")) \
                            and getattr(mod, entry.attr, None) is original:
                        setattr(mod, entry.attr, wrapper)
                        patched.append((mod, entry.attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def children(self) -> list[list[int]]:
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children
        (children of one caller never overlap)."""
        kids = self.children()
        return [s.duration - sum(self.spans[c].duration for c in kids[i])
                for i, s in enumerate(self.spans)]

    def root_of(self, idx: int) -> int:
        while self.spans[idx].parent is not None:
            idx = self.spans[idx].parent
        return idx

    def export(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.info} for s in self.spans]
