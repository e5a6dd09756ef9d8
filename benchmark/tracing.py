"""In-memory spans recorded around library entry points, from outside.

The benchmark never edits the package it measures. Instead it replaces a
public function in the namespace that calls it (for example
``ruleforest.cli.load`` or ``ruleforest.reduction.reduce_paths``) with a
wrapper that opens a span, calls the original and closes the span. Spans stay
in memory; the caller reads them when the run ends and restores every
original with ``Tracer.restore``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    op: int  # every span of one operation shares this id
    id: int
    parent: int | None
    name: str  # "<layer>.<entry point>"
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)  # counts observed at the boundary

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_kind: dict[int, str] = {}
        self._stack: list[Span] = []
        self._op = 0  # 0 while no operation is open
        self._next_op = 0
        self._paused = False
        self._patches = []

    @contextmanager
    def paused(self):
        """Calls made inside run the originals and record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def operation(self, kind: str):
        """Group the spans opened inside under one fresh operation id."""
        self._next_op += 1
        self._op = self._next_op
        self.op_kind[self._op] = kind
        try:
            yield self._op
        finally:
            self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        """Route calls of ``module.attr`` through a span named ``name``.

        ``observe(result, *args, **kwargs)`` may return a dict of counts to
        attach to the span; it runs after the span has closed.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if observe is not None:
                span.info = observe(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def in_ops(self, name: str, kind: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only inside operations of ``kind``."""
        return [
            s for s in self.spans
            if s.name == name and (kind is None or self.op_kind.get(s.op) == kind)
        ]

    def self_time(self) -> dict[int, float]:
        """Seconds per span id: its duration minus the time its children cover."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_self_times(self) -> dict[str, float]:
        own = self.self_time()
        per_layer = defaultdict(float)
        for s in self.spans:
            per_layer[s.layer] += own[s.id]
        return dict(per_layer)

    def top_level_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

