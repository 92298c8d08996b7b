"""Benchmark-owned span recording and runtime wrapping of layer entry points.

The traced pass replaces a layer's public entry point (a module function
or a class method) with a wrapper that records one span per call, runs
the original, and restores every original when the pass ends.  Nothing
under ``src/`` is edited and nothing of ``repro.obs`` is used, so a change
to the program's own tracing cannot move these numbers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span (or is None)."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; single-threaded (the benchmark runs jobs=1)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             note: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        """``fn`` with a span around each call; ``note(result, *args)``
        may attach attributes read from the call's result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.attrs.update(note(result, *args))
                return result

        return traced

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def self_time_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def ancestor(self, index: int, name: str) -> Optional[Span]:
        """The nearest enclosing span called ``name``, if any."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def to_json(self) -> List[Dict[str, Any]]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: attribute ``attr`` of ``owner`` (a module
    or a class), recorded as span ``name``."""

    owner: Any
    attr: str
    name: str
    note: Optional[Callable[..., Dict[str, Any]]] = None


@contextlib.contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for t in targets:
            original = vars(t.owner)[t.attr]
            stack.enter_context(patched(
                t.owner, t.attr, recorder.wrap(original, t.name, t.note)))
        yield
