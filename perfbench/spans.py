"""Outside-in span tracing: wrappers installed around public callables.

A :class:`Tracer` records one span per call into a wrapped function or
method — name, start, end, parent span and thread — without touching the
program's source.  :meth:`Tracer.wrap` patches the attribute where the
callers look it up (a class for methods, every importing module for
functions) and :meth:`Tracer.restore` puts the original objects back.

Self time is a span's duration minus the part of it that its child spans
cover.  Children of one span run on the span's own thread and nest
inside it, so their durations never overlap and a plain sum is the
covered time.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One traced call."""

    name: str
    start: float
    end: float
    parent: Optional[int]   #: index of the enclosing span, or None
    thread: int             #: ``threading.get_ident()`` of the caller

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables, per thread.

    Spans are appended to one list (``list.append`` is atomic under the
    interpreter lock); the open-span stack is thread-local, so a span's
    parent is always on its own thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.recording = False
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (when recording)."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(name, self.clock(), 0.0,
                    stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()

    def reset(self) -> None:
        """Drop every recorded span (open stacks must be empty)."""
        self.spans = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owners: Iterable[object], attr: str, name: str) -> None:
        """Replace ``owner.attr`` on every owner by a span-recording twin.

        Owners are the places callers resolve the name: the defining class
        for a method, or each module that imported a function.  Every
        owner must currently hold the same object, so one wrapper serves
        them all.
        """
        owners = list(owners)
        raw = [vars(owner)[attr] if attr in vars(owner)
               else getattr(owner, attr) for owner in owners]
        if any(r is not raw[0] for r in raw):
            raise ValueError(f"{attr} differs between its owners")
        original = raw[0]
        if isinstance(original, (classmethod, staticmethod)):
            inner = original.__func__
            wrapper = type(original)(self._wrapper(name, inner))
        else:
            wrapper = self._wrapper(name, original)
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return traced

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: its duration minus its children's."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def summarise(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name,
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table
