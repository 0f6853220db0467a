"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` replaces library functions at the names their callers
look them up (``pairrank.data_ingest.bleu_components``, for example) with
wrappers that record one span per call: name, start, end, parent span,
job id, a row count and an optional extra count. Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

# Given a wrapped call's positional arguments and result, the span's row
# count and extra payload.
RowFn = Optional[Callable[[tuple, Any], tuple[float, Any]]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    job: str
    rows: float = 0.0
    extra: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, hi)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.seconds - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.job = ""

    def span(self, name: str, fn: Callable, *args, rows: RowFn = None, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        rec = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.job)
        stack.append(len(spans))
        spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end = clock()
            stack.pop()
        if rows is not None:
            rec.rows, rec.extra = rows(args, result)
        return result

    def install(self, targets: list[tuple[str, str, str, RowFn]]) -> None:
        for module_name, attr, name, rows in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, _rows=rows, **kwargs):
                return self.span(_name, _fn, *args, rows=_rows, **kwargs)

            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
