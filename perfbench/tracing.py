"""In-memory spans for the traced run, and the interval arithmetic behind
self time.

A span is one call across a layer boundary: its name, start and end in
nanoseconds, the span that was open when it started (its parent) and the
run it belongs to. Spans are kept in memory and written out once, when the
run ends.

The traced run gets its spans by replacing, from outside the package, the
names one module looks up in another (``relayalloc.data.solve`` is the
``solve`` that the labeler calls). ``Patches`` does the replacing and puts
every original back on exit. A target that no longer exists is listed as
unwrapped with the reason, never skipped silently: refactors are expected
to move some of them.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.observe_errors: set[str] = set()

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int | None, name: str, start_ns: int) -> None:
        end_ns = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start_ns, end_ns, parent))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id, parent = self._open()
        start_ns = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, parent, name, start_ns)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a span; ``observe`` sees each result."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                try:
                    observe(result)
                except Exception as exc:  # a changed return type must not break the program
                    self.observe_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, fh) -> None:
        """One JSON object per span, in the order the spans opened."""
        for s in sorted(self.spans, key=lambda s: s.span_id):
            fh.write(json.dumps({
                "run": self.run_id, "id": s.span_id, "name": s.name,
                "start_ns": s.start_ns, "end_ns": s.end_ns, "parent": s.parent,
            }) + "\n")


class Patches:
    """Replaces module attributes for the length of a ``with`` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.unwrapped: list[dict] = []

    def install(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            self.unwrapped.append({"target": f"{module_name}.{attr}",
                                   "reason": f"module not importable: {exc}"})
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            self.unwrapped.append({"target": f"{module_name}.{attr}",
                                   "reason": f"{module_name} has no callable {attr!r}"})
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def union_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_ns(span: Span, children: Iterable[Span]) -> int:
    """The span's duration minus the part of it that its children cover."""
    clipped = (
        (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns)) for c in children
    )
    return span.duration_ns - union_length(clipped)


class SpanIndex:
    """Lookups over a finished run's spans."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def total_ns(self, *names: str) -> int:
        return sum(s.duration_ns for s in self.named(*names))

    def self_ns(self, span: Span) -> int:
        return self_time_ns(span, self.children.get(span.span_id, ()))

    def has_ancestor(self, span: Span, test: Callable[[str], bool]) -> bool:
        """Whether any enclosing span's name passes ``test``."""
        parent = span.parent
        while parent is not None:
            p = self.by_id[parent]
            if test(p.name):
                return True
            parent = p.parent
        return False
