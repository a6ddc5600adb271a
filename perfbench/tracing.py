"""In-memory spans around calls into the library's layers.

The benchmark rebinds public functions at the module attribute where
their caller looks the name up, so the library itself carries no
tracing code. Spans are kept in memory and written out once, when the
run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    run_id: str
    tag: str | None = None


class Tracer:
    """Records a span for every wrapped call made while a job runs.

    Calls made outside `job()` (set-up, output checks) pass straight
    through, so only the timed work is attributed to layers.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active = False

    def _open(self, name: str, tag: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id, tag)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, name: str):
        span = self._open("job", name)
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self._close(span)

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Rebind module.attr to a spanning wrapper.

        `before(args, kwargs)` and `after(result)` may return a tag for
        the span; `after` wins when both do.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = self._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                span.tag = after(result)
            return result

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "tag"],
            "names": names,
            "spans": [
                [code[s.name], s.start, s.end, s.parent, s.tag] for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlaps between
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor_in(spans: list[Span], s: Span, names) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def total_time(spans: list[Span], names, tag: str | None = None) -> float:
    """Summed duration of the spans named in `names` (optionally with
    this tag) that do not sit inside another span named in `names`, so
    recursion and nesting are counted once."""
    names = {names} if isinstance(names, str) else set(names)
    return sum(
        s.end - s.start
        for s in spans
        if s.name in names
        and (tag is None or s.tag == tag)
        and not _has_ancestor_in(spans, s, names)
    )


def count(spans: list[Span], names, tag: str | None = None) -> int:
    names = {names} if isinstance(names, str) else set(names)
    return sum(1 for s in spans if s.name in names and (tag is None or s.tag == tag))
