"""In-memory span tracing for the traced benchmark run.

Spans are recorded from the benchmark's own files, by wrapping the public
entry points of each layer for the duration of the traced phase; nothing in
``src/`` is traced from the inside.  A span keeps its name, start, end, the
index of the span it ran inside (``-1`` for a root) and the benchmark call id,
plus an item count and a tag the layer metrics read.  Spans live in a list
and are summarised (and optionally written out) when the run ends.

Only the process that installs the wrappers is traced: pool workers forked
before :meth:`Tracer.install` keep the original functions, so their work
shows up as the parent's wait inside ``parallel.call`` spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "SpanSummary"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    call_id: int
    items: int = 0
    tag: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanSummary:
    """Per-name totals over a list of spans (seconds and item counts)."""

    count: dict = field(default_factory=lambda: defaultdict(int))
    total: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    items: dict = field(default_factory=lambda: defaultdict(int))
    tagged_self: dict = field(default_factory=lambda: defaultdict(float))
    leaf_seconds: float = 0.0


class Tracer:
    """Records spans around wrapped callables; restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------- #
    def wrap(self, fn, name: str, items=None, tag: str = ""):
        """Return ``fn`` wrapped in a span named ``name``.

        ``items(args)`` gives the span's item count from the call's
        positional arguments (``args[0]`` is ``self`` for a patched method).
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, tag=tag)
            if items is not None:
                span.items = int(items(args))
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, items=None, tag: str = "") -> None:
        """Replace ``owner.attr`` (class, module or instance) with a traced wrapper."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, items, tag))

    def uninstall(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------- #
    def summarize(self, exclude_roots: str = "call") -> SpanSummary:
        """Durations, self times (duration minus direct children) and items.

        Spans nest strictly within one thread, so the direct children of a
        span never overlap and their summed durations are exactly the part of
        the parent they cover.  Leaf spans (no children) sum into
        ``leaf_seconds``; root spans named ``exclude_roots`` (the per-call
        markers) are not layers and never count as leaves.
        """
        children = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.seconds
                has_child[span.parent] = True
        summary = SpanSummary()
        for index, span in enumerate(self.spans):
            own = span.seconds - children[index]
            summary.count[span.name] += 1
            summary.total[span.name] += span.seconds
            summary.self_time[span.name] += own
            summary.items[span.name] += span.items
            if span.tag:
                summary.tagged_self[span.tag] += own
            if not has_child[index] and span.name != exclude_roots:
                summary.leaf_seconds += span.seconds
        return summary

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "call": s.call_id,
                "items": s.items,
            }
            for s in self.spans
        ]
