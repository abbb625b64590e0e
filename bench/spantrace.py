"""In-memory span tracer that wraps library functions from outside.

A span is one call of a wrapped function: ``(name, start, end, parent)``,
where ``parent`` is the index of the span that was open when the call began
(-1 at the top).  Every span of one tracer shares its ``run_id``.  Spans stay
in memory until ``write_spans`` puts them in a CSV file at the end of a run.

``summarize`` turns a span list into per-name call counts, inclusive time
(a recursive call is not counted twice) and self time (a span's duration
minus the part of it that its direct children cover).
"""
from __future__ import annotations

import csv
import functools
import time
from collections import Counter


class Tracer:
    """Wraps functions so that each call records a span; ``restore`` undoes it."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent]
        self.quantities: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, measure=None):
        """Traced version of ``fn``.

        ``measure(quantities, args, kwargs, result)`` runs after the span has
        closed, so what it costs is never charged to the span itself.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self.quantities, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, measure=None, aliases=()):
        """Replace ``owner.attribute`` by its traced version.

        Each module in ``aliases`` that binds the same object under any name
        (``from .x import f``) is patched too, so calls through it are seen.
        """
        original = getattr(owner, attribute)
        traced = self.wrap(name, original, measure)
        targets = [(owner, attribute)]
        for module in aliases:
            targets += [(module, key) for key, value in vars(module).items()
                        if value is original and (module, key) != (owner, attribute)]
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, traced)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    ``s`` sums the durations of the spans that have no ancestor of the same
    name, so the halves of a recursive call add nothing beyond their caller.
    ``self_s`` sums, over every span, its duration minus the interval its
    direct children cover.
    """
    children: dict = {}
    for index, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(index)
    out: dict = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        kids = [(spans[k][1], spans[k][2]) for k in children.get(index, ())]
        entry["self_s"] += (end - start) - covered_length(kids, start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def count_within(spans, name: str, ancestor_name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor_name`` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        ancestor = span[3]
        while ancestor >= 0 and spans[ancestor][0] != ancestor_name:
            ancestor = spans[ancestor][3]
        count += ancestor >= 0
    return count


def write_spans(path: str, run_id: str, spans) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("run_id", "name", "start", "end", "parent"))
        writer.writerows((run_id, name, repr(start), repr(end), parent)
                         for name, start, end, parent in spans)


def read_spans(path: str) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[name, float(start), float(end), int(parent)]
                for _, name, start, end, parent in reader]
