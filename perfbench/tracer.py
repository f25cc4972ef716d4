"""Spans and counters recorded around calls into the program's layers.

A :class:`Tracer` replaces a function or method of the program with a
wrapper that records one span per call: name, start, end, parent span
and request id. Nothing under ``src/`` changes; the wrappers live here
and are removed again by :meth:`Tracer.restore`. Spans stay in memory
until :meth:`Tracer.write` dumps them when the run ends.

The parent of a span is whichever span was open in the same thread or
asyncio task when the call started (a context variable, so concurrent
tasks keep separate stacks). Live requests set :data:`REQUEST_ID` in
their task, and every span the request opens carries that id.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["REQUEST_ID", "Tracer", "LayerStats"]

#: Id of the live request the current task is driving (None outside one).
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("request_id", default=None)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("span", default=-1)

#: (name, start, end, parent index, request id)
Span = Tuple[str, float, float, int, Any]
After = Callable[[Any, tuple, dict], None]


class LayerStats:
    """Per-span-name totals: calls, wall time and self time (seconds)."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps program functions with span recording; see module doc."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[After] = None,
        leaf: bool = False,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``after(result, args, kwargs)`` runs once the call returns and
        feeds counters. A ``leaf`` span never becomes a parent and takes
        no parent itself: codec calls run in connection reader tasks
        that belong to no request.
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        spans = self.spans
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = _CURRENT.get()
                token = _CURRENT.set(index)
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans[index] = (name, start, end, parent, REQUEST_ID.get())
                if after is not None:
                    after(result, args, kwargs)
                return result

        elif leaf:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = clock()
                result = original(*args, **kwargs)
                spans.append((name, start, clock(), -1, REQUEST_ID.get()))
                if after is not None:
                    after(result, args, kwargs)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = _CURRENT.get()
                token = _CURRENT.set(index)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans[index] = (name, start, end, parent, REQUEST_ID.get())
                if after is not None:
                    after(result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, owned))

    def replace(self, owner: object, attr: str, function: Callable) -> None:
        """Swap ``owner.attr`` for ``function`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, function)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def restore(self) -> None:
        """Put every wrapped function back (last wrapped, first restored)."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:  # the wrapper shadowed an inherited method
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, LayerStats]:
        """Calls, total and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children. Children of one span run one after another (a call
        stack, or the awaits of one task), so their durations add up to
        the time they cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, LayerStats] = defaultdict(LayerStats)
        for i, span in enumerate(self.spans):
            if span is None:  # a call still open when the run ended
                continue
            entry = out[span[0]]
            duration = span[2] - span[1]
            entry.calls += 1
            entry.total += duration
            entry.self_time += duration - child_time[i]
        return out

    def write(self, path) -> None:
        """Dump the counters (one JSON line), then one line per span:
        ``index name start end parent request_id`` (``-`` for no id)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            fh.writelines(
                f"{i} {span[0]} {span[1]:.9f} {span[2]:.9f} {span[3]} "
                f"{'-' if span[4] is None else span[4]}\n"
                for i, span in enumerate(self.spans)
                if span is not None
            )
