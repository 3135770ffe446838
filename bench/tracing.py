"""Span recording around the calls the harness makes into each layer.

Spans are recorded from the benchmark's own files, on the instances the
harness built (``Tracer.wrap`` replaces a bound method on one object);
nothing under ``src/`` is edited.  Spans stay in memory and are written
out once, in Chrome trace-event format, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span record layout (a list, not a dataclass: ~20k spans per traced run).
NAME, LAYER, START_HOST, END_HOST, START_VIRT, END_VIRT, PARENT, REQUEST = range(8)


class _Span:
    """Context manager closing one open span."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer._end(self._index)


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: every hook is a no-op, nothing is wrapped."""

    enabled = False

    def span(self, name: str, layer: str, request: Optional[str] = None):
        return _NO_SPAN

    def wrap(self, obj, attr: str, layer: str, name: Optional[str] = None) -> None:
        return None

    def wrap_public(self, obj, layer: str, prefix: str, skip=()) -> None:
        return None


class Tracer:
    """Records nested spans in host and virtual time."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Reads the virtual clock of the system under test (ns); the
        #: workload points it at its system's clock once it is built.
        self.virt_now: Callable[[], int] = lambda: 0

    def span(self, name: str, layer: str, request: Optional[str] = None) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, layer, time.perf_counter_ns(), 0, self.virt_now(), 0, parent, request]
        )
        self._stack.append(index)
        return _Span(self, index)

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span[END_HOST] = time.perf_counter_ns()
        span[END_VIRT] = self.virt_now()
        # An exception may unwind several spans at once.
        while self._stack and self._stack.pop() != index:
            pass

    def wrap(self, obj, attr: str, layer: str, name: Optional[str] = None) -> None:
        """Replace ``obj.attr`` (a bound method) with a span-recording one."""
        original = getattr(obj, attr)
        label = name or f"{layer}.{attr}"

        def traced(*args, **kwargs):
            with self.span(label, layer):
                return original(*args, **kwargs)

        setattr(obj, attr, traced)

    def wrap_public(self, obj, layer: str, prefix: str, skip=()) -> None:
        """Wrap every public method of ``obj`` (context managers excepted
        by listing them in ``skip``)."""
        for attr in dir(type(obj)):
            if attr.startswith("_") or attr in skip:
                continue
            if callable(getattr(type(obj), attr, None)):
                self.wrap(obj, attr, layer, f"{prefix}.{attr}")

    # -- derived numbers -----------------------------------------------

    def _child_cover(self) -> Dict[int, List[int]]:
        cover: Dict[int, List[int]] = defaultdict(lambda: [0, 0])
        for span in self.spans:
            if span[PARENT] >= 0:
                totals = cover[span[PARENT]]
                totals[0] += span[END_HOST] - span[START_HOST]
                totals[1] += span[END_VIRT] - span[START_VIRT]
        return cover

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self time (duration minus child-span cover) in host
        and virtual seconds, and the span count."""
        cover = self._child_cover()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"host_s": 0.0, "virt_s": 0.0, "spans": 0}
        )
        for index, span in enumerate(self.spans):
            child_host, child_virt = cover.get(index, (0, 0))
            layer = out[span[LAYER]]
            layer["host_s"] += (span[END_HOST] - span[START_HOST] - child_host) / 1e9
            layer["virt_s"] += (span[END_VIRT] - span[START_VIRT] - child_virt) / 1e9
            layer["spans"] += 1
        return dict(out)

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    def total_host_s(self, name: str) -> float:
        """Summed duration of every span called ``name`` (host seconds)."""
        return sum(s[END_HOST] - s[START_HOST] for s in self.named(name)) / 1e9

    def total_virt_s(self, name: str) -> float:
        return sum(s[END_VIRT] - s[START_VIRT] for s in self.named(name)) / 1e9

    def root_host_s(self) -> float:
        """The traced wall: summed duration of the root spans."""
        return sum(
            s[END_HOST] - s[START_HOST] for s in self.spans if s[PARENT] < 0
        ) / 1e9

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace events (``chrome://tracing``,
        Perfetto): complete events, microseconds, one thread."""
        origin = self.spans[0][START_HOST] if self.spans else 0
        events = [
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span[START_HOST] - origin) / 1e3,
                "dur": (span[END_HOST] - span[START_HOST]) / 1e3,
                "args": {
                    "start_host_ns": span[START_HOST],
                    "end_host_ns": span[END_HOST],
                    "start_virt_ns": span[START_VIRT],
                    "end_virt_ns": span[END_VIRT],
                    "parent": span[PARENT],
                    "request": span[REQUEST],
                },
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
