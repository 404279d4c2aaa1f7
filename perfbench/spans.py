"""Phase timer and span recorder for the benchmark.

One :class:`Tracer` serves both kinds of run:

* untraced, it only times the workload's *phases* (``setup``,
  ``prepare``, ``run``, ...), which give the end-to-end metrics;
* traced, it also wraps callables of the program (see ``layers.py``) so
  every call becomes a span under the phase that caused it.

Spans carry a name, start, end and parent and stay in memory until
:meth:`Tracer.chrome_trace` writes them out once.  Self time is a span's
duration minus the part of it its child spans cover; with one thread the
children never overlap, so that part is the sum of their durations.
Callables called very often can be marked ``keep=False``: they are timed
and counted, and their time is still subtracted from their parent's self
time, but no span record is kept for them.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: A callable to wrap: (owner class or module, attribute, span name,
#: keep one span record per call).
Target = Tuple[object, str, str, bool]


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "phase")

    def __init__(self, name: str, start: float, span_id: int,
                 phase: str) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.phase = phase


class Tracer:
    """Times phases always, and spans of wrapped callables when installed."""

    def __init__(self) -> None:
        #: (phase name, start, end) in the order the phases ran.
        self.phases: List[Tuple[str, float, float]] = []
        #: (span id, parent id or -1, name, start, end) of kept spans.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: (phase, name) -> [calls, total seconds, self seconds].
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: Per-call (first argument after ``self``, seconds) of the names
        #: listed in ``record_args`` (e.g. the tick of a board step).
        self.call_args: Dict[str, List[Tuple[object, float]]] = {}
        self.record_args: Sequence[str] = ()
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object, bool]] = []
        self.origin = perf_counter()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _push(self, name: str) -> _Frame:
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(name, perf_counter(), span_id,
                       stack[0].name if stack else name)
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, keep: bool) -> float:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        entry = self.stats.get((frame.phase, frame.name))
        if entry is None:
            entry = self.stats[(frame.phase, frame.name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_s
        if keep:
            self.spans.append((frame.span_id,
                               parent.span_id if parent else -1,
                               frame.name, frame.start, end))
        return duration

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one workload phase (a root span when traced)."""
        if self._stack:
            raise RuntimeError("phase %r opened inside %r"
                               % (name, self._stack[-1].name))
        frame = self._push(name)
        try:
            yield
        finally:
            duration = self._pop(frame, True)
            self.phases.append((name, frame.start, frame.start + duration))

    def span(self, name: str, keep: bool = True):
        """Decorate-style helper: a span around one call of ``fn``."""
        def wrap(fn):
            tracer = self
            wants_arg = name in self.record_args

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = tracer._push(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = tracer._pop(frame, keep)
                    if wants_arg:
                        tracer.call_args.setdefault(name, []).append(
                            (args[1] if len(args) > 1 else None, duration))
            return wrapper
        return wrap

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target where its callers look it up."""
        for owner, attr, name, keep in targets:
            own = attr in vars(owner)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self.span(name, keep)(raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.span(name, keep)(raw.__func__))
            else:
                patched = self.span(name, keep)(raw)
            self._saved.append((owner, attr, raw, own))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap ``targets`` for the duration of the ``with`` block."""
        try:
            self.install(targets)
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Reading the record
    # ------------------------------------------------------------------
    def phase_s(self, *names: str) -> float:
        """Summed seconds of the named phases."""
        return sum(end - start for name, start, end in self.phases
                   if name in names)

    def total(self, name: str, phases: Optional[Sequence[str]] = None,
              field: int = 1) -> float:
        """Summed total (``field=1``), self (``2``) seconds or calls
        (``0``) of one span name, over all phases or the given ones."""
        return sum(entry[field] for (phase, span), entry in self.stats.items()
                   if span == name and (phases is None or phase in phases))

    def self_s(self, name: str, phases: Optional[Sequence[str]] = None
               ) -> float:
        return self.total(name, phases, field=2)

    def calls(self, name: str, phases: Optional[Sequence[str]] = None) -> int:
        return int(self.total(name, phases, field=0))

    def layer_self_s(self, phases: Sequence[str]) -> Dict[str, float]:
        """Self seconds per layer (the span name's prefix before its
        first ``.``) over the given phases; phase spans themselves are
        left out, so their self time is what no layer accounts for."""
        layers: Dict[str, float] = {}
        for (phase, name), entry in self.stats.items():
            if phase not in phases or name == phase:
                continue
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + entry[2]
        return layers

    def chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        events = []
        for span_id, parent, name, start, end in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                "args": {"id": span_id, "parent": parent}})
        events.sort(key=lambda event: event["ts"])
        stats = [{"phase": phase, "name": name, "calls": int(entry[0]),
                  "total_s": entry[1], "self_s": entry[2]}
                 for (phase, name), entry in sorted(self.stats.items())]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": dict(metadata, stats=stats)}, handle)
