"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one :class:`Span` per timed call: a name, a
start and end on the monotonic clock, and the index of the span that was
open when it started (its parent). Spans come from two places, both in
the benchmark's own files:

* ``with tracer.span(name):`` around a call the benchmark makes itself;
* :meth:`Tracer.wrap`, which replaces a public callable of the program at
  its module or class attribute for the duration of the traced run and
  restores it afterwards (:meth:`Tracer.restore`).

A wrap target that no longer exists is recorded in :attr:`Tracer.absent`
with the reason, and the run goes on without it.

:class:`NullTracer` is the untraced run's stand-in: it records no spans
and its ``span`` is an empty context manager.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``after(span, args, kwargs, result, state)`` — runs once the wrapped
#: call returned, outside its span, to record counts on the span.
AfterHook = Callable[["Span", tuple, dict, Any, Any], None]
#: ``before(args, kwargs) -> state`` — runs before the span opens.
BeforeHook = Callable[[tuple, dict], Any]


@dataclass
class Span:
    """One timed interval. ``parent`` is a span index, -1 for none."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


@dataclass
class LayerTotals:
    """Spans of one name, summed: calls, inclusive and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name.

    Inclusive time counts only the outermost span of a name, so a
    recursive or re-entrant call is not counted twice; self time sums
    over every span, which never double counts.
    """
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += selfs[index]
        ancestor = span.parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor].name == span.name:
                nested = True
                break
            ancestor = spans[ancestor].parent
        if not nested:
            entry.total_s += span.duration
    return totals


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


class Tracer:
    """Records spans; installs and restores attribute wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Span name -> why its wrap target could not be installed.
        self.absent: Dict[str, str] = {}
        self._stack: List[int] = []
        self._restores: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------

    def open(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, self.clock() if start is None else start, parent=parent)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None) -> Span:
        span = self.spans[index]
        span.end = self.clock() if end is None else end
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- wrapping ---------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
    ) -> bool:
        """Time every call of ``target`` as a span called ``name``.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``. The
        wrapper replaces the attribute where callers look it up, so a
        function imported by name into another module is wrapped at
        that module. Returns False, and records why under
        :attr:`absent`, when the target cannot be found.
        """
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError) as error:
            self.absent[name] = f"{target}: {error}"
            return False
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self._wrapper(raw.__func__, name, before, after))
        else:
            replacement = self._wrapper(raw, name, before, after)
        setattr(owner, attr, replacement)

        def restore() -> None:
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        self._restores.append(restore)
        return True

    def _wrapper(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Optional[BeforeHook],
        after: Optional[AfterHook],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after:
                after(span, args, kwargs, result, state)
            return result

        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restores:
            self._restores.pop()()

    # -- export -----------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """Columnar span dump (names interned) for the trace file."""
        names: List[str] = []
        name_index: Dict[str, int] = {}
        for span in self.spans:
            if span.name not in name_index:
                name_index[span.name] = len(names)
                names.append(span.name)
        return {
            "names": names,
            "name": [name_index[span.name] for span in self.spans],
            "start_s": [span.start for span in self.spans],
            "end_s": [span.end for span in self.spans],
            "parent": [span.parent for span in self.spans],
            "counts": {
                str(index): span.counts
                for index, span in enumerate(self.spans)
                if span.counts
            },
            "absent": dict(sorted(self.absent.items())),
        }


class NullTracer(Tracer):
    """The untraced run's tracer: records no spans.

    Its wrappers still run their hooks, so a workload can capture a
    call's arguments or result on untraced runs too.
    """

    def open(self, name: str, start: Optional[float] = None) -> int:
        return -1

    def close(self, index: int, end: Optional[float] = None) -> Span:
        return Span("", 0.0)

    def span(self, name: str) -> "contextlib.nullcontext[None]":  # type: ignore[override]
        return contextlib.nullcontext()
