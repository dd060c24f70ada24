"""Hierarchical wall-clock span tracing.

A :class:`Tracer` records a tree of :class:`Span` objects.  Spans are
context managers::

    tracer = Tracer()
    with tracer.span("align", aligner="darwin") as span:
        with tracer.span("seed") as seed:
            seed.inc("seed_hits", 1_000_000)
        span.inc("alignments", 12)

Each span carries monotonic wall-clock timestamps
(:func:`time.perf_counter`), free-form attributes set at creation or via
:meth:`Span.set`, and integer/float counters accumulated via
:meth:`Span.inc`.  Children nest under whichever span is open on the
tracer's stack, so instrumented library code composes without any global
state: callers pass a tracer down, and code that receives the default
:data:`NULL_TRACER` pays only the cost of creating one no-op context
manager per span (shared singleton — no allocation, no clock reads).

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed region: name, attributes, counters and child spans."""

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "children",
        "start",
        "end",
        "_tracer",
    )

    def __init__(self, name: str, tracer: "Tracer", attrs: Dict) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self._tracer = tracer

    # -- context manager protocol ------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._clock()
        self._tracer._pop(self)
        return False

    # -- recording ---------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the span."""
        self.attrs.update(attrs)
        return self

    def inc(self, counter: str, amount: float = 1) -> "Span":
        """Accumulate ``amount`` onto a named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self

    # -- introspection -----------------------------------------------
    @property
    def duration(self) -> float:
        """Wall-clock seconds; 0.0 while the span is still open."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"counters={self.counters})"
        )


class Tracer:
    """Records a forest of nested spans against a monotonic clock.

    ``clock`` is any zero-argument callable returning seconds as a float;
    it defaults to :func:`time.perf_counter` and is injectable so tests
    can drive deterministic timestamps.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs) -> Span:
        """Create a span; entering it nests it under the open span."""
        return Span(name, self, attrs)

    def now(self) -> float:
        """Seconds since the tracer's epoch on its own clock.

        Anchors spans recorded by a *different* tracer (e.g. a worker
        process) onto this tracer's timeline: capture ``now()`` when the
        remote work is dispatched and shift the returned spans by it.
        """
        return self._clock() - self.epoch

    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def walk(self):
        """Yield every recorded span, depth first across all roots."""
        for root in self.roots:
            yield from root.walk()

    # -- span bookkeeping (called by Span) ---------------------------
    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits rather than corrupt the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    name = "null"
    attrs: Dict = {}
    counters: Dict[str, float] = {}
    children: List = []
    start = None
    end = None
    duration = 0.0
    closed = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def inc(self, counter: str, amount: float = 1) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing — safe default for every hot path.

    Every :meth:`span` call returns one shared no-op span, so
    instrumented code runs without clock reads or per-span allocation
    when tracing is disabled.
    """

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def now(self) -> float:
        return 0.0

    def current(self) -> None:
        return None

    def walk(self):
        return iter(())


#: Shared no-op tracer; use as the default for instrumented functions.
NULL_TRACER = NullTracer()
