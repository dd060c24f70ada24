"""Span tracer tests: nesting, timing monotonicity, null fast path."""

import pytest

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, _NullSpan


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_children_nest_under_open_span(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert root.children[0].children[0].name == "grandchild"

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_walk_visits_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c"]

    def test_span_open_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        # The span still closed and popped cleanly.
        assert tracer.current() is None
        assert tracer.roots[0].closed


class TestTiming:
    def test_monotonic_timestamps(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start < inner.start
        assert inner.start < inner.end
        assert inner.end < outer.end
        assert outer.duration > inner.duration

    def test_duration_zero_while_open(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("open")
        span.__enter__()
        assert span.duration == 0.0
        assert not span.closed
        span.__exit__(None, None, None)
        assert span.closed
        assert span.duration > 0.0

    def test_child_durations_bounded_by_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            for _ in range(3):
                with tracer.span("child"):
                    pass
        total = sum(c.duration for c in parent.children)
        assert total <= parent.duration

    def test_real_clock_positive_durations(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            sum(range(1000))
        assert span.duration >= 0.0
        assert span.start >= tracer.epoch


class TestCountersAndAttrs:
    def test_inc_accumulates(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.inc("cells", 10).inc("cells", 5).inc("tiles")
        assert span.counters == {"cells": 15, "tiles": 1}

    def test_attrs_from_creation_and_set(self):
        tracer = Tracer()
        with tracer.span("s", stage="seed") as span:
            span.set(score=42)
        assert span.attrs == {"stage": "seed", "score": 42}


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("a", x=1) as span:
            span.inc("cells", 100).set(y=2)
            with tracer.span("b"):
                pass
        assert list(tracer.walk()) == []
        assert tracer.roots == []
        assert tracer.current() is None

    def test_shared_singleton_span(self):
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b", attr=1)
        assert a is b
        assert isinstance(a, _NullSpan)

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_null_span_protocol(self):
        with NULL_TRACER.span("x") as span:
            assert span.inc("c") is span
            assert span.set(a=1) is span
            assert span.duration == 0.0
        assert list(span.walk()) == []

    def test_null_overhead_is_small(self):
        """The disabled path must stay within a small multiple of a
        bare function call (guards the <3% end-to-end budget)."""
        import timeit

        tracer = NULL_TRACER

        def traced():
            with tracer.span("s"):
                pass

        def bare():
            pass

        traced_t = min(timeit.repeat(traced, number=20000, repeat=3))
        bare_t = min(timeit.repeat(bare, number=20000, repeat=3))
        # Null spans do no clock reads or allocation; ~an order of
        # magnitude of a no-op call is ample slack for CI jitter.
        assert traced_t < bare_t * 40
