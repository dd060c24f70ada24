"""Unit tests for the telemetry bus: publisher, routing, accounting.

These tests swap the bus's ``multiprocessing.Queue`` for a plain
``queue.Queue``: same interface, but synchronous (an mp.Queue flushes
through a feeder thread, so put→get_nowait races) and boundable to tiny
sizes for deterministic overflow tests.  The real cross-process path is
covered by ``tests/parallel/test_telemetry_bus.py``.
"""

import queue

import pytest

from repro.obs.bus import (
    BusEndpoint,
    BusPublisher,
    TelemetryBus,
    clear_publisher,
    current_publisher,
    install_publisher,
)
from repro.obs.export import serialize_spans
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer


def make_bus(maxsize=64):
    bus = TelemetryBus()
    bus._queue = queue.Queue(maxsize)
    return bus


def make_publisher(bus, pid=1001):
    return BusPublisher(bus._queue, pid=pid)


def emit_any(publisher, unit="u"):
    """Publish one ordinary (sequence-numbered) event."""
    return publisher.emit_funnel(unit, {"seed_hits": 1})


class TestPublisher:
    def test_sequence_numbers_are_contiguous(self):
        bus = make_bus()
        publisher = make_publisher(bus)
        for _ in range(5):
            assert emit_any(publisher)
        assert publisher.sent == 5
        seqs = [bus._queue.get_nowait()[1] for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_full_queue_drops_without_blocking(self):
        bus = make_bus(maxsize=2)
        publisher = make_publisher(bus)
        assert emit_any(publisher, "a")
        assert emit_any(publisher, "b")
        assert not emit_any(publisher, "c")  # full: dropped locally
        assert publisher.sent == 2
        assert publisher.lost == 1
        # A drop does not consume a sequence number: the next delivered
        # event continues the contiguous stream.
        bus._queue.get_nowait()
        bus._queue.get_nowait()
        assert emit_any(publisher, "d")
        assert bus._queue.get_nowait()[1] == 2

    def test_ack_reports_delivery_state(self):
        bus = make_bus(maxsize=1)
        publisher = make_publisher(bus, pid=42)
        emit_any(publisher, "a")
        emit_any(publisher, "b")  # dropped
        ack = publisher.ack(busy=1.5)
        assert ack == {"pid": 42, "sent": 1, "lost": 1, "busy": 1.5}

    def test_install_and_clear_module_publisher(self):
        bus = make_bus()
        assert current_publisher() is None
        installed = install_publisher(BusEndpoint(bus._queue))
        try:
            assert current_publisher() is installed
        finally:
            clear_publisher()
        assert current_publisher() is None


class TestRouting:
    def test_funnels_accumulate_globally_and_per_worker(self):
        bus = make_bus()
        first = make_publisher(bus, pid=1)
        second = make_publisher(bus, pid=2)
        first.emit_funnel("t1:q1", {"seed_hits": 10, "anchors": 2})
        second.emit_funnel("t2:q1", {"seed_hits": 5})
        first.emit_funnel("t1:q2", {"seed_hits": 1})
        bus.poll()
        summary = bus.summary()
        assert summary["funnel"] == {"seed_hits": 16, "anchors": 2}
        workers = summary["worker_funnels"]
        assert workers["1"] == {"seed_hits": 11, "anchors": 2}
        assert workers["2"] == {"seed_hits": 5}
        # The global funnel is exactly the sum of the per-worker ones.
        merged = {}
        for counters in workers.values():
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        assert merged == summary["funnel"]

    def test_resource_samples_land_in_worker_histograms(self):
        bus = make_bus()
        registry = MetricRegistry()
        bus.attach(registry=registry)
        publisher = make_publisher(bus)
        publisher.emit_resource({"rss_bytes": 1 << 20})
        assert bus.poll() == 1
        assert registry.histogram("worker_rss_bytes").max == 1 << 20
        assert registry.as_dict().keys() == {"worker_rss_bytes"}

    def test_spans_graft_with_unit_base_and_worker_tag(self):
        clock = iter([float(i) for i in range(100)])
        parent = Tracer(clock=lambda: next(clock))
        worker = Tracer(clock=lambda: 0.0)
        with worker.span("tile"):
            pass
        bus = make_bus()
        bus.attach(tracer=parent)
        bus.register_unit("t1:q1", base=7.0)
        publisher = make_publisher(bus, pid=9)
        publisher.emit_spans(serialize_spans(worker), unit="t1:q1")
        with parent.span("align"):
            bus.poll()
        grafted = parent.roots[0].children[0]
        assert grafted.name == "tile"
        assert grafted.attrs["unit"] == "t1:q1"
        assert grafted.attrs["worker"] == 9
        assert grafted.start == pytest.approx(7.0)


class TestAccounting:
    def test_drain_detects_dropped_in_transit_events(self):
        bus = make_bus()
        publisher = make_publisher(bus, pid=5)
        emit_any(publisher, "a")
        emit_any(publisher, "b")
        emit_any(publisher, "c")
        bus._queue.get_nowait()  # one event vanishes in transit
        bus.record_ack(publisher.ack())
        ticks = iter([0.0, 0.1, 0.2, 0.3])
        missing = bus.drain(timeout=0.25, clock=lambda: next(ticks))
        assert missing == 1
        summary = bus.summary()
        assert summary["dropped_events"] == 1
        assert summary["lost_events"] == 0
        # The in-transit loss shows up as a sequence gap too.
        assert summary["gap_events"] == 1

    def test_drain_returns_zero_when_everything_arrived(self):
        bus = make_bus()
        publisher = make_publisher(bus)
        for _ in range(4):
            emit_any(publisher)
        bus.record_ack(publisher.ack())
        assert bus.drain(timeout=0.1) == 0
        summary = bus.summary()
        assert summary["events"] == 4
        assert summary["dropped_events"] == 0
        assert summary["gap_events"] == 0

    def test_acks_keep_max_sent_and_sum_busy(self):
        bus = make_bus()
        bus.record_ack({"pid": 3, "sent": 2, "lost": 0, "busy": 1.0})
        bus.record_ack({"pid": 3, "sent": 5, "lost": 1, "busy": 0.5})
        bus.record_ack(None)  # serial-fallback tasks have no ack
        summary = bus.summary()
        assert summary["busy_seconds"] == {"3": 1.5}
        assert summary["lost_events"] == 1
        assert summary["workers"] == 1

    def test_idle_tail_sums_time_after_last_completion(self):
        bus = make_bus()
        bus.record_ack({"pid": 1, "sent": 0, "lost": 0}, done_at=4.0)
        bus.record_ack({"pid": 2, "sent": 0, "lost": 0}, done_at=9.0)
        assert bus.idle_tail_seconds(10.0) == pytest.approx(7.0)
        assert bus.idle_tail_seconds(3.0) == 0.0
