"""Unit tests for the heartbeat bus and a task's return-value telemetry.

The bus tests swap its ``multiprocessing.Queue`` for a plain
``queue.Queue`` (same interface, but synchronous and boundable to tiny
sizes) and its clock for a fake one, so every liveness answer is
deterministic.  The real cross-process path is covered by
``tests/parallel/test_telemetry_bus.py`` and the hang drills in
``tests/resilience/test_dispatcher.py`` and ``tests/service``.
"""

import os
import queue

import pytest

from repro.obs.bus import (
    BusEndpoint,
    BusPublisher,
    HeartbeatMonitor,
    TelemetryBus,
    clear_publisher,
    install_publisher,
    start_heartbeat,
    stop_heartbeat,
)
from repro.obs.export import graft_span_dicts, serialize_spans
from repro.obs.metrics import MetricRegistry
from repro.obs.resource import observe_receipt, task_receipt
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_bus(maxsize=64):
    bus = TelemetryBus()
    bus._queue = queue.Queue(maxsize)
    bus._clock = FakeClock()
    return bus


def beat(bus, pid):
    """``pid`` beats and the parent receives it at the fake clock's now
    (beats are stamped on receipt, not on emission)."""
    assert BusPublisher(bus._queue, pid=pid).emit_beat()
    bus.beat_counts()


class TestPublisher:
    def test_full_queue_drops_without_blocking(self):
        bus = make_bus(maxsize=2)
        publisher = BusPublisher(bus._queue, pid=7)
        assert publisher.emit_beat()
        assert publisher.emit_beat()
        assert not publisher.emit_beat()  # full: dropped, not blocked
        assert bus.beat_counts() == {7: 2}
        assert publisher.emit_beat()  # room again once drained
        assert bus.beat_counts() == {7: 3}

    def test_install_and_clear_module_publisher(self):
        """The beat thread runs only on an installed publisher."""
        bus = make_bus()
        assert not start_heartbeat(0.01)
        install_publisher(BusEndpoint(bus._queue))
        try:
            assert start_heartbeat(0.01)
            assert bus._queue.get(timeout=5.0) == os.getpid()
        finally:
            stop_heartbeat()
            clear_publisher()
        assert not start_heartbeat(0.01)


class TestHeartbeat:
    def test_silent_past_deadline_is_stale(self):
        bus = make_bus()
        beat(bus, 1)
        beat(bus, 2)
        assert bus.stale_workers(1.0) == []
        bus._clock.now = 0.5
        beat(bus, 2)
        bus._clock.now = 1.2
        assert bus.stale_workers(1.0) == [1]

    def test_worker_that_never_beat_is_not_stale(self):
        bus = make_bus()
        bus._clock.now = 100.0
        assert bus.stale_workers(1.0) == []
        assert bus.beat_counts() == {}

    def test_reset_beats_rearms_the_check(self):
        bus = make_bus()
        beat(bus, 1)
        bus._clock.now = 5.0
        assert bus.stale_workers(1.0) == [1]
        bus.reset_beats()
        assert bus.stale_workers(1.0) == []
        beat(bus, 1)  # the re-armed worker is judged afresh
        bus._clock.now = 6.5
        assert bus.stale_workers(1.0) == [1]
        assert bus.beat_counts() == {1: 2}

    def test_monitor_overdue_counts_detections(self):
        bus = make_bus()
        monitor = HeartbeatMonitor(bus, deadline=1.0)
        assert monitor.poll_interval == pytest.approx(0.25)
        beat(bus, 3)
        assert not monitor.overdue()
        bus._clock.now = 2.0
        assert monitor.overdue()
        assert monitor.overdue()
        assert monitor.detections == 2
        monitor.escalated()
        assert not monitor.overdue()
        assert monitor.detections == 2

    def test_monitor_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(make_bus(), deadline=0)


class TestRouting:
    def test_resource_samples_land_in_worker_histograms(self):
        registry = MetricRegistry()
        receipt = {"pid": 9, "busy": 0.5, "rss_bytes": 1 << 20}
        observe_receipt(registry, receipt, waited=2.0)
        observe_receipt(registry, None, waited=2.0)  # untraced: nothing
        assert registry.histogram("worker_rss_bytes").max == 1 << 20
        latency = registry.histogram("dispatch_latency_seconds")
        assert latency.count == 1
        assert latency.max == pytest.approx(1.5)
        assert registry.as_dict().keys() == {
            "worker_rss_bytes",
            "dispatch_latency_seconds",
        }

    def test_receipt_describes_the_finished_task(self):
        clock = iter([0.0, 0.0, 0.25, 0.25, 1.0])  # epoch, a, b
        tracer = Tracer(clock=lambda: next(clock))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        receipt = task_receipt(tracer)
        assert receipt["pid"] == os.getpid()
        assert receipt["busy"] == pytest.approx(1.0)
        assert receipt["rss_bytes"] >= 0

    def test_spans_graft_with_unit_base_and_worker_tag(self):
        clock = iter([float(i) for i in range(100)])
        parent = Tracer(clock=lambda: next(clock))
        worker = Tracer(clock=lambda: 0.0)
        with worker.span("tile"):
            pass
        with parent.span("align"):
            graft_span_dicts(
                parent,
                serialize_spans(worker),
                base=7.0,
                unit="t1:q1",
                worker=9,
            )
        grafted = parent.roots[0].children[0]
        assert grafted.name == "tile"
        assert grafted.attrs["unit"] == "t1:q1"
        assert grafted.attrs["worker"] == 9
        assert grafted.start == pytest.approx(7.0)
