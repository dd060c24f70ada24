"""Streaming dataflow: bounded queues, backpressure, byte-identity.

The streaming contract has three legs, each pinned here:

1. **boundedness** — every stage buffer has a hard capacity, the
   in-flight watermark really limits speculation, and a slow consumer
   (injected ``stall`` faults) holds producers back instead of growing
   a queue;
2. **byte-identity** — the streamed schedule commits exactly the serial
   result at any worker count, under any fault schedule, and across
   checkpoint/resume;
3. **observability** — occupancy, idle tail, queue depth and
   backpressure counters land in the metric registry and on the
   ``extend`` span.
"""

import importlib

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.core.pipeline import align_assemblies
from repro.core.stream import BoundedQueue, OrderedWindow
from repro.core import stream as stream_module

# By path: ``repro.core.gapped_filter`` the attribute is the function.
gapped_filter_module = importlib.import_module("repro.core.gapped_filter")
from repro.genome import Assembly, Sequence, make_species_pair
from repro.lastz import LastzAligner
from repro.obs import TelemetryOptions, Tracer
from repro.obs.export import run_report, to_chrome_trace
from repro.obs.progress import NO_PROGRESS
from repro.resilience import (
    FaultPlan,
    ResilienceOptions,
    RetryPolicy,
    RunManifest,
)

WORKLOAD_FIELDS = (
    "seed_hits",
    "filter_tiles",
    "filter_cells",
    "extension_tiles",
    "extension_cells",
    "anchors",
    "absorbed_anchors",
)


def assert_same_result(serial, streamed):
    assert streamed.alignments == serial.alignments
    for field in WORKLOAD_FIELDS:
        assert getattr(streamed.workload, field) == getattr(
            serial.workload, field
        ), field
    assert len(streamed.workload.extension_tile_traces) == len(
        serial.workload.extension_tile_traces
    )


@pytest.fixture(scope="module")
def pair():
    p = make_species_pair(8000, 0.9, np.random.default_rng(7), exon_count=6)
    return p.target.genome, p.query.genome


@pytest.fixture(scope="module")
def serial_darwin(pair):
    return DarwinWGA().align(*pair)


@pytest.fixture(scope="module")
def serial_lastz(pair):
    return LastzAligner().align(*pair)


class TestBoundedQueue:
    def test_capacity_is_enforced(self):
        queue = BoundedQueue("q", capacity=2)
        assert queue.offer("a")
        assert queue.offer("b")
        assert queue.full
        assert not queue.offer("c")
        assert queue.stalls == 1
        assert len(queue) == 2

    def test_fifo_order_and_head(self):
        queue = BoundedQueue("q", capacity=3)
        for item in ("a", "b", "c"):
            queue.offer(item)
        assert queue.head() == "a"
        assert queue.take() == "a"
        assert queue.take() == "b"
        assert queue.head() == "c"

    def test_peak_tracks_high_water_mark(self):
        queue = BoundedQueue("q", capacity=4)
        queue.offer("a")
        queue.offer("b")
        queue.take()
        queue.offer("c")
        assert queue.peak == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", capacity=0)


class FakeEngine:
    """A dispatch surface whose tickets settle when a test says so."""

    workers = 2
    telemetry = None
    progress = NO_PROGRESS

    def __init__(self):
        self.resilience = ResilienceOptions()
        self.settled = set()
        self.collected = []

    def dispatch(self, fn, *args, key):
        return key

    def poll(self, ticket):
        return ticket in self.settled

    def result(self, ticket, tracer):
        self.collected.append(ticket)
        return f"value of {ticket}", None, None


class TestOrderedWindow:
    def test_collects_in_dispatch_order(self):
        engine = FakeEngine()
        window = OrderedWindow(engine, capacity=3)
        window.dispatch(str, key="a")
        window.settle("b", "journaled b")
        window.dispatch(str, key="c", tag="tag of c")
        assert window.full and len(window) == 3
        with pytest.raises(RuntimeError):
            window.dispatch(str, key="d")
        assert list(window.tags()) == ["a", "b", "tag of c"]
        engine.settled.add("c")  # a later ticket settles first
        assert not window.ready()
        assert window.collect() == ("a", "value of a", True)
        assert window.ready()  # the settled entry kept its place
        assert window.collect() == ("b", "journaled b", False)
        assert window.oldest == "tag of c"
        assert window.collect() == ("c", "value of c", True)
        assert not window
        assert engine.collected == ["a", "c"]
        assert window.stats.dispatched_tasks == 2
        assert window.stats.collected_tasks == 2
        assert window.stats.peak_in_flight == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            OrderedWindow(FakeEngine(), capacity=0)


class TestStreamedIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_darwin_streamed_matches_serial(
        self, pair, serial_darwin, workers
    ):
        with DarwinWGA(workers=workers) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_darwin, result)
        assert aligner.last_stream is not None
        assert aligner.last_stream["dispatched_tasks"] == (
            aligner.last_stream["collected_tasks"]
        )

    def test_lastz_streamed_matches_serial(self, pair, serial_lastz):
        with LastzAligner(workers=2) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_lastz, result)

    def test_strand_ending_mid_slab_matches_serial(
        self, pair, serial_darwin, monkeypatch
    ):
        """Both strands share BSW slabs; strand + is released while the
        slab it ends in still holds strand -'s head."""
        monkeypatch.setattr(gapped_filter_module, "SLAB_TILES", 64)
        tracer = Tracer()
        with DarwinWGA(workers=2, tracer=tracer) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_darwin, result)
        plus = next(s for s in tracer.walk() if s.name == "gapped_filter")
        assert plus.counters["filter_tiles"] % 64  # ends mid-slab
        slabs = [
            s.counters["filter_tiles"]
            for s in tracer.walk()
            if s.name == "bsw_batch"
        ]
        assert max(slabs) == 64
        assert sum(slabs) == serial_darwin.workload.filter_tiles

    def test_tight_watermark_matches_serial(
        self, pair, serial_darwin, monkeypatch
    ):
        monkeypatch.setattr(stream_module, "anchor_window", lambda w: 1)
        with DarwinWGA(workers=2) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_darwin, result)
        assert aligner.last_stream["peak_in_flight"] == 1


class TestBackpressure:
    def test_watermark_bounds_speculation(self, pair, monkeypatch):
        monkeypatch.setattr(stream_module, "anchor_window", lambda w: 2)
        monkeypatch.setattr(stream_module, "DEFER_DIAGONAL_BP", 0)
        with DarwinWGA(workers=2) as aligner:
            aligner.align(*pair)
        stats = aligner.last_stream
        assert stats["peak_in_flight"] <= 2
        # With deferral off and a 2-anchor window the watermark must
        # actually throttle: anchors were pending while the window was
        # full, and every refusal was counted.
        assert stats["backpressure_stalls"] > 0

    def test_slow_consumer_blocks_producers(
        self, pair, serial_darwin, monkeypatch
    ):
        """Injected stalls slow every collection; the bounded window
        must hold speculation at the watermark and output must not
        change."""
        monkeypatch.setattr(stream_module, "anchor_window", lambda w: 2)
        sleeps = []
        real_sleep = stream_module._sleep
        stream_module._sleep = sleeps.append
        try:
            options = ResilienceOptions(
                fault_plan=FaultPlan(5, {"stall": 1.0})
            )
            with DarwinWGA(workers=2, resilience=options) as aligner:
                result = aligner.align(*pair)
        finally:
            stream_module._sleep = real_sleep
        assert_same_result(serial_darwin, result)
        assert aligner.last_stream["peak_in_flight"] <= 2
        stalled = options.stats.injected_faults.get("stall", 0)
        assert stalled > 0
        assert len(sleeps) == stalled

    @pytest.mark.parametrize(
        "spec", ["3:crash=0.4,stall=0.5", "4:timeout=0.5,error=0.3"]
    )
    def test_chaos_streamed_output_identical(
        self, pair, serial_darwin, spec
    ):
        options = ResilienceOptions(
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=FaultPlan.parse(spec),
        )
        with DarwinWGA(workers=2, resilience=options) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_darwin, result)


@pytest.fixture(scope="module")
def assemblies():
    pair = make_species_pair(7000, 0.4, np.random.default_rng(19))
    t, q = pair.target.genome, pair.query.genome
    target = Assembly(
        name="t",
        chromosomes=[
            Sequence(t.codes[:3500], name="t1"),
            Sequence(t.codes[3500:], name="t2"),
        ],
    )
    query = Assembly(
        name="q",
        chromosomes=[
            Sequence(q.codes[:3500], name="q1"),
            Sequence(q.codes[3500:], name="q2"),
        ],
    )
    return target, query


def _unit_span(tracer):
    return next(s for s in tracer.walk() if s.name == "align_assemblies")


class TestAssemblyUnitWindow:
    def test_every_fresh_unit_dispatched_up_front(
        self, nine_units, tmp_path
    ):
        """No unit waits on a collection to be dispatched: all nine are
        in flight at once and the producer is never refused; journaled
        units take no worker."""
        target, query = nine_units
        serial = align_assemblies(target, query)
        manifest_path = tmp_path / "run.manifest"
        tracer = Tracer()
        streamed = align_assemblies(
            target, query, workers=2, tracer=tracer, checkpoint=manifest_path
        )
        assert streamed.alignments == serial.alignments
        assert _unit_span(tracer).attrs["peak_in_flight"] == 9
        assert _unit_span(tracer).attrs["backpressure_stalls"] == 0

        full = RunManifest.load(manifest_path)
        partial_path = tmp_path / "partial.manifest"
        partial = RunManifest.create(
            partial_path,
            aligner=full.header["aligner"],
            config=full.header["config"],
            target=full.header["target"],
            query=full.header["query"],
        )
        for unit in (full.units[0], full.units[4]):
            partial.record(unit, full.result_for(unit))
        tracer = Tracer()
        resumed = align_assemblies(
            target,
            query,
            workers=2,
            tracer=tracer,
            checkpoint=partial_path,
            resume=True,
        )
        assert resumed.alignments == serial.alignments
        assert _unit_span(tracer).attrs["peak_in_flight"] == 7
        assert _unit_span(tracer).attrs["backpressure_stalls"] == 0

    def test_resume_mid_stream_matches_serial(
        self, assemblies, tmp_path
    ):
        target, query = assemblies
        serial = align_assemblies(target, query)
        manifest_path = tmp_path / "run.manifest"
        align_assemblies(
            target, query, workers=2, checkpoint=manifest_path
        )
        # Re-create the manifest with only the first journaled unit, as
        # if the run had died mid-stream with three units un-committed.
        full = RunManifest.load(manifest_path)
        first = full.units[0]
        partial_path = tmp_path / "partial.manifest"
        partial = RunManifest.create(
            partial_path,
            aligner=full.header["aligner"],
            config=full.header["config"],
            target=full.header["target"],
            query=full.header["query"],
        )
        partial.record(first, full.result_for(first))
        options = ResilienceOptions()
        resumed = align_assemblies(
            target,
            query,
            workers=2,
            checkpoint=partial_path,
            resume=True,
            resilience=options,
        )
        assert resumed.alignments == serial.alignments
        assert options.stats.resumed_units == 1
        assert options.stats.journaled_units == 3


class TestStreamTelemetry:
    def test_metrics_and_span_attributes(self, pair):
        telemetry = TelemetryOptions()
        tracer = Tracer()
        with DarwinWGA(
            workers=2, tracer=tracer, telemetry=telemetry
        ) as aligner:
            aligner.align(*pair)
        metrics = telemetry.registry.as_dict()
        assert metrics["stream_queue_depth"]["count"] > 0
        assert "stream_occupancy" in metrics
        assert "stream_idle_tail_seconds" in metrics
        assert "stream_peak_in_flight" in metrics
        assert "stream_backpressure_stalls" in metrics
        extend = next(
            s for s in tracer.walk() if s.name == "extend"
        )
        assert 0.0 <= extend.attrs["occupancy"] <= 1.0
        assert extend.attrs["idle_tail_seconds"] >= 0.0
        assert extend.attrs["peak_in_flight"] >= 1
        # Producer spans nest under the extend span: the overlap is
        # real, so the trace reflects it.
        strand_spans = [
            s for s in extend.walk() if s.name == "strand"
        ]
        assert len(strand_spans) == 2

    @pytest.mark.parametrize("schedule", ["pair", "assembly"])
    def test_both_schedules_report_alike(self, pair, assemblies, schedule):
        """Anchors and assembly units share one window, so they carry
        the same span attributes and registry names."""
        telemetry = TelemetryOptions()
        tracer = Tracer()
        if schedule == "pair":
            with DarwinWGA(
                workers=2, tracer=tracer, telemetry=telemetry
            ) as aligner:
                aligner.align(*pair)
            name = "extend"
            dispatched = aligner.last_stream["dispatched_tasks"]
        else:
            align_assemblies(
                *assemblies, workers=2, tracer=tracer, telemetry=telemetry
            )
            name = "align_assemblies"
            dispatched = 4  # 2x2 chromosome pairs
        span = next(s for s in tracer.walk() if s.name == name)
        assert {
            "occupancy",
            "idle_tail_seconds",
            "backpressure_stalls",
            "peak_in_flight",
        } <= set(span.attrs)
        metrics = telemetry.registry.as_dict()
        assert sorted(m for m in metrics if m.startswith("stream_")) == [
            "stream_backpressure_stalls",
            "stream_idle_tail_seconds",
            "stream_occupancy",
            "stream_peak_in_flight",
            "stream_queue_depth",
        ]
        # One depth sample as each task enters flight, one as it leaves.
        assert metrics["stream_queue_depth"]["count"] == 2 * dispatched

    def test_chrome_lanes_hold_only_nested_events(self):
        """Concurrent extension batches get a Chrome lane each.

        Grafted untagged, every ``extend_anchor`` landed on the parent's
        lane, where two batches in flight at once overlap without
        nesting; tagged with their dispatch key, each batch has its own.
        """
        pair = make_species_pair(
            30000,
            0.5,
            np.random.default_rng(5),
            exon_count=20,
            alignable_fraction=0.35,
        )
        tracer = Tracer()
        with DarwinWGA(workers=2, tracer=tracer) as aligner:
            aligner.align(pair.target.genome, pair.query.genome)
        assert aligner.last_stream["peak_in_flight"] == 2
        trace = to_chrome_trace(run_report(tracer))
        lanes = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                lane = lanes.setdefault((event["pid"], event["tid"]), [])
                lane.append((event["ts"], event["ts"] + event["dur"]))
        slack = 0.01  # microseconds: ts and dur are rounded separately
        for lane, spans in lanes.items():
            open_ends = []
            for start, end in sorted(spans, key=lambda s: (s[0], -s[1])):
                while open_ends and open_ends[-1] <= start + slack:
                    open_ends.pop()
                assert not open_ends or end <= open_ends[-1] + slack, lane
                open_ends.append(end)
        anchor_lanes = {
            (event["pid"], event["tid"])
            for event in trace["traceEvents"]
            if event["name"] == "extend_anchor"
        }
        assert len(anchor_lanes) > 1
        assert all(pid == 1 for pid, _ in anchor_lanes)  # worker lanes
