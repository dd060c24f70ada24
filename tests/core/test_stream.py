"""One parallel schedule: an assembly's chromosome-pair units in one loop.

The contract has three legs, each pinned here:

1. **one schedule** — a single pair always aligns in-process, whatever
   ``workers`` is, and never touches a pool; an assembly's units are
   what workers run: all dispatched up front, collected in serial
   order;
2. **byte-identity** — the unit schedule commits exactly the serial
   result at any worker count, in any finishing order, under any fault
   schedule (a slow consumer included), and across checkpoint/resume;
3. **observability** — each collected unit's receipt lands in the
   metric registry, and its worker spans are grafted once, on a Chrome
   lane of their own.
"""

import importlib

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.core.pipeline import align_assemblies

# By path: ``repro.core.gapped_filter`` the attribute is the function.
gapped_filter_module = importlib.import_module("repro.core.gapped_filter")
pipeline_module = importlib.import_module("repro.core.pipeline")
from repro.genome import Assembly, Sequence, make_species_pair
from repro.lastz import LastzAligner
from repro.obs import TelemetryOptions, Tracer
from repro.obs.export import run_report, to_chrome_trace
from repro.obs.progress import NO_PROGRESS
from repro.parallel.engine import ExecutionEngine, SequenceHandle
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


class RefusingEngine:
    """An external engine every pool entry point of which raises."""

    workers = 2
    active = True  # a live pool: align() must still leave it alone
    resilience = None
    telemetry = None
    progress = NO_PROGRESS

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a single pair touched the engine")

    share = dispatch = submit = _refuse


class TestSinglePairInProcess:
    @pytest.mark.parametrize("aligner_class", [DarwinWGA, LastzAligner])
    def test_workers_leave_no_engine(
        self, pair, serial_darwin, serial_lastz, aligner_class
    ):
        serial = serial_darwin if aligner_class is DarwinWGA else serial_lastz
        with aligner_class(workers=2) as aligner:
            result = aligner.align(*pair)
            assert aligner._engine is None
        assert_same_result(serial, result)
        assert aligner.last_stream is None

    def test_external_engine_is_never_used(self, pair, serial_darwin):
        aligner = DarwinWGA(engine=RefusingEngine())
        assert_same_result(serial_darwin, aligner.align(*pair))


class TestStreamedIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_darwin_streamed_matches_serial(
        self, pair, serial_darwin, workers
    ):
        with DarwinWGA(workers=workers) as aligner:
            result = aligner.align(*pair)
        assert_same_result(serial_darwin, result)
        assert aligner.last_stream is None

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


@pytest.fixture(scope="module")
def serial_units(assemblies):
    return align_assemblies(*assemblies)


class TestBackpressure:
    def test_slow_consumer_blocks_producers(
        self, assemblies, serial_units, monkeypatch
    ):
        """Injected stalls hold every unit collection back; output must
        not change."""
        sleeps = []
        monkeypatch.setattr(pipeline_module, "_sleep", sleeps.append)
        options = ResilienceOptions(fault_plan=FaultPlan(5, {"stall": 1.0}))
        result = align_assemblies(*assemblies, workers=2, resilience=options)
        assert_same_result(serial_units, result)
        stalled = options.stats.injected_faults.get("stall", 0)
        assert stalled == 4  # every unit of the 2x2 assembly
        assert len(sleeps) == stalled

    @pytest.mark.parametrize(
        "spec", ["3:crash=0.4,stall=0.5", "4:timeout=0.5,error=0.3"]
    )
    def test_chaos_streamed_output_identical(
        self, assemblies, serial_units, spec
    ):
        options = ResilienceOptions(
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=FaultPlan.parse(spec),
        )
        result = align_assemblies(*assemblies, workers=2, resilience=options)
        assert_same_result(serial_units, result)
        assert options.stats.injected_faults


def _unit_span(tracer):
    return next(s for s in tracer.walk() if s.name == "align_assemblies")


def _partial_manifest(full, path, units):
    """A manifest journaling only ``units`` of ``full``, as if the run
    had died with the others un-committed."""
    partial = RunManifest.create(
        path,
        aligner=full.header["aligner"],
        config=full.header["config"],
        target=full.header["target"],
        query=full.header["query"],
    )
    for unit in units:
        partial.record(unit, full.result_for(unit))
    return partial


def _record_engine_calls(monkeypatch):
    """Log every ``ExecutionEngine`` dispatch and collection, in order."""
    calls = []
    dispatch, result = ExecutionEngine.dispatch, ExecutionEngine.result

    def logged_dispatch(self, fn, /, *args, key=""):
        calls.append(("dispatch", key))
        return dispatch(self, fn, *args, key=key)

    def logged_result(self, ticket, tracer=None):
        calls.append(("result", None))
        return result(self, ticket, tracer=tracer)

    monkeypatch.setattr(ExecutionEngine, "dispatch", logged_dispatch)
    monkeypatch.setattr(ExecutionEngine, "result", logged_result)
    return calls


class TestAssemblyUnitWindow:
    def test_every_fresh_unit_dispatched_up_front(
        self, nine_units, tmp_path, monkeypatch
    ):
        """No unit waits on a collection to be dispatched: all nine are
        dispatched before the first is collected; journaled units take
        no worker."""
        target, query = nine_units
        serial = align_assemblies(target, query)
        manifest_path = tmp_path / "run.manifest"
        calls = _record_engine_calls(monkeypatch)
        streamed = align_assemblies(
            target, query, workers=2, checkpoint=manifest_path
        )
        assert streamed.alignments == serial.alignments
        assert [kind for kind, _ in calls] == ["dispatch"] * 9 + ["result"] * 9

        full = RunManifest.load(manifest_path)
        partial_path = tmp_path / "partial.manifest"
        _partial_manifest(full, partial_path, (full.units[0], full.units[4]))
        calls.clear()
        resumed = align_assemblies(
            target, query, workers=2, checkpoint=partial_path, resume=True
        )
        assert resumed.alignments == serial.alignments
        assert [kind for kind, _ in calls] == ["dispatch"] * 7 + ["result"] * 7
        dispatched = [key for kind, key in calls if kind == "dispatch"]
        assert full.units[0] not in dispatched
        assert full.units[4] not in dispatched

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
        partial_path = tmp_path / "partial.manifest"
        _partial_manifest(full, partial_path, full.units[:1])
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


def _traced_units(assemblies):
    telemetry = TelemetryOptions()
    tracer = Tracer()
    align_assemblies(
        *assemblies, workers=2, tracer=tracer, telemetry=telemetry
    )
    return tracer, telemetry.registry.as_dict()


class TestStreamTelemetry:
    def test_metrics_and_span_attributes(self, assemblies):
        tracer, metrics = _traced_units(assemblies)
        # One receipt per collected unit.
        assert metrics["dispatch_latency_seconds"]["count"] == 4
        assert metrics["worker_rss_bytes"]["count"] == 4
        assert metrics["worker_rss_bytes"]["max"] > 0
        span = _unit_span(tracer)
        assert span.counters["chromosome_pairs"] == 4
        # Each unit's worker spans are grafted whole under the
        # schedule's span: one ``align`` root per unit, both strands
        # inside it.
        units = [s for s in span.walk() if s.name == "align"]
        assert len(units) == 4
        for unit in units:
            assert "worker" in unit.attrs
            assert [s.name for s in unit.walk()].count("strand") == 2

    @pytest.mark.parametrize("schedule", ["assembly"])
    def test_both_schedules_report_alike(self, assemblies, schedule):
        """The one parallel schedule (``schedule``) reports what every
        run does plus the per-unit receipts: no schedule-summary span
        attribute and no registry name beyond the two receipt
        histograms."""
        tracer, metrics = _traced_units(assemblies)
        assert set(_unit_span(tracer).attrs) == set()
        assert sorted(metrics) == [
            "dispatch_latency_seconds",
            "worker_rss_bytes",
        ]

    def test_chrome_lanes_hold_only_nested_events(self, assemblies):
        """Concurrent units get a Chrome lane each.

        Grafted untagged, every unit's ``align`` would land on the
        parent's lane, where two units in flight at once overlap without
        nesting; tagged with their dispatch key, each unit has its own.
        """
        tracer, _ = _traced_units(assemblies)
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
        unit_lanes = [
            (event["pid"], event["tid"])
            for event in trace["traceEvents"]
            if event["name"] == "align" and event["ph"] == "X"
        ]
        assert len(unit_lanes) == len(set(unit_lanes)) == 4
        assert all(pid == 1 for pid, _ in unit_lanes)  # worker lanes


class InProcessEngine:
    """A two-worker engine that runs its tasks in this process when the
    first result is collected — the last dispatched unit first, so units
    finish in the reverse of the order they are collected in."""

    workers = 2
    active = True
    telemetry = None
    progress = NO_PROGRESS

    def __init__(self, resilience=None):
        self.resilience = resilience or ResilienceOptions()
        self.dispatched = []
        self.finished = []
        self._pending = {}
        self._done = {}

    def share(self, seq):
        return SequenceHandle(
            kind="bytes",
            payload=seq.codes.tobytes(),
            length=len(seq),
            name=seq.name,
        )

    def dispatch(self, fn, /, *args, key):
        self.dispatched.append(key)
        self._pending[key] = (fn, args)
        return key

    def result(self, ticket, tracer):
        for key in reversed(list(self._pending)):
            fn, args = self._pending.pop(key)
            self._done[key] = fn(*args)
            self.finished.append(key)
        return self._done.pop(ticket)


@pytest.fixture(scope="module")
def journal(assemblies, tmp_path_factory):
    """A complete manifest of the 2x2 assembly's units."""
    path = tmp_path_factory.mktemp("unit-loop") / "full.manifest"
    align_assemblies(*assemblies, checkpoint=path)
    return RunManifest.load(path)


class TestUnitLoop:
    def test_collects_in_dispatch_order(
        self, assemblies, serial_units, tmp_path
    ):
        """Units that finish in reverse are still collected, journaled
        and merged in serial order."""
        engine = InProcessEngine()
        path = tmp_path / "run.manifest"
        result = align_assemblies(*assemblies, engine=engine, checkpoint=path)
        assert_same_result(serial_units, result)
        assert len(engine.dispatched) == 4
        assert engine.finished == engine.dispatched[::-1]
        assert RunManifest.load(path).units == engine.dispatched

    def test_resumed_unit_takes_no_worker(
        self, assemblies, serial_units, journal, tmp_path
    ):
        path = tmp_path / "partial.manifest"
        resumed = journal.units[1:3]
        _partial_manifest(journal, path, resumed)
        engine = InProcessEngine()
        result = align_assemblies(
            *assemblies, engine=engine, checkpoint=path, resume=True
        )
        assert_same_result(serial_units, result)
        assert engine.dispatched == [journal.units[0], journal.units[3]]
        assert engine.resilience.stats.resumed_units == 2
        assert engine.resilience.stats.journaled_units == 2
        assert sorted(RunManifest.load(path).units) == sorted(journal.units)

    def test_stall_for_every_fresh_unit_not_a_resumed_one(
        self, assemblies, serial_units, journal, tmp_path, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(pipeline_module, "_sleep", sleeps.append)
        path = tmp_path / "partial.manifest"
        _partial_manifest(journal, path, journal.units[:1])
        engine = InProcessEngine(
            ResilienceOptions(fault_plan=FaultPlan(5, {"stall": 1.0}))
        )
        result = align_assemblies(
            *assemblies, engine=engine, checkpoint=path, resume=True
        )
        assert_same_result(serial_units, result)
        assert engine.resilience.stats.injected_faults == {"stall": 3}
        assert sleeps == [pipeline_module.STALL_SECONDS] * 3

    def test_one_graft_per_unit_under_retry(
        self, assemblies, serial_units, journal
    ):
        """A crashed attempt is retried; only the accepted attempt's
        spans are grafted, once per unit, tagged with its key."""
        options = ResilienceOptions(
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=FaultPlan.parse("3:crash=0.4"),
        )
        tracer = Tracer()
        result = align_assemblies(
            *assemblies, workers=2, tracer=tracer, resilience=options
        )
        assert_same_result(serial_units, result)
        assert options.stats.injected_faults.get("crash", 0) >= 1
        grafted = [s for s in tracer.walk() if "worker" in s.attrs]
        assert [s.attrs["unit"] for s in grafted] == journal.units
        assert all(s.attrs["worker"] > 0 for s in grafted)
