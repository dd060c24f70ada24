"""End-to-end return-value telemetry: real workers, exact accounting.

A task's spans and receipt come home in its result, so on a live
2-worker pool:

* exactly one worker-tagged span subtree is grafted per unit, tagged
  with its dispatch key and the pid that ran it — also when a unit was
  retried after a timeout (the abandoned attempt's telemetry is never
  recorded);
* the grafted units' counters sum to the run's workload, which equals
  the serial run's;
* telemetry never perturbs results — identical alignments at any
  worker count, traced or not.
"""

import numpy as np
import pytest

from repro.core.pipeline import align_assemblies
from repro.genome import Assembly, Sequence, make_species_pair
from repro.obs import TelemetryOptions, Tracer
from repro.parallel import ExecutionEngine
from repro.resilience import FaultPlan, ResilienceOptions

WORKERS = 2
UNITS = 4  # 2 target x 2 query chromosomes


@pytest.fixture(scope="module")
def assemblies():
    pair = make_species_pair(
        6000, 0.3, np.random.default_rng(11), alignable_fraction=0.5
    )

    def split(genome, prefix):
        half = len(genome.codes) // 2
        return Assembly(
            name=prefix,
            chromosomes=[
                Sequence(genome.codes[:half], name=f"{prefix}1"),
                Sequence(genome.codes[half:], name=f"{prefix}2"),
            ],
        )

    return (
        split(pair.target.genome, "t"),
        split(pair.query.genome, "q"),
    )


@pytest.fixture(scope="module")
def serial_run(assemblies):
    return align_assemblies(*assemblies, workers=1)


def traced_run(assemblies, resilience=None, **options):
    target, query = assemblies
    telemetry = TelemetryOptions()
    tracer = Tracer()
    with ExecutionEngine(
        WORKERS, resilience=resilience, telemetry=telemetry
    ) as engine:
        result = align_assemblies(
            target,
            query,
            engine=engine,
            tracer=tracer,
            telemetry=telemetry,
            **options,
        )
    return result, tracer, telemetry.summary()


@pytest.fixture(scope="module")
def bus_run(assemblies):
    """One traced 2-worker run; shared by the tests."""
    return traced_run(assemblies)


def worker_subtrees(tracer):
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if "worker" in span.attrs
    ]


def alignment_key(result):
    return [
        (
            a.target_name,
            a.query_name,
            a.strand,
            a.target_start,
            a.target_end,
            a.query_start,
            a.query_end,
            a.score,
        )
        for a in result.alignments
    ]


class TestZeroLoss:
    def test_funnels_balance_exactly(self, bus_run, serial_run):
        """Grafted unit counters == run workload == serial workload."""
        result, tracer, _ = bus_run
        merged = {}
        for span in worker_subtrees(tracer):
            for name, value in span.counters.items():
                merged[name] = merged.get(name, 0) + value
        workload = result.workload
        assert workload == serial_run.workload
        for name in ("seed_hits", "filter_tiles", "anchors"):
            assert merged[name] == getattr(workload, name), name


class TestIdenticalOutput:
    def test_bus_run_matches_serial_run(self, bus_run, serial_run):
        result, _, _ = bus_run
        assert alignment_key(result) == alignment_key(serial_run)
        assert result.workload == serial_run.workload

    def test_untraced_telemetry_run_matches_too(self, bus_run, assemblies):
        """Telemetry attached but tracer off: no bus, same output."""
        target, query = assemblies
        result, _, _ = bus_run
        telemetry = TelemetryOptions()
        with ExecutionEngine(WORKERS, telemetry=telemetry) as engine:
            untraced = align_assemblies(
                target, query, engine=engine, telemetry=telemetry
            )
        assert telemetry.bus is None
        assert alignment_key(untraced) == alignment_key(result)


class TestWorkerSpans:
    def test_worker_spans_grafted_with_unit_and_pid(self, bus_run):
        _, tracer, _ = bus_run
        tagged = worker_subtrees(tracer)
        assert len(tagged) == UNITS
        assert len({span.attrs["unit"] for span in tagged}) == UNITS
        for span in tagged:
            assert span.attrs["worker"] > 0
            assert span.closed

    def test_registry_metrics_recorded(self, bus_run):
        _, _, summary = bus_run
        assert set(summary) == {"metrics"}
        metrics = summary["metrics"]
        assert metrics["dispatch_latency_seconds"]["count"] == UNITS
        assert metrics["worker_rss_bytes"]["count"] == UNITS
        assert metrics["worker_rss_bytes"]["max"] > 0


class TestRetriedUnit:
    def test_timed_out_unit_is_grafted_once(self, assemblies, serial_run):
        """A unit retried after a timeout reports only the accepted
        attempt: the abandoned one still finishes in its worker, but its
        spans never reach the parent."""
        options = ResilienceOptions(
            fault_plan=FaultPlan(seed=1, rates={"timeout": 0.5})
        )
        result, tracer, _ = traced_run(assemblies, resilience=options)
        assert options.stats.timeouts >= 1
        tagged = worker_subtrees(tracer)
        units = [span.attrs["unit"] for span in tagged]
        assert len(units) == len(set(units)) == UNITS
        assert all(span.attrs["worker"] > 0 for span in tagged)
        assert alignment_key(result) == alignment_key(serial_run)
        assert result.workload == serial_run.workload

    def test_cached_index_load_stays_in_the_unit_subtree(
        self, assemblies, tmp_path
    ):
        _, tracer, _ = traced_run(assemblies, index_cache=tmp_path)
        tagged = worker_subtrees(tracer)
        assert len(tagged) == UNITS
        for span in tagged:
            loads = [s for s in span.walk() if s.name == "build_index"]
            assert [s.attrs["cache"] for s in loads] == ["hit"]


class TestAdoptTelemetry:
    def test_engine_adopts_before_pool_build(self):
        telemetry = TelemetryOptions()
        engine = ExecutionEngine(WORKERS)
        try:
            assert engine.adopt_telemetry(telemetry) is True
            assert engine.telemetry is telemetry
            assert engine.adopt_telemetry(telemetry) is True  # idempotent
        finally:
            engine.close()

    def test_engine_refuses_after_pool_build(self, assemblies):
        """Workers are initialized without a heartbeat; adopting a bus
        afterwards would leave every one of them silent."""
        target, query = assemblies
        engine = ExecutionEngine(WORKERS)
        try:
            align_assemblies(target, query, engine=engine)  # builds pool
            late = TelemetryOptions()
            late.ensure_bus()
            assert engine.adopt_telemetry(late) is False
            assert engine.telemetry is None
            late.close()
        finally:
            engine.close()

    def test_engine_refuses_second_bundle(self):
        first = TelemetryOptions()
        second = TelemetryOptions()
        engine = ExecutionEngine(WORKERS, telemetry=first)
        try:
            assert engine.adopt_telemetry(second) is False
            assert engine.telemetry is first
        finally:
            engine.close()
