"""Determinism and mechanics of the parallel execution engine."""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.core.pipeline import align_assemblies
from repro.core.worker import resolve_sequence
from repro.genome import Assembly, Sequence, make_species_pair, markov_genome
from repro.lastz import LastzAligner
from repro.obs import Tracer, run_report
from repro.parallel import ExecutionEngine

WORKLOAD_FIELDS = (
    "seed_hits",
    "filter_tiles",
    "filter_cells",
    "extension_tiles",
    "extension_cells",
    "anchors",
    "absorbed_anchors",
)


def assert_same_result(serial, parallel):
    assert parallel.alignments == serial.alignments
    for field in WORKLOAD_FIELDS:
        assert getattr(parallel.workload, field) == getattr(
            serial.workload, field
        ), field


def halves(genome, prefix):
    """A two-chromosome assembly cut from ``genome``."""
    half = len(genome) // 2
    return Assembly(
        name=prefix,
        chromosomes=[
            Sequence(genome.codes[:half], name=f"{prefix}1"),
            Sequence(genome.codes[half:], name=f"{prefix}2"),
        ],
    )


class TestEngine:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExecutionEngine(0)

    def test_single_worker_is_inactive(self):
        with ExecutionEngine(1) as engine:
            assert not engine.active

    def test_share_roundtrip_and_dedup(self, rng):
        seq = markov_genome(1000, rng)
        with ExecutionEngine(2) as engine:
            handle = engine.share(seq)
            assert engine.share(seq) is handle
            restored = resolve_sequence(handle)
            np.testing.assert_array_equal(restored.codes, seq.codes)
            assert restored.name == seq.name

    def test_share_holds_strong_reference(self, rng):
        # Dedup is by id(); the engine must pin the sequence so a
        # garbage-collected id cannot be recycled onto a new object and
        # silently alias the old shared-memory block.
        seq = markov_genome(500, rng)
        with ExecutionEngine(2) as engine:
            handle = engine.share(seq)
            entry = engine._shared[id(seq)]
            assert entry[0] is seq
            assert entry[1] is handle

    def test_rebuild_replaces_broken_pool(self):
        from repro.resilience import injected_worker_crash

        with ExecutionEngine(2) as engine:
            future = engine.submit(injected_worker_crash)
            with pytest.raises(BrokenProcessPool):
                future.result()
            engine.rebuild()
            assert engine.submit(int, "7").result() == 7

    def test_release_blocks_is_idempotent(self, rng):
        engine = ExecutionEngine(2)
        engine.share(markov_genome(500, rng))
        assert engine._blocks
        engine.release_blocks()
        assert not engine._blocks and not engine._shared
        engine.release_blocks()
        engine.close()

    def test_closed_engine_rejects_work(self):
        engine = ExecutionEngine(2)
        engine.close()
        assert not engine.active
        with pytest.raises(RuntimeError):
            engine.submit(len, ())
        with pytest.raises(RuntimeError):
            engine.rebuild()


class TestAnchorParallelism:
    """A pair aligned with workers is byte-identical to serial."""

    @pytest.mark.parametrize("distance", [0.2, 0.8])
    def test_darwin_matches_serial(self, distance):
        pair = make_species_pair(
            8000, distance, np.random.default_rng(31)
        )
        target, query = pair.target.genome, pair.query.genome
        serial = DarwinWGA().align(target, query)
        with DarwinWGA(workers=3) as aligner:
            parallel = aligner.align(target, query)
        assert_same_result(serial, parallel)
        assert (
            parallel.workload.extension_tile_traces
            == serial.workload.extension_tile_traces
        )

    def test_lastz_matches_serial(self, small_pair):
        target = small_pair.target.genome
        query = small_pair.query.genome
        serial = LastzAligner().align(target, query)
        with LastzAligner(workers=3) as aligner:
            parallel = aligner.align(target, query)
        assert_same_result(serial, parallel)

    def test_traced_run_funnel_balances(self, small_pair):
        """A single pair runs in-process, so the anchor funnel is
        checked where workers run: a 2x2 assembly's grafted units."""
        target = halves(small_pair.target.genome, "t")
        query = halves(small_pair.query.genome, "q")
        tracer = Tracer()
        result = align_assemblies(target, query, tracer=tracer, workers=3)
        report = run_report(tracer, result=result)
        stages = report["stages"]
        funnel = report["funnel"]
        assert stages["align"]["count"] == 4
        # Exactly one grafted extend_anchor span per surviving anchor,
        # and the merged counters agree with the Workload accounting.
        assert (
            stages["extend_anchor"]["count"] == funnel["anchors_extended"]
        )
        assert (
            stages["extend_anchor"]["counters"]["extension_cells"]
            == report["workload"]["extension_cells"]
        )
        assert (
            stages["extend"]["counters"]["extension_tiles"]
            == report["workload"]["extension_tiles"]
        )


class TestAssemblyParallelism:
    @pytest.fixture(scope="class")
    def assembly_pair(self):
        rng = np.random.default_rng(77)
        pair = make_species_pair(16000, 0.4, rng)
        t, q = pair.target.genome, pair.query.genome
        target = Assembly(
            name="target",
            chromosomes=[
                Sequence(t.codes[:8000], name="t_chr1"),
                Sequence(t.codes[8000:], name="t_chr2"),
            ],
        )
        query = Assembly(
            name="query",
            chromosomes=[
                Sequence(q.codes[8000:], name="q_chr2"),
                Sequence(q.codes[:8000], name="q_chr1"),
            ],
        )
        return target, query

    @pytest.mark.parametrize("distance", [0.2, 0.8])
    def test_workers_match_serial_at_two_divergences(self, distance):
        rng = np.random.default_rng(int(distance * 100))
        pair = make_species_pair(12000, distance, rng)
        t, q = pair.target.genome, pair.query.genome
        target = Assembly(
            name="t",
            chromosomes=[
                Sequence(t.codes[:6000], name="t1"),
                Sequence(t.codes[6000:], name="t2"),
            ],
        )
        query = Assembly(
            name="q",
            chromosomes=[
                Sequence(q.codes[:6000], name="q1"),
                Sequence(q.codes[6000:], name="q2"),
            ],
        )
        serial = align_assemblies(target, query)
        parallel = align_assemblies(target, query, workers=4)
        assert_same_result(serial, parallel)

    def test_index_cache_warms_and_hits(self, assembly_pair, tmp_path):
        from repro.seed import SeedIndexCache

        target, query = assembly_pair
        serial = align_assemblies(target, query)
        cache = SeedIndexCache(tmp_path)
        parallel = align_assemblies(
            target, query, workers=2, index_cache=cache
        )
        assert_same_result(serial, parallel)
        # One miss per target chromosome during the warm-up; worker-side
        # hits are counted in the workers, not this process.
        assert cache.misses == len(target.chromosomes)

    def test_traced_assembly_run_balances(self, assembly_pair):
        target, query = assembly_pair
        tracer = Tracer()
        result = align_assemblies(
            target, query, workers=2, tracer=tracer
        )
        report = run_report(tracer, result=result)
        stages = report["stages"]
        pairs = len(target.chromosomes) * len(query.chromosomes)
        assert stages["align"]["count"] == pairs
        assert (
            stages["align"]["counters"]["extension_cells"]
            == report["workload"]["extension_cells"]
        )
