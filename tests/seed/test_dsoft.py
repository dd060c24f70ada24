"""D-SOFT seeding tests."""

import tracemalloc

import numpy as np
import pytest

from repro.genome import Sequence
from repro.obs import Tracer
from repro.seed import (
    DsoftParams,
    SeedIndex,
    SpacedSeed,
    all_seed_hits,
    dsoft_seed,
)


@pytest.fixture
def seed():
    return SpacedSeed(pattern="11011", transitions=False)


@pytest.fixture
def transition_seed():
    return SpacedSeed(pattern="11011", transitions=True)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DsoftParams(chunk_size=0)
        with pytest.raises(ValueError):
            DsoftParams(bin_size=-1)
        with pytest.raises(ValueError):
            DsoftParams(threshold=0)


def seed_counters(index, query):
    tracer = Tracer()
    all_seed_hits(index, query, tracer=tracer)
    (span,) = tracer.roots
    return span.counters


class TestQueryWords:
    def test_exact_only(self, seed, rng):
        query = Sequence(rng.integers(0, 4, 60).astype(np.uint8))
        counters = seed_counters(SeedIndex.build(query, seed), query)
        assert counters["seed_lookups"] == 60 - seed.span + 1

    def test_transitions_multiply_lookups(self, transition_seed, rng):
        query = Sequence(rng.integers(0, 4, 60).astype(np.uint8))
        counters = seed_counters(
            SeedIndex.build(query, transition_seed), query
        )
        base = 60 - transition_seed.span + 1
        # m + 1 lookups per position (paper section III-B)
        assert counters["seed_lookups"] == base * (
            transition_seed.weight + 1
        )

    def test_probe_funnel_narrows_on_unrelated_sequences(self, rng):
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8))
        query = Sequence(rng.integers(0, 4, 3000).astype(np.uint8))
        counters = seed_counters(SeedIndex.build(target, SpacedSeed()), query)
        # 64 bitmap bits per indexed word: about 1 absent word in 64 passes.
        assert counters["seed_lookups"] > 20 * counters["seed_probe_pass"] > 0
        assert counters["seed_hits"] == counters["candidates"]

    def test_transition_hit_found(self, transition_seed):
        # Target differs from query by a single transition (A->G) at a
        # match position; only the transition-tolerant seed finds it.
        target = Sequence.from_string("GGGGG" + "TTTTTTT")
        query = Sequence.from_string("GGGGA" + "TTTTTTT")
        index = SeedIndex.build(target, transition_seed)
        result = all_seed_hits(index, query)
        assert (0, 0) in set(
            zip(
                result.target_positions.tolist(),
                result.query_positions.tolist(),
            )
        )
        exact = SpacedSeed(pattern="11011", transitions=False)
        index_exact = SeedIndex.build(target, exact)
        result_exact = all_seed_hits(index_exact, query)
        assert (0, 0) not in set(
            zip(
                result_exact.target_positions.tolist(),
                result_exact.query_positions.tolist(),
            )
        )


class TestDsoft:
    def test_one_candidate_per_band(self, seed):
        # A long shared run generates many hits on one diagonal; D-SOFT
        # must collapse them to roughly one candidate per chunk.
        shared = "ACGTTGCAACGTTGCA" * 8
        target = Sequence.from_string(shared)
        query = Sequence.from_string(shared)
        index = SeedIndex.build(target, seed)
        params = DsoftParams(chunk_size=64, bin_size=64, threshold=1)
        result = dsoft_seed(index, query, params)
        assert result.raw_hit_count > result.candidate_count
        assert result.candidate_count <= (len(shared) // 64 + 1) * 4

    def test_threshold_filters_sparse_bands(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 2000).astype(np.uint8))
        query = Sequence(rng.integers(0, 4, 2000).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        low = dsoft_seed(index, query, DsoftParams(threshold=1))
        high = dsoft_seed(index, query, DsoftParams(threshold=3))
        assert high.candidate_count <= low.candidate_count

    def test_50_kbp_unrelated_pair_stays_under_8_mib(self):
        rng = np.random.default_rng(7)
        target = Sequence(rng.integers(0, 4, 50_000).astype(np.uint8), "t")
        query = Sequence(rng.integers(0, 4, 50_000).astype(np.uint8), "q")
        index = SeedIndex.build(target, SpacedSeed())
        tracemalloc.start()
        try:
            result = dsoft_seed(index, query, DsoftParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.raw_hit_count > 0
        # The 13-fold variant words and their full-scan searchsorted
        # ranges were 30 MiB here.
        assert peak < 8 * 2**20

    def test_empty_query(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 100).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        result = dsoft_seed(
            index, Sequence.from_string(""), DsoftParams()
        )
        assert result.candidate_count == 0
        assert result.raw_hit_count == 0

    def test_candidates_are_real_hits(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 1500).astype(np.uint8))
        query = Sequence(target.codes.copy())
        index = SeedIndex.build(target, seed)
        result = dsoft_seed(index, query, DsoftParams())
        offs = seed.match_offsets
        for tp, qp in zip(
            result.target_positions.tolist(),
            result.query_positions.tolist(),
        ):
            for o in offs:
                assert target.codes[tp + o] == query.codes[qp + o]


class TestAllHits:
    def test_all_hits_superset_of_dsoft_candidates(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 800).astype(np.uint8))
        query = Sequence(rng.integers(0, 4, 800).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        every = all_seed_hits(index, query)
        banded = dsoft_seed(index, query, DsoftParams())
        all_set = set(
            zip(
                every.target_positions.tolist(),
                every.query_positions.tolist(),
            )
        )
        for hit in zip(
            banded.target_positions.tolist(),
            banded.query_positions.tolist(),
        ):
            assert hit in all_set

    def test_seed_limit_drops_frequent_words(self, seed):
        target = Sequence.from_string("A" * 200)
        query = Sequence.from_string("A" * 50)
        index = SeedIndex.build(target, seed)
        unlimited = all_seed_hits(index, query)
        limited = all_seed_hits(index, query, seed_limit=10)
        assert limited.raw_hit_count == 0
        assert unlimited.raw_hit_count > 1000
