"""Ungapped filter stage tests."""

import tracemalloc

import numpy as np
import pytest

from repro.align import ungapped_extend_batch
from repro.align.matrices import lastz_default
from repro.genome import Sequence, markov_genome
from repro.lastz import UngappedFilterParams, ungapped_filter
from repro.lastz.ungapped_filter import LANES_PER_CALL
from repro.seed import SeedIndex, SpacedSeed, all_seed_hits


@pytest.fixture
def scoring():
    return lastz_default()


class TestUngappedFilter:
    def test_clean_segment_passes(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 2000).astype(np.uint8), "t")
        q_codes = rng.integers(0, 4, 2000).astype(np.uint8)
        q_codes[700:800] = target.codes[500:600]
        query = Sequence(q_codes, "q")
        result = ungapped_filter(
            target,
            query,
            np.array([550]),
            np.array([750]),
            scoring,
            UngappedFilterParams(threshold=3000),
        )
        assert len(result.anchors) == 1
        assert result.anchors[0].filter_score >= 3000

    def test_gapped_segment_fails_ungapped_filter(self, scoring, rng):
        # the Darwin-WGA motivation: indel-dense homology under-scores
        core = rng.integers(0, 4, 400).astype(np.uint8)
        parts = []
        for start in range(0, 400, 25):
            parts.append(core[start : start + 25])
            parts.append(rng.integers(0, 4, 1).astype(np.uint8))
        q_core = np.concatenate(parts)
        target = Sequence(
            np.concatenate(
                [rng.integers(0, 4, 600).astype(np.uint8), core,
                 rng.integers(0, 4, 600).astype(np.uint8)]
            ),
            "t",
        )
        query = Sequence(
            np.concatenate(
                [rng.integers(0, 4, 600).astype(np.uint8), q_core,
                 rng.integers(0, 4, 600).astype(np.uint8)]
            ),
            "q",
        )
        result = ungapped_filter(
            target,
            query,
            np.array([610]),
            np.array([610]),
            scoring,
            UngappedFilterParams(threshold=3000),
        )
        assert result.anchors == []

    def test_duplicate_hits_on_hsp_merged(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8), "t")
        q_codes = rng.integers(0, 4, 3000).astype(np.uint8)
        q_codes[1000:1200] = target.codes[1000:1200]
        query = Sequence(q_codes, "q")
        hits_t = np.array([1010, 1050, 1100, 1150])
        hits_q = hits_t.copy()
        result = ungapped_filter(
            target, query, hits_t, hits_q, scoring,
            UngappedFilterParams(threshold=3000),
        )
        assert len(result.anchors) == 1
        assert result.hits == 4

    def test_different_diagonals_kept(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8), "t")
        q_codes = rng.integers(0, 4, 3000).astype(np.uint8)
        q_codes[500:600] = target.codes[500:600]
        q_codes[2000:2100] = target.codes[900:1000]
        query = Sequence(q_codes, "q")
        result = ungapped_filter(
            target,
            query,
            np.array([550, 950]),
            np.array([550, 2050]),
            scoring,
            UngappedFilterParams(threshold=3000),
        )
        assert len(result.anchors) == 2

    def test_empty_input(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 100).astype(np.uint8))
        result = ungapped_filter(
            target,
            target,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            scoring,
            UngappedFilterParams(),
        )
        assert result.anchors == []
        assert result.hits == 0

    def test_cells_accounted(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 1000).astype(np.uint8))
        params = UngappedFilterParams(max_extension=128)
        result = ungapped_filter(
            target,
            target,
            np.array([500]),
            np.array([500]),
            scoring,
            params,
        )
        # a self-hit extends the full budget in both directions, plus the
        # fixed X-drop overshoot
        assert result.cells >= 2 * 128
        assert result.cells <= 2 * 128 + 64

    def test_param_validation(self):
        with pytest.raises(ValueError):
            UngappedFilterParams(xdrop=-1)
        with pytest.raises(ValueError):
            UngappedFilterParams(max_extension=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("threshold", -1, "threshold must be non-negative"),
            ("xdrop", -1, "xdrop must be non-negative"),
            ("max_extension", 0, "max_extension must be positive"),
            ("max_extension", -5, "max_extension must be positive"),
        ],
    )
    def test_each_field_is_checked_and_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            UngappedFilterParams(**{field: value})
        # the boundary values themselves are accepted
        UngappedFilterParams(threshold=0, xdrop=0, max_extension=1)

    def test_more_hits_than_one_kernel_call(self, scoring, rng):
        # Hits are extended LANES_PER_CALL at a time; the split may not
        # show in anchors or in the cell count.
        target = Sequence(rng.integers(0, 4, 4000).astype(np.uint8), "t")
        q_codes = rng.integers(0, 4, 4000).astype(np.uint8)
        q_codes[1000:1300] = target.codes[1000:1300]
        query = Sequence(q_codes, "q")
        k = LANES_PER_CALL + 37
        hits_t = rng.integers(0, 4000, k)
        hits_q = hits_t.copy()
        hits_q[::3] = rng.integers(0, 4000, hits_q[::3].size)
        params = UngappedFilterParams()
        result = ungapped_filter(
            target, query, hits_t, hits_q, scoring, params
        )
        scores, left, right = ungapped_extend_batch(
            target, query, hits_t, hits_q, scoring, params.xdrop,
            max_length=params.max_extension,
        )
        assert result.hits == k
        overshoot = 2 * (params.xdrop // 91 + 1)  # the filter's fixed charge
        assert result.cells == int(left.sum() + right.sum()) + overshoot * k
        assert result.anchors
        passing = {
            (int(t), int(q)): int(score)
            for t, q, score in zip(hits_t, hits_q, scores)
            if score >= params.threshold
        }
        for anchor in result.anchors:
            assert passing[anchor.target_pos, anchor.query_pos] == (
                anchor.filter_score
            )

    def test_50_kbp_unrelated_pair_stays_under_16_mib(self, scoring):
        rng = np.random.default_rng(7)
        target = markov_genome(50_000, rng, name="t")
        query = markov_genome(50_000, rng, name="q")
        hits = all_seed_hits(SeedIndex.build(target, SpacedSeed()), query)
        assert hits.target_positions.size > 1000
        tracemalloc.start()
        try:
            result = ungapped_filter(
                target,
                query,
                hits.target_positions,
                hits.query_positions,
                scoring,
                UngappedFilterParams(),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.hits == hits.target_positions.size
        assert result.cells > 0
        # One (hits, 512) int64 slab per cumulative / running-max / mask
        # was 64 MiB here; a chunk of live lanes in int32 is a few.
        assert peak < 16 * 2**20
