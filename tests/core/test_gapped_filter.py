"""Gapped (banded SW) filter stage tests."""

import numpy as np
import pytest

from repro.align.matrices import lastz_default
from repro.core import FilterParams, gapped_filter
from repro.core.gapped_filter import gapped_filter_stream
from repro.genome import Sequence
from repro.obs import Tracer


@pytest.fixture
def scoring():
    return lastz_default()


def planted_pair(rng, length=4000, insert_at=1500, insert_len=400):
    """Random target/query sharing one planted identical segment."""
    target = Sequence(rng.integers(0, 4, length).astype(np.uint8), "t")
    q_codes = rng.integers(0, 4, length).astype(np.uint8)
    q_at = insert_at + 37
    q_codes[q_at : q_at + insert_len] = target.codes[
        insert_at : insert_at + insert_len
    ]
    return target, Sequence(q_codes, "q"), insert_at, q_at


class TestFilter:
    def test_planted_hit_passes(self, scoring, rng):
        target, query, t_at, q_at = planted_pair(rng)
        params = FilterParams(tile_size=320, band=32, threshold=4000)
        result = gapped_filter(
            target,
            query,
            np.array([t_at + 200]),
            np.array([q_at + 200]),
            scoring,
            params,
        )
        assert len(result.anchors) == 1
        anchor = result.anchors[0]
        # anchor must land on the planted diagonal
        assert abs(anchor.diagonal - (t_at - q_at)) <= 32
        assert anchor.filter_score >= 4000

    def test_random_hit_fails(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 2000).astype(np.uint8), "t")
        query = Sequence(rng.integers(0, 4, 2000).astype(np.uint8), "q")
        params = FilterParams(tile_size=320, band=32, threshold=4000)
        result = gapped_filter(
            target,
            query,
            np.array([800, 1200]),
            np.array([900, 700]),
            scoring,
            params,
        )
        assert result.anchors == []
        assert result.tiles == 2

    def test_threshold_controls_pass_rate(self, scoring, rng):
        target, query, t_at, q_at = planted_pair(rng, insert_len=60)
        candidates_t = np.array([t_at + 30])
        candidates_q = np.array([q_at + 30])
        lenient = gapped_filter(
            target, query, candidates_t, candidates_q, scoring,
            FilterParams(threshold=2000),
        )
        strict = gapped_filter(
            target, query, candidates_t, candidates_q, scoring,
            FilterParams(threshold=20000),
        )
        assert len(lenient.anchors) >= len(strict.anchors)

    def test_tile_that_scored_nothing_is_no_anchor_at_threshold_zero(
        self, scoring
    ):
        # DarwinWGAConfig.scaled(f) gives H_f = 0 for f < 1/4000.  An
        # all-A vs all-C tile scores 0 and has no x_max; it used to
        # pass and anchor 161 bp off the seed at the tile's (0, 0).
        target = Sequence(np.zeros(1000, dtype=np.uint8), "t")
        query = Sequence(np.ones(1000, dtype=np.uint8), "q")
        candidates = np.array([200])
        result = gapped_filter(
            target, query, candidates, candidates, scoring,
            FilterParams(threshold=0),
        )
        assert result.anchors == []
        assert result.tiles == 1
        # A tile that does score still passes H_f = 0, at its x_max.
        same = gapped_filter(
            target, target, candidates, candidates, scoring,
            FilterParams(threshold=0),
        )
        assert [a.filter_score for a in same.anchors] == [320 * 91]

    def test_edge_tiles_are_n_padded(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 500).astype(np.uint8), "t")
        query = Sequence(target.codes.copy(), "q")
        params = FilterParams(tile_size=320, band=32, threshold=1000)
        result = gapped_filter(
            target, query, np.array([5]), np.array([5]), scoring, params
        )
        # tile extends past the left edge; must not crash and should pass
        assert len(result.anchors) == 1

    def test_empty_candidates(self, scoring, rng):
        target = Sequence(rng.integers(0, 4, 100).astype(np.uint8))
        result = gapped_filter(
            target,
            target,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            scoring,
            FilterParams(),
        )
        assert result.tiles == 0
        assert result.cells == 0

    def test_cells_accounting(self, scoring, rng):
        target, query, t_at, q_at = planted_pair(rng)
        params = FilterParams(tile_size=64, band=8)
        result = gapped_filter(
            target,
            query,
            np.array([t_at, t_at + 50]),
            np.array([q_at, q_at + 50]),
            scoring,
            params,
        )
        assert result.tiles == 2
        assert result.cells > 0
        assert result.cells % 2 == 0

    def test_gapped_filter_tolerates_indels(self, scoring, rng):
        # Segment with an indel every ~25 bp: ungapped score per block is
        # far below threshold, but banded SW accumulates across gaps.
        target_core = rng.integers(0, 4, 300).astype(np.uint8)
        query_parts = []
        for start in range(0, 300, 25):
            query_parts.append(target_core[start : start + 25])
            query_parts.append(
                rng.integers(0, 4, 1).astype(np.uint8)
            )  # 1bp insertion
        q_core = np.concatenate(query_parts)
        pad_t = rng.integers(0, 4, 500).astype(np.uint8)
        pad_q = rng.integers(0, 4, 500).astype(np.uint8)
        target = Sequence(
            np.concatenate([pad_t, target_core, pad_t]), "t"
        )
        query = Sequence(np.concatenate([pad_q, q_core, pad_q]), "q")
        params = FilterParams(tile_size=320, band=32, threshold=4000)
        result = gapped_filter(
            target,
            query,
            np.array([500 + 150]),
            np.array([500 + 155]),
            scoring,
            params,
        )
        assert len(result.anchors) == 1


def _planted_query(rng, target, t_at, length=4000, insert_len=300):
    """A random query holding ``target[t_at : t_at + insert_len]``."""
    codes = rng.integers(0, 4, length).astype(np.uint8)
    q_at = int(rng.integers(0, length - insert_len))
    codes[q_at : q_at + insert_len] = target.codes[t_at : t_at + insert_len]
    return Sequence(codes, "q"), q_at


def _strands(rng, target, counts):
    """One candidate set per strand: even candidates sit on the planted
    diagonal (they pass), odd ones are random (they fail)."""
    strands = []
    for number, count in enumerate(counts):
        t_at = int(rng.integers(0, len(target) - 300))
        query, q_at = _planted_query(rng, target, t_at)
        offsets = rng.integers(0, 300, count)
        t_pos = np.where(
            np.arange(count) % 2 == 0,
            t_at + offsets,
            rng.integers(0, len(target), count),
        ).astype(np.int64)
        q_pos = np.where(
            np.arange(count) % 2 == 0,
            q_at + offsets,
            rng.integers(0, len(query), count),
        ).astype(np.int64)
        strands.append((query, t_pos, q_pos, 1 if number % 2 == 0 else -1))
    return strands


class TestTileStream:
    """All strands of a unit as one tile stream vs per-strand calls."""

    PARAMS = FilterParams(tile_size=64, band=8, threshold=3000)

    @pytest.mark.parametrize("batch_size", [3, 7, 2048])
    @pytest.mark.parametrize(
        "counts", [(9, 0), (0, 9), (1, 8), (8, 1), (5, 1, 6), (0, 0)]
    )
    def test_stream_equals_per_strand_calls(self, scoring, counts, batch_size):
        rng = np.random.default_rng(sum(counts) * 100 + batch_size)
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8), "t")
        strands = _strands(rng, target, counts)
        streamed = list(
            gapped_filter_stream(
                target, strands, scoring, self.PARAMS, batch_size=batch_size
            )
        )
        assert streamed == [
            gapped_filter(
                target, query, t_pos, q_pos, scoring, self.PARAMS,
                strand=strand,
            )
            for query, t_pos, q_pos, strand in strands
        ]
        for result, (query, t_pos, q_pos, strand) in zip(streamed, strands):
            assert result.tiles == len(t_pos)
            # Strand tag and candidate order: the anchors are exactly
            # what one candidate at a time yields, concatenated.
            one_by_one = [
                anchor
                for t, q in zip(t_pos, q_pos)
                for anchor in gapped_filter(
                    target, query, np.array([t]), np.array([q]), scoring,
                    self.PARAMS, strand=strand,
                ).anchors
            ]
            assert result.anchors == one_by_one
            assert all(a.strand == strand for a in result.anchors)
        if sum(counts[::2]):
            assert any(r.anchors for r in streamed)  # the planted hits pass

    def test_strand_is_yielded_once_its_last_slab_is_scored(self, scoring):
        rng = np.random.default_rng(3)
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8), "t")
        strands = _strands(rng, target, (5, 12))
        tracer = Tracer()
        stream = gapped_filter_stream(
            target, strands, scoring, self.PARAMS, batch_size=4, tracer=tracer
        )

        def scored_tiles():
            return sum(
                s.counters["filter_tiles"]
                for s in tracer.walk()
                if s.name == "bsw_batch"
            )

        assert next(stream).tiles == 5
        assert scored_tiles() == 8  # slab 2 straddles into strand -
        assert next(stream).tiles == 12
        assert scored_tiles() == 17
        assert next(stream, None) is None
        filter_spans = [s for s in tracer.walk() if s.name == "gapped_filter"]
        assert [s.counters["filter_tiles"] for s in filter_spans] == [5, 12]
        assert [len(s.children) for s in filter_spans] == [2, 3]
