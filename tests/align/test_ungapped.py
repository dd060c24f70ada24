"""Ungapped X-drop extension tests."""

import numpy as np
import pytest

from repro.align import (
    ungapped_extend,
    ungapped_extend_batch,
    unit,
)
from repro.align.matrices import lastz_default
from repro.genome import Sequence


@pytest.fixture
def scoring():
    return unit(match=10, mismatch=-5, gap_open=15, gap_extend=5)


class TestSingle:
    def test_perfect_diagonal(self, scoring):
        t = Sequence.from_string("ACGTACGTAC")
        result = ungapped_extend(t, t, 4, 4, scoring, xdrop=20)
        assert result.score == 10 * 10
        assert result.target_start == 0
        assert result.target_end == 10

    def test_extension_stops_at_xdrop(self, scoring):
        # 6 matches then garbage: right extension should stop after the
        # matches once the score has dropped by more than xdrop.
        t = Sequence.from_string("ACGTAC" + "T" * 20)
        q = Sequence.from_string("ACGTAC" + "G" * 20)
        result = ungapped_extend(t, q, 0, 0, scoring, xdrop=12)
        assert result.score == 6 * 10
        assert result.target_end <= 9

    def test_left_extension(self, scoring):
        t = Sequence.from_string("ACGTACGT")
        result = ungapped_extend(t, t, 8, 8, scoring, xdrop=50)
        assert result.score == 80
        assert result.target_start == 0

    def test_mismatch_tolerated_within_xdrop(self, scoring):
        t = Sequence.from_string("ACGTACGTAA")
        q = Sequence.from_string("ACGTTCGTAA")
        result = ungapped_extend(t, q, 0, 0, scoring, xdrop=30)
        assert result.score == 9 * 10 - 5

    def test_no_positive_extension(self, scoring):
        t = Sequence.from_string("AAAA")
        q = Sequence.from_string("TTTT")
        result = ungapped_extend(t, q, 0, 0, scoring, xdrop=3)
        assert result.score == 0
        assert result.target_start == result.target_end == 0

    def test_boundary_clamping(self, scoring):
        t = Sequence.from_string("ACG")
        result = ungapped_extend(t, t, 0, 0, scoring, xdrop=100)
        assert result.score == 30
        assert result.cells <= 2 * len(t)

    def test_indel_breaks_diagonal(self, scoring):
        # An insertion shifts the frame; scores decorrelate after it.
        t = Sequence.from_string("ACGTACGT" + "ACGTACGTACGT")
        q = Sequence.from_string("ACGTACGT" + "G" + "ACGTACGTACG")
        full = ungapped_extend(t, q, 0, 0, scoring, xdrop=25)
        assert full.score <= 8 * 10 + 10  # cannot bridge the indel


class TestBatch:
    def test_batch_matches_single(self, rng):
        scoring = lastz_default()
        t = Sequence(rng.integers(0, 4, 600).astype(np.uint8), "t")
        q = Sequence(rng.integers(0, 4, 600).astype(np.uint8), "q")
        # plant identical segments to create real hits
        codes_q = q.codes.copy()
        codes_q[100:180] = t.codes[200:280]
        q = Sequence(codes_q, "q")
        t_pos = np.array([200, 240, 0, 599])
        q_pos = np.array([100, 140, 0, 599])
        scores, lspans, rspans = ungapped_extend_batch(
            t, q, t_pos, q_pos, scoring, xdrop=910, max_length=128
        )
        for i in range(t_pos.size):
            single = ungapped_extend(
                t,
                q,
                int(t_pos[i]),
                int(q_pos[i]),
                scoring,
                xdrop=910,
                max_length=128,
            )
            assert scores[i] == single.score
            if single.score > 0:
                assert rspans[i] == single.target_end - t_pos[i]
                assert lspans[i] == t_pos[i] - single.target_start

    def test_empty_batch(self, rng):
        scoring = lastz_default()
        t = Sequence(rng.integers(0, 4, 10).astype(np.uint8))
        scores, lspans, rspans = ungapped_extend_batch(
            t, t, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            scoring, xdrop=100,
        )
        assert scores.size == 0

    def test_pad_clamp_keeps_scores_for_edge_hits(self, rng):
        """The padded slab is clamped to the longest live extension.

        Hits at and near the sequence ends must return the same scores
        and spans as an unclamped run: clamping only removes columns
        that are out of range for *every* lane.  ``max_length`` far
        beyond the sequence length forces the clamp to bind.
        """
        scoring = lastz_default()
        t = Sequence(rng.integers(0, 4, 300).astype(np.uint8), "t")
        codes_q = rng.integers(0, 4, 300).astype(np.uint8)
        codes_q[:60] = t.codes[:60]  # hit at the very start
        codes_q[240:] = t.codes[240:]  # hit at the very end
        q = Sequence(codes_q, "q")
        t_pos = np.array([0, 30, 150, 270, 299])
        q_pos = np.array([0, 30, 150, 270, 299])
        # max_length=4096 >> 300: an unclamped implementation would pad
        # every lane out to 4096 boundary columns.
        scores, lspans, rspans = ungapped_extend_batch(
            t, q, t_pos, q_pos, scoring, xdrop=910, max_length=4096
        )
        for i in range(t_pos.size):
            single = ungapped_extend(
                t, q, int(t_pos[i]), int(q_pos[i]), scoring,
                xdrop=910, max_length=4096,
            )
            assert scores[i] == single.score, i
            if single.score > 0:
                assert rspans[i] == single.target_end - t_pos[i], i
                assert lspans[i] == t_pos[i] - single.target_start, i
        # The start/end hits really did extend to the boundary.
        assert lspans[0] == 0 and rspans[0] >= 60
        assert rspans[4] == 1 and lspans[4] >= 59

    def test_pad_clamp_zero_width_batch(self, rng):
        """All hits at position 0 of both sequences: left cap is zero."""
        scoring = lastz_default()
        t = Sequence(rng.integers(0, 4, 40).astype(np.uint8))
        scores, lspans, rspans = ungapped_extend_batch(
            t, t, np.array([0, 0]), np.array([0, 0]),
            scoring, xdrop=910, max_length=4096,
        )
        assert (lspans == 0).all()
        assert (scores > 0).all()

    def test_out_of_range_positions_score_zero_side(self, rng):
        # A self-hit at position 0 of a 50-base sequence under a 64-base
        # window: nothing to the left, the whole sequence to the right.
        scoring = lastz_default()
        t = Sequence(rng.integers(0, 4, 50).astype(np.uint8))
        scores, lspans, rspans = ungapped_extend_batch(
            t,
            t,
            np.array([0]),
            np.array([0]),
            scoring,
            xdrop=910,
            max_length=64,
        )
        single = ungapped_extend(t, t, 0, 0, scoring, xdrop=910, max_length=64)
        assert (single.target_start, single.target_end) == (0, 50)
        assert (scores[0], lspans[0], rspans[0]) == (single.score, 0, 50)
