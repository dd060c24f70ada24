"""Unit tests for CIGAR strings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align import Cigar
from repro.align.cigar import OPS

ops = st.sampled_from("=XID")
run_lists = st.lists(
    st.tuples(ops, st.integers(1, 50)), min_size=0, max_size=20
)


class TestConstruction:
    def test_from_runs_merges_adjacent(self):
        cigar = Cigar.from_runs([("=", 3), ("=", 2), ("X", 1)])
        assert cigar.runs == (("=", 5), ("X", 1))

    def test_from_runs_drops_zero_lengths(self):
        cigar = Cigar.from_runs([("=", 3), ("I", 0), ("X", 1)])
        assert cigar.runs == (("=", 3), ("X", 1))

    def test_from_ops(self):
        assert Cigar.from_ops("==XX=").runs == (("=", 2), ("X", 2), ("=", 1))

    def test_parse_and_str_roundtrip(self):
        text = "12=1X3D8=2I"
        assert str(Cigar.parse(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cigar.parse("12")
        with pytest.raises(ValueError):
            Cigar.parse("=12")

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Cigar((("M", 3),))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Cigar((("=", 0),))


class TestAccounting:
    @pytest.fixture
    def cigar(self):
        return Cigar.parse("10=2X3I5=4D1=")

    def test_length(self, cigar):
        assert len(cigar) == 25

    def test_spans(self, cigar):
        assert cigar.target_span == 10 + 2 + 5 + 4 + 1
        assert cigar.query_span == 10 + 2 + 3 + 5 + 1

    def test_matches_mismatches(self, cigar):
        assert cigar.matches == 16
        assert cigar.mismatches == 2

    def test_identity(self, cigar):
        assert cigar.identity() == pytest.approx(16 / 18)

    def test_identity_empty(self):
        assert Cigar(()).identity() == 0.0

    def test_gap_runs(self, cigar):
        assert cigar.gap_runs() == [("I", 3), ("D", 4)]

    def test_addition(self):
        left = Cigar.parse("3=")
        right = Cigar.parse("2=1X")
        assert str(left + right) == "5=1X"

    def test_reversed(self, cigar):
        assert cigar.reversed().runs == tuple(reversed(cigar.runs))


class TestUngappedBlocks:
    def test_blocks_split_at_gaps(self):
        cigar = Cigar.parse("10=1I5=2X1D7=")
        assert cigar.ungapped_block_lengths() == [10, 7, 7]

    def test_no_gaps_single_block(self):
        assert Cigar.parse("9=1X").ungapped_block_lengths() == [10]

    def test_leading_trailing_gaps(self):
        assert Cigar.parse("2I5=3D").ungapped_block_lengths() == [5]

    def test_empty(self):
        assert Cigar(()).ungapped_block_lengths() == []


class TestProperties:
    @given(run_lists)
    def test_lengths_consistent(self, runs):
        cigar = Cigar.from_runs(runs)
        assert len(cigar) == cigar.target_span + cigar.count("I")
        assert len(cigar) == cigar.query_span + cigar.count("D")

    @given(run_lists)
    def test_merging_is_idempotent(self, runs):
        once = Cigar.from_runs(runs)
        twice = Cigar.from_runs(once.runs)
        assert once == twice

    @given(run_lists)
    def test_reverse_involution(self, runs):
        cigar = Cigar.from_runs(runs)
        assert cigar.reversed().reversed() == cigar

    @given(run_lists)
    def test_parse_str_roundtrip(self, runs):
        cigar = Cigar.from_runs(runs)
        assert Cigar.parse(str(cigar)) == cigar

    @given(run_lists)
    def test_columns_roundtrip(self, runs):
        cigar = Cigar.from_runs(runs)
        columns = cigar.columns()
        assert "".join(OPS[code] for code in columns) == "".join(
            op * length for op, length in cigar.runs
        )
        assert Cigar.from_columns(columns) == cigar

    @given(run_lists)
    def test_block_lengths_sum_to_aligned_pairs(self, runs):
        cigar = Cigar.from_runs(runs)
        assert sum(cigar.ungapped_block_lengths()) == cigar.aligned_pairs
