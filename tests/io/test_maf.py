"""MAF format tests."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import Alignment, Cigar
from repro.core import DarwinWGA
from repro.genome import Sequence
from repro.io import (
    axt_string,
    maf_string,
    read_maf,
    write_assembly_maf,
    write_axt,
    write_maf,
)
from repro.io.maf import _cigar_from_texts, _gapped_texts

from .. import reference


@pytest.fixture
def pair(rng):
    target = Sequence(rng.integers(0, 4, 400).astype(np.uint8), "chrT")
    q_codes = rng.integers(0, 4, 400).astype(np.uint8)
    q_codes[100:300] = target.codes[50:250]
    return target, Sequence(q_codes, "chrQ")


class TestRoundtrip:
    def test_simple_roundtrip(self, pair):
        target, query = pair
        alignment = Alignment(
            target_name="chrT",
            query_name="chrQ",
            target_start=50,
            target_end=250,
            query_start=100,
            query_end=300,
            score=12345,
            cigar=Cigar.from_runs([("=", 200)]),
        )
        text = maf_string([alignment], target, query)
        (parsed,) = read_maf(io.StringIO(text))
        assert parsed.target_start == 50
        assert parsed.query_start == 100
        assert parsed.score == 12345
        assert parsed.cigar == alignment.cigar

    def test_gapped_roundtrip(self, rng):
        target = Sequence.from_string("ACGTACGTAC", "t")
        query = Sequence.from_string("ACGTCGTAC", "q")  # A deleted at 4
        alignment = Alignment(
            target_name="t",
            query_name="q",
            target_start=0,
            target_end=10,
            query_start=0,
            query_end=9,
            score=10,
            cigar=Cigar.parse("4=1D5="),
        )
        text = maf_string([alignment], target, query)
        (parsed,) = read_maf(io.StringIO(text))
        assert parsed.cigar == alignment.cigar

    def test_file_roundtrip(self, pair, tmp_path):
        target, query = pair
        alignment = Alignment(
            target_name="chrT",
            query_name="chrQ",
            target_start=50,
            target_end=250,
            query_start=100,
            query_end=300,
            score=1,
            cigar=Cigar.from_runs([("=", 200)]),
        )
        path = tmp_path / "out.maf"
        write_maf([alignment], target, query, path)
        assert len(read_maf(path)) == 1

    def test_pipeline_output_roundtrips(self, small_pair):
        target = small_pair.target.genome
        query = small_pair.query.genome
        result = DarwinWGA().align(target, query)
        text = maf_string(result.alignments, target, query)
        parsed = read_maf(io.StringIO(text))
        assert len(parsed) == len(result.alignments)
        for original, recovered in zip(result.alignments, parsed):
            assert recovered.cigar == original.cigar
            assert recovered.strand == original.strand
            recovered.verify(target, query)

    def test_minus_strand_coordinates(self):
        target = Sequence.from_string("ACGT", "t")
        query = Sequence.from_string("ACGT", "q")
        alignment = Alignment(
            target_name="t",
            query_name="q",
            target_start=0,
            target_end=4,
            query_start=0,
            query_end=4,
            score=4,
            cigar=Cigar.parse("4="),
            strand=-1,
        )
        text = maf_string([alignment], target, query)
        assert " - " in text
        (parsed,) = read_maf(io.StringIO(text))
        assert parsed.strand == -1


class TestFormat:
    def test_header_present(self, pair):
        target, query = pair
        assert maf_string([], target, query).startswith("##maf")

    def test_both_gap_column_rejected(self):
        bad = "##maf\na score=1\ns t 0 1 + 4 A-\ns q 0 1 + 4 A-\n\n"
        with pytest.raises(ValueError):
            read_maf(io.StringIO(bad))

    def test_rows_of_unequal_length_rejected(self):
        bad = "##maf\na score=1\ns t 0 2 + 4 AC\ns q 0 1 + 4 A\n\n"
        with pytest.raises(ValueError, match="differ in length"):
            read_maf(io.StringIO(bad))

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "##maf\na score=abc\n",
                "line 2: could not convert string to float: 'abc'",
            ),
            (
                "##maf\na score=1\ns q 0 x + 10 ACGT\n",
                "line 3: invalid literal for int() with base 10: 'x'",
            ),
            ("##maf\na score=1\ns t 0 4 +\n", "line 3: 's' line needs 7"),
            (
                "##maf\na score=1\ns t 0 2 + 4 AC\ns q 0 1 + 4 A\n\n",
                "line 4: MAF rows differ in length",
            ),
        ],
        ids=["score", "integer", "short_line", "unequal_rows"],
    )
    def test_malformed_line_is_named(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            read_maf(io.StringIO(text))
        assert str(excinfo.value).startswith(message)

    def test_n_is_a_mismatch_and_case_is_ignored(self):
        assert str(_cigar_from_texts("ACNnacg-T", "acNNAG-TT")) == (
            "2=2X1=1X1D1I1="
        )


def block(strand=1, cigar="10=", t_start=4, q_start=0):
    cigar = Cigar.parse(cigar)
    return Alignment(
        target_name="t",
        query_name="q",
        target_start=t_start,
        target_end=t_start + cigar.target_span,
        query_start=q_start,
        query_end=q_start + cigar.query_span,
        score=10,
        cigar=cigar,
        strand=strand,
    )


def write_assembly(alignments, target, query, destination):
    write_assembly_maf(alignments, [target], [query], destination)


class TestOverrun:
    """A block that runs past the sequence it is written against (a MAF
    paired with the wrong FASTA) used to be clamped into a malformed
    block; every writer now refuses it and writes nothing of it."""

    LONG = Sequence.from_string("ACGTACGTACGTACGTACGT", "long")
    SHORT = Sequence.from_string("ACGTACGTAC", "short")

    @pytest.mark.parametrize("writer", [write_maf, write_axt, write_assembly])
    @pytest.mark.parametrize("strand", [1, -1])
    @pytest.mark.parametrize(
        "side, alignment_kwargs",
        [
            ("target", dict(t_start=4, q_start=0)),
            ("query", dict(t_start=0, q_start=4)),
            ("target", dict(t_start=-2, q_start=0)),
            ("query", dict(t_start=0, q_start=-2)),
        ],
    )
    def test_refused_before_anything_of_the_block_is_written(
        self, writer, strand, side, alignment_kwargs
    ):
        names = {"target": "t", "query": "q"}
        target = Sequence(
            (self.SHORT if side == "target" else self.LONG).codes, "t"
        )
        query = Sequence(
            (self.SHORT if side == "query" else self.LONG).codes, "q"
        )
        good = block(strand, t_start=0, q_start=0)
        bad = block(strand, **alignment_kwargs)
        only_good = io.StringIO()
        writer([good], target, query, only_good)
        buffer = io.StringIO()
        with pytest.raises(ValueError) as excinfo:
            writer([good, bad], target, query, buffer)
        message = str(excinfo.value)
        assert repr(names[side]) in message and "10 bp" in message
        assert "t x q block" in message
        assert buffer.getvalue() == only_good.getvalue()

    def test_the_issue_s_example(self):
        target = Sequence.from_string("ACGTACGTAC", "t")
        with pytest.raises(ValueError, match=r"\[4, 14\).*'t'.*10 bp"):
            maf_string([block()], target, self.LONG)

    def test_a_block_that_ends_at_the_sequence_end_is_written(self):
        target = Sequence.from_string("ACGTACGTAC", "t")
        for strand in (1, -1):
            text = maf_string(
                [block(strand, "6=", t_start=4, q_start=14)], target, self.LONG
            )
            (parsed,) = read_maf(io.StringIO(text))
            assert (parsed.target_end, parsed.query_end) == (10, 20)


CODES = st.lists(st.integers(0, 4), min_size=0, max_size=12)


@st.composite
def written_blocks(draw):
    """(alignment, target, query) with the CIGAR read off two gapped
    rows, so ``=``/``X`` are true of the sequences — and leading,
    trailing and adjacent gaps, N columns and both strands all occur."""
    columns = draw(
        st.lists(
            st.tuples(st.sampled_from("MID"), st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=60,
        )
    )
    strand = draw(st.sampled_from([1, -1]))
    t_codes = [t for kind, t, _ in columns if kind != "I"]
    q_codes = [q for kind, _, q in columns if kind != "D"]
    runs = []
    for kind, t, q in columns:
        if kind == "M":
            kind = "=" if t == q and t < 4 else "X"
        runs.append((kind, 1))
    cigar = Cigar.from_runs(runs)
    left_t, right_t, left_q, right_q = (draw(CODES) for _ in range(4))
    target = Sequence(
        np.array(left_t + t_codes + right_t, dtype=np.uint8), "chrT"
    )
    on_strand = Sequence(
        np.array(left_q + q_codes + right_q, dtype=np.uint8), "chrQ"
    )
    query = on_strand if strand == 1 else on_strand.reverse_complement()
    alignment = Alignment(
        target_name="chrT",
        query_name="chrQ",
        target_start=len(left_t),
        target_end=len(left_t) + len(t_codes),
        query_start=len(left_q),
        query_end=len(left_q) + len(q_codes),
        score=draw(st.integers(-5, 10**6)),
        cigar=cigar,
        strand=strand,
    )
    return alignment, Sequence(target.codes, "chrT"), Sequence(query.codes, "chrQ")


class TestArrayFormsEqualTheFrozenLoops:
    @settings(max_examples=200, deadline=None)
    @given(written_blocks())
    def test_write_then_read_gives_the_alignment_back(self, drawn):
        alignment, target, query = drawn
        alignment.verify(target, query)
        texts = _gapped_texts(alignment, target, query)
        assert texts == reference.gapped_texts_reference(
            alignment, target, query
        )
        assert _cigar_from_texts(*texts) == (
            reference.cigar_from_texts_reference(*texts)
        )
        (parsed,) = read_maf(io.StringIO(maf_string([alignment], target, query)))
        assert parsed == alignment
        assert axt_string([alignment], target, query).splitlines()[1:3] == list(
            texts
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ACGTNacgtn-"), st.sampled_from("ACGTNacgtn-")
            ),
            max_size=80,
        )
    )
    def test_reader_on_arbitrary_rows(self, columns):
        t_text = "".join(t for t, _ in columns)
        q_text = "".join(q for _, q in columns)
        try:
            expected = reference.cigar_from_texts_reference(t_text, q_text)
        except ValueError:
            with pytest.raises(ValueError, match="gaps in both rows"):
                _cigar_from_texts(t_text, q_text)
        else:
            assert _cigar_from_texts(t_text, q_text) == expected
