"""AXT and BED format tests."""

import io

import numpy as np
import pytest

from repro.align import Alignment, Cigar
from repro.genome import Interval, Sequence
from repro.io import (
    axt_string,
    bed_string,
    read_axt,
    read_bed,
    write_axt,
    write_bed,
)


@pytest.fixture
def pair(rng):
    target = Sequence(rng.integers(0, 4, 300).astype(np.uint8), "chrT")
    q_codes = rng.integers(0, 4, 300).astype(np.uint8)
    q_codes[50:250] = target.codes[40:240]
    return target, Sequence(q_codes, "chrQ")


def alignment(cigar_text="200=", t_start=40, q_start=50, strand=1):
    cigar = Cigar.parse(cigar_text)
    return Alignment(
        target_name="chrT",
        query_name="chrQ",
        target_start=t_start,
        target_end=t_start + cigar.target_span,
        query_start=q_start,
        query_end=q_start + cigar.query_span,
        score=777,
        cigar=cigar,
        strand=strand,
    )


class TestAxt:
    def test_roundtrip(self, pair):
        target, query = pair
        text = axt_string([alignment()], target, query)
        (parsed,) = read_axt(io.StringIO(text))
        assert parsed.target_start == 40
        assert parsed.query_start == 50
        assert parsed.score == 777
        assert parsed.cigar == Cigar.parse("200=")
        parsed.verify(target, query)

    def test_header_coordinates_one_based_inclusive(self, pair):
        target, query = pair
        text = axt_string([alignment()], target, query)
        header = text.splitlines()[0].split()
        assert header[2] == "41"  # 1-based start
        assert header[3] == "240"  # end-inclusive

    def test_gapped_roundtrip(self, rng):
        target = Sequence.from_string("ACGTACGTAC", "t")
        query = Sequence.from_string("ACGTCGTAC", "q")
        original = Alignment(
            target_name="t",
            query_name="q",
            target_start=0,
            target_end=10,
            query_start=0,
            query_end=9,
            score=5,
            cigar=Cigar.parse("4=1D5="),
        )
        text = axt_string([original], target, query)
        (parsed,) = read_axt(io.StringIO(text))
        assert parsed.cigar == original.cigar

    def test_file_roundtrip(self, pair, tmp_path):
        target, query = pair
        path = tmp_path / "out.axt"
        write_axt([alignment()], target, query, path)
        assert len(read_axt(path)) == 1

    def test_comments_skipped(self, pair):
        target, query = pair
        text = "# header comment\n" + axt_string(
            [alignment()], target, query
        )
        assert len(read_axt(io.StringIO(text))) == 1

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            read_axt(io.StringIO("0 chrT 1 2\nAC\nAC\n\n"))

    def test_minus_strand(self, pair):
        target, query = pair
        text = axt_string(
            [alignment(strand=-1)], target, query
        )
        (parsed,) = read_axt(io.StringIO(text))
        assert parsed.strand == -1

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "0 chr1 1 4 chr2 1 4 ? 8\nACGT\nACGT\n",
                "line 1: strand must be '+' or '-', not '?'",
            ),
            (
                "0 chr1 0 3 chr2 1 4 + 8\nACGT\nACGT\n",
                "line 1: start 0 is not 1-based",
            ),
            (
                "0 chr1 1 4 chr2 0 3 + 8\nACGT\nACGT\n",
                "line 1: start 0 is not 1-based",
            ),
            ("# c\n\n0 chrT 1 2\nAC\nAC\n\n", "line 3: malformed AXT header"),
            (
                "0 chr1 1 2 chr2 1 2 + 8\nAC\nAC\n\n"
                "1 chr1 3 4 chr2 3 4 + 8\nAC\n",
                "line 5: truncated AXT block",
            ),
            (
                "0 chr1 x 2 chr2 1 2 + 8\nAC\nAC\n",
                "line 1: invalid literal for int() with base 10: 'x'",
            ),
        ],
        ids=[
            "strand",
            "target_start_zero",
            "query_start_zero",
            "header",
            "truncated",
            "integer",
        ],
    )
    def test_malformed_block_is_named(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            read_axt(io.StringIO(text))
        assert str(excinfo.value).startswith(message)


class TestBed:
    def test_roundtrip(self):
        intervals = [
            Interval(10, 50, name="exon0"),
            Interval(100, 160, name="exon1", strand=-1),
        ]
        text = bed_string(intervals, "chr1")
        rows = read_bed(io.StringIO(text))
        assert [chrom for chrom, _ in rows] == ["chr1", "chr1"]
        assert rows[0][1] == intervals[0]
        assert rows[1][1].strand == -1

    def test_minimal_three_columns(self):
        rows = read_bed(io.StringIO("chr2 5 25\n"))
        assert rows == [("chr2", Interval(5, 25))]

    def test_track_and_comment_lines_skipped(self):
        text = "track name=exons\n# comment\nchr1\t0\t10\n"
        assert len(read_bed(io.StringIO(text))) == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_bed(io.StringIO("chr1 5\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chr1\t-5\t3\n", "line 1: negative start -5"),
            ("# c\nchr1\tx\t3\n", "line 2: invalid literal for int()"),
            ("chr1\t0\t3\nchr1\t1\ty\n", "line 2: invalid literal for int()"),
            ("track name=a\nchr1 5\n", "line 2: malformed BED row"),
            ("chr1\t9\t3\n", "line 1: interval end before start"),
        ],
        ids=["negative_start", "start", "end", "short_row", "reversed"],
    )
    def test_malformed_row_is_named(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            read_bed(io.StringIO(text))
        assert str(excinfo.value).startswith(message)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exons.bed"
        write_bed([Interval(1, 2, name="x")], "chr9", path)
        rows = read_bed(path)
        assert rows[0][0] == "chr9"

    def test_cli_bed_output_parses(self, tmp_path):
        """The CLI's generate subcommand emits parseable BED."""
        from repro.cli import main

        main(
            [
                "generate",
                "--length",
                "4000",
                "--exons",
                "4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        rows = read_bed(tmp_path / "target_exons.bed")
        assert len(rows) == 4
