"""BED interval format (annotations such as exons).

BED is the lingua franca for genome annotations (the Ensembl exon sets
of the paper's Table III analysis travel as BED-like interval lists).
Rows are ``chrom  start  end  [name  [score  [strand]]]`` with half-open
0-based coordinates — the same convention as
:class:`repro.genome.evolution.Interval`.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, TextIO, Tuple, Union

from ..genome.evolution import Interval

_PathOrFile = Union[str, Path, TextIO]


def _opened(source: _PathOrFile, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def write_bed(
    intervals: Iterable[Interval],
    chrom: str,
    destination: _PathOrFile,
) -> None:
    """Write intervals of one sequence as BED rows."""
    handle, needs_close = _opened(destination, "w")
    try:
        for interval in intervals:
            strand = "+" if interval.strand == 1 else "-"
            handle.write(
                f"{chrom}\t{interval.start}\t{interval.end}\t"
                f"{interval.name or '.'}\t0\t{strand}\n"
            )
    finally:
        if needs_close:
            handle.close()


def bed_string(intervals: Iterable[Interval], chrom: str) -> str:
    buffer = io.StringIO()
    write_bed(intervals, chrom, buffer)
    return buffer.getvalue()


def read_bed(source: _PathOrFile) -> List[Tuple[str, Interval]]:
    """Parse BED rows into ``(chrom, Interval)`` pairs.

    Track lines, comments and blank lines are skipped; missing optional
    columns default to an unnamed forward-strand interval.  A malformed
    row raises ``ValueError("line N: ...")``.
    """
    handle, needs_close = _opened(source, "r")
    try:
        rows: List[Tuple[str, Interval]] = []
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if (
                not line
                or line.startswith("#")
                or line.startswith("track")
                or line.startswith("browser")
            ):
                continue
            fields = line.split("\t") if "\t" in line else line.split()
            name = fields[3] if len(fields) > 3 and fields[3] != "." else ""
            strand = -1 if len(fields) > 5 and fields[5] == "-" else 1
            try:
                if len(fields) < 3:
                    raise ValueError(f"malformed BED row: {line!r}")
                if int(fields[1]) < 0:
                    raise ValueError(f"negative start {fields[1]}")
                interval = Interval(
                    int(fields[1]), int(fields[2]), name, strand
                )
            except ValueError as error:
                raise ValueError(f"line {number}: {error}") from None
            rows.append((fields[0], interval))
        return rows
    finally:
        if needs_close:
            handle.close()
