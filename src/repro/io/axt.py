"""AXT pairwise alignment format.

AXT is the format Kent's original chaining tools consume (axtChain's
native input; the paper's AXTCHAIN post-processing step).  Each block is
a header line::

    index tName tStart tEnd qName qStart qEnd strand score

(1-based, end-inclusive coordinates; query coordinates on the query
strand) followed by the two gapped sequence lines and a blank line.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, TextIO, Union

from ..align.alignment import Alignment
from ..genome.sequence import Sequence
from .maf import _cigar_from_texts, _gapped_texts

_PathOrFile = Union[str, Path, TextIO]


def _opened(source: _PathOrFile, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def write_axt(
    alignments: Iterable[Alignment],
    target: Sequence,
    query: Sequence,
    destination: _PathOrFile,
) -> None:
    """Write alignments as AXT blocks."""
    handle, needs_close = _opened(destination, "w")
    try:
        for index, alignment in enumerate(alignments):
            t_text, q_text = _gapped_texts(alignment, target, query)
            strand = "+" if alignment.strand == 1 else "-"
            handle.write(
                f"{index} "
                f"{alignment.target_name or 'target'} "
                f"{alignment.target_start + 1} {alignment.target_end} "
                f"{alignment.query_name or 'query'} "
                f"{alignment.query_start + 1} {alignment.query_end} "
                f"{strand} {alignment.score}\n"
            )
            handle.write(t_text + "\n")
            handle.write(q_text + "\n")
            handle.write("\n")
    finally:
        if needs_close:
            handle.close()


def axt_string(
    alignments: Iterable[Alignment], target: Sequence, query: Sequence
) -> str:
    buffer = io.StringIO()
    write_axt(alignments, target, query, buffer)
    return buffer.getvalue()


def read_axt(source: _PathOrFile) -> List[Alignment]:
    """Parse AXT blocks; a bad one raises ``ValueError("line N: ...")``."""
    handle, needs_close = _opened(source, "r")
    try:
        alignments: List[Alignment] = []
        lines = [line.rstrip("\n") for line in handle]
        i = 0
        while i < len(lines):
            line = lines[i].strip()
            if not line or line.startswith("#"):
                i += 1
                continue
            try:
                fields = line.split()
                if len(fields) != 9:
                    raise ValueError(f"malformed AXT header: {line!r}")
                if i + 2 >= len(lines):
                    raise ValueError("truncated AXT block")
                if fields[7] not in ("+", "-"):
                    raise ValueError(
                        f"strand must be '+' or '-', not {fields[7]!r}"
                    )
                for start in (fields[2], fields[5]):
                    if int(start) < 1:
                        raise ValueError(f"start {start} is not 1-based")
                t_text = lines[i + 1].strip()
                q_text = lines[i + 2].strip()
                alignments.append(
                    Alignment(
                        target_name=fields[1],
                        query_name=fields[4],
                        target_start=int(fields[2]) - 1,
                        target_end=int(fields[3]),
                        query_start=int(fields[5]) - 1,
                        query_end=int(fields[6]),
                        score=int(fields[8]),
                        cigar=_cigar_from_texts(t_text, q_text),
                        strand=1 if fields[7] == "+" else -1,
                    )
                )
            except ValueError as error:
                raise ValueError(f"line {i + 1}: {error}") from None
            i += 3
        return alignments
    finally:
        if needs_close:
            handle.close()
