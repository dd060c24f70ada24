"""MAF (Multiple Alignment Format) writer/reader.

Both LASTZ and Darwin-WGA emit MAF (paper section V-E); AXTCHAIN consumes
it.  Each alignment becomes an ``a``-block with two ``s`` lines; reading a
MAF reconstructs :class:`~repro.align.alignment.Alignment` objects (the
CIGAR is rebuilt from the gapped texts).
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, List, TextIO, Union

import numpy as np

from ..align.alignment import Alignment
from ..align.cigar import DELETION, INSERTION, MATCH, MISMATCH, Cigar
from ..genome import alphabet
from ..genome.sequence import Sequence

_PathOrFile = Union[str, Path, TextIO]
_GAP = ord("-")


def _opened(source: _PathOrFile, mode: str):
    """A context manager: a path is opened (and closed on exit), an
    open file is passed through and left open."""
    if isinstance(source, (str, Path)):
        return open(source, mode)
    return nullcontext(source)


def _gapped_texts(
    alignment: Alignment, target: Sequence, query: Sequence
) -> (str, str):
    """Both gapped rows; raises before returning either if the block
    overruns a sequence (``Sequence.slice`` would clamp the row short)."""
    ops = alignment.cigar.columns()
    rows = []
    for seq, start, end, strand, gap in (
        (target, alignment.target_start, alignment.target_end, 1, INSERTION),
        (query, alignment.query_start, alignment.query_end,
         alignment.strand, DELETION),
    ):
        if start < 0 or end > len(seq):
            raise ValueError(
                f"[{start}, {end}) of the {alignment.target_name or 'target'}"
                f" x {alignment.query_name or 'query'} block overruns "
                f"{seq.name!r}, which is {len(seq)} bp long"
            )
        if strand == 1:
            codes = seq.codes[start:end]
        else:  # coordinates on the reverse complement
            codes = alphabet.reverse_complement(
                seq.codes[len(seq) - end : len(seq) - start]
            )
        row = np.full(ops.size, _GAP, dtype=np.uint8)
        row[ops != gap] = alphabet.ascii_codes(codes)
        rows.append(row.tobytes().decode("ascii"))
    return tuple(rows)


def _write_block(
    handle: TextIO, alignment: Alignment, target: Sequence, query: Sequence
) -> None:
    t_text, q_text = _gapped_texts(alignment, target, query)
    handle.write(f"a score={alignment.score}\n")
    handle.write(
        f"s {alignment.target_name or 'target'} "
        f"{alignment.target_start} {alignment.target_span} + "
        f"{len(target)} {t_text}\n"
    )
    strand = "+" if alignment.strand == 1 else "-"
    handle.write(
        f"s {alignment.query_name or 'query'} "
        f"{alignment.query_start} {alignment.query_span} {strand} "
        f"{len(query)} {q_text}\n"
    )
    handle.write("\n")


def write_maf(
    alignments: Iterable[Alignment],
    target: Sequence,
    query: Sequence,
    destination: _PathOrFile,
) -> None:
    """Write alignments as MAF blocks."""
    with _opened(destination, "w") as handle:
        handle.write("##maf version=1 scoring=lastz-default\n")
        for alignment in alignments:
            _write_block(handle, alignment, target, query)


def write_assembly_maf(
    alignments: Iterable[Alignment],
    target_assembly,
    query_assembly,
    destination: _PathOrFile,
) -> None:
    """Write whole-assembly alignments as MAF blocks.

    Unlike :func:`write_maf`, the alignments may span many chromosome
    pairs; each block's sequences are looked up by the alignment's
    recorded chromosome names in the two assemblies (any iterable of
    uniquely named :class:`Sequence` objects).
    """
    targets = {seq.name: seq for seq in target_assembly}
    queries = {seq.name: seq for seq in query_assembly}
    with _opened(destination, "w") as handle:
        handle.write("##maf version=1 scoring=lastz-default\n")
        for alignment in alignments:
            _write_block(
                handle,
                alignment,
                targets[alignment.target_name],
                queries[alignment.query_name],
            )


def maf_string(
    alignments: Iterable[Alignment], target: Sequence, query: Sequence
) -> str:
    buffer = io.StringIO()
    write_maf(alignments, target, query, buffer)
    return buffer.getvalue()


def _cigar_from_texts(t_text: str, q_text: str) -> Cigar:
    if len(t_text) != len(q_text):
        raise ValueError("MAF rows differ in length")
    t = np.frombuffer(t_text.encode("ascii").upper(), dtype=np.uint8)
    q = np.frombuffer(q_text.encode("ascii").upper(), dtype=np.uint8)
    t_gap, q_gap = t == _GAP, q == _GAP
    if (t_gap & q_gap).any():
        raise ValueError("MAF column with gaps in both rows")
    ops = np.where((t == q) & (t != ord("N")), MATCH, MISMATCH)
    ops[q_gap] = DELETION
    ops[t_gap] = INSERTION
    return Cigar.from_columns(ops)


def read_maf(source: _PathOrFile) -> List[Alignment]:
    """Parse a two-species MAF back into alignments.

    A malformed line raises ``ValueError("line N: ...")``.
    """
    with _opened(source, "r") as handle:
        alignments: List[Alignment] = []
        score = 0
        rows: List[tuple] = []
        for number, line in enumerate(list(handle) + [""], 1):
            line = line.strip()
            try:
                if line.startswith("a"):
                    fields = dict(f.partition("=")[::2] for f in line.split())
                    score = int(float(fields.get("score", 0)))
                    rows = []
                elif line.startswith("s"):
                    parts = line.split()
                    if len(parts) < 7:
                        raise ValueError("'s' line needs 7 fields")
                    name, pos, size, strand, length, text = parts[1:7]
                    if rows and len(text) != len(rows[0][-1]):
                        raise ValueError("MAF rows differ in length")
                    int(length)  # unused, but must be a number
                    rows.append((name, int(pos), int(size), strand, text))
                elif not line and len(rows) == 2:
                    (t_name, t_start, t_size, _, t_text) = rows[0]
                    (q_name, q_start, q_size, q_strand, q_text) = rows[1]
                    alignments.append(
                        Alignment(
                            target_name=t_name,
                            query_name=q_name,
                            target_start=t_start,
                            target_end=t_start + t_size,
                            query_start=q_start,
                            query_end=q_start + q_size,
                            score=score,
                            cigar=_cigar_from_texts(t_text, q_text),
                            strand=1 if q_strand == "+" else -1,
                        )
                    )
                    rows = []
            except ValueError as error:
                raise ValueError(f"line {number}: {error}") from None
        return alignments
