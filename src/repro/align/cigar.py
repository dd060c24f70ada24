"""CIGAR strings describing alignment paths.

Operations follow the extended SAM convention: ``=`` match, ``X`` mismatch,
``I`` insertion (extra bases in the query), ``D`` deletion (extra bases in
the target).  All pipeline stages that trace back emit CIGARs, and every
downstream consumer (chaining, MAF output, metrics) walks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

#: Valid CIGAR operation characters.
OPS = ("=", "X", "I", "D")

#: Per-column op codes (each the index of its character in ``OPS``), the
#: form :meth:`Cigar.columns` / :meth:`Cigar.from_columns` trade in.
MATCH, MISMATCH, INSERTION, DELETION = range(4)

#: Operations that consume a target base.
CONSUMES_TARGET = {"=": True, "X": True, "I": False, "D": True}

#: Operations that consume a query base.
CONSUMES_QUERY = {"=": True, "X": True, "I": True, "D": False}


@dataclass(frozen=True)
class Cigar:
    """An immutable run-length encoded alignment path."""

    runs: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        for op, length in self.runs:
            if op not in OPS:
                raise ValueError(f"unknown CIGAR op {op!r}")
            if length <= 0:
                raise ValueError("CIGAR run lengths must be positive")

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[str, int]]) -> "Cigar":
        """Build a CIGAR, merging adjacent runs with the same operation."""
        merged: List[Tuple[str, int]] = []
        for op, length in runs:
            if length == 0:
                continue
            if merged and merged[-1][0] == op:
                merged[-1] = (op, merged[-1][1] + length)
            else:
                merged.append((op, length))
        return cls(tuple(merged))

    @classmethod
    def from_ops(cls, ops: Iterable[str]) -> "Cigar":
        """Build a CIGAR from a per-base operation sequence."""
        return cls.from_runs((op, 1) for op in ops)

    @classmethod
    def from_columns(cls, codes: np.ndarray) -> "Cigar":
        """Run-length encode one op code per alignment column."""
        codes = np.asarray(codes)
        if codes.size == 0:
            return cls(())
        starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1))
        lengths = np.diff(np.append(starts, codes.size))
        return cls(
            tuple(
                (OPS[code], length)
                for code, length in zip(
                    codes[starts].tolist(), lengths.tolist()
                )
            )
        )

    def columns(self) -> np.ndarray:
        """One op code per alignment column (``uint8``)."""
        codes = np.array([OPS.index(op) for op, _ in self.runs], np.uint8)
        return np.repeat(codes, [length for _, length in self.runs])

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse a CIGAR string such as ``'12=1X3D8='``."""
        runs: List[Tuple[str, int]] = []
        number = ""
        for char in text:
            if char.isdigit():
                number += char
            else:
                if not number:
                    raise ValueError(f"malformed CIGAR {text!r}")
                runs.append((char, int(number)))
                number = ""
        if number:
            raise ValueError(f"trailing count in CIGAR {text!r}")
        return cls.from_runs(runs)

    def __str__(self) -> str:
        return "".join(f"{length}{op}" for op, length in self.runs)

    def __len__(self) -> int:
        """Total number of alignment columns."""
        return sum(length for _, length in self.runs)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.runs)

    def __add__(self, other: "Cigar") -> "Cigar":
        return Cigar.from_runs(list(self.runs) + list(other.runs))

    def reversed(self) -> "Cigar":
        """The path read in the opposite direction."""
        return Cigar(tuple(reversed(self.runs)))

    def count(self, op: str) -> int:
        """Total bases covered by runs of ``op``."""
        return sum(length for run_op, length in self.runs if run_op == op)

    @property
    def matches(self) -> int:
        """Number of exactly matching base pairs."""
        return self.count("=")

    @property
    def mismatches(self) -> int:
        return self.count("X")

    @property
    def target_span(self) -> int:
        """Number of target bases the path consumes."""
        return sum(
            length for op, length in self.runs if CONSUMES_TARGET[op]
        )

    @property
    def query_span(self) -> int:
        """Number of query bases the path consumes."""
        return sum(length for op, length in self.runs if CONSUMES_QUERY[op])

    @property
    def aligned_pairs(self) -> int:
        """Columns aligning a target base to a query base (match+mismatch)."""
        return self.matches + self.mismatches

    def identity(self) -> float:
        """Fraction of aligned columns that are exact matches."""
        pairs = self.aligned_pairs
        return self.matches / pairs if pairs else 0.0

    def gap_runs(self) -> List[Tuple[str, int]]:
        """All insertion/deletion runs in order."""
        return [(op, length) for op, length in self.runs if op in ("I", "D")]

    def ungapped_block_lengths(self) -> List[int]:
        """Lengths of maximal gap-free (match/mismatch) blocks.

        This is the statistic behind the paper's Figure 2: the distribution
        of ungapped alignment block sizes before an indel interrupts them.
        """
        blocks: List[int] = []
        current = 0
        for op, length in self.runs:
            if op in ("=", "X"):
                current += length
            elif current:
                blocks.append(current)
                current = 0
        if current:
            blocks.append(current)
        return blocks
