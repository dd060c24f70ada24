"""Synthetic genome generation.

Real assemblies (ce11, cb4, dm6, ...) are not available offline, so the
benchmarks generate ancestral genomes with realistic base composition and
then evolve them into species pairs (see :mod:`repro.genome.evolution`).
Genomes are generated with a first-order Markov model over dinucleotides
because dinucleotide statistics are pronounced in real genomes (the paper's
noise analysis explicitly preserves 2-mer statistics when shuffling).

The chain is sampled without a per-base Python loop.  One uniform draw
decides step ``i`` for every possible previous base at once, so step
``i`` is a map {A,C,G,T} -> {A,C,G,T}, packed into one byte (2 bits per
source base).  Base ``i`` is the composition of maps ``1..i`` applied to
the first base: an inclusive prefix scan over an associative operator,
computed with log-step (Hillis-Steele) passes, each one lookup into a
256x256 composition table.  The maps are built from the same uniforms
with the same comparisons the per-base walk made, so the output is
byte-identical to walking the chain one base at a time, and the RNG is
left in the same state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence as TypingSequence

import numpy as np

from . import alphabet
from .sequence import Sequence

#: Dinucleotide transition matrix loosely modelled on the depletion of CpG
#: and enrichment of TpA-like patterns seen in animal genomes.  Rows are the
#: previous base (A, C, G, T), columns the next base; rows sum to 1.
DEFAULT_DINUCLEOTIDE_MODEL = np.array(
    [
        [0.32, 0.18, 0.22, 0.28],
        [0.30, 0.25, 0.06, 0.39],
        [0.26, 0.23, 0.25, 0.26],
        [0.22, 0.20, 0.26, 0.32],
    ]
)


def uniform_genome(
    length: int,
    rng: np.random.Generator,
    gc: float = 0.42,
    name: str = "synthetic",
) -> Sequence:
    """Generate an i.i.d. genome with the requested GC content."""
    if not 0.0 <= gc <= 1.0:
        raise ValueError("gc must lie in [0, 1]")
    at = (1.0 - gc) / 2.0
    probs = np.array([at, gc / 2.0, gc / 2.0, at])
    codes = rng.choice(alphabet.NUM_NUCLEOTIDES, size=length, p=probs)
    return Sequence(codes.astype(np.uint8), name=name)


#: Steps sampled per scan.  Bounds the scan's temporaries to a few
#: hundred kB whatever the genome length; a scan costs log2 of its length
#: in passes, so chunks also keep the work per base from growing.
_SCAN_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _composition_table() -> np.ndarray:
    """``table[later << 8 | earlier]``: the packed map ``later o earlier``.

    A packed map holds, in bits ``2s..2s+1``, the base that follows base
    ``s``.  The table is flat so that a pass of the scan is one ``take``.
    """
    later = np.arange(256, dtype=np.intp)[:, None]
    earlier = np.arange(256, dtype=np.intp)[None, :]
    table = np.zeros((256, 256), dtype=np.intp)
    for source in range(alphabet.NUM_NUCLEOTIDES):
        middle = (earlier >> (2 * source)) & 3
        table |= ((later >> (2 * middle)) & 3) << (2 * source)
    flat = table.astype(np.uint8).ravel()
    flat.setflags(write=False)  # one copy, shared by every call
    return flat


def markov_genome(
    length: int,
    rng: np.random.Generator,
    transition_matrix: Optional[np.ndarray] = None,
    name: str = "synthetic",
) -> Sequence:
    """Generate a genome from a first-order Markov (dinucleotide) model.

    ``transition_matrix[prev, next]`` gives the probability of emitting
    ``next`` after ``prev``; entries must be non-negative and rows must
    sum to 1.

    The draws are ``rng.random(length)`` and then ``rng.integers(4)`` for
    the first base.  Base ``i`` follows base ``i - 1 = s`` as the number
    of the first three entries of row ``s``'s cumulative sum that lie
    below ``uniforms[i]``: ``searchsorted`` on the row with its last
    entry pinned to 1, which every draw lies below.  (A row that sums to
    a little under 1 passes validation; unpinned, a draw above its sum
    would be base 4.)  The four outcomes of step ``i`` form one packed
    map, and the maps are composed by a prefix scan (module docstring)
    in chunks of ``_SCAN_CHUNK`` steps that carry the last base across.
    The comparisons are exact, composition is associative, and the scan
    only regroups compositions, so the bases are those of the per-base
    walk.  Memory beyond the ``uniforms`` and the output is a few
    chunk-sized arrays.
    """
    matrix = (
        DEFAULT_DINUCLEOTIDE_MODEL
        if transition_matrix is None
        else np.asarray(transition_matrix, dtype=float)
    )
    if matrix.shape != (4, 4):
        raise ValueError("transition matrix must be 4x4")
    if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("transition matrix rows must sum to 1")
    if (matrix < 0).any():
        raise ValueError("transition matrix entries must be non-negative")
    if length <= 0:
        return Sequence(np.empty(0, dtype=np.uint8), name=name)

    cumulative = np.cumsum(matrix, axis=1)
    uniforms = rng.random(length)
    codes = np.empty(length, dtype=np.uint8)
    base = int(rng.integers(alphabet.NUM_NUCLEOTIDES))
    codes[0] = base
    table = _composition_table()
    for start in range(1, length, _SCAN_CHUNK):
        draws = uniforms[start : start + _SCAN_CHUNK]
        # maps[k], bits 2s..2s+1: the base after s at step start + k.
        maps = np.zeros(draws.size, dtype=np.uint8)
        for source in range(alphabet.NUM_NUCLEOTIDES):
            nxt = (draws > cumulative[source, 0]).view(np.uint8)
            nxt += draws > cumulative[source, 1]
            nxt += draws > cumulative[source, 2]
            nxt <<= 2 * source
            maps |= nxt
        # After the pass at offset ``step``, maps[k] composes the steps
        # k - 2 * step + 1 .. k of this chunk (those from 0 when fewer).
        step = 1
        while step < maps.size:
            pair = maps[step:].astype(np.intp) << 8
            pair |= maps[:-step]
            maps[step:] = table.take(pair)
            step <<= 1
        # Apply each composed map to the base the chunk starts from.
        chunk = codes[start : start + draws.size]
        np.right_shift(maps, 2 * base, out=chunk)
        chunk &= 3
        base = int(chunk[-1])
    return Sequence(codes, name=name)


def plant_repeats(
    genome: Sequence,
    rng: np.random.Generator,
    count: int,
    repeat_length: int,
    family_size: int = 1,
) -> Sequence:
    """Overwrite random loci with copies of repeat elements.

    Repeats are what make seeding noisy (high false-positive seed-hit rates,
    paper section III-A), so benchmark genomes plant a configurable number
    of near-identical repeat copies drawn from ``family_size`` families.

    Returns a new genome; the input is unmodified.
    """
    if count <= 0 or repeat_length <= 0 or repeat_length > len(genome):
        return genome
    codes = genome.codes.copy()
    families = [
        rng.integers(
            alphabet.NUM_NUCLEOTIDES, size=repeat_length, dtype=np.uint8
        )
        for _ in range(max(1, family_size))
    ]
    max_start = len(genome) - repeat_length
    for _ in range(count):
        family = families[rng.integers(len(families))]
        start = int(rng.integers(max_start + 1))
        copy = family.copy()
        # Each copy diverges slightly from its family consensus.
        n_mut = rng.binomial(repeat_length, 0.05)
        if n_mut:
            sites = rng.choice(repeat_length, size=n_mut, replace=False)
            copy[sites] = rng.integers(
                alphabet.NUM_NUCLEOTIDES, size=n_mut, dtype=np.uint8
            )
        codes[start : start + repeat_length] = copy
    return Sequence(codes, name=genome.name)


def dinucleotide_counts(genome: Sequence) -> np.ndarray:
    """4x4 matrix of observed dinucleotide counts (N positions excluded)."""
    codes = genome.codes
    counts = np.zeros((4, 4), dtype=np.int64)
    if len(genome) < 2:
        return counts
    prev = codes[:-1]
    nxt = codes[1:]
    mask = (prev < alphabet.NUM_NUCLEOTIDES) & (nxt < alphabet.NUM_NUCLEOTIDES)
    np.add.at(counts, (prev[mask], nxt[mask]), 1)
    return counts


def concatenate(parts: TypingSequence[Sequence], name: str) -> Sequence:
    """Concatenate sequences into one named chromosome-like sequence."""
    if not parts:
        return Sequence(np.empty(0, dtype=np.uint8), name=name)
    codes = np.concatenate([p.codes for p in parts])
    return Sequence(codes, name=name)
