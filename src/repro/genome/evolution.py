"""Molecular-evolution simulator producing species pairs at known distances.

The paper evaluates on genome pairs spanning a range of phylogenetic
distances (Figure 8: ce11-cb4 at ~1.32 substitutions/site down to
dm6-droSim1 at ~0.11).  Real assemblies are unavailable offline, so this
module evolves a common ancestor into two descendant genomes under an
explicit model:

* **Substitutions** follow Kimura's two-parameter (K80) model with a
  transition/transversion bias, so transition-tolerant seeds (Figure 5)
  have the signal they exploit in real genomes.
* **Indels** occur at a per-site rate with a short-geometric /
  long-exponential length mixture; their density relative to substitutions
  grows with divergence, which is exactly the effect behind the paper's
  Figure 2 (mean ungapped block length shrinks from ~641 bp for close pairs
  to ~31 bp for distant ones) and the motivation for gapped filtering.
* **Structural events** — segmental duplications (creating paralogs) and
  inversions — model the large-scale changes GACT-X must align across.
* **Planted exons** are conserved intervals evolving at a reduced rate with
  no indels, standing in for the Ensembl protein-coding exons used in the
  paper's TBLASTX sensitivity metric.  Their coordinates are tracked
  through every edit, giving exact orthology ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import alphabet
from .sequence import Sequence
from .synthesis import markov_genome


@dataclass(frozen=True)
class Interval:
    """A half-open annotated interval ``[start, end)`` on a genome."""

    start: int
    end: int
    name: str = ""
    strand: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("interval end before start")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def shifted(self, offset: int) -> "Interval":
        return replace(self, start=self.start + offset, end=self.end + offset)


@dataclass(frozen=True)
class EvolutionParams:
    """Parameters of one lineage's evolution (a single tree branch).

    ``distance`` is the expected number of substitutions per neutral site
    on this branch.  The indel rate is tied to the substitution distance by
    ``indel_per_substitution`` so that more divergent pairs have denser
    indels, matching the trend in the paper's Figure 2.
    """

    distance: float
    kappa: float = 2.0
    indel_per_substitution: float = 0.06
    indel_extend: float = 0.7
    long_indel_prob: float = 0.05
    long_indel_mean: float = 80.0
    max_indel_length: int = 400
    inversion_count: int = 0
    inversion_length: int = 2000
    duplication_count: int = 0
    duplication_length: int = 1500
    conserved_multiplier: float = 0.15
    #: Rate of codon-aligned indels *inside* exons (events per site per
    #: substitution distance).  Real protein-coding exons accumulate
    #: frame-preserving (length % 3 == 0) indels; these are exactly what
    #: defeats ungapped filtering around exonic seed hits in the paper's
    #: Figure 9 while TBLASTX still confirms protein-level orthology.
    exon_indel_per_substitution: float = 0.0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("distance must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0 <= self.indel_extend < 1:
            raise ValueError("indel_extend must lie in [0, 1)")


@dataclass
class Lineage:
    """A descendant genome plus the surviving annotation coordinates."""

    genome: Sequence
    exons: List[Interval] = field(default_factory=list)
    paralogs: List[Interval] = field(default_factory=list)
    islands: List[Interval] = field(default_factory=list)


@dataclass
class SpeciesPair:
    """Two genomes evolved from a shared ancestor.

    ``distance`` is the total expected substitutions/site separating the two
    species (the sum of both branch lengths), the same quantity the paper
    reports from PHAST in Figure 8.
    """

    target: Lineage
    query: Lineage
    ancestor: Sequence
    ancestor_exons: List[Interval]
    distance: float


def k80_difference_probabilities(
    distance: float, kappa: float
) -> Tuple[float, float]:
    """Return ``(P, Q)``: transition and total transversion difference
    probabilities after evolving for ``distance`` substitutions/site under
    K80 with transition/transversion rate ratio ``kappa``.
    """
    if distance == 0:
        return 0.0, 0.0
    beta_t = distance / (kappa + 2.0)
    alpha_t = kappa * beta_t
    p = (
        0.25
        + 0.25 * np.exp(-4.0 * beta_t)
        - 0.5 * np.exp(-2.0 * (alpha_t + beta_t))
    )
    q = 0.5 - 0.5 * np.exp(-4.0 * beta_t)
    return float(p), float(q)


def _apply_substitutions(
    codes: np.ndarray,
    class_distances: List[Tuple[np.ndarray, float]],
    params: EvolutionParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Substitute bases in place according to K80; returns the same array.

    ``class_distances`` pairs a boolean site mask with the substitution
    distance applying to those sites (rate heterogeneity: conserved exons,
    alignable islands, saturated background).
    """
    for mask, distance in class_distances:
        p, q = k80_difference_probabilities(distance, params.kappa)
        sites = np.flatnonzero(mask & (codes < alphabet.NUM_NUCLEOTIDES))
        if sites.size == 0:
            continue
        u = rng.random(sites.size)
        transition_sites = sites[u < p]
        tv1 = sites[(u >= p) & (u < p + q / 2)]
        tv2 = sites[(u >= p + q / 2) & (u < p + q)]
        # codes 0..3 are laid out so that ^2 is the transition partner and
        # ^1 / ^3 are the two transversions (see repro.genome.alphabet).
        codes[transition_sites] ^= 2
        codes[tv1] ^= 1
        codes[tv2] ^= 3
    return codes


def _sample_indel_length(
    params: EvolutionParams, rng: np.random.Generator
) -> int:
    if rng.random() < params.long_indel_prob:
        length = int(rng.exponential(params.long_indel_mean)) + 1
    else:
        length = int(rng.geometric(1.0 - params.indel_extend))
    return min(max(1, length), params.max_indel_length)


def _exon_mask(length: int, exons: List[Interval]) -> np.ndarray:
    mask = np.zeros(length, dtype=bool)
    for exon in exons:
        mask[exon.start : exon.end] = True
    return mask


def _find_clear_position(
    span: int,
    blocked: np.ndarray,
    rng: np.random.Generator,
    attempts: int = 50,
) -> Optional[int]:
    """Pick a start so that ``[start, start+span)`` holds no ``blocked``
    site (an :func:`_exon_mask` of the intervals to avoid)."""
    length = blocked.size
    if span >= length:
        return None
    for _ in range(attempts):
        start = int(rng.integers(length - span))
        if not blocked[start : start + span].any():
            return start
    return None


def _apply_indels(
    codes: np.ndarray,
    exons: List[Interval],
    islands: List[Interval],
    params: EvolutionParams,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, List[Interval], List[Interval]]:
    """Apply indel events outside exons, tracking annotation coordinates.

    Exons exclude indels entirely (purifying selection); islands may
    contain indels, and their boundaries are remapped through the edits.
    """
    length = codes.size
    expected = params.distance * params.indel_per_substitution * length
    n_events = rng.poisson(expected) if expected > 0 else 0
    if n_events == 0 and not (
        params.exon_indel_per_substitution > 0 and exons
    ):
        return codes, list(exons), list(islands)

    events = []  # (position, deleted_len, inserted_codes)
    # Exons and every site an indel event has claimed so far.
    claimed = _exon_mask(length, exons)

    # Codon-aligned indels inside exons (frame-preserving).
    if params.exon_indel_per_substitution > 0:
        for exon in exons:
            rate = (
                params.distance
                * params.exon_indel_per_substitution
                * exon.length
            )
            exon_claimed: List[Interval] = []
            for _ in range(rng.poisson(rate)):
                size = 3 * int(rng.geometric(0.6))
                margin = 3
                if exon.length < size + 2 * margin + 3:
                    continue
                lo = exon.start + margin
                hi = exon.end - margin - size
                if hi <= lo:
                    continue
                start = lo + 3 * int(rng.integers((hi - lo) // 3 + 1))
                probe = Interval(start, start + max(size, 1))
                if any(probe.overlaps(c) for c in exon_claimed):
                    continue
                exon_claimed.append(probe)
                if rng.random() < 0.5:
                    events.append((start, size, None))
                else:
                    inserted = rng.integers(
                        alphabet.NUM_NUCLEOTIDES, size=size, dtype=np.uint8
                    )
                    events.append((start, 0, inserted))

    for _ in range(n_events):
        size = _sample_indel_length(params, rng)
        if rng.random() < 0.5:
            # Deletion: the deleted span must not touch an exon or another
            # pending deletion, to keep coordinate tracking exact.
            start = _find_clear_position(size, claimed, rng)
            if start is None:
                continue
            claimed[start : start + size] = True
            events.append((start, size, None))
        else:
            start = _find_clear_position(1, claimed, rng)
            if start is None:
                continue
            inserted = rng.integers(
                alphabet.NUM_NUCLEOTIDES, size=size, dtype=np.uint8
            )
            # Claim the insertion point too, so a later deletion cannot
            # span it (which would corrupt the coordinate mapping).
            claimed[start] = True
            events.append((start, 0, inserted))

    events.sort(key=lambda ev: ev[0])
    pieces: List[np.ndarray] = []
    breakpoints: List[Tuple[int, int]] = []  # (ancestor_pos, cumulative shift)
    cursor = 0
    shift = 0
    for position, deleted, inserted in events:
        if position < cursor:
            raise AssertionError(
                "indel events overlap; coordinate tracking would corrupt"
            )
        pieces.append(codes[cursor:position])
        if inserted is None:
            cursor = position + deleted
            shift -= deleted
        else:
            pieces.append(inserted)
            cursor = position
            shift += len(inserted)
        breakpoints.append((position, shift))
    pieces.append(codes[cursor:])
    new_codes = np.concatenate(pieces)

    positions = np.array([b[0] for b in breakpoints])
    shifts = np.array([b[1] for b in breakpoints])

    total = int(new_codes.size)

    def map_coord(pos: int) -> int:
        idx = np.searchsorted(positions, pos, side="right") - 1
        mapped = pos + (int(shifts[idx]) if idx >= 0 else 0)
        return min(max(mapped, 0), total)

    new_exons = [
        replace(e, start=map_coord(e.start), end=map_coord(e.end - 1) + 1)
        for e in exons
    ]
    new_islands = []
    for island in islands:
        start = map_coord(island.start)
        end = max(start, map_coord(island.end))
        new_islands.append(replace(island, start=start, end=end))
    return new_codes, new_exons, new_islands


def _apply_inversions(
    codes: np.ndarray,
    exons: List[Interval],
    params: EvolutionParams,
    rng: np.random.Generator,
) -> np.ndarray:
    blocked = _exon_mask(codes.size, exons)
    for _ in range(params.inversion_count):
        span = min(params.inversion_length, codes.size // 4)
        if span < 2:
            break
        start = _find_clear_position(span, blocked, rng)
        if start is None:
            continue
        segment = codes[start : start + span]
        codes[start : start + span] = alphabet.COMPLEMENT[segment][::-1]
    return codes


def _apply_duplications(
    codes: np.ndarray,
    exons: List[Interval],
    islands: List[Interval],
    params: EvolutionParams,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, List[Interval], List[Interval], List[Interval]]:
    """Insert copies of random segments, producing paralogous intervals."""

    def shift_after(intervals: List[Interval], point: int, span: int):
        return [
            iv.shifted(span) if iv.start >= point else iv
            for iv in intervals
        ]

    paralogs: List[Interval] = []
    for _ in range(params.duplication_count):
        span = min(params.duplication_length, codes.size // 4)
        if span < 2:
            break
        source = int(rng.integers(codes.size - span))
        insert_at = _find_clear_position(
            1, _exon_mask(codes.size, exons), rng
        )
        if insert_at is None:
            continue
        segment = codes[source : source + span].copy()
        codes = np.concatenate(
            [codes[:insert_at], segment, codes[insert_at:]]
        )
        exons = shift_after(exons, insert_at, span)
        islands = shift_after(islands, insert_at, span)
        paralogs = shift_after(paralogs, insert_at, span)
        paralogs.append(Interval(insert_at, insert_at + span, name="paralog"))
        # The duplicated copy is alignable sequence in its own right.
        islands.append(
            Interval(insert_at, insert_at + span, name="paralog-island")
        )
    return codes, exons, islands, paralogs


def evolve(
    ancestor: Sequence,
    exons: List[Interval],
    params: EvolutionParams,
    rng: np.random.Generator,
    name: str,
    islands: Optional[List[Interval]] = None,
    background_distance: Optional[float] = None,
    island_distance: Optional[float] = None,
) -> Lineage:
    """Evolve ``ancestor`` along one branch, returning the descendant.

    Event order is structural (inversions, duplications) -> indels ->
    substitutions; substitutions never move coordinates so the exon
    intervals returned are exact.

    With ``islands`` and ``background_distance`` set, sites outside the
    islands (and exons) substitute at ``background_distance`` instead of
    ``params.distance`` — the mosaic rate model: real genomes at these
    phylogenetic distances are alignable only in conserved islands
    floating in diverged-beyond-recognition background.
    """
    codes = ancestor.codes.copy()
    current_exons = list(exons)
    current_islands = list(islands) if islands else []
    codes = _apply_inversions(codes, current_exons, params, rng)
    codes, current_exons, current_islands, paralogs = _apply_duplications(
        codes, current_exons, current_islands, params, rng
    )
    codes, current_exons, current_islands = _apply_indels(
        codes, current_exons, current_islands, params, rng
    )

    exon_mask = _exon_mask(codes.size, current_exons)
    island_rate = (
        island_distance if island_distance is not None else params.distance
    )
    if islands is not None and background_distance is not None:
        island_mask = _exon_mask(codes.size, current_islands)
        island_mask &= ~exon_mask
        background_mask = ~exon_mask & ~island_mask
        classes = [
            (exon_mask, island_rate * params.conserved_multiplier),
            (island_mask, island_rate),
            (background_mask, background_distance),
        ]
    else:
        classes = [
            (exon_mask, island_rate * params.conserved_multiplier),
            (~exon_mask, island_rate),
        ]
    codes = _apply_substitutions(codes, classes, params, rng)
    return Lineage(
        genome=Sequence(codes, name=name),
        exons=current_exons,
        paralogs=paralogs,
        islands=current_islands,
    )


def plant_exons(
    length: int,
    rng: np.random.Generator,
    count: int,
    min_length: int = 90,
    max_length: int = 300,
) -> List[Interval]:
    """Choose non-overlapping codon-aligned exon intervals on a genome."""
    exons: List[Interval] = []
    attempts = 0
    while len(exons) < count and attempts < count * 50:
        attempts += 1
        span = int(rng.integers(min_length // 3, max_length // 3 + 1)) * 3
        if span >= length:
            continue
        start = int(rng.integers(length - span))
        candidate = Interval(start, start + span, name=f"exon{len(exons)}")
        if not any(candidate.overlaps(e) for e in exons):
            exons.append(candidate)
    return sorted(exons, key=lambda e: e.start)


def sample_islands(
    length: int,
    fraction: float,
    mean_length: int,
    rng: np.random.Generator,
) -> List[Interval]:
    """Sample non-overlapping alignable islands covering ``fraction``.

    Island lengths are exponential around ``mean_length`` (floored at
    100 bp); placement is rejection-sampled to avoid overlap.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    budget = int(length * fraction)
    islands: List[Interval] = []
    covered = 0
    attempts = 0
    while covered < budget and attempts < 100 + 10 * len(islands):
        attempts += 1
        span = max(100, int(rng.exponential(mean_length)))
        span = min(span, budget - covered + 100, length - 1)
        start = int(rng.integers(length - span))
        candidate = Interval(
            start, start + span, name=f"island{len(islands)}"
        )
        if any(candidate.overlaps(existing) for existing in islands):
            continue
        islands.append(candidate)
        covered += span
        attempts = 0
    return sorted(islands, key=lambda iv: iv.start)


def make_species_pair(
    length: int,
    distance: float,
    rng: np.random.Generator,
    exon_count: int = 0,
    kappa: float = 2.0,
    inversion_count: int = 0,
    duplication_count: int = 0,
    alignable_fraction: float = 1.0,
    island_mean_length: int = 800,
    background_distance: Optional[float] = None,
    island_distance_cap: float = 0.5,
    indel_distance_cap: float = 0.6,
    target_name: str = "target",
    query_name: str = "query",
    **param_overrides,
) -> SpeciesPair:
    """Generate a species pair separated by ``distance`` subs/site.

    The distance is split evenly across the two branches.  Structural
    events are applied to the query branch only (one rearranged lineage is
    enough to exercise inversion/duplication handling).

    With ``alignable_fraction < 1`` the genome becomes a mosaic: only that
    fraction (in islands of mean ``island_mean_length``, plus all exons)
    stays alignable, while the rest substitutes at ``background_distance``
    (default: saturation) — the regime real WGA operates in, where each
    alignable island must be seeded and filtered on its own.  Island
    *substitution* divergence is capped at ``island_distance_cap`` (what
    survives as alignable is by definition the conserved tail), while the
    *indel* density keeps tracking the full ``distance`` — exactly the
    trend of the paper's Figure 2, where greater phylogenetic distance
    shows up mainly as ever-shorter ungapped blocks.
    """
    ancestor = markov_genome(length, rng, name="ancestor")
    exons = plant_exons(length, rng, exon_count) if exon_count else []
    branch = distance / 2.0
    if alignable_fraction < 1.0:
        islands = sample_islands(
            length, alignable_fraction, island_mean_length, rng
        )
        if background_distance is None:
            background_distance = max(3.0, 2.0 * distance)
        background_branch = background_distance / 2.0
        # Indel density in surviving alignable sequence saturates with
        # distance just like substitution divergence does: regions whose
        # indel load kept growing would no longer be alignable at all.
        if branch > 0:
            indel_scale = min(branch, indel_distance_cap / 2.0) / branch
            for key in (
                "indel_per_substitution",
                "exon_indel_per_substitution",
            ):
                base = param_overrides.get(
                    key, EvolutionParams.__dataclass_fields__[key].default
                )
                param_overrides[key] = base * indel_scale
    else:
        islands = None
        background_branch = None
    target_params = EvolutionParams(
        distance=branch, kappa=kappa, **param_overrides
    )
    query_params = EvolutionParams(
        distance=branch,
        kappa=kappa,
        inversion_count=inversion_count,
        duplication_count=duplication_count,
        **param_overrides,
    )
    island_branch = (
        min(branch, island_distance_cap / 2.0)
        if islands is not None
        else None
    )
    target = evolve(
        ancestor,
        exons,
        target_params,
        rng,
        name=target_name,
        islands=islands,
        background_distance=background_branch,
        island_distance=island_branch,
    )
    query = evolve(
        ancestor,
        exons,
        query_params,
        rng,
        name=query_name,
        islands=islands,
        background_distance=background_branch,
        island_distance=island_branch,
    )
    return SpeciesPair(
        target=target,
        query=query,
        ancestor=ancestor,
        ancestor_exons=exons,
        distance=distance,
    )
