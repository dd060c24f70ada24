"""Unit tests for the molecular-evolution simulator."""

import numpy as np
import pytest

from repro.genome import (
    EvolutionParams,
    Interval,
    Sequence,
    evolve,
    k80_difference_probabilities,
    make_species_pair,
    plant_exons,
    sample_islands,
)
from repro.genome.evolution import _exon_mask, _find_clear_position
from repro.genome.synthesis import markov_genome


class TestInterval:
    def test_length(self):
        assert Interval(10, 25).length == 15

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_shifted(self):
        shifted = Interval(5, 8, name="x").shifted(3)
        assert (shifted.start, shifted.end, shifted.name) == (8, 11, "x")


class TestK80Probabilities:
    def test_zero_distance(self):
        assert k80_difference_probabilities(0.0, 2.0) == (0.0, 0.0)

    def test_probabilities_increase_with_distance(self):
        values = [
            sum(k80_difference_probabilities(d, 2.0)) for d in (0.1, 0.5, 1.5)
        ]
        assert values[0] < values[1] < values[2]

    def test_saturation_limit(self):
        p, q = k80_difference_probabilities(50.0, 2.0)
        assert abs(p + q - 0.75) < 1e-6

    def test_transition_bias(self):
        # With kappa > 1, transitions outnumber each single transversion.
        p, q = k80_difference_probabilities(0.2, 4.0)
        assert p > q / 2


class TestSubstitutions:
    def test_observed_identity_tracks_distance(self, rng):
        ancestor = markov_genome(30000, rng)
        identities = []
        for d in (0.05, 0.3, 1.0):
            params = EvolutionParams(distance=d, indel_per_substitution=0.0)
            child = evolve(ancestor, [], params, rng, name="c")
            ident = (child.genome.codes == ancestor.codes).mean()
            identities.append(ident)
        assert identities[0] > identities[1] > identities[2]

    def test_zero_distance_is_identity(self, rng):
        ancestor = markov_genome(5000, rng)
        params = EvolutionParams(distance=0.0, indel_per_substitution=0.0)
        child = evolve(ancestor, [], params, rng, name="c")
        assert child.genome == ancestor

    def test_transition_bias_in_output(self, rng):
        ancestor = markov_genome(60000, rng)
        params = EvolutionParams(
            distance=0.2, kappa=4.0, indel_per_substitution=0.0
        )
        child = evolve(ancestor, [], params, rng, name="c")
        diff = ancestor.codes != child.genome.codes
        xor = ancestor.codes[diff] ^ child.genome.codes[diff]
        transitions = int((xor == 2).sum())
        transversions = int((xor != 2).sum())
        assert transitions > transversions


class TestIndels:
    def test_indels_change_length(self, rng):
        ancestor = markov_genome(20000, rng)
        params = EvolutionParams(distance=0.5, indel_per_substitution=0.1)
        child = evolve(ancestor, [], params, rng, name="c")
        assert len(child.genome) != len(ancestor)

    def test_exons_are_indel_free_and_tracked(self, rng):
        ancestor = markov_genome(30000, rng)
        exons = plant_exons(len(ancestor), rng, count=12)
        params = EvolutionParams(
            distance=0.6,
            indel_per_substitution=0.15,
            conserved_multiplier=0.0,
        )
        child = evolve(ancestor, exons, params, rng, name="c")
        assert len(child.exons) == len(exons)
        for old, new in zip(exons, child.exons):
            assert new.length == old.length
            # conserved_multiplier=0 means the exon content is untouched.
            original = ancestor.codes[old.start : old.end]
            evolved = child.genome.codes[new.start : new.end]
            assert np.array_equal(original, evolved)

    def test_exon_tracking_across_many_seeds(self):
        # Regression test: insertion/deletion interplay once corrupted the
        # coordinate map (cursor moved backwards), shifting every later
        # exon.  Verify exact coordinates across many random runs.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            ancestor = markov_genome(15000, rng)
            exons = plant_exons(len(ancestor), rng, count=6)
            params = EvolutionParams(
                distance=0.8,
                indel_per_substitution=0.2,
                conserved_multiplier=0.0,
            )
            child = evolve(ancestor, exons, params, rng, name="c")
            for old, new in zip(exons, child.exons):
                assert np.array_equal(
                    ancestor.codes[old.start : old.end],
                    child.genome.codes[new.start : new.end],
                ), f"seed {seed}: exon moved"


def _clear_position_by_intervals(length, span, intervals, rng, attempts=50):
    """The per-interval overlap search ``_find_clear_position`` replaced."""
    if span >= length:
        return None
    for _ in range(attempts):
        start = int(rng.integers(length - span))
        probe = Interval(start, start + span)
        if not any(probe.overlaps(e) for e in intervals):
            return start
    return None


class TestClearPosition:
    @pytest.mark.parametrize("seed", range(20))
    def test_mask_search_matches_interval_search(self, seed):
        """Same starts and same draws as the overlap test it replaced,
        as claims accumulate the way ``_apply_indels`` makes them."""
        case = np.random.default_rng(seed)
        length = int(case.integers(2, 400))
        intervals = plant_exons(length, case, count=3, min_length=3)
        blocked = _exon_mask(length, intervals)
        mine, theirs = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(40):
            span = int(case.integers(1, 30))
            start = _find_clear_position(span, blocked, mine)
            assert start == _clear_position_by_intervals(
                length, span, intervals, theirs
            )
            if start is not None:
                blocked[start : start + span] = True
                intervals.append(Interval(start, start + span))
            assert mine.random() == theirs.random()


class TestExonCodonIndels:
    def test_codon_indels_change_exon_length_by_multiples_of_three(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ancestor = markov_genome(20000, rng)
            exons = plant_exons(len(ancestor), rng, count=8)
            params = EvolutionParams(
                distance=1.0,
                indel_per_substitution=0.0,
                exon_indel_per_substitution=0.08,
            )
            child = evolve(ancestor, exons, params, rng, name="c")
            changed = 0
            for old, new in zip(exons, child.exons):
                delta = new.length - old.length
                assert delta % 3 == 0
                if delta != 0:
                    changed += 1
            assert changed >= 1  # at this rate some exon must change

    def test_exon_boundaries_still_track(self, rng):
        ancestor = markov_genome(15000, rng)
        exons = plant_exons(len(ancestor), rng, count=6)
        params = EvolutionParams(
            distance=0.8,
            indel_per_substitution=0.1,
            exon_indel_per_substitution=0.05,
            conserved_multiplier=0.0,
        )
        child = evolve(ancestor, exons, params, rng, name="c")
        for old, new in zip(exons, child.exons):
            # margins are indel-free: the first codon is exactly conserved
            assert np.array_equal(
                ancestor.codes[old.start : old.start + 3],
                child.genome.codes[new.start : new.start + 3],
            )

    def test_zero_rate_leaves_exons_untouched(self, rng):
        ancestor = markov_genome(8000, rng)
        exons = plant_exons(len(ancestor), rng, count=4)
        params = EvolutionParams(
            distance=0.5,
            indel_per_substitution=0.0,
            exon_indel_per_substitution=0.0,
            conserved_multiplier=0.0,
        )
        child = evolve(ancestor, exons, params, rng, name="c")
        for old, new in zip(exons, child.exons):
            assert new.length == old.length


class TestMosaicCaps:
    def test_island_divergence_capped(self, rng):
        distant = make_species_pair(
            20000,
            2.0,
            rng,
            alignable_fraction=0.4,
            island_distance_cap=0.3,
            indel_per_substitution=0.0,
        )
        island_mask = np.zeros(len(distant.target.genome), dtype=bool)
        for island in distant.target.islands:
            island_mask[island.start : island.end] = True
        same = (
            distant.target.genome.codes == distant.query.genome.codes
        )
        # identity inside islands reflects the 0.3 cap, not distance 2.0
        assert same[island_mask].mean() > 0.7

    def test_indel_density_saturates(self):
        lengths = {}
        for distance in (0.6, 2.4):
            rng = np.random.default_rng(9)
            pair = make_species_pair(
                20000,
                distance,
                rng,
                alignable_fraction=0.4,
                indel_per_substitution=0.14,
                indel_distance_cap=0.6,
            )
            lengths[distance] = len(pair.target.genome)
        # beyond the cap the indel count (hence length change) plateaus:
        # both genomes deviate from 20000 by comparable amounts
        dev_low = abs(lengths[0.6] - 20000)
        dev_high = abs(lengths[2.4] - 20000)
        assert dev_high < 4 * max(dev_low, 50)


class TestStructuralEvents:
    def test_duplications_add_sequence_and_paralogs(self, rng):
        ancestor = markov_genome(20000, rng)
        params = EvolutionParams(
            distance=0.1, duplication_count=3, duplication_length=1000
        )
        child = evolve(ancestor, [], params, rng, name="c")
        assert len(child.paralogs) >= 1
        assert len(child.genome) > len(ancestor)

    def test_inversions_preserve_length(self, rng):
        ancestor = markov_genome(20000, rng)
        params = EvolutionParams(
            distance=0.0,
            indel_per_substitution=0.0,
            inversion_count=2,
            inversion_length=1500,
        )
        child = evolve(ancestor, [], params, rng, name="c")
        assert len(child.genome) == len(ancestor)
        assert child.genome != ancestor

    def test_inversion_content_is_reverse_complement(self, rng):
        ancestor = markov_genome(10000, rng)
        params = EvolutionParams(
            distance=0.0,
            indel_per_substitution=0.0,
            inversion_count=1,
            inversion_length=800,
        )
        child = evolve(ancestor, [], params, rng, name="c")
        changed = np.flatnonzero(ancestor.codes != child.genome.codes)
        assert changed.size > 0
        start, end = changed[0], changed[-1] + 1
        segment = Sequence(child.genome.codes[start:end])
        assert np.array_equal(
            segment.reverse_complement().codes, ancestor.codes[start:end]
        )


class TestIslands:
    def test_sample_islands_cover_fraction(self, rng):
        islands = sample_islands(50000, 0.4, 800, rng)
        covered = sum(island.length for island in islands)
        assert 0.3 * 50000 <= covered <= 0.55 * 50000

    def test_islands_do_not_overlap(self, rng):
        islands = sample_islands(30000, 0.5, 600, rng)
        ordered = sorted(islands, key=lambda iv: iv.start)
        for a, b in zip(ordered, ordered[1:]):
            assert a.end <= b.start

    def test_mosaic_background_is_diverged(self, rng):
        # Disable indels so the two lineages stay positionally comparable.
        pair = make_species_pair(
            20000,
            0.3,
            rng,
            alignable_fraction=0.3,
            island_mean_length=1000,
            indel_per_substitution=0.0,
        )
        t, q = pair.target, pair.query
        island_mask = np.zeros(len(t.genome), dtype=bool)
        for island in t.islands:
            island_mask[island.start : island.end] = True
        same = t.genome.codes == q.genome.codes
        island_ident = same[island_mask].mean()
        background_ident = same[~island_mask].mean()
        assert island_ident > background_ident + 0.2


class TestSpeciesPair:
    def test_pair_basics(self, rng):
        pair = make_species_pair(10000, 0.4, rng, exon_count=5)
        assert pair.distance == 0.4
        assert len(pair.target.exons) == 5
        assert len(pair.query.exons) == 5
        assert pair.target.genome.name == "target"
        assert pair.query.genome.name == "query"

    def test_exons_are_orthologous(self, rng):
        pair = make_species_pair(15000, 0.5, rng, exon_count=8)
        for te, qe in zip(pair.target.exons, pair.query.exons):
            t_slice = pair.target.genome.codes[te.start : te.end]
            q_slice = pair.query.genome.codes[qe.start : qe.end]
            n = min(t_slice.size, q_slice.size)
            assert (t_slice[:n] == q_slice[:n]).mean() > 0.8

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EvolutionParams(distance=-1)
        with pytest.raises(ValueError):
            EvolutionParams(distance=0.1, kappa=0)
        with pytest.raises(ValueError):
            EvolutionParams(distance=0.1, indel_extend=1.0)
