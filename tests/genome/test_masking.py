"""Masking tests."""

import numpy as np
import pytest

from repro.genome import (
    Sequence,
    apply_soft_mask,
    entropy_mask,
    frequency_mask,
    mask_intervals,
    mask_stats,
)
from repro.genome.synthesis import markov_genome


class TestEntropyMask:
    def test_homopolymer_masked(self, rng):
        random_part = markov_genome(500, rng)
        seq = Sequence.from_string(str(random_part) + "A" * 200 + str(random_part))
        mask = entropy_mask(seq)
        # the poly-A run is low complexity
        assert mask[550:650].mean() > 0.8

    def test_random_sequence_mostly_unmasked(self, rng):
        seq = markov_genome(2000, rng)
        mask = entropy_mask(seq)
        assert mask.mean() < 0.2

    def test_tandem_repeat_masked(self, rng):
        repeat = "ACACACAC" * 20
        seq = Sequence.from_string(repeat)
        mask = entropy_mask(seq, min_entropy=2.0)
        assert mask.mean() > 0.8

    def test_short_sequence(self, rng):
        mask = entropy_mask(Sequence.from_string("ACGT"))
        assert mask.shape == (4,)
        assert not mask.any()


class TestFrequencyMask:
    def test_repeated_word_masked(self, rng):
        unit = "ACGGTTACGCAT"  # 12bp word repeated many times
        background = str(markov_genome(3000, rng))
        seq = Sequence.from_string(background + unit * 30 + background)
        mask = frequency_mask(seq, word_length=12, threshold_multiple=10)
        repeat_zone = mask[3000 : 3000 + 12 * 30]
        assert repeat_zone.mean() > 0.9
        assert mask[:2000].mean() < 0.05

    def test_unique_sequence_unmasked(self, rng):
        seq = markov_genome(5000, rng)
        mask = frequency_mask(seq, word_length=12)
        assert mask.mean() < 0.02

    def test_n_runs_not_masked(self):
        seq = Sequence.from_string("N" * 100)
        mask = frequency_mask(seq, word_length=12)
        assert not mask.any()

    @pytest.mark.parametrize("word_length", [-3, 0, 33])
    def test_word_length_outside_1_to_32_rejected(self, word_length):
        seq = Sequence.from_string("ACGT" * 30)
        with pytest.raises(ValueError, match="between 1 and 32"):
            frequency_mask(seq, word_length=word_length)

    def test_32mers_differing_only_in_the_leading_base_stay_apart(self, rng):
        # Word A occurs twice and B (A with its first base changed) once:
        # neither passes the 2-occurrence floor unless they merge.  The
        # spacers start with distinct bases, so no later window repeats.
        word = markov_genome(32, rng).codes
        other = word.copy()
        other[0] = (other[0] + 1) % 4
        spacers = [markov_genome(40, rng).codes.copy() for _ in range(3)]
        for base, spacer in enumerate(spacers):
            spacer[0] = base
        codes = np.concatenate(
            [word, spacers[0], word, spacers[1], other, spacers[2]]
        )
        mask = frequency_mask(Sequence(codes), word_length=32)
        assert not mask.any()


class TestMaskApplication:
    def test_soft_mask_replaces_with_n(self):
        seq = Sequence.from_string("ACGTACGT")
        mask = np.zeros(8, dtype=bool)
        mask[2:5] = True
        masked = apply_soft_mask(seq, mask)
        assert str(masked) == "ACNNNCGT"

    def test_mask_shape_checked(self):
        seq = Sequence.from_string("ACGT")
        with pytest.raises(ValueError):
            apply_soft_mask(seq, np.zeros(3, dtype=bool))

    def test_mask_intervals(self):
        mask = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        assert mask_intervals(mask) == [(1, 3), (5, 6), (7, 10)]
        assert mask_intervals(np.zeros(5, dtype=bool)) == []
        assert mask_intervals(np.ones(3, dtype=bool)) == [(0, 3)]

    def test_mask_stats(self):
        mask = np.array([1, 1, 0, 0], dtype=bool)
        stats = mask_stats(mask)
        assert stats.masked_bases == 2
        assert stats.fraction == 0.5
        assert stats.intervals == ((0, 2),)

    def test_masked_sequence_cannot_seed(self, rng):
        from repro.seed import SeedIndex, SpacedSeed

        repeat = Sequence.from_string("ACGGTTACGCATACGGTTACG" * 30, "t")
        mask = np.ones(len(repeat), dtype=bool)
        masked = apply_soft_mask(repeat, mask)
        index = SeedIndex.build(masked, SpacedSeed())
        assert index.size == 0
