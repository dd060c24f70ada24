"""Seed index tests."""

import pickle

import numpy as np
import pytest

from repro.genome import Sequence
from repro.seed import SeedIndex, SpacedSeed


@pytest.fixture
def seed():
    return SpacedSeed(pattern="1011", transitions=False)


def brute_force_hits(target, query, seed):
    """Enumerate seed hits by direct string comparison."""
    hits = set()
    t, q = str(target), str(query)
    offs = seed.match_offsets
    for qp in range(len(q) - seed.span + 1):
        if any(q[qp + o] == "N" for o in offs):
            continue
        for tp in range(len(t) - seed.span + 1):
            if any(t[tp + o] == "N" for o in offs):
                continue
            if all(t[tp + o] == q[qp + o] for o in offs):
                hits.add((tp, qp))
    return hits


class TestBuild:
    def test_indexes_every_valid_position(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 200).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        assert index.size == len(target) - seed.span + 1

    def test_n_positions_skipped(self, seed):
        target = Sequence.from_string("ACGTNACGTA")
        index = SeedIndex.build(target, seed)
        words, valid = seed.words(target)
        assert index.size == int(valid.sum())

    def test_word_frequency(self, seed):
        target = Sequence.from_string("AAAAAAAA")
        index = SeedIndex.build(target, seed)
        word = seed.word_of("AAAA")
        assert index.word_frequency(word) == 5
        assert index.word_frequency(word + 1) == 0


class TestBitmap:
    def test_sized_from_the_index(self, rng):
        seed = SpacedSeed()  # 12of19: 24-bit words
        for length, bits in ((18, 3), (1_018, 16), (50_018, 22)):
            target = Sequence(rng.integers(0, 4, length).astype(np.uint8))
            index = SeedIndex.build(target, seed)
            # next power of two above 64 bits per indexed word
            assert index.bitmap_bits == bits
            assert index.bitmap.dtype == np.uint8
            assert index.bitmap.size == (1 << bits) // 8

    def test_never_wider_than_the_word(self, rng):
        seed = SpacedSeed(pattern="1011")  # 6-bit words
        target = Sequence(rng.integers(0, 4, 5000).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        assert index.bitmap_bits == seed.word_bits == 6
        assert index.bitmap.size == 8

    def test_empty_index(self, seed):
        for text in ("", "ACG", "NNNNNNNNNN"):
            index = SeedIndex.build(Sequence.from_string(text), seed)
            assert index.size == 0
            assert index.bitmap.tolist() == [0]
            assert index.word_frequency(seed.word_of("ACGT")) == 0
            query = Sequence.from_string("ACGTACGT")
            words, valid = seed.words(query)
            t_hits, q_hits = index.lookup_batch(
                words, np.arange(words.size, dtype=np.int64)
            )
            assert t_hits.size == q_hits.size == 0

    def test_pickle_round_trip_rederives_the_bitmap(self, rng):
        target = Sequence(rng.integers(0, 4, 3000).astype(np.uint8))
        index = SeedIndex.build(target, SpacedSeed())
        payload = pickle.dumps(index)
        # the tables travel, the bitmap does not
        assert len(payload) < 16 * index.size + 2048 < (
            16 * index.size + index.bitmap.nbytes
        )
        clone = pickle.loads(payload)
        assert clone.seed == index.seed
        assert clone.target_length == index.target_length
        assert clone.bitmap_bits == index.bitmap_bits
        np.testing.assert_array_equal(clone.bitmap, index.bitmap)
        words = index.sorted_words[::5] ^ 2
        positions = np.arange(words.size, dtype=np.int64)
        for got, want in zip(
            clone.lookup_batch(words, positions),
            index.lookup_batch(words, positions),
        ):
            np.testing.assert_array_equal(got, want)


class TestLookup:
    def test_matches_brute_force(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 120).astype(np.uint8), "t")
        query = Sequence(rng.integers(0, 4, 80).astype(np.uint8), "q")
        index = SeedIndex.build(target, seed)
        words, valid = seed.words(query)
        positions = np.flatnonzero(valid)
        t_hits, q_hits = index.lookup_batch(words[positions], positions)
        got = set(zip(t_hits.tolist(), q_hits.tolist()))
        assert got == brute_force_hits(target, query, seed)

    def test_empty_lookup(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 50).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        t_hits, q_hits = index.lookup_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert t_hits.size == q_hits.size == 0

    def test_mismatched_arrays_rejected(self, seed, rng):
        target = Sequence(rng.integers(0, 4, 50).astype(np.uint8))
        index = SeedIndex.build(target, seed)
        with pytest.raises(ValueError):
            index.lookup_batch(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)
            )

    def test_hit_counts_scale_with_repeats(self, seed):
        target = Sequence.from_string("ACGTACGT" * 10)
        index = SeedIndex.build(target, seed)
        word = seed.word_of("ACGT"[:4])
        assert index.word_frequency(word) >= 9
