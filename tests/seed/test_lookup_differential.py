"""Differential tests: bitmap-first seed lookup vs the frozen full scan.

``SeedIndex`` asks its presence bitmap before it binary-searches, and
seeding probes the query's words slab by slab.  Neither may change a
result: every array that ``lookup_batch``, ``all_seed_hits`` (with and
without ``seed_limit``) and ``dsoft_seed`` return is held equal — same
elements, same order — to the full-scan implementations frozen in
``tests/reference.py``.

The seeded case count scales with ``REPRO_DIFF_CASES`` (default 400 for
local runs; CI sets it to at least 2000).  A failing case prints its
``case_seed``, which rebuilds the inputs exactly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome import Sequence, make_species_pair
from repro.seed import (
    DsoftParams,
    SeedIndex,
    SpacedSeed,
    all_seed_hits,
    dsoft_seed,
)

from .. import reference

CASES = int(os.environ.get("REPRO_DIFF_CASES", "400"))

#: Small chunks and bins so a few hundred bases span many diagonal bands.
PARAMS = DsoftParams(chunk_size=16, bin_size=8, threshold=1)


def _pattern(rng, weight):
    """A random spaced pattern of ``weight`` ones, first and last set."""
    inner = np.zeros(weight - 2 + int(rng.integers(0, 6)), dtype=int)
    inner[rng.permutation(inner.size)[: weight - 2]] = 1
    return "1" + "".join(map(str, inner)) + "1"


def _case(case_seed):
    """``(seed, target, query)`` of one seeded case.

    Weights 4-16 put the 64-bits-per-word table on both sides of the word
    width: exact for the light patterns, xor-folded for the heavy ones.
    """
    rng = np.random.default_rng(case_seed)
    seed = SpacedSeed(
        pattern=_pattern(rng, int(rng.integers(4, 17))),
        transitions=bool(rng.integers(0, 2)),
    )
    kind = case_seed % 8
    if kind == 0:  # empty / shorter than the seed span
        m = int(rng.integers(0, seed.span + 1))
        n = int(rng.integers(0, seed.span + 1))
    elif kind == 1:  # tiny target against a normal query, and vice versa
        m, n = int(rng.integers(0, 3)), int(rng.integers(1, 400))
        if rng.integers(0, 2):
            m, n = n, m
    else:
        m, n = int(rng.integers(1, 400)), int(rng.integers(1, 400))
    alphabet = 2 if kind == 2 else 4  # two letters: many hits per word
    t_codes = rng.integers(0, alphabet, size=m).astype(np.uint8)
    q_codes = rng.integers(0, alphabet, size=n).astype(np.uint8)
    if kind == 3 and m:  # tandem repeat shared by both
        unit = rng.integers(0, 4, size=int(rng.integers(1, 9)))
        t_codes = np.resize(unit, m).astype(np.uint8)
        q_codes = np.resize(unit, n).astype(np.uint8)
    if kind == 4:  # related pair: query copies a mutated stretch
        k = min(m, n)
        q_codes[:k] = t_codes[:k]
        flips = rng.random(k) < 0.1
        q_codes[:k][flips] ^= 2  # transitions
    if kind == 5:  # all-N target (an empty index) or query
        (t_codes if rng.integers(0, 2) else q_codes)[:] = 4
    if kind == 6:  # N runs
        for codes in (t_codes, q_codes):
            for _ in range(3):
                at = int(rng.integers(0, codes.size + 1))
                codes[at : at + int(rng.integers(1, 30))] = 4
    return seed, Sequence(t_codes, "t"), Sequence(q_codes, "q")


def assert_seeding_equal(index, query, label, params=PARAMS):
    """Production seeding == frozen full scan, array for array.

    Returns the raw seed-hit count, so callers can see hits were compared.
    """
    words, positions = reference.query_seed_words_reference(
        query, index.seed
    )
    for got, want in zip(
        index.lookup_batch(words, positions),
        reference.lookup_batch_reference(index, words, positions),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, err_msg=f"lookup {label}")
    for limit in (0, 1, 3):
        got = all_seed_hits(index, query, seed_limit=limit)
        t_hits, q_hits = reference.all_seed_hits_reference(
            index, query, seed_limit=limit
        )
        message = f"all_seed_hits limit={limit} {label}"
        np.testing.assert_array_equal(got.target_positions, t_hits, message)
        np.testing.assert_array_equal(got.query_positions, q_hits, message)
        assert (got.raw_hit_count, got.band_count) == (t_hits.size, 0)
    got = dsoft_seed(index, query, params)
    t_pos, q_pos, raw, bands = reference.dsoft_seed_reference(
        index, query, params
    )
    np.testing.assert_array_equal(got.target_positions, t_pos, f"dsoft {label}")
    np.testing.assert_array_equal(got.query_positions, q_pos, f"dsoft {label}")
    assert (got.raw_hit_count, got.band_count) == (raw, bands), label
    return raw


def test_seeded_cases_match_full_scan():
    folded = exact = hits = 0
    for case_seed in range(CASES):
        seed, target, query = _case(case_seed)
        index = SeedIndex.build(target, seed)
        assert index.bitmap.size * 8 == 1 << index.bitmap_bits
        raw = assert_seeding_equal(index, query, f"case_seed={case_seed}")
        folded += index.bitmap_bits < seed.word_bits
        exact += index.bitmap_bits >= seed.word_bits
        hits += raw > 0
    # the suite must actually reach both table shapes, and real hits
    assert folded > CASES // 8 and exact > CASES // 8
    assert hits > CASES // 4


def test_arbitrary_words_match_full_scan(rng):
    # lookup_batch is public: words need not come from a query, nor fit
    # in word_bits, nor be positive.
    seed = SpacedSeed(pattern="1101011", transitions=False)
    target = Sequence(rng.integers(0, 4, 500).astype(np.uint8))
    index = SeedIndex.build(target, seed)
    words = np.concatenate(
        [
            rng.integers(-5, 1 << 12, 2000),
            rng.integers(0, 1 << 40, 50),
            index.sorted_words[::7],
        ]
    ).astype(np.int64)
    positions = np.arange(words.size, dtype=np.int64)
    for got, want in zip(
        index.lookup_batch(words, positions),
        reference.lookup_batch_reference(index, words, positions),
    ):
        np.testing.assert_array_equal(got, want)
    for word in words[:200].tolist():
        assert index.word_frequency(word) == int(
            np.count_nonzero(index.sorted_words == word)
        )


@st.composite
def patterns(draw):
    weight = draw(st.integers(4, 16))
    gaps = draw(
        st.lists(st.integers(0, 2), min_size=weight - 1, max_size=weight - 1)
    )
    return "1" + "".join("0" * gap + "1" for gap in gaps)


#: Sequence text from stretches of bases, N runs and tandem repeats.
segments = st.one_of(
    st.text(alphabet="ACGT", max_size=60),
    st.text(alphabet="N", min_size=1, max_size=25),
    st.builds(
        lambda unit, copies: unit * copies,
        st.text(alphabet="ACGT", min_size=1, max_size=6),
        st.integers(2, 30),
    ),
)
sequence_text = st.lists(segments, max_size=6).map("".join)


@settings(max_examples=max(50, CASES // 4), deadline=None)
@given(
    pattern=patterns(),
    transitions=st.booleans(),
    target_text=sequence_text,
    query_text=sequence_text,
    share=st.booleans(),
)
def test_property_matches_full_scan(
    pattern, transitions, target_text, query_text, share
):
    if share:  # make sure related inputs, not only noise, are drawn
        query_text = target_text[len(target_text) // 3 :] + query_text
    seed = SpacedSeed(pattern=pattern, transitions=transitions)
    index = SeedIndex.build(Sequence.from_string(target_text), seed)
    assert_seeding_equal(
        index, Sequence.from_string(query_text), f"{pattern} {transitions}"
    )


class TestDefaultSeedPairs:
    """The production seed on pipeline-sized inputs, field by field."""

    @pytest.fixture(scope="class")
    def related(self):
        pair = make_species_pair(6000, 0.3, np.random.default_rng(41))
        return pair.target.genome, pair.query.genome

    def check(self, target, query):
        index = SeedIndex.build(target, SpacedSeed())
        assert index.bitmap_bits < index.seed.word_bits  # folded
        return assert_seeding_equal(
            index, query, f"{target.name} x {query.name}", DsoftParams()
        )

    def test_related_pair(self, related):
        assert self.check(*related) > 100

    def test_unrelated_pair(self, rng):
        target = Sequence(rng.integers(0, 4, 6000).astype(np.uint8), "t")
        query = Sequence(rng.integers(0, 4, 6000).astype(np.uint8), "q")
        self.check(target, query)

    def test_reverse_complemented_query(self, related):
        target, query = related
        self.check(target, query.reverse_complement())

    def test_exact_table_at_full_width(self, rng):
        # From 2**word_bits / 64 words up the table has one bit per word
        # and no fold; weight 7 reaches that at 256 indexed words.
        seed = SpacedSeed(pattern="1101011011")
        target = Sequence(rng.integers(0, 4, 2000).astype(np.uint8), "t")
        index = SeedIndex.build(target, seed)
        assert index.bitmap_bits == seed.word_bits == 14
        present = np.unpackbits(index.bitmap, bitorder="little")
        np.testing.assert_array_equal(
            np.flatnonzero(present), np.unique(index.sorted_words)
        )
        assert_seeding_equal(
            index, Sequence(rng.integers(0, 4, 900).astype(np.uint8)), "exact"
        )
