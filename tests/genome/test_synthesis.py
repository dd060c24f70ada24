"""Unit tests for synthetic genome generation.

``markov_genome`` samples its chain with a prefix scan; it is checked
against the per-base walk it replaced, frozen below as
``_oracle_markov``, over ``REPRO_DIFF_CASES`` seeded cases (default 100;
CI runs 2000).  Codes and the RNG's next draw must both be equal.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.genome import (
    DEFAULT_DINUCLEOTIDE_MODEL,
    dinucleotide_counts,
    make_species_pair,
    markov_genome,
    plant_repeats,
    uniform_genome,
)
from repro.genome.synthesis import _SCAN_CHUNK, concatenate
from repro.genome import Sequence

CASES = int(os.environ.get("REPRO_DIFF_CASES", "100"))


def _oracle_markov(length, rng, matrix):
    """The per-base walk ``markov_genome`` ran before its scan, frozen."""
    if length <= 0:
        return np.empty(0, dtype=np.uint8)
    cumulative = np.cumsum(matrix, axis=1)
    uniforms = rng.random(length)
    codes = np.empty(length, dtype=np.uint8)
    codes[0] = rng.integers(4)
    for i in range(1, length):
        codes[i] = np.searchsorted(cumulative[codes[i - 1]], uniforms[i])
    return codes


def _random_stochastic(rng):
    matrix = rng.random((4, 4))
    matrix[rng.random((4, 4)) < 0.2] = 0.0
    matrix[:, rng.integers(4)] += 0.01  # no all-zero row
    return matrix / matrix.sum(axis=1, keepdims=True)


def _zero_column():
    matrix = DEFAULT_DINUCLEOTIDE_MODEL.copy()
    matrix[:, 1] = 0.0
    return matrix / matrix.sum(axis=1, keepdims=True)


#: A -> C -> G -> T -> A: no step merges two states, so every composed
#: map stays a permutation (the scan's worst case).
CYCLIC = np.roll(np.eye(4), 1, axis=1)


def _assert_matches_oracle(length, seed, matrix, label):
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = _oracle_markov(length, expected_rng, matrix)
    actual = markov_genome(length, actual_rng, matrix).codes
    repro = (label, seed, length)
    assert np.array_equal(actual, expected), repro
    assert actual_rng.random() == expected_rng.random(), repro


class TestUniformGenome:
    def test_length_and_alphabet(self, rng):
        g = uniform_genome(5000, rng)
        assert len(g) == 5000
        assert g.codes.max() < 4

    def test_gc_content_respected(self, rng):
        g = uniform_genome(50000, rng, gc=0.6)
        assert abs(g.gc_content() - 0.6) < 0.02

    def test_gc_bounds(self, rng):
        with pytest.raises(ValueError):
            uniform_genome(10, rng, gc=1.5)

    def test_deterministic_with_seed(self):
        a = uniform_genome(100, np.random.default_rng(1))
        b = uniform_genome(100, np.random.default_rng(1))
        assert a == b


class TestMarkovGenome:
    def test_length(self, rng):
        assert len(markov_genome(1000, rng)) == 1000

    def test_zero_length(self, rng):
        assert len(markov_genome(0, rng)) == 0

    @pytest.mark.parametrize("length", [0, -5])
    def test_empty_genome_still_validates_its_matrix(self, length):
        with pytest.raises(ValueError, match="4x4"):
            markov_genome(length, np.random.default_rng(0), np.ones((3, 3)))
        with pytest.raises(ValueError, match="sum to 1"):
            markov_genome(length, np.random.default_rng(0), np.ones((4, 4)))

    def test_empty_genome_draws_nothing(self):
        rng = np.random.default_rng(3)
        assert len(markov_genome(0, rng, DEFAULT_DINUCLEOTIDE_MODEL)) == 0
        assert rng.random() == np.random.default_rng(3).random()

    def test_transition_statistics_follow_model(self, rng):
        g = markov_genome(60000, rng)
        counts = dinucleotide_counts(g)
        observed = counts / counts.sum(axis=1, keepdims=True)
        assert np.allclose(observed, DEFAULT_DINUCLEOTIDE_MODEL, atol=0.03)

    def test_custom_matrix(self, rng):
        matrix = np.full((4, 4), 0.25)
        g = markov_genome(5000, rng, transition_matrix=matrix)
        assert len(g) == 5000

    def test_rejects_bad_matrix_shape(self, rng):
        with pytest.raises(ValueError):
            markov_genome(100, rng, transition_matrix=np.ones((3, 3)))

    def test_rejects_non_stochastic_matrix(self, rng):
        with pytest.raises(ValueError):
            markov_genome(100, rng, transition_matrix=np.ones((4, 4)))

    def test_rejects_negative_entries(self, rng):
        matrix = DEFAULT_DINUCLEOTIDE_MODEL.copy()
        matrix[1] = [1.2, -0.2, 0.0, 0.0]
        with pytest.raises(ValueError, match="non-negative"):
            markov_genome(100, rng, transition_matrix=matrix)

    def test_row_a_little_under_one_never_gives_code_4(self):
        # Passes validation (allclose's rtol adds to its atol); draws
        # above the row's sum used to become code 4 and crash the walk.
        matrix = DEFAULT_DINUCLEOTIDE_MODEL.copy()
        matrix[0, 3] -= 1e-5
        g = markov_genome(400_000, np.random.default_rng(0), matrix)
        assert len(g) == 400_000
        assert g.codes.max() == 3

    def test_draw_above_every_row_sum_is_t(self):
        matrix = DEFAULT_DINUCLEOTIDE_MODEL.copy()
        matrix[:, 3] -= 1e-5
        # Two bases: the last one used to be an N; three: an IndexError.
        for length in (2, 3):
            draws = _ScriptedDraws(np.full(length, 1.0 - 1e-7))
            g = markov_genome(length, draws, matrix)
            assert str(g) == "A" + "T" * (length - 1)


class _ScriptedDraws:
    """Stands in for the rng: the given uniforms, then base A first."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size):
        return self.uniforms[:size].copy()

    def integers(self, high):
        return 0


class TestMarkovScanMatchesOracle:
    """The scan equals the frozen per-base walk, in codes and RNG state."""

    MATRICES = {
        "default": DEFAULT_DINUCLEOTIDE_MODEL,
        "zero-column": _zero_column(),
        "cyclic": CYCLIC,
    }

    # Steps 1 .. length - 1 are scanned in chunks of _SCAN_CHUNK, so
    # _SCAN_CHUNK + 1 bases fill exactly one chunk.
    @pytest.mark.parametrize("label", sorted(MATRICES))
    @pytest.mark.parametrize(
        "length",
        [0, 1, 2, 3, _SCAN_CHUNK, _SCAN_CHUNK + 1, _SCAN_CHUNK + 2,
         2 * _SCAN_CHUNK + 1],
    )
    def test_edge_lengths(self, label, length):
        _assert_matches_oracle(length, length, self.MATRICES[label], label)

    @pytest.mark.parametrize("label", ["default", "zero-column"])
    def test_draws_on_a_threshold(self, label):
        # A draw equal to a cumulative entry takes that entry's base, as
        # searchsorted's left side does; random draws never hit one.
        matrix = self.MATRICES[label]
        thresholds = np.append(np.cumsum(matrix, axis=1)[:, :3].ravel(), 0.0)
        uniforms = np.random.default_rng(1).choice(thresholds, 3000)
        expected = _oracle_markov(3000, _ScriptedDraws(uniforms), matrix)
        actual = markov_genome(3000, _ScriptedDraws(uniforms), matrix)
        assert np.array_equal(actual.codes, expected)

    def test_random_cases(self):
        for case in range(CASES):
            draw = np.random.default_rng([case, 39])
            kind = case % 4
            if kind == 0:
                label, matrix = "random", _random_stochastic(draw)
            else:
                label = sorted(self.MATRICES)[kind - 1]
                matrix = self.MATRICES[label]
            length = int(draw.integers(0, 600))
            if case % 10 == 0:
                length = int(draw.integers(600, 3 * _SCAN_CHUNK))
            _assert_matches_oracle(length, case, matrix, label)


def _sha256(codes):
    return hashlib.sha256(codes.tobytes()).hexdigest()


class TestGoldenDigests:
    """Every simulated genome rests on these bytes: the perf workloads'
    FASTA, CI's smoke inputs and the paper-claims harness.  A change
    that alters them changes every downstream measurement."""

    MARKOV = {
        (0, 1): "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        (3, 8193): "40c09142530dc1a2c09f8ece579bc1768f43e2be43dc3ed679905c5ce999f4a4",
        (20190216, 100_000): (
            "1469266dffc61bc3ee80189343ffde94fa8f9f02bbf7db80bb9a077e233603a3"
        ),
    }

    @pytest.mark.parametrize("seed, length", sorted(MARKOV))
    def test_markov_genome(self, seed, length):
        genome = markov_genome(length, np.random.default_rng(seed))
        assert _sha256(genome.codes) == self.MARKOV[seed, length]

    def test_species_pair(self):
        pair = make_species_pair(20_000, 0.3, np.random.default_rng(11))
        assert _sha256(pair.target.genome.codes) == (
            "6e23dd55d5dcbb855d9fd158585e019a88915ec4f8f8ff04eb29db0bcde41811"
        )
        assert _sha256(pair.query.genome.codes) == (
            "533895a3bb4fea5e1774ad486500498372df4a1db0e0f16f72ce4b9e2d58d4bc"
        )


class TestRepeats:
    def test_repeats_increase_seed_multiplicity(self, rng):
        base = markov_genome(20000, rng)
        with_repeats = plant_repeats(
            base, rng, count=20, repeat_length=300, family_size=2
        )
        assert len(with_repeats) == len(base)
        # Repeat copies should create long duplicated substrings; compare
        # 40-mer multiset sizes as a cheap proxy.
        from repro.genome import kmer_counts

        k = 8
        base_counts = kmer_counts(base, k)
        rep_counts = kmer_counts(with_repeats, k)
        assert rep_counts.max() > base_counts.max()

    def test_noop_on_zero_count(self, rng):
        base = markov_genome(1000, rng)
        assert plant_repeats(base, rng, count=0, repeat_length=100) is base

    def test_input_not_modified(self, rng):
        base = markov_genome(2000, rng)
        snapshot = base.codes.copy()
        plant_repeats(base, rng, count=5, repeat_length=100)
        assert np.array_equal(base.codes, snapshot)


class TestDinucleotideCounts:
    def test_simple_counts(self):
        counts = dinucleotide_counts(Sequence.from_string("AACG"))
        assert counts[0, 0] == 1  # AA
        assert counts[0, 1] == 1  # AC
        assert counts[1, 2] == 1  # CG
        assert counts.sum() == 3

    def test_n_excluded(self):
        counts = dinucleotide_counts(Sequence.from_string("ANA"))
        assert counts.sum() == 0

    def test_short_sequence(self):
        assert dinucleotide_counts(Sequence.from_string("A")).sum() == 0


class TestConcatenate:
    def test_concatenate(self):
        parts = [Sequence.from_string("AC"), Sequence.from_string("GT")]
        joined = concatenate(parts, name="chr")
        assert str(joined) == "ACGT"
        assert joined.name == "chr"

    def test_empty(self):
        assert len(concatenate([], name="chr")) == 0
