"""Shared fixtures for the test suite."""

import pickle

import numpy as np
import pytest

from repro.align.matrices import lastz_default, unit
from repro.genome import Assembly, Sequence, make_species_pair


@pytest.fixture(autouse=True, scope="session")
def tasks_pickle_at_the_pool_boundary():
    """Pickle each task and its arguments before the engine hands them on.
    A pool pickles them later, in a thread, and the supervisor's retries
    and serial fallback hide the error: a lambda still gives 42."""
    from repro.parallel.engine import ExecutionEngine

    def pickled_first(delegate):
        def checked(self, fn, /, *args, **kwargs):
            pickle.dumps((fn, args, kwargs))
            return delegate(self, fn, *args, **kwargs)

        return checked

    with pytest.MonkeyPatch.context() as patch:
        for name in ("submit", "dispatch"):
            delegate = getattr(ExecutionEngine, name)
            patch.setattr(ExecutionEngine, name, pickled_first(delegate))
        yield


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_rng():
    return np.random.default_rng(98765)


@pytest.fixture(scope="session")
def small_pair():
    """A small mosaic species pair shared by integration-style tests."""
    return make_species_pair(
        12000,
        0.8,
        np.random.default_rng(2024),
        exon_count=6,
        alignable_fraction=0.4,
        island_mean_length=300,
        island_distance_cap=0.4,
        indel_per_substitution=0.14,
        exon_indel_per_substitution=0.05,
    )


@pytest.fixture(scope="session")
def close_pair():
    """A close, fully alignable pair."""
    return make_species_pair(8000, 0.1, np.random.default_rng(7))


@pytest.fixture(scope="session")
def nine_units():
    """A 3x3-chromosome assembly pair (1.5 kbp each): nine units, more
    than two workers can hold, with alignments on five of them."""
    pair = make_species_pair(4500, 0.4, np.random.default_rng(23))
    return tuple(
        Assembly(
            name=prefix,
            chromosomes=[
                Sequence(genome.codes[i : i + 1500], name=f"{prefix}{n}")
                for n, i in enumerate(range(0, 4500, 1500), 1)
            ],
        )
        for prefix, genome in (
            ("t", pair.target.genome),
            ("q", pair.query.genome),
        )
    )


@pytest.fixture
def unit_scoring():
    return unit(match=5, mismatch=-4, gap_open=8, gap_extend=2)


@pytest.fixture
def lastz_scoring():
    return lastz_default()


def random_sequence(rng, length, include_n=False, name="seq"):
    """Helper used across test modules."""
    high = 5 if include_n else 4
    return Sequence(
        rng.integers(0, high, size=length).astype(np.uint8), name=name
    )
