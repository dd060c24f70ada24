"""Microbenchmarks of the computational kernels (pytest-benchmark).

These measure the Python implementation's own throughput — the analogue
of the paper's Parasail software baseline measurements — and anchor the
cells/second constants used to sanity-check the cost model.  Kernel
throughput against the frozen oracles of :mod:`repro.align._reference`
is a ``perf/`` layer metric (``align.bsw_batch_vs_ref``,
``align.xdrop_vs_ref``), measured on each workload's own tiles.
"""

import numpy as np
import pytest

from repro.align import bsw_batch, ungapped_extend_batch, xdrop_extend
from repro.align.matrices import lastz_default
from repro.genome import Sequence
from repro.seed import DsoftParams, SeedIndex, SpacedSeed, dsoft_seed


@pytest.fixture(scope="module")
def scoring():
    return lastz_default()


@pytest.fixture(scope="module")
def genome_pair():
    rng = np.random.default_rng(5)
    target = Sequence(rng.integers(0, 4, 50000).astype(np.uint8), "t")
    q_codes = rng.integers(0, 4, 50000).astype(np.uint8)
    q_codes[10000:30000] = target.codes[15000:35000]
    return target, Sequence(q_codes, "q")


@pytest.mark.benchmark(group="kernels")
def test_bsw_batch_tile_throughput(benchmark, scoring):
    rng = np.random.default_rng(6)
    k = 64
    targets = rng.integers(0, 4, (k, 320)).astype(np.uint8)
    queries = rng.integers(0, 4, (k, 320)).astype(np.uint8)

    def run():
        return bsw_batch(targets, queries, scoring, band=32)

    scores, _, _ = benchmark(run)
    assert scores.shape == (k,)


@pytest.mark.benchmark(group="kernels")
def test_xdrop_tile_throughput(benchmark, scoring):
    rng = np.random.default_rng(7)
    core = rng.integers(0, 4, 1920).astype(np.uint8)
    target = Sequence(core, "t")
    mutated = core.copy()
    sites = rng.random(1920) < 0.2
    mutated[sites] = (mutated[sites] + 1) % 4
    query = Sequence(mutated, "q")

    result = benchmark(lambda: xdrop_extend(target, query, scoring, 9430))
    assert result.score > 0


@pytest.mark.benchmark(group="kernels")
def test_ungapped_batch_throughput(benchmark, scoring, genome_pair):
    target, query = genome_pair
    rng = np.random.default_rng(8)
    k = 4096
    t_pos = rng.integers(0, len(target), k)
    q_pos = rng.integers(0, len(query), k)

    def run():
        return ungapped_extend_batch(
            target, query, t_pos, q_pos, scoring, xdrop=910, max_length=256
        )

    scores, _, _ = benchmark(run)
    assert scores.shape == (k,)


@pytest.mark.benchmark(group="kernels")
def test_seed_index_build(benchmark, genome_pair):
    target, _ = genome_pair
    seed = SpacedSeed()
    index = benchmark(lambda: SeedIndex.build(target, seed))
    assert index.size > 0


@pytest.mark.benchmark(group="kernels")
def test_dsoft_seeding_throughput(benchmark, genome_pair):
    target, query = genome_pair
    seed = SpacedSeed()
    index = SeedIndex.build(target, seed)

    result = benchmark(
        lambda: dsoft_seed(index, query, DsoftParams())
    )
    assert result.raw_hit_count > 0
