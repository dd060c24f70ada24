"""The banded sweep's 16-bit tier, at the edge of its proof.

:func:`repro.align._dp.banded_local_dtype` admits ``int16`` only when
every value a tile can hold fits: ``V <= min(n, m) * W+`` at the top and
``-(o + 2B*e)`` above the sentinel at the bottom.  These slabs sit on
both sides of each edge and are checked against the frozen int64
oracle, so a bound that is one cell too generous shows up as a wrong
score rather than as a silent wrap.  One slab, under a scheme where
gaps are cheaper than mismatches, is wrong without the prefix scan's
``-(width - 1) * e`` bias.
"""

import numpy as np
import pytest

from repro.align import _dp, bsw_batch, unit
from repro.align import _reference as ref
from repro.align.matrices import lastz_default
from repro.core import DarwinWGAConfig
from repro.genome import alphabet

LASTZ = lastz_default()


def _edge_slab(length, rng, random_tiles=13):
    """Random tiles around a poly-C pair (the matrix maximum on every
    cell of the diagonal) and the same pair with one mismatch."""
    targets = rng.integers(0, 5, (random_tiles + 2, length)).astype(np.uint8)
    queries = rng.integers(0, 5, (random_tiles + 2, length)).astype(np.uint8)
    queries[random_tiles // 2] = targets[random_tiles // 2]  # a related tile
    targets[-2:] = alphabet.C
    queries[-2:] = alphabet.C
    queries[-1, length // 2] = alphabet.T
    return targets, queries


def _run(targets, queries, band, monkeypatch, scoring=LASTZ):
    """``bsw_batch`` and the oracle on one slab, plus the dtype it ran."""
    chosen = []
    pick = _dp.banded_local_dtype

    def spy(*args):
        chosen.append(pick(*args))
        return chosen[-1]

    monkeypatch.setattr(_dp, "banded_local_dtype", spy)
    got = bsw_batch(targets, queries, scoring, band)
    want = ref.bsw_batch_reference(targets, queries, scoring, band)
    for got_arr, want_arr, field in zip(got, want, ("score", "i", "j")):
        assert np.array_equal(got_arr, want_arr), field
    return got[0], chosen


def test_poly_c_tile_at_the_int16_ceiling(rng, monkeypatch):
    targets, queries = _edge_slab(320, rng)
    scores, chosen = _run(targets, queries, 32, monkeypatch)
    assert chosen == [np.int16]
    assert scores[-2] == 32_000  # 320 * W+: the bound is tight
    assert scores[-1] == 319 * 100 - 25  # one C/T transition


def test_poly_c_tile_past_the_int16_ceiling(rng, monkeypatch):
    targets, queries = _edge_slab(328, rng)
    scores, chosen = _run(targets, queries, 32, monkeypatch)
    assert chosen == [np.int32]
    assert scores[-2] == 32_800  # would wrap in 16 bits


def test_late_gaps_at_the_ceiling_need_the_scan_bias(rng, monkeypatch):
    # Mismatches dearer than gaps: near-perfect tiles whose best paths
    # take a gap late, where ``V + c*e`` would pass 2**15 - 1 unbiased.
    scoring = unit(match=100, mismatch=-1000, gap_open=100, gap_extend=100)
    targets = rng.integers(0, 4, (24, 330)).astype(np.uint8)
    queries = np.empty((24, 320), dtype=np.uint8)
    for row, target in zip(queries, targets):
        codes = list(target)
        for at in rng.integers(200, 320, 2):
            if rng.random() < 0.5:
                del codes[at]
            else:
                codes.insert(at, int(rng.integers(0, 4)))
        row[:] = codes[:320]
    targets = np.ascontiguousarray(targets[:, :320])
    scores, chosen = _run(targets, queries, 32, monkeypatch, scoring)
    assert chosen == [np.int16]
    assert scores.max() > 32_767 - 32 * 100


@pytest.mark.parametrize(
    "band, dtype",
    # o + 2B*e = 430 + 60B meets the 2**14 sentinel between B = 265
    # and B = 266.
    [(265, np.int16), (266, np.int32)],
)
def test_band_at_the_gap_floor(band, dtype, rng, monkeypatch):
    targets, queries = _edge_slab(320, rng, random_tiles=5)
    scores, chosen = _run(targets, queries, band, monkeypatch)
    assert chosen == [dtype]
    assert scores[-2] == 32_000


@pytest.mark.parametrize(
    "config",
    [DarwinWGAConfig(), DarwinWGAConfig().scaled(0.5)],
    ids=["table-ii", "scaled-0.5"],
)
def test_paper_filter_tiles_run_in_int16(config):
    tile = config.filtering.tile_size
    assert _dp.banded_local_dtype(
        config.scoring, tile, tile, config.filtering.band
    ) == np.int16
