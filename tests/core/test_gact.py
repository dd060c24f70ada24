"""GACT baseline tests (Figure 10 comparator)."""

import numpy as np
import pytest

from repro.align import AnchorHit
from repro.align import _reference as ref
from repro.align.matrices import lastz_default
from repro.align.xdrop import TileEngine
from repro.core import (
    ExtensionParams,
    GactParams,
    gact_extend,
    gact_x_extend,
    tile_size_for_memory,
)
from repro.genome import Sequence


@pytest.fixture
def scoring():
    return lastz_default()


class TestTileSizing:
    def test_paper_memory_points(self):
        # 4-bit pointers: T = sqrt(2 * bytes)
        assert tile_size_for_memory(512 * 1024) == 1024
        assert tile_size_for_memory(2 * 1024 * 1024) == 2048
        assert tile_size_for_memory(1024 * 1024) == 1448

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            tile_size_for_memory(0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GactParams(tile_size=0)
        with pytest.raises(ValueError):
            GactParams(tile_size=10, overlap=10)


class TestGactExtension:
    def test_clean_segment_aligned_like_gact_x(self, scoring, rng):
        core = rng.integers(0, 4, 600).astype(np.uint8)
        pad = rng.integers(0, 4, 300).astype(np.uint8)
        pad2 = rng.integers(0, 4, 300).astype(np.uint8)
        target = Sequence(np.concatenate([pad, core, pad2]), "t")
        query = Sequence(np.concatenate([pad2, core, pad]), "q")
        anchor = AnchorHit(300 + 300, 300 + 300, 5000)
        gact_params = GactParams(tile_size=256, overlap=32, threshold=1000)
        gactx_params = ExtensionParams(
            tile_size=256, overlap=32, ydrop=9430, threshold=1000
        )
        gact_result = gact_extend(target, query, anchor, scoring, gact_params)
        gactx_result = gact_x_extend(
            target, query, anchor, scoring, gactx_params
        )
        assert gact_result.alignment is not None
        assert gactx_result.alignment is not None
        assert (
            abs(gact_result.alignment.matches - gactx_result.alignment.matches)
            <= 30
        )
        gact_result.alignment.verify(target, query)

    def test_gact_computes_full_tiles(self, scoring, rng):
        # The query runs 100 bp past the target, so the last tile is
        # 128 rows by the 52 target columns left (500 - 4 * 112).
        core = rng.integers(0, 4, 500).astype(np.uint8)
        tail = rng.integers(0, 4, 100).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(np.concatenate([core, tail]), "q")
        anchor = AnchorHit(0, 0, 5000)
        params = GactParams(tile_size=128, overlap=16, threshold=100)
        result = gact_extend(target, query, anchor, scoring, params)
        widths = [128, 128, 128, 128, 52]
        assert [trace.rows for trace in result.tiles] == [128] * 5
        for trace, width in zip(result.tiles, widths):
            assert trace.cells == trace.rows * width
            assert trace.row_windows == ((1, width),) * trace.rows
        assert result.alignment is not None
        assert result.alignment.target_end == len(target)

    def test_gact_costs_more_cells_than_gact_x(self, scoring, rng):
        core = rng.integers(0, 4, 800).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(core.copy(), "q")
        anchor = AnchorHit(400, 400, 5000)
        gact_result = gact_extend(
            target, query, anchor, scoring,
            GactParams(tile_size=256, overlap=32, threshold=100),
        )
        gactx_result = gact_x_extend(
            target, query, anchor, scoring,
            ExtensionParams(tile_size=256, overlap=32, ydrop=9430, threshold=100),
        )
        assert gact_result.cells > gactx_result.cells

    def test_gact_terminates_at_long_gap(self, scoring, rng):
        # Gap of 600bp inside a 256-tile: the local-scored tile path
        # disconnects from the origin and GACT stops early.
        core = rng.integers(0, 4, 2000).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(np.delete(core, slice(500, 1100)), "q")
        anchor = AnchorHit(100, 100, 5000)
        params = GactParams(tile_size=256, overlap=32, threshold=100)
        result = gact_extend(target, query, anchor, scoring, params)
        assert result.alignment is not None
        assert result.alignment.target_end <= 600

    def test_threshold_rejects(self, scoring, rng):
        core = rng.integers(0, 4, 300).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(core.copy(), "q")
        anchor = AnchorHit(150, 150, 5000)
        params = GactParams(tile_size=128, overlap=16, threshold=10**7)
        assert gact_extend(target, query, anchor, scoring, params).alignment is None


def record_tiles(monkeypatch):
    """Collect ``(target tile, query tile, result)`` of every engine call."""
    calls = []
    extend = TileEngine.extend

    def recording(engine, t_tile, q_tile, rows_out=None):
        got = extend(engine, t_tile, q_tile, rows_out)
        calls.append((t_tile, q_tile, got))
        return got

    monkeypatch.setattr(TileEngine, "extend", recording)
    return calls


def assert_tiles_match_oracle(calls, scoring):
    """Every tile equals the full-matrix Smith-Waterman oracle."""
    for t_tile, q_tile, got in calls:
        assert got.cells == len(t_tile) * len(q_tile)
        assert got.row_windows == ((1, len(t_tile)),) * len(q_tile)
        want = ref.align_local_reference(t_tile, q_tile, scoring)
        if want is None:
            assert got.score <= 0
            continue
        assert got.score == want.score
        assert (got.max_i, got.max_j) == (want.query_end, want.target_end)
        assert str(got.cigar) == str(want.cigar)


class TestSharedTileChain:
    """GACT's tiles are local-mode engine tiles on GACT-X's tile chain."""

    def test_tiles_match_oracle_tile_by_tile(self, scoring, rng, monkeypatch):
        # 300 unrelated bases left of the anchor, a 900 bp shared core
        # with 5 % substitutions right of it: the left chain dies in its
        # first tile, the right one runs through several 256 bp tiles.
        core = rng.integers(0, 4, 900).astype(np.uint8)
        other = core.copy()
        sites = rng.random(core.size) < 0.05
        other[sites] = (other[sites] + rng.integers(1, 4, sites.sum())) % 4
        target = Sequence(
            np.concatenate([rng.integers(0, 4, 300).astype(np.uint8), core]),
            "t",
        )
        query = Sequence(
            np.concatenate([rng.integers(0, 4, 300).astype(np.uint8), other]),
            "q",
        )
        calls = record_tiles(monkeypatch)
        params = GactParams(tile_size=256, overlap=32, threshold=1000)
        result = gact_extend(
            target, query, AnchorHit(300, 300, 5000), scoring, params
        )
        assert len(calls) == result.tile_count >= 4
        assert_tiles_match_oracle(calls, scoring)
        # Tiles are reported left chain first, each in chain order.
        assert [t.cells for t in result.tiles] == [
            got.cells for _, _, got in calls[-1:] + calls[:-1]
        ]
        assert result.alignment is not None
        assert result.alignment.target_end == len(target)

    def test_clamped_restart_ends_the_chain(self, scoring, rng, monkeypatch):
        # 100 transversions at [234, 334) clamp the second tile's path
        # (origin 224) to zero; its best local path restarts past them,
        # so it does not reach the origin and the chain stops with only
        # the first tile's piece.
        core = rng.integers(0, 4, 1000).astype(np.uint8)
        other = core.copy()
        other[234:334] = (other[234:334] + 1) % 4
        target = Sequence(core, "t")
        query = Sequence(other, "q")
        calls = record_tiles(monkeypatch)
        params = GactParams(tile_size=256, overlap=32, threshold=100)
        result = gact_extend(
            target, query, AnchorHit(0, 0, 5000), scoring, params
        )
        assert len(calls) == result.tile_count == 2
        assert_tiles_match_oracle(calls, scoring)
        last = calls[-1][2]
        assert last.score > 0
        assert last.cigar.target_span < last.max_j
        assert result.alignment is not None
        assert (result.alignment.target_end, result.alignment.query_end) == (
            224,
            224,
        )
