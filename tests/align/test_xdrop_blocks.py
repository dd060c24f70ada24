"""Tile-engine edges the random differential suite cannot reach.

``tests/align/test_differential.py`` draws tiles of at most 160 bp for
X-drop and 100 bp for Smith-Waterman and Needleman-Wunsch: at most three
traceback blocks and never a full GACT-X tile.  These cases pin the
block machinery of :mod:`repro.align.xdrop` (ring wrap, bulk pointer
flush, packed walk, the local zero plane) to the frozen oracles at block
boundaries, on full 1920 x 1920 tiles, on local paths that start past
the second block, and across tiles that reuse one engine's stores.
"""

import tracemalloc

import numpy as np
import pytest

from repro.align import (
    _dp,
    align_global,
    align_local,
    best_score,
    global_score,
    xdrop_extend,
)
from repro.align import _reference as ref
from repro.align.xdrop import _BLOCK, TileEngine
from repro.genome import Sequence

from .test_differential import BIG_Y, SCHEMES


def related_tiles(seed, n, m, identity=0.9):
    """An ``m``-column target and an ``n``-row query that mostly agree,
    with substitutions and one 3 bp deletion so every move type occurs."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 4, size=m).astype(np.uint8)
    query = np.resize(target, n + 3)
    edits = rng.random(n + 3) > identity
    query[edits] = (query[edits] + 1) % 4
    query = np.concatenate([query[: n // 3], query[n // 3 + 3 :]])
    return Sequence(target, name="t"), Sequence(query, name="q")


def assert_matches_oracle(target, query, scoring, ydrop):
    got = xdrop_extend(target, query, scoring, ydrop)
    want = ref.xdrop_extend_reference(target, query, scoring, ydrop)
    assert got.score == want.score
    assert (got.max_i, got.max_j) == (want.max_i, want.max_j)
    assert got.cells == want.cells
    assert got.row_windows == want.row_windows
    assert str(got.cigar) == str(want.cigar)
    return got


def assert_local_matches_oracle(target, query, scoring):
    want = ref.align_local_reference(target, query, scoring)
    assert align_local(target, query, scoring) == want
    assert best_score(target, query, scoring) == (
        ref.best_score_reference(target, query, scoring)
    )
    return want


def assert_global_matches_oracle(target, query, scoring):
    want = ref.align_global_reference(target, query, scoring)
    assert align_global(target, query, scoring) == want
    assert global_score(target, query, scoring) == want.score


BOUNDARY_ROWS = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1]


BOUNDARY_CASES = [
    (kernel, n)
    for kernel in ("xdrop", "local", "global")
    for n in BOUNDARY_ROWS
]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "kernel, n",
    BOUNDARY_CASES,
    # X-drop keeps its bare row-count ids.
    ids=[
        str(n) if kernel == "xdrop" else f"{kernel}-{n}"
        for kernel, n in BOUNDARY_CASES
    ],
)
def test_block_boundary_lengths_match_oracle(scheme, kernel, n):
    scoring = SCHEMES[scheme]
    if kernel != "xdrop":
        check = {
            "local": assert_local_matches_oracle,
            "global": assert_global_matches_oracle,
        }[kernel]
        # Near-identical, diverged and unrelated tiles: long paths
        # through every block, and local paths that stop on a zero.
        for seed, identity in enumerate((0.9, 0.6, 0.25)):
            target, query = related_tiles(100 * n + seed, n, n + 9, identity)
            check(target, query, scoring)
            check(query, target, scoring)
        return
    scale = 1_000_000 if scheme == "huge" else 1
    for seed, ydrop in enumerate((0, 7, 30, 100, 1000)):
        target, query = related_tiles(100 * n + seed, n, n + 9)
        assert_matches_oracle(target, query, scoring, ydrop * scale)
    target, query = related_tiles(n, n, n + 9)
    full = assert_matches_oracle(target, query, scoring, BIG_Y)
    assert full.rows_computed == n  # every block boundary was crossed


def island_tiles(seed, n):
    """An ``n``-row query and a target whose backgrounds never match
    (target A/C, query G/T), except for one planted island (a copy with
    substitutions and a 2 bp deletion) that ends a few rows before the
    query does: every scheme's best local path is the island's."""
    rng = np.random.default_rng(seed)
    m = n + int(rng.integers(-20, 21))
    target = rng.integers(0, 2, size=m).astype(np.uint8)
    query = rng.integers(2, 4, size=n).astype(np.uint8)
    length = int(rng.integers(30, 41))
    t0 = int(rng.integers(0, m - length - 2))
    island = target[t0 : t0 + length + 2].copy()
    island = np.concatenate([island[: length // 2], island[length // 2 + 2 :]])
    edits = rng.random(length) < 0.08
    island[edits] = (island[edits] + 1) % 4
    q0 = n - length - int(rng.integers(0, 6))
    query[q0 : q0 + length] = island
    return Sequence(target, name="t"), Sequence(query, name="q")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_local_path_starting_past_the_second_block_matches_oracle(scheme):
    scoring = SCHEMES[scheme]
    rng = np.random.default_rng(len(scheme))
    for seed in range(8):
        n = int(rng.integers(2 * _BLOCK + 50, 401))
        target, query = island_tiles(1000 * seed + n, n)
        want = assert_local_matches_oracle(target, query, scoring)
        # The walk starts in a block past the second and stops on that
        # block's zero plane.
        assert want.query_start > 2 * _BLOCK


def test_dead_row_is_first_row_of_a_block():
    scoring = SCHEMES["unit"]
    target = Sequence.from_string("AC" * 60)
    query = Sequence.from_string("AC" * (_BLOCK // 2) + "G" * 40)
    # Rows 1.._BLOCK ride the diagonal; row _BLOCK + 1 mismatches every
    # column and falls below V_max - 2 everywhere.
    got = assert_matches_oracle(target, query, scoring, 2)
    assert got.rows_computed == _BLOCK + 1
    assert got.max_i == _BLOCK
    assert str(got.cigar) == f"{_BLOCK}="


@pytest.mark.parametrize(
    "target, query",
    [
        ("CAAAACAA", "ACACACAAACAAC"),
        ("CCCCAAAACC", "ACACACCCAAAAC"),
        ("CCCCCAAACA", "AACCAACCAAAC"),
    ],
)
def test_vertical_gap_tie_sides_with_extension(target, query):
    # On these paths a cell's U ties between opening from V and
    # extending the U run above (o - e = 3 = one mismatch); the oracle
    # extends, and any other rule gives an equal-score, different CIGAR.
    assert_matches_oracle(
        Sequence.from_string(target),
        Sequence.from_string(query),
        SCHEMES["unit"],
        BIG_Y,
    )


def test_lane_finishes_on_last_row_of_a_full_block():
    scoring = SCHEMES["lastz"]
    target, query = related_tiles(5, _BLOCK, _BLOCK + 20)
    got = assert_matches_oracle(target, query, scoring, BIG_Y)
    assert got.rows_computed == len(query) == _BLOCK


@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_size_tile_matches_oracle(scheme):
    scoring = SCHEMES[scheme]
    ydrop = 9430 * (100_000 if scheme == "huge" else 1)
    target, query = related_tiles(1920, 1920, 1920)
    got = assert_matches_oracle(target, query, scoring, ydrop)
    assert got.rows_computed > 10 * _BLOCK
    # Four bits per cell of the block rectangles, nothing per cell of
    # the 1920 x 1920 tile.
    assert got.cells // 2 <= got.traceback_bytes <= 1920 * 1920 // 2


def test_two_lanes_with_unequal_tile_counts_match_sequential_oracle():
    scoring = SCHEMES["lastz"]
    # Shorter and longer tiles back to back through one engine, so its
    # rings and pointer store are reused with stale content at other
    # widths.
    tiles = [
        related_tiles(1, 150, 160),
        related_tiles(4, 2 * _BLOCK + 1, 140),
        related_tiles(2, _BLOCK, 70),
        related_tiles(3, 200, 190),
    ]
    with TileEngine(scoring, 300, 200) as engine:
        results = [engine.extend(target, query) for target, query in tiles]
    for (target, query), got in zip(tiles, results):
        want = ref.xdrop_extend_reference(target, query, scoring, 300)
        assert (got.score, got.max_i, got.max_j, got.cells) == (
            want.score, want.max_i, want.max_j, want.cells
        )
        assert got.row_windows == want.row_windows
        assert str(got.cigar) == str(want.cigar)


def test_tile_longer_than_max_tile_len_is_rejected():
    scoring = SCHEMES["lastz"]
    target, query = related_tiles(6, 300, 300)
    with TileEngine(scoring, 300, 100) as engine:
        with pytest.raises(
            ValueError, match="300 bp exceeds max_tile_len 100"
        ):
            engine.extend(target, query)


def test_no_traceback_holds_no_h_ring_and_no_pointers(monkeypatch):
    workspace = _dp.KernelWorkspace()
    monkeypatch.setattr(_dp, "_WORKSPACES", [workspace])
    target, query = related_tiles(7, 300, 300)
    tracemalloc.start()
    try:
        got = xdrop_extend(
            target, query, SCHEMES["lastz"], 9430, with_traceback=False
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.cigar is None and got.traceback_bytes == 0
    names = {name for name, _ in workspace._slabs}
    assert {"xv", "xu"} <= names
    assert not {"xh", "xp", "flags", "diff"} & names
    # Two 65-row int32 rings (0.15 MiB) plus a few scratch rows; the
    # full-tile V/U matrices alone would be 0.7 MiB.
    assert peak < 512 * 1024
