"""Differential tests: vectorised kernels vs the frozen row-at-a-time oracles.

Every production DP kernel in :mod:`repro.align` is checked against its
preserved original in :mod:`repro.align._reference` over thousands of
seeded random cases: identical scores, CIGARs, maxima positions, cell
counts and (for X-drop) the per-row ``(j_start, j_stop)`` windows that
the hardware stripe sequencer replays.  Degenerate inputs (empty and
one-base tiles, all-N sequences, homopolymers) and extreme ``Y``/band
values are mixed in deterministically.

The case count per kernel scales with ``REPRO_DIFF_CASES`` (default 400
for local runs; CI sets it to at least 2000).  Failures print a minimal
repro tuple — ``(kernel, case_seed, scheme, params)`` — that rebuilds the
failing inputs exactly.
"""

import os

import numpy as np
import pytest

from repro.align import (
    align_global,
    align_local,
    best_score,
    bsw_batch,
    bsw_tile,
    global_score,
    xdrop_extend,
)
from repro.align import _reference as ref
from repro.align.matrices import hoxd70, lastz_default, unit
from repro.align.smith_waterman import score_matrix
from repro.core import FilterParams, gapped_filter
from repro.core.gapped_filter import gapped_filter_stream
from repro.genome import Sequence

CASES = int(os.environ.get("REPRO_DIFF_CASES", "400"))

BIG_Y = 10**9

#: Scoring schemes by name; names keep repro tuples readable.  The
#: "huge" scheme forces the kernels off the narrow int32 fast path.
SCHEMES = {
    "lastz": lastz_default(),
    "hoxd70": hoxd70(),
    "unit": unit(match=2, mismatch=-3, gap_open=5, gap_extend=2),
    "flat": unit(match=1, mismatch=-1, gap_open=1, gap_extend=1),
    "huge": unit(
        match=2_000_000,
        mismatch=-3_000_000,
        gap_open=5_000_000,
        gap_extend=2_000_000,
    ),
}
SCHEME_NAMES = tuple(SCHEMES)

YDROPS = (0, 1, 7, 30, 100, 1000, BIG_Y)
BANDS = (0, 1, 2, 5, 16, 64, 10**6)


def _case_sequences(case_seed, max_len=160):
    """Two random sequences for one case, with degenerate shapes mixed in.

    The same ``case_seed`` always rebuilds the same inputs — it is the
    repro handle printed on failure.
    """
    rng = np.random.default_rng(case_seed)
    kind = case_seed % 8
    if kind == 0:  # empty / near-empty tiles
        m = int(rng.integers(0, 2))
        n = int(rng.integers(0, 2))
    elif kind == 1:  # one-base tiles against normal ones
        m = 1
        n = int(rng.integers(1, max_len))
    else:
        m = int(rng.integers(1, max_len))
        n = int(rng.integers(1, max_len))
    t_codes = rng.integers(0, 5, size=m).astype(np.uint8)
    q_codes = rng.integers(0, 5, size=n).astype(np.uint8)
    if kind == 2:  # homopolymers: every cell ties, stressing tie rules
        t_codes[:] = 0
        q_codes[:] = 0
    elif kind == 3:  # all-ambiguous
        t_codes[:] = 4
        q_codes[:] = 4
    elif kind == 4 and m and n:  # high identity with sprinkled edits
        span = min(m, n)
        q_codes[:span] = t_codes[:span]
        edits = rng.random(n) < 0.1
        q_codes[edits] = (q_codes[edits] + 1) % 4
    return Sequence(t_codes, name="t"), Sequence(q_codes, name="q")


def _repro(kernel, case_seed, scheme_name, **params):
    return (
        f"repro tuple: ({kernel!r}, case_seed={case_seed}, "
        f"scheme={scheme_name!r}, {params})"
    )


def _case_ids(prefix):
    return [f"{prefix}-{i}" for i in range(CASES)]


@pytest.mark.parametrize("case_seed", range(CASES), ids=_case_ids("xd"))
def test_xdrop_matches_oracle(case_seed):
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    ydrop = YDROPS[(case_seed // 3) % len(YDROPS)]
    target, query = _case_sequences(case_seed)
    note = _repro("xdrop", case_seed, scheme_name, ydrop=ydrop)

    got = xdrop_extend(target, query, scoring, ydrop)
    want = ref.xdrop_extend_reference(target, query, scoring, ydrop)
    assert got.score == want.score, note
    assert (got.max_i, got.max_j) == (want.max_i, want.max_j), note
    assert got.cells == want.cells, note
    assert got.row_windows == want.row_windows, note
    assert str(got.cigar) == str(want.cigar), note


@pytest.mark.parametrize("case_seed", range(CASES), ids=_case_ids("sw"))
def test_smith_waterman_matches_oracle(case_seed):
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    target, query = _case_sequences(case_seed, max_len=100)
    note = _repro("smith_waterman", case_seed, scheme_name)

    got = align_local(target, query, scoring)
    want = ref.align_local_reference(target, query, scoring)
    assert (got is None) == (want is None), note
    if got is not None:
        assert got == want, note
    assert best_score(target, query, scoring) == (
        ref.best_score_reference(target, query, scoring)
    ), note
    if case_seed % 5 == 0:
        assert np.array_equal(
            score_matrix(target, query, scoring),
            ref.score_matrix_reference(target, query, scoring),
        ), note


@pytest.mark.parametrize("case_seed", range(CASES), ids=_case_ids("nw"))
def test_needleman_wunsch_matches_oracle(case_seed):
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    target, query = _case_sequences(case_seed, max_len=100)
    note = _repro("needleman_wunsch", case_seed, scheme_name)

    assert align_global(target, query, scoring) == (
        ref.align_global_reference(target, query, scoring)
    ), note
    assert global_score(target, query, scoring) == (
        ref.global_score_reference(target, query, scoring)
    ), note


# Batched BSW compares whole stacks per case, so fewer cases cover the
# same number of random tiles as the other kernels.
BSW_CASES = max(1, CASES // 8)


@pytest.mark.parametrize(
    "case_seed", range(BSW_CASES), ids=_case_ids("bsw")[:BSW_CASES]
)
def test_bsw_batch_matches_oracle(case_seed):
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    band = BANDS[(case_seed // 2) % len(BANDS)]
    rng = np.random.default_rng(10_000 + case_seed)
    k = int(rng.integers(0, 12))
    m = int(rng.integers(1, 120))
    n = int(rng.integers(1, 120))
    targets = rng.integers(0, 5, size=(k, m)).astype(np.uint8)
    queries = rng.integers(0, 5, size=(k, n)).astype(np.uint8)
    if case_seed % 7 == 0 and k:
        targets[:] = 0  # homopolymer stack: maximal tie pressure
        queries[:] = 0
    note = _repro("bsw_batch", case_seed, scheme_name, band=band, k=k)

    got = bsw_batch(targets, queries, scoring, band)
    want = ref.bsw_batch_reference(targets, queries, scoring, band)
    for got_arr, want_arr, field in zip(got, want, ("score", "i", "j")):
        assert np.array_equal(got_arr, want_arr), f"{field} {note}"


@pytest.mark.parametrize(
    "case_seed", range(BSW_CASES), ids=_case_ids("bswt")[:BSW_CASES]
)
def test_bsw_tile_matches_oracle(case_seed):
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    band = BANDS[(case_seed // 3) % len(BANDS)]
    target, query = _case_sequences(case_seed + 20_000, max_len=120)
    note = _repro("bsw_tile", case_seed, scheme_name, band=band)
    assert bsw_tile(target, query, scoring, band) == (
        ref.bsw_tile_reference(target, query, scoring, band)
    ), note


@pytest.mark.parametrize(
    "case_seed", range(BSW_CASES), ids=_case_ids("bsws")[:BSW_CASES]
)
def test_tile_stream_matches_per_strand_calls(case_seed):
    """Strands sharing BSW slabs score every tile as a call of its own
    strand would: random strand splits (empty strands included), slab
    sizes, tile geometry and thresholds, with candidates reaching past
    both sequence ends so N-padded tiles straddle slabs too."""
    scheme_name = SCHEME_NAMES[case_seed % len(SCHEME_NAMES)]
    scoring = SCHEMES[scheme_name]
    rng = np.random.default_rng(30_000 + case_seed)
    tile = int(rng.integers(1, 48))
    params = FilterParams(
        tile_size=tile,
        band=BANDS[(case_seed // 2) % len(BANDS)],
        threshold=int(rng.choice([0, 1, 40, 400])),
    )
    batch_size = int(rng.integers(1, 12))
    target = Sequence(
        rng.integers(0, 5, int(rng.integers(1, 200))).astype(np.uint8), "t"
    )
    strands = []
    for number in range(int(rng.integers(1, 4))):
        query = Sequence(
            rng.integers(0, 5, int(rng.integers(1, 200))).astype(np.uint8),
            "q",
        )
        count = int(rng.integers(0, 3 * batch_size))
        if count and rng.random() < 0.3:  # a planted copy: tiles score
            query = Sequence(target.codes.copy(), "q")
        t_pos = rng.integers(-tile, len(target) + tile, count)
        q_pos = t_pos + rng.integers(-2, 3, count)
        strand = 1 if number % 2 == 0 else -1
        strands.append((query, t_pos, q_pos, strand))
    note = _repro(
        "gapped_filter_stream", case_seed, scheme_name, params=params,
        batch_size=batch_size, counts=[len(s[1]) for s in strands],
    )

    got = list(
        gapped_filter_stream(
            target, strands, scoring, params, batch_size=batch_size
        )
    )
    want = [
        gapped_filter(target, query, t_pos, q_pos, scoring, params, strand)
        for query, t_pos, q_pos, strand in strands
    ]
    assert got == want, note
