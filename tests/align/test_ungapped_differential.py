"""Differential tests: chunked ungapped extension vs the frozen slab.

``ungapped_extend_batch`` advances live lanes ``CHUNK`` columns at a time
and retires a lane once X-drop (or a sequence end, or ``max_length``) has
stopped it.  That may not change a value: scores and both spans are held
equal — same dtype, same elements — to the full-window slab kernel
frozen in ``tests/reference.py``, and, for every hit inside the
sequences, to the per-hit ``ungapped_extend``.

The seeded case count scales with ``REPRO_DIFF_CASES`` (default 400 for
local runs; CI sets it to at least 2000).  A failing case prints its
``case_seed``, which rebuilds the inputs exactly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import _dp, ungapped_extend, ungapped_extend_batch, unit
from repro.align.matrices import lastz_default
from repro.align.ungapped import CHUNK
from repro.genome import Sequence

from .. import reference

CASES = int(os.environ.get("REPRO_DIFF_CASES", "400"))

#: 0 and a few mismatches' worth; LASTZ's default; beyond any reachable
#: score in ``int32``; beyond it in ``int64``.
XDROPS = (0, 37, 910, 10**5, 2**40)

#: Window sizes on both sides of one and two chunks, the filter's own
#: 512, and the kernel default that no test sequence reaches.
MAX_LENGTHS = (
    1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1, 512, 4096
)

UNIT = unit(match=10, mismatch=-5, gap_open=15, gap_extend=5)
SCORINGS = (lastz_default(), UNIT)


def assert_batch_equal(
    target, query, t_pos, q_pos, scoring, xdrop, cap, label
):
    """Chunked batch == frozen slab == per-hit oracle; returns the batch."""
    t_pos = np.asarray(t_pos, dtype=np.int64)
    q_pos = np.asarray(q_pos, dtype=np.int64)
    got = ungapped_extend_batch(
        target, query, t_pos, q_pos, scoring, xdrop, max_length=cap
    )
    want = reference.ungapped_extend_batch_reference(
        target, query, t_pos, q_pos, scoring, xdrop, max_length=cap
    )
    for name, ours, theirs in zip(("score", "left", "right"), got, want):
        assert ours.dtype == theirs.dtype, label
        np.testing.assert_array_equal(ours, theirs, f"{name} {label}")
    scores, left, right = got
    inside = (
        (t_pos >= 0) & (t_pos <= len(target))
        & (q_pos >= 0) & (q_pos <= len(query))
    )
    for i in np.flatnonzero(inside).tolist():
        tp, qp = int(t_pos[i]), int(q_pos[i])
        single = ungapped_extend(
            target, query, tp, qp, scoring, xdrop, max_length=cap
        )
        assert (
            int(scores[i]), int(left[i]), int(right[i])
        ) == (
            single.score, tp - single.target_start, single.target_end - tp
        ), f"hit {i} {label}"
    return got


def _case(case_seed):
    """``(target, query, t_pos, q_pos)`` of one seeded case."""
    rng = np.random.default_rng(case_seed)
    kind = case_seed % 8
    m = int(rng.integers(1, 700))
    n = int(rng.integers(1, 700))
    if kind == 0:  # tiny sequences: every hit is next to an end
        m, n = int(rng.integers(0, 6)), int(rng.integers(0, 6))
    t_codes = rng.integers(0, 4, size=m).astype(np.uint8)
    q_codes = rng.integers(0, 4, size=n).astype(np.uint8)
    if kind in (1, 2, 3):  # related: lanes live for many chunks
        shared = min(m, n)
        q_codes[:shared] = t_codes[:shared]
        if kind != 1:  # 1 is identical: a lane runs to the cap
            flips = rng.random(shared) < (0.05 if kind == 2 else 0.3)
            q_codes[:shared][flips] ^= int(rng.integers(1, 4))
    if kind == 4:  # N runs, some shared
        for codes in (t_codes, q_codes):
            for _ in range(3):
                at = int(rng.integers(0, codes.size + 1))
                codes[at : at + int(rng.integers(1, 40))] = 4
    if kind == 5:  # low complexity: long ties in the cumulative score
        t_codes[:] = np.resize(rng.integers(0, 4, size=3), m)
        q_codes[:] = np.resize(t_codes[:3], n)
    target, query = Sequence(t_codes, "t"), Sequence(q_codes, "q")
    k = int(rng.choice([0, 1, 2, 7, 40]))
    if kind in (1, 2, 3, 5) and rng.integers(0, 2):  # the main diagonal
        t_pos = rng.integers(0, min(m, n) + 1, size=k)
        q_pos = t_pos.copy()
    else:
        t_pos = rng.integers(0, m + 1, size=k)
        q_pos = rng.integers(0, n + 1, size=k)
    if kind == 6 and k:  # on and beyond both ends of both sequences
        t_pos[: k // 2 + 1] = rng.choice(
            [-3, -1, 0, m - 1, m, m + 1, m + 70], k // 2 + 1
        )
        q_pos[k // 2 :] = rng.choice([-2, 0, n, n + 1, n + 200], k - k // 2)
    return target, query, t_pos, q_pos


def test_seeded_cases_match_slab_and_single():
    multi_chunk = scored = 0
    for case_seed in range(CASES):
        rng = np.random.default_rng(10**6 + case_seed)
        target, query, t_pos, q_pos = _case(case_seed)
        xdrop = XDROPS[int(rng.integers(0, len(XDROPS)))]
        cap = MAX_LENGTHS[int(rng.integers(0, len(MAX_LENGTHS)))]
        scoring = SCORINGS[case_seed % 2]
        scores, left, right = assert_batch_equal(
            target, query, t_pos, q_pos, scoring, xdrop, cap,
            f"case_seed={case_seed} xdrop={xdrop} max_length={cap}",
        )
        scored += bool((scores > 0).any())
        multi_chunk += bool((np.maximum(left, right) > CHUNK).any())
    # the suite must reach real extensions, some of them carried across
    # a chunk boundary
    assert scored > CASES // 4
    assert multi_chunk > CASES // 20


@pytest.mark.parametrize("xdrop", XDROPS)
@pytest.mark.parametrize("cap", MAX_LENGTHS)
def test_every_xdrop_and_window_on_one_related_pair(xdrop, cap):
    rng = np.random.default_rng(23)
    t_codes = rng.integers(0, 4, size=900).astype(np.uint8)
    q_codes = t_codes.copy()
    flips = rng.random(900) < 0.08
    q_codes[flips] ^= 2
    q_codes[300:330] = 4  # an N run on the diagonal
    target, query = Sequence(t_codes, "t"), Sequence(q_codes[:850], "q")
    t_pos = np.array([0, 1, 5, 299, 300, 450, 849, 850, 851, 900, 40, 700, -1])
    q_pos = np.array([0, 1, 5, 299, 300, 450, 849, 850, 850, 850, 90, 100, 3])
    assert_batch_equal(
        target, query, t_pos, q_pos, lastz_default(), xdrop, cap,
        f"xdrop={xdrop} max_length={cap}",
    )


def test_equal_maxima_in_two_chunks_keep_the_earlier_span():
    scoring = UNIT
    # cumulative: 400 at column 40, down to 300, back to exactly 400 at
    # column 70 (inside the second chunk), then down for good.
    assert CHUNK == 64
    pattern = [True] * 40 + [False] * 20 + [True] * 10 + [False] * 60
    t_codes = np.zeros(len(pattern), dtype=np.uint8)
    q_codes = np.where(pattern, 0, 1).astype(np.uint8)
    target, query = Sequence(t_codes, "t"), Sequence(q_codes, "q")
    scores, left, right = ungapped_extend_batch(
        target, query, np.array([0]), np.array([0]), scoring, 150
    )
    assert (scores[0], left[0], right[0]) == (400, 0, 40)
    # and leftwards from the far end of the mirrored pair
    mirrored = Sequence(q_codes[::-1].copy(), "q")
    end = np.array([len(pattern)])
    scores, left, right = ungapped_extend_batch(
        target, mirrored, end, end, scoring, 150
    )
    assert (scores[0], left[0], right[0]) == (400, 40, 0)
    for q in (query, mirrored):
        assert_batch_equal(
            target, q, [0, len(pattern)], [0, len(pattern)], scoring, 150,
            4096, "tie",
        )


def test_empty_and_single_lane_batches(rng):
    scoring = lastz_default()
    target = Sequence(rng.integers(0, 4, 200).astype(np.uint8), "t")
    for positions in ([], [100]):
        scores, _, _ = assert_batch_equal(
            target, target, positions, positions, scoring, 910, 512,
            f"k={len(positions)}",
        )
        assert scores.shape == (len(positions),)
        assert scores.dtype == np.int64


def test_int64_fallback_equals_int32():
    scoring = lastz_default()
    narrow, wide = 10**5, 2**40  # neither can ever stop a 512-column lane
    assert _dp.kernel_dtype(scoring, 512 + CHUNK, slack=910) == np.int32
    assert _dp.kernel_dtype(scoring, 512 + CHUNK, slack=narrow) == np.int32
    assert _dp.kernel_dtype(scoring, 512 + CHUNK, slack=wide) == np.int64
    rng = np.random.default_rng(5)
    t_codes = rng.integers(0, 4, size=3000).astype(np.uint8)
    q_codes = t_codes.copy()
    q_codes[rng.random(3000) < 0.2] ^= 1
    target, query = Sequence(t_codes, "t"), Sequence(q_codes, "q")
    t_pos = rng.integers(0, 3001, size=60)
    q_pos = np.where(rng.random(60) < 0.5, t_pos, rng.integers(0, 3001, 60))
    in32 = assert_batch_equal(
        target, query, t_pos, q_pos, scoring, narrow, 512, "int32"
    )
    in64 = assert_batch_equal(
        target, query, t_pos, q_pos, scoring, wide, 512, "int64"
    )
    for narrow_values, wide_values in zip(in32, in64):
        np.testing.assert_array_equal(narrow_values, wide_values)
    assert (in64[1] > CHUNK).any() and (in64[2] > CHUNK).any()


#: Sequence text from stretches of bases, N runs and tandem repeats.
segments = st.one_of(
    st.text(alphabet="ACGT", max_size=80),
    st.text(alphabet="N", min_size=1, max_size=25),
    st.builds(
        lambda unit_text, copies: unit_text * copies,
        st.text(alphabet="ACGT", min_size=1, max_size=6),
        st.integers(2, 40),
    ),
)
sequence_text = st.lists(segments, max_size=6).map("".join)


@settings(max_examples=max(50, CASES // 4), deadline=None)
@given(
    target_text=sequence_text,
    query_text=sequence_text,
    share=st.booleans(),
    hits=st.lists(
        st.tuples(st.integers(-2, 400), st.integers(-2, 400)), max_size=12
    ),
    xdrop=st.sampled_from(XDROPS),
    cap=st.sampled_from(MAX_LENGTHS),
)
def test_property_matches_slab_and_single(
    target_text, query_text, share, hits, xdrop, cap
):
    if share:  # make sure related inputs, not only noise, are drawn
        query_text = target_text + query_text
    assert_batch_equal(
        Sequence.from_string(target_text),
        Sequence.from_string(query_text),
        [t for t, _ in hits],
        [q for _, q in hits],
        lastz_default(),
        xdrop,
        cap,
        "property",
    )
