"""Reference implementations used as test oracles.

The dynamic-programming references are deliberately slow, loop-based
implementations written straight from the recurrences (paper equations
1-3), independent of the vectorised kernels in :mod:`repro.align`.

The seeding references at the end are the full-scan seed lookup as it was
before the index gained its presence bitmap, frozen verbatim: every
``(m + 1)``-fold variant word goes through ``searchsorted``, and nothing
reads ``SeedIndex.bitmap``.  ``tests/seed/test_lookup_differential.py``
holds the production path equal to them, array for array.
"""

import numpy as np

NEG = -(10**12)


def _matrices(target, query, scoring, local):
    t, q = target.codes, query.codes
    m, n = len(t), len(q)
    o, e = scoring.gap_open, scoring.gap_extend
    v = [[0] * (m + 1) for _ in range(n + 1)]
    h = [[NEG] * (m + 1) for _ in range(n + 1)]
    u = [[NEG] * (m + 1) for _ in range(n + 1)]
    if not local:
        for j in range(1, m + 1):
            v[0][j] = -(o + (j - 1) * e)
        for i in range(1, n + 1):
            v[i][0] = -(o + (i - 1) * e)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            h[i][j] = max(v[i][j - 1] - o, h[i][j - 1] - e)
            u[i][j] = max(v[i - 1][j] - o, u[i - 1][j] - e)
            v[i][j] = max(
                h[i][j],
                u[i][j],
                v[i - 1][j - 1] + scoring.score(t[j - 1], q[i - 1]),
            )
            if local:
                v[i][j] = max(v[i][j], 0)
    return v


def local_score(target, query, scoring):
    """Best Smith-Waterman local score."""
    v = _matrices(target, query, scoring, local=True)
    return max(max(row) for row in v)


def global_score(target, query, scoring):
    """Needleman-Wunsch global score."""
    if len(target) == 0 or len(query) == 0:
        length = max(len(target), len(query))
        return -scoring.gap_cost(length)
    v = _matrices(target, query, scoring, local=False)
    return v[len(query)][len(target)]


def extension_score(target, query, scoring):
    """Best NW-boundary extension score over all cells (>= 0)."""
    if len(target) == 0 or len(query) == 0:
        return 0
    v = _matrices(target, query, scoring, local=False)
    return max(0, max(max(row) for row in v))


def banded_local_score(target, query, scoring, band):
    """Best local score restricted to |i - j| <= band."""
    t, q = target.codes, query.codes
    m, n = len(t), len(q)
    o, e = scoring.gap_open, scoring.gap_extend
    v = [[0] * (m + 1) for _ in range(n + 1)]
    h = [[NEG] * (m + 1) for _ in range(n + 1)]
    u = [[NEG] * (m + 1) for _ in range(n + 1)]
    best = 0
    for i in range(1, n + 1):
        for j in range(max(1, i - band), min(m, i + band) + 1):
            h[i][j] = max(v[i][j - 1] - o, h[i][j - 1] - e)
            u[i][j] = max(v[i - 1][j] - o, u[i - 1][j] - e)
            v[i][j] = max(
                0,
                h[i][j],
                u[i][j],
                v[i - 1][j - 1] + scoring.score(t[j - 1], q[i - 1]),
            )
            best = max(best, v[i][j])
    return best


def cigar_score(cigar, target, query, scoring, t_start=0, q_start=0):
    """Score an alignment path directly from its CIGAR."""
    ti, qi = t_start, q_start
    total = 0
    for op, length in cigar:
        if op in ("=", "X"):
            for _ in range(length):
                total += scoring.score(target.codes[ti], query.codes[qi])
                ti += 1
                qi += 1
        elif op == "D":
            total -= scoring.gap_cost(length)
            ti += length
        else:
            total -= scoring.gap_cost(length)
            qi += length
    return total


def query_seed_words_reference(query, seed):
    """Seed words of the query, expanded with transition variants.

    Returns ``(words, positions)``: each valid query position contributes
    one exact word plus, when the seed tolerates transitions, ``weight``
    one-transition variants, variant-major.
    """
    words, valid = seed.words(query)
    positions = np.flatnonzero(valid).astype(np.int64)
    words = words[positions]
    if not seed.transitions or words.size == 0:
        return words, positions
    variants = [words] + seed.transition_neighbours(words)
    all_words = np.concatenate(variants)
    all_positions = np.tile(positions, len(variants))
    return all_words, all_positions


def lookup_batch_reference(index, query_words, query_positions):
    """Full-scan ``SeedIndex.lookup_batch``: ``(target_hits, query_hits)``
    in query order then target order."""
    left = np.searchsorted(index.sorted_words, query_words, side="left")
    right = np.searchsorted(index.sorted_words, query_words, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    starts = np.repeat(left, counts)
    offsets = np.arange(total) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    target_hits = index.sorted_positions[starts + offsets]
    query_hits = np.repeat(query_positions, counts)
    return target_hits, query_hits


def all_seed_hits_reference(index, query, seed_limit=0):
    """Full-scan ``all_seed_hits``: ``(target_hits, query_hits)``."""
    words, positions = query_seed_words_reference(query, index.seed)
    if seed_limit > 0 and words.size:
        left = np.searchsorted(index.sorted_words, words, side="left")
        right = np.searchsorted(index.sorted_words, words, side="right")
        keep = (right - left) <= seed_limit
        words = words[keep]
        positions = positions[keep]
    return lookup_batch_reference(index, words, positions)


def dsoft_seed_reference(index, query, params):
    """Full-scan ``dsoft_seed``.

    Returns ``(target_positions, query_positions, raw_hit_count,
    band_count)``, the fields of a ``SeedingResult``.
    """
    words, positions = query_seed_words_reference(query, index.seed)
    target_hits, query_hits = lookup_batch_reference(index, words, positions)
    raw = int(target_hits.size)
    if raw == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0, 0
    chunk_ids = query_hits // params.chunk_size
    band_coord = target_hits - (query_hits % params.chunk_size) + len(query)
    bin_ids = band_coord // params.bin_size
    n_bins = (index.target_length + len(query)) // params.bin_size + 2
    band_keys = chunk_ids * n_bins + bin_ids
    order = np.argsort(band_keys, kind="stable")
    unique_keys, first_index, counts = np.unique(
        band_keys[order], return_index=True, return_counts=True
    )
    representatives = order[first_index[counts >= params.threshold]]
    return (
        target_hits[representatives],
        query_hits[representatives],
        raw,
        int(unique_keys.size),
    )
