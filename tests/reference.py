"""Reference implementations used as test oracles.

The dynamic-programming references are deliberately slow, loop-based
implementations written straight from the recurrences (paper equations
1-3), independent of the vectorised kernels in :mod:`repro.align`.

The seeding references at the end are the full-scan seed lookup as it was
before the index gained its presence bitmap, frozen verbatim: every
``(m + 1)``-fold variant word goes through ``searchsorted``, and nothing
reads ``SeedIndex.bitmap``.  ``tests/seed/test_lookup_differential.py``
holds the production path equal to them, array for array.

``ungapped_extend_batch_reference`` is the LASTZ ungapped filter kernel as
it was before it learnt to stop where X-drop stops, frozen verbatim (its
two cached ``arange`` helpers inlined).
``tests/align/test_ungapped_differential.py`` holds the chunked,
lane-retiring kernel equal to it.

``gapped_texts_reference`` / ``cigar_from_texts_reference`` are the MAF
row writer (one ``Sequence.slice`` + ``str`` per CIGAR run) and reader
(one Python character at a time) as they were before ``io/maf.py`` built
and classified rows as byte arrays, frozen verbatim;
``tests/io/test_maf.py`` holds the array forms equal to them.
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


def ungapped_extend_batch_reference(
    target,
    query,
    target_positions,
    query_positions,
    scoring,
    xdrop,
    max_length=4096,
):
    """The slab ``ungapped_extend_batch``: ``(scores, left_spans,
    right_spans)``.

    Every hit's whole ``max_length`` window is scored on both sides into
    a padded ``(k, width)`` slab; positions past either sequence end get
    ``-(xdrop + 1)``, which ends extension there under X-drop; the rule
    is applied to the finished slab.
    """
    k = target_positions.size
    if k == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    t = target.codes
    q = query.codes
    matrix = scoring.matrix64
    boundary_penalty = np.int64(-(xdrop + 1))
    lanes = np.arange(k, dtype=np.int64)
    # Clamp each direction's window to the longest extension any hit can
    # actually make (sequence ends bound it) rather than ``max_length``:
    # hits near the ends of short sequences would otherwise pay for a
    # (k, max_length) slab that is almost entirely boundary padding.
    # Truncated columns are out of range for every lane, where the
    # boundary penalty already kills extension under X-drop, so scores
    # and spans are unchanged.
    right_cap = max(
        0,
        int(
            min(
                np.minimum(
                    len(target) - target_positions,
                    len(query) - query_positions,
                ).max(),
                max_length,
            )
        ),
    )
    left_cap = max(
        0,
        int(
            min(
                np.minimum(target_positions, query_positions).max(),
                max_length,
            )
        ),
    )
    width = max(right_cap, left_cap)
    # One padded (k, width) slab serves both directions: every downstream
    # array (cumsum, running max, masks) is a fresh allocation, so the
    # left pass may overwrite the right pass's window in place.
    score_slab = np.empty((k, width), dtype=np.int64)

    def direction_scores(offsets, cap):
        slab = score_slab[:, :cap]
        t_idx = target_positions[:, None] + offsets[None, :cap]
        q_idx = query_positions[:, None] + offsets[None, :cap]
        valid = (
            (t_idx >= 0)
            & (t_idx < len(target))
            & (q_idx >= 0)
            & (q_idx < len(query))
        )
        slab.fill(boundary_penalty)
        slab[valid] = matrix[t[t_idx[valid]], q[q_idx[valid]]]
        return slab

    def best_under_xdrop(scores):
        if scores.shape[1] == 0:
            zeros = np.zeros(k, dtype=np.int64)
            return zeros, zeros.copy()
        cumulative = np.cumsum(scores, axis=1)
        running_max = np.maximum.accumulate(
            np.maximum(cumulative, 0), axis=1
        )
        alive = np.cumprod(running_max - cumulative <= xdrop, axis=1).astype(
            bool
        )
        masked = np.where(alive, cumulative, np.int64(-(2**42)))
        spans = np.argmax(masked, axis=1) + 1
        best = np.maximum(masked[lanes, spans - 1], 0)
        spans = np.where(best > 0, spans, 0)
        return best, spans

    offsets_right = np.arange(max_length, dtype=np.int64)
    offsets_left = -np.arange(1, max_length + 1, dtype=np.int64)
    right_best, right_spans = best_under_xdrop(
        direction_scores(offsets_right, right_cap)
    )
    left_best, left_spans = best_under_xdrop(
        direction_scores(offsets_left, left_cap)
    )
    return right_best + left_best, left_spans, right_spans


def gapped_texts_reference(alignment, target, query):
    q_seq = query.reverse_complement() if alignment.strand == -1 else query
    t_text = []
    q_text = []
    ti = alignment.target_start
    qi = alignment.query_start
    for op, length in alignment.cigar:
        if op in ("=", "X"):
            t_text.append(str(target.slice(ti, ti + length)))
            q_text.append(str(q_seq.slice(qi, qi + length)))
            ti += length
            qi += length
        elif op == "D":
            t_text.append(str(target.slice(ti, ti + length)))
            q_text.append("-" * length)
            ti += length
        else:
            t_text.append("-" * length)
            q_text.append(str(q_seq.slice(qi, qi + length)))
            qi += length
    return "".join(t_text), "".join(q_text)


def cigar_from_texts_reference(t_text, q_text):
    from repro.align.cigar import Cigar

    ops = []
    for t_char, q_char in zip(t_text, q_text):
        if t_char == "-" and q_char == "-":
            raise ValueError("MAF column with gaps in both rows")
        if t_char == "-":
            ops.append("I")
        elif q_char == "-":
            ops.append("D")
        elif t_char.upper() == q_char.upper() and t_char.upper() != "N":
            ops.append("=")
        else:
            ops.append("X")
    return Cigar.from_ops(ops)
