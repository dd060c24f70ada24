"""GACT-X tiled extension tests."""

import tracemalloc

import numpy as np
import pytest

from repro.align import AnchorHit, Cigar
from repro.align.matrices import lastz_default
from repro.core import ExtensionParams, gact_x_extend, score_cigar, truncate_cigar
from repro.genome import Sequence, make_species_pair
from repro.hw import default_asic
from repro.obs import Tracer

from .. import reference


@pytest.fixture
def scoring():
    return lastz_default()


@pytest.fixture
def params():
    return ExtensionParams(
        tile_size=256, overlap=32, ydrop=9430, threshold=1000
    )


def shared_segment_pair(rng, pad=600, core=900, mutate=0.0):
    core_codes = rng.integers(0, 4, core).astype(np.uint8)
    q_core = core_codes.copy()
    if mutate:
        sites = rng.random(core) < mutate
        q_core[sites] = (q_core[sites] + 1 + rng.integers(0, 3, int(sites.sum()))) % 4
    target = Sequence(
        np.concatenate(
            [rng.integers(0, 4, pad).astype(np.uint8), core_codes,
             rng.integers(0, 4, pad).astype(np.uint8)]
        ),
        "t",
    )
    query = Sequence(
        np.concatenate(
            [rng.integers(0, 4, pad).astype(np.uint8), q_core,
             rng.integers(0, 4, pad).astype(np.uint8)]
        ),
        "q",
    )
    return target, query, pad, core


class TestTruncateCigar:
    def test_truncates_at_boundary(self):
        cigar = Cigar.parse("100=")
        piece, i, j = truncate_cigar(cigar, 40)
        assert str(piece) == "40="
        assert (i, j) == (40, 40)

    def test_gap_runs_respect_boundary(self):
        cigar = Cigar.parse("30=20D30=")
        piece, i, j = truncate_cigar(cigar, 45)
        assert j == 45
        assert i == 30
        assert str(piece) == "30=15D"

    def test_whole_path_within_boundary(self):
        cigar = Cigar.parse("10=2I10=")
        piece, i, j = truncate_cigar(cigar, 100)
        assert piece == cigar
        assert (i, j) == (22, 20)

    def test_zero_boundary(self):
        piece, i, j = truncate_cigar(Cigar.parse("5="), 0)
        assert len(piece) == 0
        assert (i, j) == (0, 0)


class TestScoreCigar:
    def test_matches_reference(self, scoring, rng):
        t = Sequence(rng.integers(0, 4, 50).astype(np.uint8))
        q = Sequence(t.codes.copy())
        cigar = Cigar.parse("20=3D27=")
        q2 = Sequence(np.delete(t.codes, slice(20, 23)))
        got = score_cigar(cigar, t, q2, 0, 0, scoring)
        assert got == reference.cigar_score(cigar, t, q2, scoring)


class TestExtension:
    def test_recovers_planted_segment(self, scoring, params, rng):
        target, query, pad, core = shared_segment_pair(rng)
        anchor = AnchorHit(
            target_pos=pad + core // 2,
            query_pos=pad + core // 2,
            filter_score=5000,
        )
        result = gact_x_extend(target, query, anchor, scoring, params)
        alignment = result.alignment
        assert alignment is not None
        alignment.verify(target, query)
        # the alignment must cover (nearly) the whole planted core
        assert alignment.target_start <= pad + 10
        assert alignment.target_end >= pad + core - 10
        assert alignment.matches >= core * 0.95

    def test_extension_spans_multiple_tiles(self, scoring, rng):
        params = ExtensionParams(
            tile_size=128, overlap=16, ydrop=9430, threshold=1000
        )
        target, query, pad, core = shared_segment_pair(rng, core=700)
        anchor = AnchorHit(pad + 350, pad + 350, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.tile_count > 4
        assert result.alignment is not None
        assert result.alignment.matches >= 650

    def test_mutated_segment_still_aligns(self, scoring, params, rng):
        target, query, pad, core = shared_segment_pair(rng, mutate=0.2)
        anchor = AnchorHit(pad + core // 2, pad + core // 2, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.alignment is not None
        assert result.alignment.identity() > 0.6

    def test_score_equals_cigar_score(self, scoring, params, rng):
        target, query, pad, core = shared_segment_pair(rng, mutate=0.1)
        anchor = AnchorHit(pad + core // 2, pad + core // 2, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        alignment = result.alignment
        recomputed = reference.cigar_score(
            alignment.cigar,
            target,
            query,
            scoring,
            alignment.target_start,
            alignment.query_start,
        )
        assert recomputed == alignment.score

    def test_threshold_rejects_weak_alignment(self, scoring, rng):
        params = ExtensionParams(
            tile_size=256, overlap=32, ydrop=9430, threshold=10**7
        )
        target, query, pad, core = shared_segment_pair(rng)
        anchor = AnchorHit(pad + core // 2, pad + core // 2, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.alignment is None
        assert result.tile_count > 0  # work was still done

    def test_anchor_at_sequence_edge(self, scoring, params, rng):
        target = Sequence(rng.integers(0, 4, 400).astype(np.uint8), "t")
        query = Sequence(target.codes.copy(), "q")
        for pos in (0, len(target) - 1):
            anchor = AnchorHit(pos, pos, 5000)
            result = gact_x_extend(target, query, anchor, scoring, params)
            assert result.alignment is not None
            result.alignment.verify(target, query)

    def test_extension_crosses_moderate_gap(self, scoring, params, rng):
        # 100bp deletion costs 430+99*30 = 3400 < Y=9430: one tile bridges
        core = rng.integers(0, 4, 800).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(np.delete(core, slice(400, 500)), "q")
        anchor = AnchorHit(100, 100, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.alignment is not None
        assert result.alignment.cigar.count("D") >= 100
        assert result.alignment.target_end > 700

    def test_extension_stops_at_huge_gap(self, scoring, params, rng):
        # 1000bp deletion costs ~30k > Y: extension must stop before it
        core = rng.integers(0, 4, 2200).astype(np.uint8)
        target = Sequence(core, "t")
        query = Sequence(np.delete(core, slice(600, 1600)), "q")
        anchor = AnchorHit(100, 100, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.alignment is not None
        assert result.alignment.target_end <= 650

    def test_workload_traces_recorded(self, scoring, params, rng):
        target, query, pad, core = shared_segment_pair(rng)
        anchor = AnchorHit(pad + core // 2, pad + core // 2, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params)
        assert result.tile_count == len(result.tiles)
        assert result.cells == sum(t.cells for t in result.tiles)
        for trace in result.tiles:
            assert trace.rows == len(trace.row_windows)


def middle_anchor(target, query):
    """An exact 20-mer shared by both sequences near the middle."""
    query_bytes = query.codes.tobytes()
    for start in range(len(target) // 2, len(target) // 2 + 500):
        at = query_bytes.find(target.codes[start : start + 20].tobytes())
        if at >= 0 and abs(at - start) < 500:
            return AnchorHit(start, at, 5000)
    raise AssertionError("no shared 20-mer near the middle")


class TestTracebackMemory:
    """Software traceback state is the hardware model's, not the tile's."""

    @pytest.fixture(scope="class")
    def near_pair(self):
        pair = make_species_pair(
            6000, 0.1, np.random.default_rng(21), long_indel_prob=0.0
        )
        return pair.target.genome, pair.query.genome

    def test_software_pointer_bytes_track_the_hardware_model(
        self, scoring, near_pair
    ):
        target, query = near_pair
        params = ExtensionParams()
        result = gact_x_extend(
            target, query, middle_anchor(target, query), scoring, params
        )
        assert result.alignment is not None
        model = default_asic().gactx_model()
        full = [t for t in result.tiles if t.rows == params.tile_size]
        assert len(full) >= 2  # one per direction
        for trace in full:
            modelled = model.pointer_bytes(trace)
            assert modelled <= trace.traceback_bytes <= 1.3 * modelled

    def test_two_full_tiles_in_lockstep_stay_under_16_mib(
        self, scoring, near_pair
    ):
        target, query = near_pair
        anchor = middle_anchor(target, query)
        tracemalloc.start()
        try:
            result = gact_x_extend(
                target, query, anchor, scoring, ExtensionParams()
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.tile_count >= 4
        # Six (1921 x 1922) int32 stores were 85.5 MiB here.
        assert peak < 16 * 2**20

    def test_traceback_bytes_counter_on_extend_anchor_span(
        self, scoring, params, rng
    ):
        target, query, pad, core = shared_segment_pair(rng)
        tracer = Tracer()
        anchor = AnchorHit(pad + core // 2, pad + core // 2, 5000)
        result = gact_x_extend(target, query, anchor, scoring, params, tracer)
        (span,) = tracer.roots
        assert span.name == "extend_anchor"
        assert span.counters["traceback_bytes"] == sum(
            t.traceback_bytes for t in result.tiles
        )
        assert 0 < span.counters["traceback_bytes"] < (
            span.counters["extension_cells"]
        )
