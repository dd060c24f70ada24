"""Stripe-sequencer replay equivalence on wavefront-derived windows.

The GACT-X array model replays the software kernel's per-row
``(j_start, j_stop)`` windows through its stripe sequencer to price a
tile in cycles (Figure 10's throughput axis).  The vectorised wavefront
kernel must therefore emit *byte-identical* windows to the frozen
row-at-a-time oracle — any drift silently changes every modelled cycle
count.  This test regenerates a Figure-10-style workload (Darwin-WGA's
own seeding + gapped filtering on a synthetic species pair), runs every
anchor's tile chain through both kernels, and proves the traces and the
modelled cycle counts are identical.
"""

import pytest

from repro.align import _reference as ref
from repro.core import DarwinWGAConfig, ExtensionParams, gact_x_extend
from repro.core.gact_x import _extend_direction, _reversed_sequence
from repro.core.gapped_filter import gapped_filter
from repro.hw import GactXArrayModel, SystolicArrayConfig
from repro.hw.systolic import stripes_of
from repro.seed import SeedIndex, dsoft_seed

ARRAY = SystolicArrayConfig(n_pe=64, clock_hz=1e9)
MAX_ANCHORS = 6
PARAMS = ExtensionParams(threshold=1000)


@pytest.fixture(scope="module")
def workload(request):
    """Anchors from the pipeline's own seeding + filtering stages."""
    pair = request.getfixturevalue("small_pair")
    config = DarwinWGAConfig()
    target = pair.target.genome
    query = pair.query.genome
    index = SeedIndex.build(target, config.seed)
    seeding = dsoft_seed(index, query, config.dsoft)
    filtered = gapped_filter(
        target,
        query,
        seeding.target_positions,
        seeding.query_positions,
        config.scoring,
        config.filtering,
    )
    anchors = sorted(filtered.anchors, key=lambda a: -a.filter_score)
    assert anchors, "no anchors survived filtering"
    return target, query, anchors[:MAX_ANCHORS], config.scoring


def _reference_windows(target, query, anchor, scoring, params):
    """Tile windows from the frozen oracle, via the same tile chaining.

    Drives the production :func:`_extend_direction` loop (so tile
    origins chain exactly as in ``gact_x_extend``) but computes each
    tile with the row-at-a-time reference kernel.
    """

    def oracle(t_tile, q_tile):
        return ref.xdrop_extend_reference(
            t_tile, q_tile, scoring, params.ydrop
        )

    right = _extend_direction(
        target.slice(anchor.target_pos, len(target)),
        query.slice(anchor.query_pos, len(query)),
        params,
        oracle,
    )
    left = _extend_direction(
        _reversed_sequence(target.slice(0, anchor.target_pos)),
        _reversed_sequence(query.slice(0, anchor.query_pos)),
        params,
        oracle,
    )
    return tuple(left.traces) + tuple(right.traces)


def test_cycle_counts_unchanged_on_wavefront_windows(workload):
    target, query, anchors, scoring = workload
    model = GactXArrayModel(config=ARRAY)
    total_tiles = 0
    for anchor in anchors:
        result = gact_x_extend(target, query, anchor, scoring, PARAMS)
        oracle_tiles = _reference_windows(
            target, query, anchor, scoring, PARAMS
        )
        assert len(result.tiles) == len(oracle_tiles)
        for got, want in zip(result.tiles, oracle_tiles):
            assert got.rows == want.rows
            assert got.cells == want.cells
            assert got.row_windows == want.row_windows
            assert model.tile_cycles(got) == model.tile_cycles(want)
        assert model.batch_cycles(result.tiles) == (
            model.batch_cycles(oracle_tiles)
        )
        total_tiles += len(result.tiles)
    assert total_tiles > 0


def test_stripe_decomposition_identical(workload):
    """The sequencer's stripe plan itself matches, not just its total."""
    target, query, anchors, scoring = workload
    for anchor in anchors:
        result = gact_x_extend(target, query, anchor, scoring, PARAMS)
        oracle_tiles = _reference_windows(
            target, query, anchor, scoring, PARAMS
        )
        for got, want in zip(result.tiles, oracle_tiles):
            assert list(stripes_of(got.row_windows, ARRAY.n_pe)) == (
                list(stripes_of(want.row_windows, ARRAY.n_pe))
            )
