"""LASTZ-like baseline pipeline tests."""

import pytest

from repro.chain import build_chains, total_matches
from repro.core import DarwinWGA
from repro.lastz import LastzAligner, LastzConfig


@pytest.fixture(scope="module")
def lastz_result(small_pair):
    return LastzAligner().align(
        small_pair.target.genome, small_pair.query.genome
    )


class TestLastzPipeline:
    def test_produces_alignments(self, lastz_result):
        assert len(lastz_result.alignments) > 0

    def test_alignments_verify(self, small_pair, lastz_result):
        for alignment in lastz_result.alignments:
            alignment.verify(
                small_pair.target.genome, small_pair.query.genome
            )

    def test_examines_every_seed_hit(self, lastz_result):
        # no D-SOFT banding: the filter workload equals the raw hit count
        assert (
            lastz_result.workload.filter_tiles
            == lastz_result.workload.seed_hits
        )

    def test_workload_recorded(self, lastz_result):
        assert lastz_result.workload.filter_cells > 0
        assert lastz_result.workload.anchors >= len(
            lastz_result.alignments
        )


class TestSensitivityComparison:
    def test_darwin_wga_at_least_as_sensitive(self, small_pair):
        """The paper's headline claim on a small mosaic pair."""
        target = small_pair.target.genome
        query = small_pair.query.genome
        darwin = DarwinWGA().align(target, query)
        lastz = LastzAligner().align(target, query)
        darwin_matches = total_matches(build_chains(darwin.alignments))
        lastz_matches = total_matches(build_chains(lastz.alignments))
        assert darwin_matches >= lastz_matches * 0.9

    def test_darwin_filter_workload_smaller(self, small_pair):
        """D-SOFT banding collapses hits; LASTZ examines all of them."""
        target = small_pair.target.genome
        query = small_pair.query.genome
        darwin = DarwinWGA().align(target, query)
        lastz = LastzAligner().align(target, query)
        assert (
            darwin.workload.filter_tiles < lastz.workload.filter_tiles
        )


class TestConfig:
    def test_plus_strand_only(self, small_pair):
        config = LastzConfig(both_strands=False)
        result = LastzAligner(config).align(
            small_pair.target.genome, small_pair.query.genome
        )
        assert all(a.strand == 1 for a in result.alignments)

    def test_extension_threshold_is_lastz_default(self):
        assert LastzConfig().extension.threshold == 3000
        assert LastzConfig().filtering.threshold == 3000


class TestNoTileTraces:
    """LASTZ runs never feed the hardware model, so no route through the
    shared pipeline may accumulate per-tile traces for them."""

    def test_serial_streamed_and_assembly_routes(self, small_pair):
        from repro.core import align_assemblies

        target = small_pair.target.genome
        query = small_pair.query.genome
        serial = LastzAligner().align(target, query)
        with LastzAligner(workers=2) as aligner:
            streamed = aligner.align(target, query)
        units = align_assemblies(
            [target], [query, query], aligner_class=LastzAligner, workers=2
        )
        for result in (serial, streamed, units):
            assert result.workload.extension_tiles > 0
            assert result.workload.extension_tile_traces == []
        # The same routes do keep them for Darwin-WGA.
        darwin = DarwinWGA().align(target, query)
        assert len(darwin.workload.extension_tile_traces) == (
            darwin.workload.extension_tiles
        )
