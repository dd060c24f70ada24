"""A LASTZ-like whole genome aligner — the paper's software baseline.

The pipeline mirrors LASTZ's default mode: the same 12of19
transition-tolerant seeding as Darwin-WGA but with *every* seed hit
examined individually (no D-SOFT banding), an **ungapped** X-drop filter
at ``hspthresh = 3000``, and gapped extension of qualifying anchors.

Extension reuses the GACT-X tiled engine with LASTZ's Y-drop parameter:
the paper attributes the entire sensitivity difference to the filtering
stage, so keeping extension identical between the two pipelines isolates
exactly that variable (and full-memory Y-drop extension over megabase
spans would be equivalent anyway — GACT-X's tiling exists to bound
*hardware* memory, producing the same empirically-optimal alignments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..align.matrices import lastz_default
from ..align.scoring import ScoringScheme
from ..core.config import ExtensionParams
from ..core.pipeline import SeedFilterExtendAligner
from ..seed.dsoft import all_seed_hits
from ..seed.patterns import SpacedSeed
from .ungapped_filter import UngappedFilterParams, ungapped_filter


@dataclass(frozen=True)
class LastzConfig:
    """LASTZ-default configuration (scoring identical to Darwin-WGA)."""

    scoring: ScoringScheme = field(default_factory=lastz_default)
    seed: SpacedSeed = field(default_factory=SpacedSeed)
    filtering: UngappedFilterParams = field(
        default_factory=UngappedFilterParams
    )
    extension: ExtensionParams = field(
        default_factory=lambda: ExtensionParams(threshold=3000)
    )
    both_strands: bool = True
    seed_limit: int = 0
    absorb_granularity: int = 64


class LastzAligner(SeedFilterExtendAligner):
    """Seed / ungapped-filter / extend aligner in LASTZ's default mode.

    Everything but the filter stage — constructor options, the
    deterministic parallel schedule, the on-disk index cache — is
    :class:`repro.core.pipeline.SeedFilterExtendAligner`'s, shared with
    :class:`repro.core.pipeline.DarwinWGA`.
    """

    config_class = LastzConfig
    label = "lastz"
    #: LASTZ runs never feed the hardware model.
    keep_tile_traces = False

    def _seed_filter(self, target, queries, index, strands):
        """Seed and filter one strand per step.

        The ungapped filter is about 1 % of a LASTZ run, so the strands'
        hits are not merged into one batch.
        """
        config = self.config
        for query, strand in zip(queries, strands):
            seeding = all_seed_hits(
                index, query, seed_limit=config.seed_limit, tracer=self.tracer
            )
            with self.tracer.span("ungapped_filter") as filter_span:
                result = ungapped_filter(
                    target,
                    query,
                    seeding.target_positions,
                    seeding.query_positions,
                    config.scoring,
                    config.filtering,
                    strand=strand,
                )
                filter_span.inc("filter_tiles", result.hits)
                filter_span.inc("filter_cells", result.cells)
                filter_span.inc("anchors", len(result.anchors))
            yield (
                seeding.raw_hit_count,
                result.hits,
                result.cells,
                result.anchors,
            )
