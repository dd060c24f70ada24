"""GACT: Darwin's tiled extension algorithm (the Figure 10 baseline).

GACT (Turakhia et al., ASPLOS 2018) tiles, truncates overlaps and
stitches both directions exactly like GACT-X, so :func:`gact_extend` is
GACT-X's stitcher (:func:`repro.core.gact_x.extend_anchor`) on a
:class:`repro.align.xdrop.TileEngine` in local mode.  Only the tile
kernel differs (section III-D):

* **Smith-Waterman (local) scoring** clamps values at zero — GACT-X
  switched to Needleman-Wunsch to allow the negative dips that long
  evolutionary gaps produce.  A tile whose best path restarted after a
  clamp does not reach its origin, and the chain ends there;
* the **full tile** is computed (no X-drop), so for a fixed traceback
  budget the tile side is ``sqrt(2 * bytes)`` (4 bits per cell) and
  every tile costs ``T^2`` cells.

On gap-rich cross-species pairs GACT therefore stops early (fewer
matched base pairs) at more cells per aligned base than GACT-X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..align.alignment import AnchorHit
from ..align.scoring import ScoringScheme
from ..align.xdrop import TileEngine
from ..genome.sequence import Sequence
from .gact_x import ExtensionResult, extend_anchor


@dataclass(frozen=True)
class GactParams:
    """GACT tiling parameters.

    ``tile_size`` is normally derived from the traceback memory budget
    via :func:`tile_size_for_memory`.
    """

    tile_size: int = 1448  # fits in 1 MB of 4-bit traceback pointers
    overlap: int = 128
    threshold: int = 4000

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        if not 0 <= self.overlap < self.tile_size:
            raise ValueError("overlap must lie in [0, tile_size)")


def tile_size_for_memory(traceback_bytes: int) -> int:
    """Largest square tile whose 4-bit pointers fit in the given memory.

    ``T^2`` cells at 4 bits each occupy ``T^2 / 2`` bytes, so
    ``T = sqrt(2 * bytes)`` — 1024 for 512 KB, 2048 for 2 MB, matching
    the sweep in the paper's Figure 10.
    """
    if traceback_bytes <= 0:
        raise ValueError("traceback memory must be positive")
    return int(math.isqrt(2 * traceback_bytes))


def gact_extend(
    target: Sequence,
    query: Sequence,
    anchor: AnchorHit,
    scoring: ScoringScheme,
    params: GactParams,
) -> ExtensionResult:
    """Extend an anchor in both directions with GACT's SW tiles."""
    with TileEngine(scoring, None, params.tile_size, local=True) as engine:
        return extend_anchor(engine, target, query, anchor, params)
