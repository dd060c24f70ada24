"""Cycle and traceback-memory model of the GACT-X extension array.

GACT-X stripe windows are data dependent (they follow the X-drop pruning
frontier), so the model replays the per-row ``(j_start, j_stop)`` windows
recorded by the software kernel (:class:`repro.core.gact_x.TileTrace`),
groups them into ``N_pe``-row stripes exactly as the hardware sequencer
would, and adds the on-chip traceback walk.  GACT's tiles run through
the same tile engine in local mode and record a full-width window for
every row, so Figure 10 costs both extenders with this one model.

It also accounts traceback-memory occupancy: 4 bits per computed cell,
banked one BRAM per PE — the resource GACT-X's pruning saves relative to
GACT's full tiles (the comparison behind the paper's Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence as TypingSequence

from ..core.gact_x import TileTrace
from .systolic import SystolicArrayConfig, tile_cycles_from_windows

#: Hardware pointer width per DP cell (2 bits direction + 2 bits affine).
POINTER_BITS = 4


@dataclass(frozen=True)
class GactXArrayModel:
    """Throughput/latency model of one GACT-X array."""

    config: SystolicArrayConfig
    traceback_sram_bytes: int = 64 * 16 * 1024  # 64 PEs x 16 KB (Table IV)

    def tile_cycles(self, trace: TileTrace) -> int:
        """Cycles for one extension tile from its recorded row windows."""
        if not trace.row_windows:
            return self.config.tile_overhead
        # Traceback walks at most one pointer per alignment column; the
        # path length is bounded by rows + columns of the computed region.
        max_cols = max(hi - lo + 1 for lo, hi in trace.row_windows)
        traceback_steps = trace.rows + max_cols
        return tile_cycles_from_windows(
            trace.row_windows, self.config, traceback_steps=traceback_steps
        )

    def batch_cycles(self, traces: Iterable[TileTrace]) -> int:
        return sum(self.tile_cycles(trace) for trace in traces)

    def mean_tiles_per_second(
        self, traces: TypingSequence[TileTrace]
    ) -> float:
        """Sustained tile throughput over a recorded workload."""
        if not traces:
            return 0.0
        cycles = self.batch_cycles(traces)
        if cycles == 0:
            return 0.0
        return len(traces) * self.config.clock_hz / cycles

    def pointer_bytes(self, trace: TileTrace) -> int:
        """Traceback-memory bytes one tile occupies (4 bits per cell)."""
        return (trace.cells * POINTER_BITS + 7) // 8

    def fits_in_sram(self, trace: TileTrace) -> bool:
        """Whether the tile's pointers fit the banked traceback SRAM."""
        return self.pointer_bytes(trace) <= self.traceback_sram_bytes

    def peak_pointer_bytes(
        self, traces: TypingSequence[TileTrace]
    ) -> int:
        """Worst-case traceback occupancy across a workload."""
        return max(
            (self.pointer_bytes(trace) for trace in traces), default=0
        )
