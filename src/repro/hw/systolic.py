"""Cycle-level model of the linear systolic PE arrays (paper section IV).

Both accelerators are linear arrays of ``N_pe`` processing elements
exploiting wavefront parallelism along a *stripe* of ``N_pe`` DP rows: the
stripe's query characters are loaded into the PEs and target characters
stream through, producing ``N_pe`` cell scores (and 4-bit pointers) per
cycle.  A stripe that computes columns ``[j_start, j_stop]`` therefore
takes ``(j_stop - j_start + 1) + (N_pe - 1)`` cycles — one per streamed
column plus the pipeline skew of the last PE.

The models below convert per-tile column windows into cycles.  They are
deliberately independent of the software kernels: BSW windows come from
the closed-form equations 4-5, GACT-X and GACT windows from the row
traces the tile engine records (full width in every GACT row), grouped
into stripes exactly as the hardware sequencer would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as TypingSequence, Tuple


@dataclass(frozen=True)
class SystolicArrayConfig:
    """Geometry and clocking of one PE array."""

    n_pe: int = 32
    clock_hz: float = 150e6
    #: Fixed per-stripe sequencing overhead (control, BRAM turnaround).
    stripe_overhead: int = 0
    #: Fixed per-tile overhead (configuration, score/pointer readout).
    tile_overhead: int = 32

    def __post_init__(self) -> None:
        if self.n_pe <= 0:
            raise ValueError("n_pe must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")


def stripe_cycles(width: int, config: SystolicArrayConfig) -> int:
    """Cycles for one stripe computing ``width`` columns."""
    if width <= 0:
        return 0
    return width + config.n_pe - 1 + config.stripe_overhead


def stripes_of(
    row_windows: TypingSequence[Tuple[int, int]], n_pe: int
) -> TypingSequence[Tuple[int, int]]:
    """Group per-row column windows into per-stripe windows.

    The hardware computes ``N_pe`` rows per stripe over one contiguous
    column range, so a stripe's window is the union (min start, max stop)
    of its rows' windows.
    """
    stripes = []
    for base in range(0, len(row_windows), n_pe):
        group = row_windows[base : base + n_pe]
        stripes.append(
            (min(lo for lo, _ in group), max(hi for _, hi in group))
        )
    return stripes


def tile_cycles_from_windows(
    row_windows: TypingSequence[Tuple[int, int]],
    config: SystolicArrayConfig,
    traceback_steps: int = 0,
) -> int:
    """Cycles for a tile given its per-row column windows.

    ``traceback_steps`` adds the pointer-walk cycles (one per alignment
    column) for arrays that perform on-chip traceback (GACT, GACT-X).
    """
    total = config.tile_overhead + traceback_steps
    for lo, hi in stripes_of(row_windows, config.n_pe):
        total += stripe_cycles(hi - lo + 1, config)
    return total


def seconds(cycles: float, config: SystolicArrayConfig) -> float:
    """Convert a cycle count into seconds at the array clock."""
    return cycles / config.clock_hz
