"""Live progress rendering for long runs.

:class:`ProgressRenderer` maintains a single TTY status line —
units done/retried, cells/s throughput and an ETA — updated
in place (carriage return, no scroll) and throttled to a few frames a
second.  Recovery actions surface as persisted lines above the status
line, so a retry storm is visible while it happens rather than only in
the end-of-run recovery summary.

:data:`NO_PROGRESS` is the shared no-op sink (the progress counterpart
of :data:`repro.obs.tracer.NULL_TRACER`): library code calls progress
methods unconditionally and pays one no-op method call when progress is
off.  Rendering is TTY-aware: on a non-interactive stream the renderer
disables itself unless explicitly forced on, so batch logs never fill
with control characters.

Thread safety: all mutating methods take an internal lock, so more
than one thread may feed the same renderer.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Optional, TextIO

__all__ = ["NO_PROGRESS", "NullProgress", "ProgressRenderer"]


def _format_count(value: float) -> str:
    """Human scale: 950, 8.2k, 1.3M, 2.0G."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return f"{value:,.0f}"


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    minutes, secs = divmod(seconds, 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class NullProgress:
    """Shared do-nothing progress sink: the progress-off fast path."""

    __slots__ = ()

    enabled = False

    def begin(self, label: str, total: Optional[int] = None) -> None:
        return None

    def advance(self, units: int = 0, cells: float = 0) -> None:
        return None

    def retried(self, key: str, cause: str, attempt: int) -> None:
        return None

    def fell_back(self, key: str, cause: str) -> None:
        return None

    def close(self) -> None:
        return None


#: Shared no-op sink; use as the default for instrumented functions.
NO_PROGRESS = NullProgress()


class ProgressRenderer:
    """Single-line live status: ``align 3/8 units · 1 retried · ...``.

    ``enabled=None`` (the default) auto-detects: render only when
    ``stream`` is a TTY.  ``clock`` is injectable for deterministic
    tests; ``min_interval`` throttles repaints so hot loops don't spend
    their time writing terminal escapes.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = perf_counter,
        min_interval: float = 0.1,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self._stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self._clock = clock
        self._min_interval = min_interval
        self._lock = threading.Lock()
        self._label = ""
        self._total: Optional[int] = None
        self._started = clock()
        self._last_render = float("-inf")
        self._line_width = 0
        self.units_done = 0
        self.cells = 0.0
        self.retries = 0
        self.fallbacks = 0

    # -- feeding -----------------------------------------------------
    def begin(self, label: str, total: Optional[int] = None) -> None:
        """Start (or restart) a phase; resets per-phase counters."""
        with self._lock:
            self._label = label
            self._total = total
            self._started = self._clock()
            self.units_done = 0
            self.cells = 0.0
            self._render(force=True)

    def advance(self, units: int = 0, cells: float = 0) -> None:
        with self._lock:
            self.units_done += units
            self.cells += cells
            self._render()

    def retried(self, key: str, cause: str, attempt: int) -> None:
        with self._lock:
            self.retries += 1
            self._note(f"retry #{attempt} [{key}] after {cause}")

    def fell_back(self, key: str, cause: str) -> None:
        with self._lock:
            self.fallbacks += 1
            self._note(f"serial fallback [{key}] after {cause}")

    def close(self) -> None:
        """Clear the status line, leaving persisted notes in place."""
        with self._lock:
            if self.enabled and self._line_width:
                self._stream.write("\r" + " " * self._line_width + "\r")
                self._stream.flush()
                self._line_width = 0

    # -- rendering ---------------------------------------------------
    def status_line(self) -> str:
        """The current status text (rendered even when output is off)."""
        done = self.units_done
        total_text = f"/{self._total}" if self._total is not None else ""
        parts = [f"{self._label or 'run'} {done}{total_text} units"]
        if self.retries or self.fallbacks:
            parts.append(
                f"{self.retries} retried"
                + (f", {self.fallbacks} fell back" if self.fallbacks else "")
            )
        elapsed = self._clock() - self._started
        if self.cells and elapsed > 0:
            parts.append(f"{_format_count(self.cells / elapsed)} cells/s")
        if self._total and 0 < done < self._total and elapsed > 0:
            remaining = elapsed / done * (self._total - done)
            parts.append(f"ETA {_format_eta(remaining)}")
        return " · ".join(parts)

    def _render(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = self._clock()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        line = self.status_line()
        pad = max(0, self._line_width - len(line))
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()
        self._line_width = len(line)

    def _note(self, text: str) -> None:
        if not self.enabled:
            return
        pad = max(0, self._line_width - len(text))
        self._stream.write("\r" + text + " " * pad + "\n")
        self._line_width = 0
        self._render(force=True)
