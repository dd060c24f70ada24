"""Observability: span tracing, stage metrics and structured run reports.

The paper's whole evaluation (Table V, Figures 8-10) rests on per-stage
workload accounting; this package adds the measurement spine the rest of
the repository hangs those numbers on:

* :mod:`repro.obs.tracer` — nested wall-clock spans with per-span
  counters and attributes, plus a zero-cost :class:`NullTracer` so
  instrumented code is free when tracing is off;
* :mod:`repro.obs.metrics` — counter/gauge/histogram primitives and the
  derived pipeline metrics (cells/s per stage, the
  seeds -> anchors -> alignments funnel, absorption rate);
* :mod:`repro.obs.export` — structured JSON run reports, a
  Chrome-``trace_event`` export loadable in ``chrome://tracing`` /
  Perfetto, and a human-readable span-tree renderer.

v2 adds the cross-process pieces:

* :mod:`repro.obs.bus` — the worker→parent heartbeat channel and the
  hang sentinel that reads it.  It carries beats only: a task's spans
  and its receipt come home in its return value;
* :mod:`repro.obs.progress` — TTY-aware live status line (units
  done/retried, cells/s, ETA) fed by the pipelines and by
  the resilient dispatcher's recovery actions;
* :mod:`repro.obs.resource` — RSS sampling and the receipt
  (``{pid, busy, rss_bytes}``) a traced task returns;
* :mod:`repro.obs.profiling` — opt-in cProfile capture for the parent
  and every worker;
* :mod:`repro.obs.session` — :class:`TelemetryOptions`, the single
  bundle the CLI threads through the pipelines.

The names re-exported here are the ones code outside the package
imports from ``repro.obs``; everything else is reached through its
submodule (``repro.obs.bus``, ``repro.obs.metrics``, ...).
"""

from .tracer import NULL_TRACER, Tracer
from .export import (
    load_run_report,
    render_run,
    run_report,
    write_chrome_trace,
    write_run_report,
)
from .bus import HeartbeatMonitor
from .progress import NO_PROGRESS, ProgressRenderer
from .profiling import profile_capture
from .session import TelemetryOptions

__all__ = [
    "NULL_TRACER",
    "Tracer",
    "load_run_report",
    "render_run",
    "run_report",
    "write_chrome_trace",
    "write_run_report",
    "HeartbeatMonitor",
    "NO_PROGRESS",
    "ProgressRenderer",
    "profile_capture",
    "TelemetryOptions",
]
