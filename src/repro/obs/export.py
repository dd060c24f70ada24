"""Structured exports of a traced run.

Three views of the same span tree:

* :func:`run_report` — a JSON-ready dict with the span hierarchy,
  per-stage aggregates, workload counters and funnel metrics; the
  format written by ``repro align --trace-out``.
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON array
  format, loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
* :func:`render_tree` / :func:`render_run` — human-readable text; the
  latter extends :func:`repro.core.report.workload_summary` with the
  timed span tree and per-stage rates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .metrics import funnel_metrics, stage_summary
from .tracer import Span, Tracer

__all__ = [
    "REPORT_VERSION",
    "graft_span_dicts",
    "load_run_report",
    "render_run",
    "render_tree",
    "run_report",
    "serialize_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_run_report",
]

#: Format version stamped into every run report.
REPORT_VERSION = 1


def _span_to_dict(span: Span, epoch: float) -> Dict:
    start = 0.0 if span.start is None else span.start - epoch
    return {
        "name": span.name,
        "start": start,
        "duration": span.duration,
        "attrs": dict(span.attrs),
        "counters": dict(span.counters),
        "children": [_span_to_dict(c, epoch) for c in span.children],
    }


def _span_from_dict(data: Dict, tracer: Tracer) -> Span:
    span = Span(data["name"], tracer, dict(data.get("attrs", {})))
    span.start = float(data.get("start", 0.0))
    span.end = span.start + float(data.get("duration", 0.0))
    span.counters = {
        k: v for k, v in data.get("counters", {}).items()
    }
    span.children = [
        _span_from_dict(c, tracer) for c in data.get("children", [])
    ]
    return span


def serialize_spans(tracer: Tracer) -> List[Dict]:
    """Pickle-friendly dicts of a tracer's root spans.

    Start times are relative to the tracer's epoch, so a worker process
    can serialize its local spans and the parent can
    :func:`graft_span_dicts` them onto its own timeline.
    """
    return [_span_to_dict(s, tracer.epoch) for s in tracer.roots]


def _shift_span(span: Span, offset: float) -> None:
    if span.start is not None:
        span.start += offset
    if span.end is not None:
        span.end += offset
    for child in span.children:
        _shift_span(child, offset)


def graft_span_dicts(
    tracer: Tracer,
    span_dicts: List[Dict],
    base: Optional[float] = None,
    **tags,
) -> List[Span]:
    """Attach serialized worker spans to a parent tracer.

    ``base`` is the parent-timeline offset (seconds since the parent
    tracer's epoch, i.e. a :meth:`~repro.obs.tracer.Tracer.now` value
    captured when the remote work was dispatched) added to every span's
    relative start.  ``tags`` are set as attributes on every grafted
    root (the pipelines tag ``unit`` and ``worker``).  The
    reconstructed spans are appended under the parent's currently open
    span (or as new roots outside any span) and returned in order.
    """
    spans = [_span_from_dict(d, tracer) for d in span_dicts]
    offset = tracer.epoch + (0.0 if base is None else base)
    for span in spans:
        _shift_span(span, offset)
        span.attrs.update(tags)
    parent = tracer.current()
    if parent is not None:
        parent.children.extend(spans)
    else:
        tracer.roots.extend(spans)
    return spans


def run_report(
    tracer: Tracer,
    result=None,
    meta: Optional[Dict] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """Serialize a traced run to a JSON-ready dict.

    ``result`` is an optional :class:`~repro.core.pipeline.WGAResult`;
    when given, the report embeds the run's workload counters (the
    Table V columns) and the derived funnel metrics, so the numbers in
    the trace can be checked against the pipeline's own accounting.
    ``telemetry`` is an optional
    :meth:`~repro.obs.session.TelemetryOptions.summary` dict (the
    run's registry metrics); it is embedded verbatim under a
    ``telemetry`` key.
    """
    report: Dict = {
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "spans": [_span_to_dict(s, tracer.epoch) for s in tracer.roots],
        "stages": stage_summary(tracer.roots),
    }
    if telemetry is not None:
        report["telemetry"] = telemetry
    if result is not None:
        workload = result.workload
        report["workload"] = {
            "seed_hits": workload.seed_hits,
            "filter_tiles": workload.filter_tiles,
            "filter_cells": workload.filter_cells,
            "extension_tiles": workload.extension_tiles,
            "extension_cells": workload.extension_cells,
            "anchors": workload.anchors,
            "absorbed_anchors": workload.absorbed_anchors,
            "alignments": len(result.alignments),
            "matched_bp": result.total_matches,
        }
        report["funnel"] = funnel_metrics(
            workload, len(result.alignments)
        )
    return report


def write_run_report(
    path: Union[str, Path],
    tracer: Tracer,
    result=None,
    meta: Optional[Dict] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """Write :func:`run_report` JSON to ``path``; returns the dict."""
    report = run_report(
        tracer, result=result, meta=meta, telemetry=telemetry
    )
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def load_run_report(path: Union[str, Path]) -> Dict:
    """Load a run report written by :func:`write_run_report`.

    A file that is not a report this version reads raises
    :class:`ValueError` worded ``PATH: reason`` (``repro trace`` prints
    it as is); a file that cannot be read raises :class:`OSError`.
    """
    try:
        report = json.loads(Path(path).read_text())
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not JSON ({error})") from None
    if not isinstance(report, dict):
        raise ValueError(
            f"{path}: not a run report (expected a JSON object)"
        )
    version = report.get("version")
    if version != REPORT_VERSION:
        raise ValueError(
            f"{path}: unsupported run-report version {version!r}"
        )
    return report


#: pid used for worker-unit lanes in the Chrome trace (0 is the parent).
_WORKER_PID = 1


def _chrome_events(
    span_dict: Dict,
    events: List[Dict],
    pid: int,
    tid: int,
    tid_of_unit: Dict[str, int],
) -> None:
    # A unit-tagged span (grafted from a worker, at any nesting depth)
    # moves itself and its subtree onto that unit's worker lane.
    unit = span_dict.get("attrs", {}).get("unit")
    if unit is not None and str(unit) in tid_of_unit:
        pid, tid = _WORKER_PID, tid_of_unit[str(unit)]
    args = dict(span_dict["attrs"])
    args.update(span_dict["counters"])
    events.append(
        {
            "name": span_dict["name"],
            "pid": pid,
            "tid": tid,
            "cat": "repro",
            "ph": "X",
            "ts": round(span_dict["start"] * 1e6, 3),
            "dur": round(span_dict["duration"] * 1e6, 3),
            "args": args,
        }
    )
    for child in span_dict["children"]:
        _chrome_events(child, events, pid, tid, tid_of_unit)


def _collect_units(span_dicts: List[Dict]) -> Dict[str, int]:
    """Deterministic tid per worker unit: sorted by unit key.

    Worker spans arrive (and are grafted) in completion order, which
    varies run to run; keying lanes by the *unit name* instead of the
    arrival index makes the pid/tid mapping of two identical runs
    identical.  Units are collected from every depth — the pipelines
    graft a task's returned spans as children of the open parent span.
    """

    def walk(spans):
        for span in spans:
            unit = span.get("attrs", {}).get("unit")
            if unit is not None:
                yield str(unit)
            yield from walk(span.get("children", []))

    units = sorted(set(walk(span_dicts)))
    return {unit: tid for tid, unit in enumerate(units, start=1)}


def to_chrome_trace(source: Union[Tracer, Dict]) -> Dict:
    """Convert a tracer or a run-report dict to Chrome ``trace_event``.

    The result is the JSON-object flavour (``{"traceEvents": [...]}``)
    of complete (``"ph": "X"``) events with timestamps in microseconds
    — drop it into ``chrome://tracing`` or Perfetto as-is.

    Parent spans render on pid 0; spans grafted from worker processes
    (tagged with a ``unit`` attribute) each get their own lane —
    pid 1, one tid per unit, assigned in sorted unit order so the
    mapping is stable across identical runs.
    """
    if isinstance(source, dict):
        span_dicts = source.get("spans", [])
        meta = source.get("meta", {})
    else:
        span_dicts = [
            _span_to_dict(s, source.epoch) for s in source.roots
        ]
        meta = {}
    tid_of_unit = _collect_units(span_dicts)
    events: List[Dict] = []
    # Metadata events only when worker lanes exist: a single-process
    # trace keeps the plain events-only shape.
    if tid_of_unit:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "parent"},
            }
        )
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": _WORKER_PID,
                "tid": 0,
                "args": {"name": "workers"},
            }
        )
        for unit, tid in sorted(tid_of_unit.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _WORKER_PID,
                    "tid": tid,
                    "args": {"name": unit},
                }
            )
    for span_dict in span_dicts:
        _chrome_events(span_dict, events, 0, 0, tid_of_unit)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta),
    }


def write_chrome_trace(
    path: Union[str, Path], source: Union[Tracer, Dict]
) -> Dict:
    """Write :func:`to_chrome_trace` JSON to ``path``."""
    trace = to_chrome_trace(source)
    Path(path).write_text(json.dumps(trace, indent=2))
    return trace


def _format_counters(counters: Dict) -> str:
    if not counters:
        return ""
    parts = [
        f"{name}={value:,.0f}" if float(value).is_integer()
        else f"{name}={value:,.2f}"
        for name, value in sorted(counters.items())
    ]
    return "  [" + " ".join(parts) + "]"


def _render_span(span_dict: Dict, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    ms = span_dict["duration"] * 1e3
    attrs = span_dict["attrs"]
    attr_text = (
        " (" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + ")"
        if attrs
        else ""
    )
    lines.append(
        f"{indent}{span_dict['name']}{attr_text}: {ms:,.2f} ms"
        f"{_format_counters(span_dict['counters'])}"
    )
    for child in span_dict["children"]:
        _render_span(child, depth + 1, lines)


def render_tree(
    source: Union[Tracer, Dict], max_spans: int = 200
) -> str:
    """Text rendering of the span tree (durations in milliseconds).

    Large forests (e.g. one span per extended anchor) are truncated at
    ``max_spans`` lines with an ellipsis marker.
    """
    if isinstance(source, dict):
        span_dicts = source.get("spans", [])
    else:
        span_dicts = [
            _span_to_dict(s, source.epoch) for s in source.roots
        ]
    lines: List[str] = []
    for span_dict in span_dicts:
        _render_span(span_dict, 0, lines)
    if len(lines) > max_spans:
        hidden = len(lines) - max_spans
        lines = lines[:max_spans] + [f"... ({hidden} more spans)"]
    return "\n".join(lines)


def render_stages(stages: Dict[str, Dict]) -> str:
    """Per-stage aggregate table: calls, wall-clock, work rates."""
    if not stages:
        return "(no stages recorded)"
    lines = [
        f"{'stage':<20} {'calls':>7} {'seconds':>10}  rates",
        "-" * 60,
    ]
    for name, stage in sorted(
        stages.items(), key=lambda item: -item[1]["seconds"]
    ):
        rates = ", ".join(
            f"{rate}={value:,.0f}"
            for rate, value in sorted(stage.get("rates", {}).items())
        )
        lines.append(
            f"{name:<20} {stage['count']:>7,} "
            f"{stage['seconds']:>10.4f}  {rates}"
        )
    return "\n".join(lines)


def render_run(report: Dict, max_spans: int = 200) -> str:
    """Human-readable rendering of a full run report.

    Extends the plain workload summary of
    :func:`repro.core.report.workload_summary` with per-stage wall-clock
    and throughput plus the span tree.
    """
    sections: List[str] = []
    workload = report.get("workload")
    if workload:
        width = max(len(k) for k in workload)
        sections.append(
            "\n".join(
                f"{name:<{width}} : {value:>14,}"
                for name, value in workload.items()
            )
        )
    funnel = report.get("funnel")
    if funnel:
        rates = {
            k: v
            for k, v in funnel.items()
            if isinstance(v, float) and not float(v).is_integer()
        }
        if rates:
            sections.append(
                "funnel: "
                + "  ".join(
                    f"{name}={value:.3f}"
                    for name, value in sorted(rates.items())
                )
            )
    sections.append(render_stages(report.get("stages", {})))
    tree = render_tree(report, max_spans=max_spans)
    if tree:
        sections.append(tree)
    return "\n\n".join(sections)
