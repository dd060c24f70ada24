"""Metric primitives and derived pipeline metrics.

Primitives (:class:`Counter`, :class:`Gauge`, :class:`Histogram`,
collected in a :class:`MetricRegistry`) are deliberately minimal and
dependency free.  The derived helpers compute the numbers the paper's
evaluation reports: per-stage throughput in cells/s (Scrooge's headline
cross-platform metric) and the seeds -> anchors -> alignments funnel
with its absorption rate (Table V shape).

``funnel_metrics`` duck-types its workload argument (anything with the
:class:`repro.core.pipeline.Workload` counter attributes) so this module
stays import-free of the pipeline layers it measures.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from .tracer import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "funnel_metrics",
    "stage_summary",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. queue depth, utilisation)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution: count/sum/min/max plus exact quantiles.

    Observations are kept (these runs record at most thousands of
    values), so quantiles are exact rather than sketched.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Exact q-quantile (nearest-rank); 0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(0, rank)]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class MetricRegistry:
    """Named metric namespace; creates each metric on first use."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every registered metric."""
        out: Dict[str, object] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def funnel_metrics(workload, alignments: int) -> Dict[str, float]:
    """The seeds -> anchors -> alignments funnel for one run.

    ``workload`` is anything exposing the
    :class:`~repro.core.pipeline.Workload` counters (``seed_hits``,
    ``filter_tiles``, ``anchors``, ``absorbed_anchors``, ...).  Ratios
    are 0.0 wherever the upstream stage produced nothing.
    """
    extended = workload.anchors - workload.absorbed_anchors
    return {
        "seed_hits": int(workload.seed_hits),
        "filter_tiles": int(workload.filter_tiles),
        "anchors": int(workload.anchors),
        "anchors_extended": int(extended),
        "absorbed_anchors": int(workload.absorbed_anchors),
        "alignments": int(alignments),
        "filter_pass_rate": _ratio(workload.anchors, workload.filter_tiles),
        "absorption_rate": _ratio(workload.absorbed_anchors, workload.anchors),
        "alignments_per_extended_anchor": _ratio(alignments, extended),
        "anchors_per_seed_hit": _ratio(workload.anchors, workload.seed_hits),
    }


def stage_summary(spans: Iterable[Span]) -> Dict[str, Dict]:
    """Aggregate a span tree (or forest) by span name.

    Returns ``{name: {"count", "seconds", "counters", "rates"}}`` where
    ``rates`` holds per-second throughput for every counter ending in
    ``cells``, ``tiles`` or ``hits`` — the pipeline's work units, giving
    the cells/s-per-stage numbers directly.

    Only spans whose parent has a *different* name contribute seconds,
    so recursive or repeated same-name nesting never double-counts time.
    """
    stages: Dict[str, Dict] = {}
    def visit(span: Span, parent_name: Optional[str]) -> None:
        if span.name != parent_name:
            stage = stages.setdefault(
                span.name,
                {"count": 0, "seconds": 0.0, "counters": {}},
            )
            stage["count"] += 1
            stage["seconds"] += span.duration
            for counter, value in span.counters.items():
                stage["counters"][counter] = (
                    stage["counters"].get(counter, 0) + value
                )
        for child in span.children:
            visit(child, span.name)

    for span in spans:
        visit(span, None)

    for stage in stages.values():
        rates: Dict[str, float] = {}
        if stage["seconds"] > 0:
            for counter, value in stage["counters"].items():
                if counter.endswith(("cells", "tiles", "hits")):
                    rates[f"{counter}_per_sec"] = value / stage["seconds"]
        stage["rates"] = rates
    return stages
