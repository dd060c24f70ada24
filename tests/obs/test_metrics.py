"""Metric primitive and derived-metric tests."""

import pytest

from repro.core import Workload
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    funnel_metrics,
    stage_summary,
)
from repro.obs.tracer import Tracer


class TestPrimitives:
    def test_counter(self):
        c = Counter("seeds")
        c.inc()
        c.inc(9)
        assert c.value == 10
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("util")
        g.set(0.5)
        assert g.value == pytest.approx(0.5)
        g.set(0.1)
        assert g.value == pytest.approx(0.1)

    def test_histogram_summary(self):
        h = Histogram("tile_cells")
        for v in [1, 2, 3, 4, 100]:
            h.observe(v)
        assert h.count == 5
        assert h.min == 1
        assert h.max == 100
        assert h.mean == pytest.approx(22.0)
        assert h.quantile(0.5) == 3
        summary = h.summary()
        assert summary["count"] == 5
        assert summary["p95"] == 100

    def test_histogram_empty(self):
        h = Histogram("empty")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0

    def test_histogram_quantile_bounds(self):
        h = Histogram("h")
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_registry_creates_and_caches(self):
        reg = MetricRegistry()
        c = reg.counter("seeds")
        assert reg.counter("seeds") is c
        reg.gauge("util").set(0.5)
        reg.histogram("cells").observe(3)
        snapshot = reg.as_dict()
        assert snapshot["seeds"] == 0
        assert snapshot["util"] == 0.5
        assert snapshot["cells"]["count"] == 1

    def test_registry_type_conflict(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestFunnel:
    def test_ratios(self):
        workload = Workload(
            seed_hits=1000,
            filter_tiles=100,
            filter_cells=5000,
            anchors=20,
            absorbed_anchors=5,
        )
        funnel = funnel_metrics(workload, alignments=10)
        assert funnel["seed_hits"] == 1000
        assert funnel["anchors_extended"] == 15
        assert funnel["filter_pass_rate"] == pytest.approx(0.2)
        assert funnel["absorption_rate"] == pytest.approx(0.25)
        assert funnel["alignments_per_extended_anchor"] == pytest.approx(
            10 / 15
        )
        assert funnel["anchors_per_seed_hit"] == pytest.approx(0.02)

    def test_empty_workload_gives_zero_ratios(self):
        funnel = funnel_metrics(Workload(), alignments=0)
        assert funnel["filter_pass_rate"] == 0.0
        assert funnel["absorption_rate"] == 0.0
        assert funnel["alignments_per_extended_anchor"] == 0.0


class TestStageSummary:
    def _tracer(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        return Tracer(clock=clock)

    def test_aggregates_by_name(self):
        tracer = self._tracer()
        for _ in range(2):
            with tracer.span("filter") as span:
                span.inc("filter_cells", 100)
        stages = stage_summary(tracer.roots)
        assert stages["filter"]["count"] == 2
        assert stages["filter"]["counters"]["filter_cells"] == 200
        assert stages["filter"]["seconds"] > 0

    def test_rates_for_work_counters(self):
        tracer = self._tracer()
        with tracer.span("filter") as span:
            span.inc("filter_cells", 100).inc("anchors", 3)
        stages = stage_summary(tracer.roots)
        rates = stages["filter"]["rates"]
        assert "filter_cells_per_sec" in rates
        assert rates["filter_cells_per_sec"] == pytest.approx(100.0)
        # "anchors" is not a work-unit counter by default
        assert "anchors_per_sec" not in rates

    def test_same_name_nesting_not_double_counted(self):
        tracer = self._tracer()
        with tracer.span("extend") as outer:
            with tracer.span("extend"):
                pass
        stages = stage_summary(tracer.roots)
        # only the outer span contributes (the nested one re-covers
        # the same wall-clock)
        assert stages["extend"]["count"] == 1
        assert stages["extend"]["seconds"] == pytest.approx(
            outer.duration
        )
