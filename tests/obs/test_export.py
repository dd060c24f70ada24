"""Run-report serialization, Chrome-trace conversion and rendering."""

import json

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.genome import make_species_pair
from repro.obs.export import (
    load_run_report,
    render_run,
    render_tree,
    run_report,
    to_chrome_trace,
    write_chrome_trace,
    write_run_report,
)
from repro.obs.tracer import Tracer


@pytest.fixture
def traced_run():
    """A small traced Darwin-WGA run shared by export tests."""
    pair = make_species_pair(
        4000, 0.3, np.random.default_rng(7), alignable_fraction=0.5
    )
    tracer = Tracer()
    result = DarwinWGA(tracer=tracer).align(
        pair.target.genome, pair.query.genome
    )
    return tracer, result


class TestRunReport:
    def test_report_is_json_serializable(self, traced_run):
        tracer, result = traced_run
        report = run_report(tracer, result=result, meta={"k": "v"})
        encoded = json.dumps(report)
        assert json.loads(encoded) == report

    def test_workload_counters_match_span_counters(self, traced_run):
        """The acceptance check: trace counters == Workload counters."""
        tracer, result = traced_run
        report = run_report(tracer, result=result)
        root = report["spans"][0]
        workload = report["workload"]
        for key in (
            "seed_hits",
            "filter_tiles",
            "filter_cells",
            "extension_tiles",
            "extension_cells",
            "anchors",
            "absorbed_anchors",
        ):
            assert root["counters"][key] == workload[key], key
        assert workload["seed_hits"] == result.workload.seed_hits
        assert workload["filter_cells"] == result.workload.filter_cells
        assert (
            workload["extension_cells"]
            == result.workload.extension_cells
        )

    def test_stage_cells_match_workload(self, traced_run):
        tracer, result = traced_run
        report = run_report(tracer, result=result)
        stages = report["stages"]
        assert (
            stages["gapped_filter"]["counters"]["filter_cells"]
            == result.workload.filter_cells
        )
        assert (
            stages["extend"]["counters"].get("extension_cells", 0)
            == result.workload.extension_cells
        )
        assert (
            stages["seed"]["counters"]["seed_hits"]
            == result.workload.seed_hits
        )

    def test_write_and_load_round_trip(self, traced_run, tmp_path):
        tracer, result = traced_run
        path = tmp_path / "run.json"
        written = write_run_report(path, tracer, result=result)
        loaded = load_run_report(path)
        assert loaded == written

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "spans": []}))
        with pytest.raises(ValueError, match="version"):
            load_run_report(path)


class TestChromeTrace:
    def test_event_per_span(self, traced_run):
        tracer, _ = traced_run
        trace = to_chrome_trace(tracer)
        assert len(trace["traceEvents"]) == len(list(tracer.walk()))

    def test_events_are_complete_events_in_microseconds(
        self, traced_run
    ):
        tracer, _ = traced_run
        report = run_report(tracer)
        trace = to_chrome_trace(report)
        root_event = trace["traceEvents"][0]
        assert root_event["ph"] == "X"
        root_span = report["spans"][0]
        assert root_event["ts"] == pytest.approx(
            root_span["start"] * 1e6, abs=0.01
        )
        assert root_event["dur"] == pytest.approx(
            root_span["duration"] * 1e6, abs=0.01
        )

    def test_children_nest_within_parent_window(self, traced_run):
        tracer, _ = traced_run
        trace = to_chrome_trace(tracer)
        events = trace["traceEvents"]
        root = events[0]
        for event in events[1:]:
            assert event["ts"] >= root["ts"] - 0.01
            assert (
                event["ts"] + event["dur"]
                <= root["ts"] + root["dur"] + 0.01
            )

    def test_counters_propagate_to_args(self, traced_run):
        tracer, _ = traced_run
        trace = to_chrome_trace(tracer)
        root = trace["traceEvents"][0]
        assert "seed_hits" in root["args"]
        assert root["args"]["aligner"] == "darwin"

    def test_write_chrome_trace(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "chrome.json"
        write_chrome_trace(path, tracer)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestRendering:
    def test_render_tree_mentions_spans_and_counters(self, traced_run):
        tracer, _ = traced_run
        text = render_tree(tracer)
        assert "align" in text
        assert "seed_hits" in text
        assert "ms" in text

    def test_render_tree_truncates(self):
        tracer = Tracer()
        with tracer.span("root"):
            for _ in range(50):
                with tracer.span("leaf"):
                    pass
        text = render_tree(tracer, max_spans=10)
        assert "more spans" in text
        assert len(text.splitlines()) == 11

    def test_render_run_extends_workload_summary(self, traced_run):
        tracer, result = traced_run
        report = run_report(tracer, result=result)
        text = render_run(report)
        # the workload block, the stage table and the tree all present
        assert "seed_hits" in text
        assert "stage" in text
        assert "align" in text
        assert "funnel" in text
