"""Chrome-trace round trips: valid JSON, complete events, stable lanes."""

import json

from repro.obs.export import graft_span_dicts, serialize_spans, to_chrome_trace
from repro.obs.tracer import Tracer


def worker_span_dicts(units, order=None):
    """Serialized single-span trees for each unit, in arrival order."""
    payloads = {}
    for unit in units:
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("unit_align"):
            pass
        payloads[unit] = serialize_spans(tracer)
    return [(unit, payloads[unit]) for unit in (order or units)]


def traced_run(arrival_order):
    """A parent trace with worker spans grafted in ``arrival_order``."""
    ticks = iter([float(i) for i in range(100)])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("align"):
        for unit, span_dicts in worker_span_dicts(
            sorted(arrival_order), order=arrival_order
        ):
            for grafted in graft_span_dicts(tracer, span_dicts, base=1.0):
                grafted.attrs.setdefault("unit", unit)
    return tracer


UNITS = ["t1:q1", "t1:q2", "t2:q1"]


class TestTraceShape:
    def test_trace_is_valid_json_with_event_array(self):
        trace = to_chrome_trace(traced_run(UNITS))
        decoded = json.loads(json.dumps(trace))
        assert isinstance(decoded["traceEvents"], list)
        assert decoded["traceEvents"]
        for event in decoded["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_x_flavor_events_carry_durations(self):
        trace = to_chrome_trace(traced_run(UNITS))
        spans = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert spans
        for event in spans:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0


class TestStableLanes:
    def test_pid_tid_mapping_identical_across_identical_runs(self):
        """Two identical runs must produce the same lane mapping even
        when worker results arrive in a different order."""
        first = to_chrome_trace(traced_run(UNITS))
        second = to_chrome_trace(traced_run(list(reversed(UNITS))))

        def lane_of(trace):
            lanes = {}
            for event in trace["traceEvents"]:
                unit = event.get("args", {}).get("unit")
                if event["ph"] != "M" and unit is not None:
                    lanes[unit] = (event["pid"], event["tid"])
            return lanes

        assert lane_of(first) == lane_of(second)
        assert len(set(lane_of(first).values())) == len(UNITS)

    def test_parent_spans_stay_on_pid_zero(self):
        trace = to_chrome_trace(traced_run(UNITS))
        parent = [
            e
            for e in trace["traceEvents"]
            if e["ph"] != "M" and e["name"] == "align"
        ]
        assert parent and all(e["pid"] == 0 for e in parent)

    def test_metadata_names_processes_and_unit_threads(self):
        trace = to_chrome_trace(traced_run(UNITS))
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"parent", "workers"} <= names
        assert set(UNITS) <= names

    def test_single_process_trace_has_no_metadata(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("solo"):
            pass
        trace = to_chrome_trace(tracer)
        assert all(e["ph"] != "M" for e in trace["traceEvents"])
