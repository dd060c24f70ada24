"""Perf-regression gate: tolerance bands, verdicts, CLI exit codes."""

import copy
import json

from repro.cli import main as cli_main
from repro.obs import compare_artifacts, load_artifact
from repro.obs.gate import render_gate


def baseline_artifact():
    return {
        "version": 1,
        "scale": 1,
        "pairs": {
            "ce11-cb4": {
                "darwin": {
                    "funnel": {"seed_hits": 100, "anchors": 5},
                    "workload": {"extension_cells": 1_000_000},
                    "stages": {
                        "align": {
                            "wall_seconds": 2.0,
                            "rates": {
                                "extension_cells_per_sec": 500_000.0
                            },
                        },
                        "chain": {"wall_seconds": 0.001},
                    },
                }
            }
        },
        "fault_overhead": {
            "overhead": {"dispatch_supervised": 0.01},
            "target": 0.05,
            "identical_output": True,
        },
        "obs_overhead": {
            "overhead": {"telemetry_off": 0.0001, "telemetry_on": 0.02},
            "targets": {"telemetry_off": 0.01, "telemetry_on": 0.05},
            "dropped_events": 0,
            "identical_output": True,
        },
        "parallel_scaling": {
            "identical_output": True,
            "streamed_speedup": {"2": 1.05, "4": 1.0},
            "targets": {"streamed_speedup": 0.7, "at_workers": "2"},
        },
    }


class TestCompareArtifacts:
    def test_identical_artifacts_pass(self):
        artifact = baseline_artifact()
        result = compare_artifacts(artifact, copy.deepcopy(artifact))
        assert result.verdict == "pass"
        assert result.counts()["fail"] == 0

    def test_deterministic_counter_divergence_fails(self):
        current = baseline_artifact()
        current["pairs"]["ce11-cb4"]["darwin"]["funnel"]["anchors"] = 6
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"
        assert any(
            "funnel.anchors" in f["id"] for f in result.failures()
        )

    def test_wall_slowdown_beyond_band_fails(self):
        current = baseline_artifact()
        stages = current["pairs"]["ce11-cb4"]["darwin"]["stages"]
        stages["align"]["wall_seconds"] = 3.5  # +75% vs +50% band
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"

    def test_wall_slowdown_within_band_passes(self):
        current = baseline_artifact()
        stages = current["pairs"]["ce11-cb4"]["darwin"]["stages"]
        stages["align"]["wall_seconds"] = 2.5  # +25%
        assert compare_artifacts(current, baseline_artifact()).verdict == (
            "pass"
        )

    def test_rate_regression_beyond_band_fails(self):
        current = baseline_artifact()
        stages = current["pairs"]["ce11-cb4"]["darwin"]["stages"]
        stages["align"]["rates"]["extension_cells_per_sec"] = 250_000.0
        assert compare_artifacts(current, baseline_artifact()).verdict == (
            "fail"
        )

    def test_sub_noise_stage_is_skipped(self):
        current = baseline_artifact()
        stages = current["pairs"]["ce11-cb4"]["darwin"]["stages"]
        stages["chain"]["wall_seconds"] = 0.04  # 40x, but < min_seconds
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "pass"
        assert result.counts()["skip"] >= 1

    def test_overhead_above_target_fails(self):
        current = baseline_artifact()
        current["obs_overhead"]["overhead"]["telemetry_on"] = 0.08
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"

    def test_suspiciously_negative_overhead_warns(self):
        current = baseline_artifact()
        current["fault_overhead"]["overhead"][
            "dispatch_supervised"
        ] = -0.30
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "pass"  # warn never fails the gate
        assert result.counts()["warn"] >= 1

    def test_dropped_bus_events_fail(self):
        current = baseline_artifact()
        current["obs_overhead"]["dropped_events"] = 2
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"

    def test_scale_mismatch_skips_timing_checks(self):
        current = baseline_artifact()
        current["scale"] = 4
        stages = current["pairs"]["ce11-cb4"]["darwin"]["stages"]
        stages["align"]["wall_seconds"] = 50.0
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "pass"  # warned, not failed
        assert result.counts()["warn"] >= 1

    def test_streaming_output_divergence_fails(self):
        current = baseline_artifact()
        current["parallel_scaling"]["identical_output"] = False
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"
        assert any(
            f["id"] == "parallel_scaling.identical_output"
            for f in result.failures()
        )

    def test_streamed_speedup_below_target_fails(self):
        current = baseline_artifact()
        current["parallel_scaling"]["streamed_speedup"]["2"] = 0.65
        result = compare_artifacts(current, baseline_artifact())
        assert result.verdict == "fail"
        assert any(
            f["id"] == "parallel_scaling.streamed_speedup.2"
            for f in result.failures()
        )

    def test_streamed_speedup_regression_vs_baseline_fails(self):
        # Above the absolute target but far below the baseline: the
        # relative regression floor must still catch it.
        current = baseline_artifact()
        base = baseline_artifact()
        base["parallel_scaling"]["streamed_speedup"]["2"] = 1.8
        current["parallel_scaling"]["streamed_speedup"]["2"] = 0.9
        result = compare_artifacts(current, base)
        assert result.verdict == "fail"
        assert any(
            f["id"] == "parallel_scaling.streamed_speedup.2.regression"
            for f in result.failures()
        )

    def test_off_target_worker_counts_are_not_gated(self):
        # Only the at_workers column is gated; w=4 numbers are
        # informational.
        current = baseline_artifact()
        current["parallel_scaling"]["streamed_speedup"]["4"] = 0.3
        assert compare_artifacts(current, baseline_artifact()).verdict == (
            "pass"
        )

    def test_scale_mismatch_skips_streaming_timing_checks(self):
        current = baseline_artifact()
        current["scale"] = 4
        current["parallel_scaling"]["streamed_speedup"]["2"] = 0.3
        result = compare_artifacts(current, baseline_artifact())
        assert result.counts()["fail"] == 0

    def test_render_gate_mentions_failures_and_tally(self):
        current = baseline_artifact()
        current["pairs"]["ce11-cb4"]["darwin"]["funnel"]["anchors"] = 6
        result = compare_artifacts(current, baseline_artifact())
        text = render_gate(result)
        assert "FAIL" in text
        assert "verdict: fail" in text


class TestBenchCheckCli:
    def write(self, path, artifact):
        path.write_text(json.dumps(artifact))
        return str(path)

    def test_exit_zero_on_clean_baseline(self, tmp_path, capsys):
        current = self.write(tmp_path / "cur.json", baseline_artifact())
        base = self.write(tmp_path / "base.json", baseline_artifact())
        code = cli_main(
            ["bench", "check", "--current", current, "--baseline", base]
        )
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        regressed = baseline_artifact()
        regressed["pairs"]["ce11-cb4"]["darwin"]["funnel"]["anchors"] = 9
        current = self.write(tmp_path / "cur.json", regressed)
        base = self.write(tmp_path / "base.json", baseline_artifact())
        code = cli_main(
            ["bench", "check", "--current", current, "--baseline", base]
        )
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out

    def test_warn_only_downgrades_exit_code(self, tmp_path):
        regressed = baseline_artifact()
        regressed["obs_overhead"]["overhead"]["telemetry_on"] = 0.2
        current = self.write(tmp_path / "cur.json", regressed)
        base = self.write(tmp_path / "base.json", baseline_artifact())
        code = cli_main(
            [
                "bench",
                "check",
                "--current",
                current,
                "--baseline",
                base,
                "--warn-only",
            ]
        )
        assert code == 0

    def test_json_verdict_is_machine_readable(self, tmp_path):
        current = self.write(tmp_path / "cur.json", baseline_artifact())
        base = self.write(tmp_path / "base.json", baseline_artifact())
        out = tmp_path / "verdict.json"
        code = cli_main(
            [
                "bench",
                "check",
                "--current",
                current,
                "--baseline",
                base,
                "--json",
                str(out),
            ]
        )
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "pass"
        assert verdict["counts"]["fail"] == 0

    def test_load_artifact_round_trips(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(baseline_artifact()))
        assert load_artifact(path) == baseline_artifact()


class TestCommittedBaseline:
    def test_repo_baseline_gates_itself_clean(self):
        """The committed baseline must pass against itself (CI relies
        on a clean-by-construction starting point)."""
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        baseline = repo / "benchmarks" / "baseline.json"
        artifact = load_artifact(baseline)
        result = compare_artifacts(artifact, artifact)
        assert result.verdict in ("pass", "warn")
        assert result.counts()["fail"] == 0
