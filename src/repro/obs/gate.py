"""Perf-regression gating over the committed benchmark artifact.

``repro bench check`` compares a freshly generated ``BENCH_PIPELINE.json``
against a committed baseline (``benchmarks/baseline.json``) and returns
a machine-readable verdict.  Metrics fall into three tolerance classes:

* **deterministic** — workload/funnel counts (seed hits, anchors,
  alignments, matched bp).  These are exact replays of the same seeded
  inputs, so any difference is a correctness change, not noise:
  tolerance is zero.
* **wall/rate** — stage wall-clock and cells/s throughput.  These move
  with the machine; a stage fails only when it slows down (or its
  throughput drops) beyond a relative band, and stages too short to
  time reliably (< ``min_seconds`` in the baseline) are skipped.
* **overhead** — recorded overhead fractions (fault-tolerance wrapper,
  telemetry on/off) gated against their stated targets.  Only
  *slowdowns* beyond target fail; a measurement faster than its
  baseline by more than the band is reported as a warning ("suspect":
  usually a benchmark artifact, e.g. unpaid warmup), never a pass made
  of noise.

Every comparison yields a check record ``{id, status, current,
baseline, limit, detail}``; the verdict fails iff any check fails.
Exit-code policy (warn-only CI mode vs gating mode) belongs to the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["GateResult", "compare_artifacts", "load_artifact"]

#: Funnel/workload keys that must replay exactly.
_DETERMINISTIC_KEYS = (
    "seed_hits",
    "filter_tiles",
    "filter_cells",
    "anchors",
    "anchors_extended",
    "absorbed_anchors",
    "extension_tiles",
    "extension_cells",
    "alignments",
    "matched_bp",
)


class GateResult:
    """Accumulated checks plus the overall verdict."""

    def __init__(self) -> None:
        self.checks: List[Dict] = []

    def add(
        self,
        check_id: str,
        status: str,
        current=None,
        baseline=None,
        limit=None,
        detail: str = "",
    ) -> None:
        self.checks.append(
            {
                "id": check_id,
                "status": status,
                "current": current,
                "baseline": baseline,
                "limit": limit,
                "detail": detail,
            }
        )

    @property
    def verdict(self) -> str:
        return (
            "fail"
            if any(c["status"] == "fail" for c in self.checks)
            else "pass"
        )

    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "warn": 0, "skip": 0}
        for check in self.checks:
            out[check["status"]] = out.get(check["status"], 0) + 1
        return out

    def failures(self) -> List[Dict]:
        return [c for c in self.checks if c["status"] == "fail"]

    def as_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "counts": self.counts(),
            "checks": self.checks,
        }


def load_artifact(path: Union[str, Path]) -> Dict:
    return json.loads(Path(path).read_text())


def _check_deterministic(
    result: GateResult, prefix: str, current: Dict, baseline: Dict
) -> None:
    for key in _DETERMINISTIC_KEYS:
        if key not in baseline:
            continue
        check_id = f"{prefix}.{key}"
        if key not in current:
            result.add(
                check_id, "warn", baseline=baseline[key],
                detail="metric missing from current artifact",
            )
            continue
        if current[key] == baseline[key]:
            result.add(
                check_id, "pass", current=current[key],
                baseline=baseline[key], limit=0,
            )
        else:
            result.add(
                check_id, "fail", current=current[key],
                baseline=baseline[key], limit=0,
                detail="deterministic counter diverged (tolerance 0)",
            )


def _check_stages(
    result: GateResult,
    prefix: str,
    current: Dict,
    baseline: Dict,
    wall_tolerance: float,
    rate_tolerance: float,
    min_seconds: float,
) -> None:
    for stage, base_stage in sorted(baseline.items()):
        base_wall = base_stage.get("wall_seconds", 0.0)
        check_id = f"{prefix}.{stage}"
        if base_wall < min_seconds:
            result.add(
                check_id + ".wall_seconds", "skip", baseline=base_wall,
                detail=f"baseline under {min_seconds}s — too noisy to gate",
            )
            continue
        cur_stage = current.get(stage)
        if cur_stage is None:
            result.add(
                check_id + ".wall_seconds", "warn",
                detail="stage missing from current artifact",
            )
            continue
        cur_wall = cur_stage.get("wall_seconds", 0.0)
        limit = base_wall * (1.0 + wall_tolerance)
        result.add(
            check_id + ".wall_seconds",
            "fail" if cur_wall > limit else "pass",
            current=cur_wall, baseline=base_wall, limit=limit,
            detail=(
                f"stage slowed beyond +{wall_tolerance:.0%}"
                if cur_wall > limit
                else ""
            ),
        )
        for rate, base_value in sorted(
            base_stage.get("rates", {}).items()
        ):
            cur_value = cur_stage.get("rates", {}).get(rate)
            rate_id = f"{check_id}.{rate}"
            if cur_value is None:
                result.add(
                    rate_id, "warn", baseline=base_value,
                    detail="rate missing from current artifact",
                )
                continue
            floor = base_value * (1.0 - rate_tolerance)
            result.add(
                rate_id,
                "fail" if cur_value < floor else "pass",
                current=cur_value, baseline=base_value, limit=floor,
                detail=(
                    f"throughput dropped beyond -{rate_tolerance:.0%}"
                    if cur_value < floor
                    else ""
                ),
            )


def _check_overheads(
    result: GateResult,
    prefix: str,
    overheads: Dict[str, float],
    target: float,
) -> None:
    for name, value in sorted(overheads.items()):
        check_id = f"{prefix}.{name}"
        if not isinstance(value, (int, float)):
            continue
        if value > target:
            result.add(
                check_id, "fail", current=value, limit=target,
                detail=f"overhead above {target:.0%} target",
            )
        elif value < -target:
            result.add(
                check_id, "warn", current=value, limit=target,
                detail=(
                    "suspiciously negative overhead — likely a "
                    "measurement artifact (unpaid warmup?)"
                ),
            )
        else:
            result.add(check_id, "pass", current=value, limit=target)


def compare_artifacts(
    current: Dict,
    baseline: Dict,
    wall_tolerance: float = 0.5,
    rate_tolerance: float = 0.4,
    min_seconds: float = 0.05,
) -> GateResult:
    """Compare a fresh benchmark artifact against the committed baseline."""
    result = GateResult()
    if current.get("version") != baseline.get("version"):
        result.add(
            "artifact.version", "fail",
            current=current.get("version"),
            baseline=baseline.get("version"),
            detail="artifact format version mismatch",
        )
    comparable_timings = current.get("scale") == baseline.get("scale")
    if not comparable_timings:
        result.add(
            "artifact.scale", "warn",
            current=current.get("scale"), baseline=baseline.get("scale"),
            detail="scale mismatch — wall/rate checks skipped",
        )
    current_pairs = current.get("pairs", {})
    for pair, base_aligners in sorted(baseline.get("pairs", {}).items()):
        cur_aligners = current_pairs.get(pair)
        if cur_aligners is None:
            result.add(
                f"pairs.{pair}", "warn",
                detail="pair missing from current artifact",
            )
            continue
        for aligner, base_entry in sorted(base_aligners.items()):
            if not isinstance(base_entry, dict) or "funnel" not in base_entry:
                continue
            cur_entry = cur_aligners.get(aligner, {})
            prefix = f"pairs.{pair}.{aligner}"
            _check_deterministic(
                result,
                f"{prefix}.funnel",
                cur_entry.get("funnel", {}),
                base_entry.get("funnel", {}),
            )
            _check_deterministic(
                result,
                f"{prefix}.workload",
                cur_entry.get("workload", {}),
                base_entry.get("workload", {}),
            )
            if comparable_timings:
                _check_stages(
                    result,
                    f"{prefix}.stages",
                    cur_entry.get("stages", {}),
                    base_entry.get("stages", {}),
                    wall_tolerance,
                    rate_tolerance,
                    min_seconds,
                )
    fault = current.get("fault_overhead", {})
    if fault:
        _check_overheads(
            result,
            "fault_overhead",
            fault.get("overhead", {}),
            float(fault.get("target", 0.05)),
        )
        if fault.get("identical_output") is False:
            result.add(
                "fault_overhead.identical_output", "fail", current=False,
                detail="supervised run output diverged from raw run",
            )
    obs = current.get("obs_overhead", {})
    if obs:
        overheads = obs.get("overhead", {})
        targets = obs.get("targets", {})
        for name, value in sorted(overheads.items()):
            _check_overheads(
                result,
                "obs_overhead",
                {name: value},
                float(targets.get(name, 0.05)),
            )
        if obs.get("identical_output") is False:
            result.add(
                "obs_overhead.identical_output", "fail", current=False,
                detail="telemetry-on run output diverged",
            )
        if obs.get("dropped_events", 0) > 0:
            result.add(
                "obs_overhead.dropped_events", "fail",
                current=obs.get("dropped_events"), limit=0,
                detail="telemetry bus dropped events during benchmark",
            )
    base_kernels = baseline.get("kernels", {})
    if comparable_timings and base_kernels:
        cur_kernels = current.get("kernels", {})
        for kernel, base_entry in sorted(base_kernels.items()):
            if not isinstance(base_entry, dict):
                continue
            base_rate = base_entry.get("new_cells_per_sec")
            if base_rate is None:
                continue
            check_id = f"kernels.{kernel}.new_cells_per_sec"
            cur_rate = cur_kernels.get(kernel, {}).get("new_cells_per_sec")
            if cur_rate is None:
                result.add(
                    check_id, "warn", baseline=base_rate,
                    detail="kernel rate missing from current artifact",
                )
                continue
            floor = base_rate * (1.0 - rate_tolerance)
            result.add(
                check_id,
                "fail" if cur_rate < floor else "pass",
                current=cur_rate, baseline=base_rate, limit=floor,
                detail=(
                    f"kernel throughput dropped beyond -{rate_tolerance:.0%}"
                    if cur_rate < floor
                    else ""
                ),
            )
    scaling = current.get("parallel_scaling")
    if isinstance(scaling, dict):
        if scaling.get("identical_output") is False:
            result.add(
                "parallel_scaling.identical_output", "fail",
                current=False,
                detail="streamed output diverged from serial",
            )
        targets = scaling.get("targets", {})
        at = str(targets.get("at_workers", "2"))
        speedup = scaling.get("streamed_speedup", {}).get(at)
        if comparable_timings and speedup is not None:
            target = targets.get("streamed_speedup")
            if target is not None:
                result.add(
                    f"parallel_scaling.streamed_speedup.{at}",
                    "fail" if speedup < target else "pass",
                    current=speedup, limit=target,
                    detail=(
                        "streamed schedule fell below "
                        f"{target}x the serial run"
                        if speedup < target
                        else ""
                    ),
                )
            base_speedup = (
                baseline.get("parallel_scaling", {})
                .get("streamed_speedup", {})
                .get(at)
            )
            if base_speedup:
                floor = base_speedup * (1.0 - rate_tolerance)
                result.add(
                    f"parallel_scaling.streamed_speedup.{at}.regression",
                    "fail" if speedup < floor else "pass",
                    current=speedup, baseline=base_speedup, limit=floor,
                    detail=(
                        "streamed speedup over serial regressed beyond "
                        f"-{rate_tolerance:.0%}"
                        if speedup < floor
                        else ""
                    ),
                )
    return result


def render_gate(result: GateResult, verbose: bool = False) -> str:
    """Human-readable verdict: failures/warnings, then the tally."""
    lines: List[str] = []
    for check in result.checks:
        if check["status"] == "pass" and not verbose:
            continue
        if check["status"] == "skip" and not verbose:
            continue
        value = check.get("current")
        value_text = (
            f" current={value:.4g}" if isinstance(value, float)
            else f" current={value}" if value is not None else ""
        )
        base = check.get("baseline")
        base_text = (
            f" baseline={base:.4g}" if isinstance(base, float)
            else f" baseline={base}" if base is not None else ""
        )
        detail = f" — {check['detail']}" if check["detail"] else ""
        lines.append(
            f"{check['status'].upper():<5} {check['id']}"
            f"{value_text}{base_text}{detail}"
        )
    counts = result.counts()
    lines.append(
        f"verdict: {result.verdict} "
        f"({counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['warn']} warn, {counts['skip']} skipped)"
    )
    return "\n".join(lines)
