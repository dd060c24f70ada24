#!/usr/bin/env python3
"""The repo benchmark: one command, every metric, every output checked.

The driver's form, one workload per call (BENCHMARK.json ``command``)::

    python3 perf/run.py --workload wga-far --seed 7 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is the separate traced run that gives the per-layer ones.
The last line of standard output is the result object.

Without ``--workload`` it runs every workload both ways (each as a child
of the form above), prints every metric by name with its unit and writes
them to ``--out`` (default ``perf/out/result.json``)::

    python3 perf/run.py [--seed N] [--seconds S] [--workloads a,b] [--out F]

``--compare A.json B.json`` reads two such files: see :func:`compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# As a script this file's directory leads sys.path, where perf/trace.py
# would shadow the standard library's ``trace``: import perf as a package.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

OUT = ROOT / "perf" / "out"
DEFAULT_SEED = 20190216
KINDS = ("end_to_end", "per_layer")


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "load_1m_start": os.getloadavg()[0],
    }


def end_to_end(workload, args, run_dir, env, checks, speed):
    from perf import measure

    pairs, daemon, setups = measure.set_up(
        workload, args.seed, args.scale, run_dir, env, speed
    )
    try:
        if workload.serve:
            values = measure.measure_serve(
                workload, pairs, daemon, run_dir, env, args.seconds, checks,
                speed,
            )
        else:
            values = measure.measure_cli(
                workload, pairs, run_dir, env, args.seconds, checks, speed
            )
    finally:
        if daemon is not None:
            daemon.kill()
    if values is not None:
        values["setup_s"] = statistics.median(setups)
    return values


def run_one(args) -> int:
    """One workload, one mode; the driver's contract.

    Always the child of :func:`perf.reaper.supervise`, which sees to it
    that nothing started here is left when the command returns.
    """
    from perf import measure
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = manifest()[KINDS[args.trace]]
    info = environment(args)
    run_dir = OUT / f"run-{workload.name}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = measure.child_env(run_dir)
    checks = measure.Checks()
    speed = measure.Speed()
    try:
        if args.trace:
            from perf import layers

            values = layers.traced_run(
                workload, args.seed, args.scale, args.seconds, run_dir, env,
                OUT / f"{workload.name}.trace.json", checks, speed,
            )
        else:
            values = end_to_end(workload, args, run_dir, env, checks, speed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = values or {}
    names = [metric["name"] for metric in declared]
    checks.ok(
        sorted(values) == sorted(names),
        f"metrics {sorted(set(names) ^ set(values))} missing or undeclared",
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            for metric in declared
            if metric["name"] in values
        },
    }
    info["load_1m_end"] = os.getloadavg()[0]
    # What the times were divided by (perf.measure.Speed).
    info["slowdown"] = [
        pick(speed.slices) for pick in (min, statistics.median, max)
    ]
    detail = dict(result, workload=workload.name, trace=args.trace, env=info)
    (OUT / f"{workload.name}.t{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for name, entry in result["metrics"].items():
        print(f"{workload.name:14} {name:32} {entry['value']:>16.6g} "
              f"{entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, end to end then traced, each in a child."""
    from perf.workloads import WORKLOADS

    chosen = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in chosen if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    result = {"env": environment(args), "workloads": {}}
    if result["env"]["load_1m_start"] > 0.5:
        print(
            "warning: 1-minute load average is "
            f"{result['env']['load_1m_start']:.2f}; timings will be noisy",
            file=sys.stderr,
        )
    failed = False
    for name in chosen:
        result["workloads"][name] = {}
        for trace, kind in enumerate(KINDS):
            child = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", str(args.scale),
                ],
                stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, ValueError):
                outcome = {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}
            failed = failed or child.returncode != 0 or not outcome["correct"]
            result["workloads"][name][kind] = outcome
            print(
                f"{name:14} {kind}: attempted {outcome['attempted']}, "
                f"failed {outcome['failed']}, "
                f"{'correct' if outcome['correct'] else 'NOT CORRECT'}",
                flush=True,
            )
    result["env"]["load_1m_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    return 1 if failed else 0


def compare(before: str, after: str) -> int:
    """Read a pair of result files, metric by metric and workload by workload.

    Prints both values and the relative difference of every metric.
    Exits non-zero when, in ``after``, an end-to-end metric is worse than
    in ``before`` by more than its bound, a deterministic count differs
    at all, or a run was not correct.  Two sets of runs of the same code
    agree when the comparison passes in both orders.
    """
    from perf.metrics import EXACT

    declared = manifest()
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    first, second = (
        json.loads(Path(path).read_text())["workloads"]
        for path in (before, after)
    )
    problems = 0
    for workload in first:
        for kind in KINDS:
            a_run = first[workload].get(kind, {})
            b_run = second.get(workload, {}).get(kind, {})
            if not (a_run.get("correct") and b_run.get("correct")):
                print(f"{workload:14} {kind}: a run is missing or not correct")
                problems += 1
                continue
            for name, a_entry in a_run["metrics"].items():
                a, b = a_entry["value"], b_run["metrics"][name]["value"]
                change = (b - a) / abs(a) if a else float(b != a)
                verdict = ""
                if name in EXACT and a != b:
                    verdict = "COUNT DIFFERS"
                elif name in bounds:
                    worse = -change if bounds[name]["better"] == "higher" else change
                    if worse > bounds[name]["bound"]:
                        verdict = f"WORSE by more than {bounds[name]['bound']:.0%}"
                problems += bool(verdict)
                print(
                    f"{workload:14} {name:32} {a:>14.6g} {b:>14.6g} "
                    f"{change:>+8.1%} {a_entry['unit']:7} {verdict}"
                )
    print(f"{problems} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="genome-length factor; below 1.0 the stage-share checks are off",
    )
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="result file of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "cli.py").exists():
        print(f"{ROOT / 'src' / 'repro'}: program not found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.supervised:
        return run_one(args)
    if args.workload:
        from perf import reaper

        rerun = [sys.executable, str(Path(__file__).resolve())]
        own = sys.argv[1:] if argv is None else list(argv)
        return reaper.supervise(rerun + own + ["--supervised"])
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
