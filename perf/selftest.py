#!/usr/bin/env python3
"""Self-test of the benchmark harness.

A plain script (``python3 perf/selftest.py``) that ``pytest
perf/selftest.py`` can also collect.  It is not under ``tests/``: the
repo's tier-1 suite neither runs it nor depends on it.  Takes ~3 minutes:
three full runs of ``perf/run.py`` at a tenth of the genome sizes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Never leave perf/ itself on sys.path: its trace.py would shadow the
# standard library's.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import measure, reaper  # noqa: E402
from perf.metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
OUT = HERE / "out"  # the only place the benchmark writes to
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_RESULTS = {}


def full_run(seed: int, label: str):
    """``(result dict, stdout)`` of one small full run, cached by label."""
    if label not in _RESULTS:
        out = OUT / f"selftest-{label}.json"
        done = subprocess.run(
            RUN + ["--scale", "0.1", "--seconds", "1", "--seed", str(seed),
                   "--out", str(out)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        _RESULTS[label] = (json.loads(out.read_text()), done.stdout, out)
    return _RESULTS[label]


def test_manifest_matches_the_metric_table():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert all(
        w["why"] == WORKLOADS[w["name"]].why for w in MANIFEST["workloads"]
    )
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names and MANIFEST["paths"] == ["perf"]


def test_every_metric_is_printed_once_and_finite():
    result, stdout, _ = full_run(11, "a")
    printed = [tuple(line.split()[:2]) for line in stdout.splitlines()]
    for workload in WORKLOADS:
        for kind in ("end_to_end", "per_layer"):
            run = result["workloads"][workload][kind]
            assert run["correct"] and run["failed"] == 0, (workload, kind)
            assert run["attempted"] >= 1
            assert list(run["metrics"]) == [m["name"] for m in MANIFEST[kind]]
            for name, entry in run["metrics"].items():
                assert math.isfinite(entry["value"]), (workload, name)
                assert printed.count((workload, name)) == 1, (workload, name)


def _counts(result):
    return {
        (workload, name): entry["value"]
        for workload, kinds in result["workloads"].items()
        for run in kinds.values()
        for name, entry in run["metrics"].items()
        if name in EXACT
    }


def test_counts_repeat_on_one_seed_and_differ_on_another():
    first, again, other = (
        _counts(full_run(seed, label)[0])
        for seed, label in ((11, "a"), (11, "b"), (12, "c"))
    )
    assert first == again
    assert first != other
    # at least the work the seed decides must move with it
    for workload in WORKLOADS:
        assert first[workload, "seed.hits"] != other[workload, "seed.hits"]


def test_compare_passes_on_itself_and_fails_on_another_seed():
    (_, _, a), (_, _, c) = full_run(11, "a"), full_run(12, "c")
    same = subprocess.run(RUN + ["--compare", str(a), str(a)],
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout[-2000:]
    differs = subprocess.run(RUN + ["--compare", str(a), str(c)],
                             stdout=subprocess.PIPE, text=True)
    assert differs.returncode != 0
    assert "COUNT DIFFERS" in differs.stdout


def test_a_corrupted_maf_fails_the_output_check():
    workload = WORKLOADS["wga-near"]
    scratch = OUT / "selftest-maf"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        pair = workload.inputs(seed=3, scale=0.2)[0]
        pair.write(scratch, "in")
        op_dir = scratch / "op"
        measure.align_cli(
            workload, pair, op_dir, measure.child_env(scratch), 120.0
        )
        maf = op_dir / "out.maf"
        printed = (op_dir / "log.txt").read_text()
        measure.check_maf(maf, printed)
        text = maf.read_text()
        for damaged in (
            text.replace("A", "C", 5),  # matched bp no longer as printed
            text[: text.index("\ns ") + 20],  # torn inside the first block
            "",
        ):
            maf.write_text(damaged)
            try:
                measure.check_maf(maf, printed)
            except measure.CheckFailed:
                continue
            raise AssertionError("corrupted MAF passed the output check")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_nothing_outlives_the_command():
    # As the subreaper this process is handed whatever the command orphans.
    reaper.adopt_orphans()
    own = set(reaper.descendants())  # this process's spawner, if started
    for workload, trace in (("assembly-par", "1"), ("serve-closed", "0")):
        done = subprocess.run(
            RUN + ["--workload", workload, "--trace", trace, "--scale", "0.1",
                   "--seconds", "1"],
            stdout=subprocess.PIPE, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        assert set(reaper.descendants()) <= own, (workload, trace)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
