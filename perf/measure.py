"""End-to-end measurement against the real entry points, tracing off.

Every operation is a ``python -m repro.cli align`` subprocess or a job
sent to a ``python -m repro.cli serve`` subprocess; the program sees
only the generated FASTA files.  Each child is its own process group so
that it, and any pool worker it leaves behind, can always be reaped.

Times are stated at a fixed machine speed (:class:`Speed`): the host
these runs share gets faster and slower by half within a minute, CPU
seconds with it, and a median over a run does not cancel a drift that
lasts as long as the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.io import read_maf
from repro.service import ServeClient
from repro.service.client import ServeError

from . import spawner

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: client threads of the closed loop (= nproc of the reference container).
CLIENTS = 2
#: deadline of the unmeasured warm-up; measured ops get 10x its time.
WARMUP_TIMEOUT = 120.0
#: seconds of closed loop between two looks at the machine's speed.
SEGMENT_S = 3.0
_SUMMARY = re.compile(r"(\d+) alignments \(([\d,]+) matched bp\)")


class NullRecorder:
    """Stands in for :class:`perf.trace.Recorder` when tracing is off."""

    @staticmethod
    def span(name: str):
        return nullcontext()


def _python_loop() -> None:
    """Short numpy calls from Python, as in seeding and GACT-X extension."""
    a = np.arange(4096, dtype=np.int32)
    for _ in range(1500):
        b = np.maximum.accumulate(a * 3 - 7)
        a = (b + a[::-1]) & 0xFFFF


_LANES, _BAND = 2048, 65
_RNG = np.random.default_rng(0)
_PLANES = _RNG.integers(-100, 100, (320, 5, _LANES), dtype=np.int32)
_BASES = _RNG.integers(0, 5, (320, _LANES)).astype(np.intp)
_LANE_INDEX = np.arange(_LANES)
_SLABS = [np.zeros((_BAND, _LANES), dtype=np.int32) for _ in range(6)]


def _slab_loop() -> None:
    """Row sweeps over 0.5 MB slabs with a gather from a 13 MB table: the
    shape of a banded Smith-Waterman batch, bound by cache and memory."""
    v, u, ua, v0, acc, scan = _SLABS
    for row in range(0, 250, 5):
        subs = _PLANES[row : row + _BAND, _BASES[row], _LANE_INDEX]
        np.subtract(v, 3, out=ua)
        np.subtract(u, 1, out=acc)
        np.maximum(ua, acc, out=ua)
        np.add(v, subs, out=subs)
        np.maximum(ua, subs, out=v0)
        np.maximum(v0, 0, out=v0)
        shift = 1
        while shift < _BAND:
            np.maximum(v0[shift:], v0[: _BAND - shift], out=scan[: _BAND - shift])
            v0[shift:] = scan[: _BAND - shift]
            shift *= 2
        v[:] = v0
        u[:] = ua


#: per loop: the seconds it takes on the machine times are stated for
#: (this container at its fastest, so a quiet run reads as measured) and
#: how often a slice runs it (~0.08 s each).
LOOPS = ((_python_loop, 0.0185, 4), (_slab_loop, 0.052, 1))


class Speed:
    """The machine's speed, looked at before and after everything timed.

    A slice runs two fixed loops in this process while no child is at
    work, and gives how many times slower than on the reference machine
    they ran (the mean of the two).  Seconds measured between two slices
    are divided by the mean of those slices.  Two loops, because the
    host slows the program in two ways that come and go separately:
    fewer cycles (every stage follows `_python_loop`) and a contended
    cache (the gapped filter follows `_slab_loop`).  Over 220 `wga-far`
    operations in ten minutes the medians of 7 consecutive operations had
    a spread between quartiles of 10 % as measured, 6 % scaled by one
    loop alone and 3.5 % scaled by both.
    """

    def __init__(self) -> None:
        #: every slice's slow-down, for the run's detail file.
        self.slices: List[float] = []

    def slice(self) -> float:
        slowdown = 0.0
        for loop, reference, runs in LOOPS:
            start = time.perf_counter()
            for _ in range(runs):
                loop()
            slowdown += (time.perf_counter() - start) / runs / reference
        self.slices.append(slowdown / len(LOOPS))
        return self.slices[-1]

    @staticmethod
    def factor(*slices: float) -> float:
        return len(slices) / sum(slices)


class Checks:
    """Operations attempted and failed; a failed output check is both."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def ok(self, condition: bool, what: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return bool(condition)


def child_env(tmp: Path) -> dict:
    """Environment of every child: pinned hashing, one BLAS thread."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{inherited}" if inherited else src
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP", "OPENBLAS", "MKL"):
        env[f"{name}_NUM_THREADS"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Finished:
    """One reaped child: what the user waited for and paid."""

    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    output: str = ""


def high_water_mb(pid: int) -> float:
    """``VmHWM`` of a live process: the peak RSS of what it runs now,
    which ``ru_maxrss`` is not (see :mod:`perf.spawner`)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"/proc/{pid}/status has no VmHWM")


class Spawner:
    """The helper process of :mod:`perf.spawner`, started on first use.

    It ends by itself when this process does (end of file on its
    standard input); :mod:`perf.reaper` waits for it.
    """

    def __init__(self) -> None:
        self.helper: Optional[subprocess.Popen] = None

    def run(self, argv, env, log: Path, timeout: float) -> "Finished":
        if self.helper is None:
            self.helper = subprocess.Popen(
                [sys.executable, "-S", spawner.__file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        request = {"argv": argv, "env": env, "log": str(log),
                   "timeout": timeout}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise CheckFailed("the spawner of the benchmark's children died")
        return Finished(**json.loads(reply))


_SPAWNER = Spawner()


def run_process(argv, env, log: Path, timeout: float) -> Finished:
    """One child from spawn to exit, with its log as ``output``."""
    finished = _SPAWNER.run(argv, env, log, timeout)
    finished.output = log.read_text(errors="replace")
    return finished


class CheckFailed(Exception):
    """An output of the program is not what it should be."""


def check_maf(path: Path, printed: str):
    """The MAF parses and agrees with the CLI's own printed summary.

    Returns ``(alignments, matched_bp)`` as read back from the file.
    """
    summary = _SUMMARY.search(printed)
    if summary is None:
        raise CheckFailed(f"no alignment summary in output: {printed!r}")
    try:
        alignments = read_maf(path)
    except (OSError, ValueError, IndexError) as error:
        raise CheckFailed(f"{path}: unreadable MAF: {error}") from error
    matched = sum(a.matches for a in alignments)
    expected = (int(summary.group(1)), int(summary.group(2).replace(",", "")))
    if (len(alignments), matched) != expected:
        raise CheckFailed(
            f"{path}: MAF holds {len(alignments)} blocks / {matched} matched "
            f"bp, the CLI printed {expected[0]} / {expected[1]}"
        )
    return alignments, matched


@dataclass
class AlignOp:
    """One checked ``repro align`` invocation."""

    finished: Finished
    digest: str
    alignments: list
    matched_bp: int
    manifest_bytes: int


def align_cli(workload, pair, op_dir: Path, env, timeout, args=None) -> AlignOp:
    """Run the workload's ``repro align`` once into a fresh directory.

    A fresh directory matters: a reused ``--checkpoint`` would resume
    and skip the very work being timed.  Raises :class:`CheckFailed`.
    """
    op_dir.mkdir(parents=True)
    out = op_dir / "out.maf"
    argv = [
        sys.executable, "-m", "repro.cli", "align",
        str(pair.target_path), str(pair.query_path),
        "--aligner", workload.aligner, "--out", str(out),
        *(workload.args if args is None else args),
    ]
    manifest = op_dir / "run.manifest"
    if workload.checkpoint:
        argv += ["--checkpoint", str(manifest)]
    finished = run_process(argv, env, op_dir / "log.txt", timeout)
    if finished.returncode != 0:
        raise CheckFailed(
            f"repro align exited {finished.returncode}: "
            f"{finished.output[-400:]}"
        )
    alignments, matched = check_maf(out, finished.output)
    return AlignOp(
        finished=finished,
        digest=sha256(out),
        alignments=alignments,
        matched_bp=matched,
        manifest_bytes=manifest.stat().st_size if manifest.exists() else 0,
    )


class Daemon:
    """A ``repro serve`` subprocess over a fresh state directory."""

    def __init__(self, state_dir: Path, env) -> None:
        self.state_dir = state_dir
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Spawn and wait until ``/healthz`` answers; returns seconds."""
        self.state_dir.mkdir(parents=True)
        port_file = self.state_dir / "port"
        start = time.perf_counter()
        with open(self.state_dir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    str(self.state_dir), "--port", "0", "--workers", "1",
                    "--port-file", str(port_file),
                ],
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                self.port = int(port_file.read_text())
                ServeClient(port=self.port).healthz()
                return time.perf_counter() - start
            except (OSError, ValueError, ServeError):
                time.sleep(0.005)
        self.kill()
        raise CheckFailed("repro serve did not become healthy")

    def stop(self) -> Finished:
        """SIGTERM, then SIGKILL; wall is SIGTERM -> exit.

        The daemon is this process's child (it is signalled and polled
        from here), so its peak RSS is read while it lives.
        """
        proc, self.proc = self.proc, None
        peak = high_water_mb(proc.pid)
        started = time.perf_counter()
        spawner.signal_group(proc.pid, signal.SIGTERM)
        finished = Finished(**spawner.reap(proc, started, 30.0))
        return replace(finished, rss_mb=peak)

    def kill(self) -> None:
        """Last resort for ``finally`` blocks; safe to call twice."""
        if self.proc is not None:
            spawner.signal_group(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            self.proc = None


def set_up(workload, seed, scale, run_dir: Path, env, speed, rec=NullRecorder):
    """Everything before the first operation, ``SETUPS`` times over.

    Inputs from the seed, FASTA files, and for the serve workload a
    daemon that answers ``/healthz``.  Returns the last set-up's
    ``(pairs, daemon, [seconds per set-up, at the reference speed])``.
    """
    seconds = []
    daemon = None
    before = speed.slice()
    for attempt in range(SETUPS):
        directory = run_dir / f"setup-{attempt}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        with rec.span("genome.make_pair"):
            pairs = workload.inputs(seed, scale)
        with rec.span("genome.write_fasta"):
            for number, pair in enumerate(pairs):
                pair.write(directory, f"in{number}")
        if workload.serve:
            daemon = Daemon(directory / "state", env)
            with rec.span("service.start"):
                daemon.start()
        elapsed = time.perf_counter() - start
        after = speed.slice()
        seconds.append(elapsed * Speed.factor(before, after))
        before = after
        if daemon is not None and attempt < SETUPS - 1:
            daemon.stop()
    return pairs, daemon, seconds


@dataclass
class JobSample:
    """One job as its client saw it."""

    pair: int
    started: float
    ended: float
    submit_rtt: float
    poll_rtts: List[float]
    record: Optional[dict]
    #: why the job counts as failed (refused, not ``done``, wrong bytes).
    problem: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.ended - self.started


def run_job(client, spec, pair, instrument: bool) -> JobSample:
    start = time.perf_counter()
    try:
        job_id = client.submit(spec)["id"]
        submit_rtt = time.perf_counter() - start
        polls: List[float] = []
        if instrument:
            # ServeClient.wait(poll=0.01) with every round trip timed.
            while True:
                asked = time.perf_counter()
                record = client.job(job_id)
                polls.append(time.perf_counter() - asked)
                if record["state"] in ("done", "failed", "expired", "cancelled"):
                    break
                if asked - start > 120.0:
                    raise TimeoutError(f"job {job_id} not terminal")
                time.sleep(0.01)
        else:
            record = client.wait(job_id, timeout=120.0, poll=0.01)
        return JobSample(
            pair, start, time.perf_counter(), submit_rtt, polls, record
        )
    except (ServeError, OSError, TimeoutError) as error:
        # refused (429/5xx), unreachable or never terminal: a failed op
        return JobSample(
            pair, start, time.perf_counter(), 0.0, [], None,
            problem=f"{type(error).__name__}: {error}",
        )


def job_spec(workload, pair) -> dict:
    return {
        "kind": "align",
        "aligner": workload.aligner,
        "target": str(pair.target_path),
        "query": str(pair.query_path),
    }


def closed_loop(
    port, workload, pairs, seconds: float, instrument: bool = False
) -> List[JobSample]:
    """``CLIENTS`` threads; each sends its next job when the last ended."""
    samples: List[JobSample] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client_loop(first: int) -> None:
        client = ServeClient(port=port)
        turn = first
        while time.perf_counter() < deadline:
            index = turn % len(pairs)
            turn += CLIENTS
            sample = run_job(
                client, job_spec(workload, pairs[index]), index, instrument
            )
            with lock:
                samples.append(sample)

    threads = [
        threading.Thread(target=client_loop, args=(k,)) for k in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def check_jobs(samples, references, checks) -> List[JobSample]:
    """The jobs that are ``done`` with the single-shot CLI's bytes."""
    for sample in samples:
        record = sample.record
        if record is None:
            pass  # problem already says why
        elif record["state"] != "done":
            sample.problem = (
                f"job ended {record['state']}: {record.get('error')}"
            )
        elif (
            record["summary"]["output_sha256"]
            != references[sample.pair].digest
        ):
            sample.problem = "output differs from the single-shot CLI run"
        checks.ok(sample.problem is None, f"serve job: {sample.problem}")
    return [s for s in samples if s.problem is None]


def _timed_ops(workload, pair, run_dir, env, seconds, checks, reference, speed):
    """Checked invocations for ``seconds``, at least one, a speed slice
    between every two; wall and CPU seconds at the reference speed."""
    done: List[Finished] = []
    timeout = 10.0 * reference.finished.wall
    began = time.perf_counter()
    before = speed.slice()
    while not done or time.perf_counter() - began < seconds:
        op_dir = run_dir / f"op-{checks.attempted}"
        try:
            op = align_cli(workload, pair, op_dir, env, timeout)
        except CheckFailed as error:
            checks.ok(False, str(error))
            if checks.failed >= 3:
                break
            continue
        after = speed.slice()
        factor = Speed.factor(before, after)
        before = after
        if checks.ok(
            op.digest == reference.digest,
            "output differs from the reference run of the same files",
        ):
            finished = op.finished
            done.append(
                replace(
                    finished,
                    wall=finished.wall * factor,
                    cpu=finished.cpu * factor,
                )
            )
    return done


def reference_runs(workload, pairs, run_dir: Path, env, checks):
    """One serial, untimed, checked CLI run per input (None on failure).

    Warm-up (page cache, ``.pyc``) and reference output in one.  Always
    one worker, so for a ``--workers`` workload "same bytes as the
    reference" means byte-identical to serial.
    """
    references = []
    for number, pair in enumerate(pairs):
        try:
            references.append(
                align_cli(
                    workload, pair, run_dir / f"reference-{number}", env,
                    WARMUP_TIMEOUT, args=("--workers", "1"),
                )
            )
        except CheckFailed as error:
            checks.ok(False, f"reference run {number}: {error}")
            return None
        checks.ok(True, "reference run")
    return references


def measure_cli(workload, pairs, run_dir: Path, env, seconds, checks, speed):
    """wall/cpu/rss medians over repeated ``repro align`` invocations."""
    references = reference_runs(workload, pairs, run_dir, env, checks)
    if references is None:
        return None
    done = _timed_ops(
        workload, pairs[0], run_dir, env, seconds, checks, references[0],
        speed,
    )
    if not done:
        return None
    return {
        "wall_s": statistics.median(f.wall for f in done),
        "cpu_s": statistics.median(f.cpu for f in done),
        "peak_rss_mb": statistics.median(f.rss_mb for f in done),
        "matched_bp": references[0].matched_bp,
        # one after the other, without the slices in between
        "ops_per_s": len(done) / sum(f.wall for f in done),
    }


def measure_serve(workload, pairs, daemon, run_dir, env, seconds, checks, speed):
    """Client-side job latency and daemon cost of the closed loop.

    The loop runs in segments of about ``SEGMENT_S`` seconds with a
    speed slice between every two (the daemon is idle then: each client
    has its reply).  Latency and rate are medians over the segments,
    each at the reference speed.
    """
    references = reference_runs(workload, pairs, run_dir, env, checks)
    if references is None:
        return None
    # One unmeasured job per pair fills the daemon's genome cache.
    client = ServeClient(port=daemon.port)
    warm = [
        run_job(client, job_spec(workload, pair), number, False)
        for number, pair in enumerate(pairs)
    ]
    count = max(1, round(seconds / SEGMENT_S))
    segments, factors = [], []
    before = speed.slice()
    for _ in range(count):
        segments.append(
            closed_loop(daemon.port, workload, pairs, seconds / count)
        )
        after = speed.slice()
        factors.append(Speed.factor(before, after))
        before = after
    stopped = daemon.stop()
    checks.ok(stopped.returncode == 0, "repro serve did not exit 0")
    warm_ok = check_jobs(warm, references, checks)
    latencies, rates, jobs = [], [], len(warm_ok)
    for samples, factor in zip(segments, factors):
        timed = check_jobs(samples, references, checks)
        if timed:
            jobs += len(timed)
            latencies.append(
                factor * statistics.median(s.latency for s in timed)
            )
            rates.append(len(timed) / (factor * loop_seconds(samples)))
    if not latencies:
        return None
    return {
        "wall_s": statistics.median(latencies),
        "cpu_s": statistics.mean(factors) * stopped.cpu / jobs,
        "peak_rss_mb": stopped.rss_mb,
        "matched_bp": sum(r.matched_bp for r in references),
        "ops_per_s": statistics.median(rates),
    }


def loop_seconds(samples: List[JobSample]) -> float:
    """First submit to last completion of a closed loop."""
    return max(s.ended for s in samples) - min(s.started for s in samples)
