"""Starts the benchmark's children from a process that holds next to nothing.

``wait4`` gives a child's peak RSS as ``ru_maxrss``, but ``exec`` folds
the peak of the process that *spawned* it into that number: started from
a process that holds 500 MB, ``/bin/true`` reads as 500 MB.  The harness
holds ~70 MB (numpy, ``repro``, the inputs), more than a small ``repro
align`` needs, so its children are started and reaped here instead:
standard library only, under 10 MB.

Run as a script it reads one JSON object per line, the arguments of
:func:`run`, and answers each with one line, :func:`run`'s result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def signal_group(pid: int, signum: int) -> None:
    try:
        os.killpg(pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def terminate_group(pid: int) -> None:
    signal_group(pid, signal.SIGTERM)
    time.sleep(2.0)
    signal_group(pid, signal.SIGKILL)


def reap(proc: subprocess.Popen, started: float, timeout: float) -> dict:
    """``wait4`` with a deadline; the group is always gone afterwards."""
    killer = threading.Timer(timeout, terminate_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        signal_group(proc.pid, signal.SIGKILL)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": time.perf_counter() - started,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }


def run(argv, env, log: str, timeout: float) -> dict:
    """Spawn, wait and account one child; wall is Popen -> exit."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        return reap(proc, started, timeout)


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps(run(**json.loads(request))), flush=True)
