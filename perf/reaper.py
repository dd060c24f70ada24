"""No process outlives the command: run the work in a child, reap the rest.

A run starts ``repro align`` and ``repro serve`` subprocesses, and the
traced run a process pool of its own; each of those brings helpers the
caller never sees (pool workers, ``multiprocessing``'s resource tracker,
which only exits once its owner has).  Killing a process group does not
wait for its members, and an orphan that nobody waits for stays in the
process table as a zombie until init gets to it.

So the command itself only supervises.  It makes itself the *child
subreaper* (``prctl(PR_SET_CHILD_SUBREAPER)``): every descendant whose
parent dies is handed to it instead of init.  It runs the work in one
child, waits for whatever ends meanwhile, and once the work has exited
gives what is left ``GRACE`` seconds to end by itself (the resource
tracker does, on end-of-file), kills the remainder and returns only when
``waitpid`` says there is no child left.  The same happens on SIGTERM,
SIGINT and after ``DEADLINE`` seconds.  Standard library only: the
supervisor must not import what it measures.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: seconds left-over processes get to end by themselves.
GRACE = 5.0
#: seconds after which a run is given up (the driver allows 180).
DEADLINE = 170


def descendants() -> list:
    """Every live process below this one, read from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between listdir and open
        parents[int(entry)] = int(fields[1])
    found, frontier = [], {os.getpid()}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier}
        found.extend(frontier)
    return found


def kill_descendants() -> None:
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def reap_all(grace: float) -> None:
    """Wait until no child is left; after ``grace`` seconds, kill them."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                kill_descendants()
            time.sleep(0.005)


def adopt_orphans() -> None:
    """From now on orphaned descendants are this process's children."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _give_up(signum, frame):
    raise SystemExit(128 + signum)


def supervise(argv) -> int:
    """Run ``argv`` as a child; its exit code, once nothing of it is left."""
    adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _give_up)
    signal.alarm(DEADLINE)
    sys.stdout.flush()
    grace = 0.0  # on the way out by signal, nothing is waited for
    try:
        work = subprocess.Popen(argv)
        while True:  # adopted orphans end here too
            pid, status = os.waitpid(-1, 0)
            if pid == work.pid:
                break
        grace = GRACE
        work.returncode = code = os.waitstatus_to_exitcode(status)
        # a worker that a signal ended reports the shell's 128 + signal
        return code if code >= 0 else 128 - code
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
            signal.signal(signum, signal.SIG_IGN)
        reap_all(grace)
