"""Parallel execution engine: multiprocess fan-out of pipeline work.

The paper's co-processor extracts its speedup from the independence of
seed-filter-extend work items; this package is the software analogue —
an :class:`~repro.parallel.engine.ExecutionEngine` (process pool plus
shared-memory sequence transport).  The deterministic orchestrators
that fan anchors and chromosome-pair units out across it are domain
logic and live below this layer, in :mod:`repro.core.stream` and
:mod:`repro.core.worker` (the pipelines reach up only through deferred
construction at call time — the layer DAG forbids ``core`` importing
``parallel``).

Task callables submitted to the engine are pickled **by reference**:
they must be module-level functions, never lambdas or closures, and
their arguments plain data.  The test suite pickles every callable and
its arguments at ``submit``/``dispatch`` (``tests/conftest.py``), so a
task that would not cross the boundary fails its test instead of
falling back to a silent in-process run.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ExecutionEngine": "engine",
        "ResilientDispatcher": "supervise",
        "SequenceHandle": "engine",
        "Ticket": "supervise",
        "install_signal_cleanup": "engine",
    },
)
