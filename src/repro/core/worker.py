"""Task functions executed inside worker processes.

Everything here is a module-level function (picklable by reference) that
receives :class:`~repro.parallel.engine.SequenceHandle` objects instead
of sequences, attaches the shared-memory blocks once per process, and —
when the parent is tracing — records its work on a worker-local
:class:`~repro.obs.tracer.Tracer`.

A task's telemetry comes home in its result.  Every task returns
``(value, span_dicts, receipt)``: on a traced run ``span_dicts`` is its
serialized span tree and ``receipt`` its
:func:`~repro.obs.resource.task_receipt` (``{pid, busy, rss_bytes}``);
untraced, both are None.  The parent grafts the spans where it collects
the value, so only the attempt the supervisor accepted is recorded —
whether it ran in a worker or as the parent's serial fallback.

Worker output discipline: tasks never write to stdout (the parent owns
the terminal); anything a worker wants seen goes back in its result.
Rule KER005 in :mod:`repro.analysis` enforces this.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..genome.sequence import Sequence
from ..obs.export import serialize_spans
from ..obs.profiling import flush_worker_profile, worker_profile_active
from ..obs.resource import task_receipt
from ..obs.tracer import NULL_TRACER, Tracer
from ..seed.cache import SeedIndexCache

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import SequenceHandle

__all__ = ["align_unit_task", "resolve_sequence"]

#: Shared-memory attachments held for the worker's lifetime, keyed by
#: block name.  Attaching once per process (not per task) keeps the
#: per-task dispatch cost at a dictionary lookup.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}


@atexit.register
def _detach_attached() -> None:
    """Drop numpy views, then close attachments, in that order.

    Without this, interpreter shutdown garbage-collects the
    :class:`SharedMemory` objects while their exported buffers are
    still referenced by the cached arrays, and every ``__del__`` prints
    an ignored ``BufferError``.  Runs in workers and — because the
    serial-fallback path resolves handles in-process — in the parent.
    """
    while _ATTACHED:
        _, (block, codes) = _ATTACHED.popitem()
        del codes
        try:
            block.close()
        except BufferError:
            # A view escaped into a long-lived object; leave the block
            # mapped — the OS reclaims it when the process exits.
            pass


def resolve_sequence(handle: SequenceHandle) -> Sequence:
    """Materialise a :class:`Sequence` from its transport handle."""
    if handle.kind == "bytes":
        codes = np.frombuffer(handle.payload, dtype=np.uint8)
        return Sequence(codes[: handle.length], name=handle.name)
    if handle.kind != "shm":
        raise ValueError(f"unknown sequence handle kind {handle.kind!r}")
    cached = _ATTACHED.get(handle.payload)
    if cached is None:
        block = shared_memory.SharedMemory(name=handle.payload)
        codes = np.frombuffer(block.buf, dtype=np.uint8)
        _ATTACHED[handle.payload] = (block, codes)
    else:
        codes = cached[1]
    return Sequence(codes[: handle.length], name=handle.name)


def align_unit_task(
    aligner_class,
    config,
    target_handle: SequenceHandle,
    query_handle: SequenceHandle,
    index_cache_dir: Optional[str],
    traced: bool,
) -> Tuple[object, Optional[List[dict]], Optional[dict]]:
    """Align one (target chromosome, query chromosome) unit serially.

    Both strands run inside the worker; with an index-cache directory
    the worker loads the target's seed index from disk (the parent warms
    the cache first, so this is a hit) instead of rebuilding it.  The
    load happens inside the ``align`` span, so a unit's span tree has
    one root.
    """
    target = resolve_sequence(target_handle)
    query = resolve_sequence(query_handle)
    tracer = Tracer() if traced else NULL_TRACER
    cache = (
        SeedIndexCache(index_cache_dir)
        if index_cache_dir is not None
        else None
    )
    aligner = aligner_class(config, tracer=tracer, index_cache=cache)
    result = aligner.align(target, query)
    if worker_profile_active():
        flush_worker_profile()
    if not traced:
        return result, None, None
    return result, serialize_spans(tracer), task_receipt(tracer)
