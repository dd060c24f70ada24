"""Task functions executed inside worker processes.

Everything here is a module-level function (picklable by reference) that
receives :class:`~repro.parallel.engine.SequenceHandle` objects instead
of sequences, attaches the shared-memory blocks once per process, and —
when the parent is tracing — records its work on a worker-local
:class:`~repro.obs.tracer.Tracer`.

Telemetry travels one of two ways.  With a bus publisher installed in
this process (the engine's pool initializer did it), span trees, funnel
counters and resource samples **stream** over the bus as each task
finishes, and the task returns a small delivery ack instead of the
span payload.  Without a publisher — workers of a bus-less engine, or
the parent process running a serial fallback — spans return inline with
the result exactly as before.  Either way every task returns the same
``(value, span_dicts_or_None, ack_or_None)`` shape.

Worker output discipline: tasks never write to stdout (the parent owns
the terminal); anything a worker wants seen goes through the bus.  Rule
KER005 in :mod:`repro.analysis` enforces this.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..genome.sequence import Sequence
from ..obs.bus import current_publisher
from ..obs.export import serialize_spans
from ..obs.profiling import flush_worker_profile, worker_profile_active
from ..obs.resource import sample_resources
from ..obs.tracer import NULL_TRACER, Tracer
from ..seed.cache import SeedIndexCache
from .gact_x import gact_x_extend

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import SequenceHandle

__all__ = ["align_unit_task", "extend_batch_task", "resolve_sequence"]

#: Shared-memory attachments held for the worker's lifetime, keyed by
#: block name.  Attaching once per process (not per task) keeps the
#: per-batch dispatch cost at a dictionary lookup.
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


def _worker_tracer(traced: bool) -> Tracer:
    return Tracer() if traced else NULL_TRACER


def _task_busy(tracer) -> float:
    """Wall seconds this task spent, from its own root spans."""
    if not getattr(tracer, "enabled", False):
        return 0.0
    return sum(span.duration for span in tracer.roots)


def _finish_task(tracer, traced: bool, unit: str = "", funnel=None):
    """Common task epilogue: stream or return spans, flush profiling.

    Returns ``(span_dicts_or_None, ack_or_None)``.  When a bus
    publisher is installed the span payload streams over the bus (the
    return slot is None) and the ack carries the delivery receipt the
    parent's drain step verifies against.
    """
    if worker_profile_active():
        flush_worker_profile()
    publisher = current_publisher()
    span_dicts = serialize_spans(tracer) if traced else None
    if publisher is None:
        return span_dicts, None
    if funnel:
        publisher.emit_funnel(unit, funnel)
    publisher.emit_resource(sample_resources())
    if span_dicts is not None:
        publisher.emit_spans(span_dicts, unit=unit)
        span_dicts = None
    return span_dicts, publisher.ack(busy=_task_busy(tracer))


def extend_batch_task(
    target_handle: SequenceHandle,
    query_handle: SequenceHandle,
    anchors: tuple,
    scoring,
    params,
    traced: bool,
    unit: str = "",
) -> Tuple[list, Optional[List[dict]], Optional[dict]]:
    """Speculatively extend a batch of anchors.

    Returns the per-anchor :class:`~repro.core.gact_x.ExtensionResult`
    list plus (when ``traced``) one serialized ``extend_anchor`` span
    dict per anchor, parallel to the results, so the parent can graft
    exactly the spans of anchors that survive the absorption replay.
    Span dicts always travel in the return value here — never over the
    bus — because the parent must drop the spans of absorbed anchors;
    the bus carries only the resource sample and the ack.
    """
    target = resolve_sequence(target_handle)
    query = resolve_sequence(query_handle)
    tracer = _worker_tracer(traced)
    results = [
        gact_x_extend(target, query, anchor, scoring, params, tracer=tracer)
        for anchor in anchors
    ]
    if worker_profile_active():
        flush_worker_profile()
    span_dicts = serialize_spans(tracer) if traced else None
    publisher = current_publisher()
    ack = None
    if publisher is not None:
        publisher.emit_resource(sample_resources())
        ack = publisher.ack(busy=_task_busy(tracer))
    return results, span_dicts, ack


def align_unit_task(
    aligner_class,
    config,
    target_handle: SequenceHandle,
    query_handle: SequenceHandle,
    index_cache_dir: Optional[str],
    traced: bool,
    unit: str = "",
) -> Tuple[object, Optional[List[dict]], Optional[dict]]:
    """Align one (target chromosome, query chromosome) unit serially.

    Both strands run inside the worker; with an index-cache directory
    the worker loads the target's seed index from disk (the parent warms
    the cache first, so this is a hit) instead of rebuilding it.  The
    unit's funnel counters and span tree stream over the telemetry bus
    when one is installed (see :func:`_finish_task`).
    """
    target = resolve_sequence(target_handle)
    query = resolve_sequence(query_handle)
    tracer = _worker_tracer(traced)
    aligner = aligner_class(config, tracer=tracer)
    index = None
    if index_cache_dir is not None:
        index = SeedIndexCache(index_cache_dir).get_or_build(
            target, aligner.config.seed, tracer=tracer
        )
    result = aligner.align(target, query, index=index)
    workload = result.workload
    funnel = {
        "seed_hits": workload.seed_hits,
        "filter_tiles": workload.filter_tiles,
        "anchors": workload.anchors,
        "anchors_extended": workload.anchors - workload.absorbed_anchors,
        "absorbed_anchors": workload.absorbed_anchors,
        "alignments": len(result.alignments),
    }
    span_dicts, ack = _finish_task(
        tracer, traced, unit=unit, funnel=funnel
    )
    return result, span_dicts, ack
