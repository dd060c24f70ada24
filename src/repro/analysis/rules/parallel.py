"""Parallel-dispatch safety rules.

PAR003 pins the streaming dataflow's memory contract: every stage
buffer must have a hard capacity.  An unbounded ``deque()`` or
``queue.Queue()`` between stages silently absorbs any producer/consumer
rate mismatch — memory grows with the imbalance and the explicit
backpressure accounting (stall counters, occupancy) reads healthy while
the buffer balloons.  Use :class:`repro.core.stream.BoundedQueue`, a
``maxlen``/``maxsize``, or suppress with a reason stating what else
bounds the buffer.

What may cross the process boundary (task callables and arguments that
pickle) is ``FLOW003``'s job — see :mod:`repro.analysis.flow.rules`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import module_rule

#: FIFO constructors that take a ``maxsize`` first argument / kwarg.
_SIZED_QUEUES = {"Queue", "LifoQueue", "JoinableQueue", "PriorityQueue"}

#: FIFO constructors that cannot be bounded at all.
_UNBOUNDABLE_QUEUES = {"SimpleQueue"}


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_unbounded_deque(call: ast.Call) -> bool:
    # deque(iterable, maxlen): bounded iff maxlen is present and not
    # a literal None.
    if len(call.args) >= 2:
        return (
            isinstance(call.args[1], ast.Constant)
            and call.args[1].value is None
        )
    for kw in call.keywords:
        if kw.arg == "maxlen":
            return (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
    return True


def _is_unbounded_queue(call: ast.Call) -> bool:
    # Queue(maxsize): zero or negative means "infinite"; absent means
    # zero.  A non-literal maxsize is taken on trust.
    size = call.args[0] if call.args else None
    if size is None:
        for kw in call.keywords:
            if kw.arg == "maxsize":
                size = kw.value
    if size is None:
        return True
    if isinstance(size, ast.Constant):
        return not (isinstance(size.value, int) and size.value > 0)
    return False


@module_rule(
    "PAR003",
    "unbounded-stage-buffer",
    Severity.ERROR,
    "unbounded queue/deque constructed as a stage buffer",
)
def check_unbounded_stage_buffer(module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name == "deque":
            unbounded = _is_unbounded_deque(node)
        elif name in _SIZED_QUEUES:
            unbounded = _is_unbounded_queue(node)
        elif name in _UNBOUNDABLE_QUEUES:
            unbounded = True
        else:
            continue
        if not unbounded:
            continue
        yield Finding(
            rule="PAR003",
            severity=Severity.ERROR,
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{name} constructed without a capacity — stage buffers "
                "must be bounded (BoundedQueue, maxlen= or maxsize>0) so "
                "backpressure is explicit, not absorbed by memory"
            ),
        )
