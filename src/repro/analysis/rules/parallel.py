"""Parallel-dispatch safety rules.

PAR003 pins the dataflow's memory contract: every stage buffer must
have a hard capacity.  An unbounded ``deque()`` or ``queue.Queue()``
between stages silently absorbs any producer/consumer rate mismatch —
memory grows with the imbalance while occupancy reads healthy.  Give it
a ``maxlen``/``maxsize``, or suppress with a reason stating what else
bounds the buffer.

FLOW002 looks at the two pool entry points, ``ExecutionEngine.submit``
and ``ExecutionEngine.dispatch`` (matched by method name, so any
``.submit(``/``.dispatch(`` with arguments counts): an argument object
mutated *after* being submitted may or may not be visible to the worker
under fork, depending on dispatch timing, and never is under spawn.
Either way the result depends on a race.

Whether what is submitted pickles at all is not a lint question: the
test suite pickles every task callable and its arguments at
``submit``/``dispatch`` (``tests/conftest.py``), through any chain of
helpers, before a worker sees them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..astutil import walk_functions
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
                "must be bounded (maxlen= or maxsize>0) so a rate "
                "mismatch is refused, not absorbed by memory"
            ),
        )


# ---------------------------------------------------------------------------
# FLOW002: mutation of an argument object after it was submitted.
# ---------------------------------------------------------------------------

#: Pool dispatch entry points (ExecutionEngine.submit / .dispatch).
_DISPATCH_METHODS = ("submit", "dispatch")

#: In-place mutation method names.
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "appendleft",
    "extendleft",
    "sort",
    "reverse",
    "fill",
}


def own_calls(body) -> Iterator[ast.Call]:
    """Call nodes in ``body``, excluding nested function/class bodies."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue  # nested scopes own their calls
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_dispatch(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _DISPATCH_METHODS
        and bool(call.args)
    )


def _argument_names(call: ast.Call) -> Set[str]:
    """Names passed as task *arguments* (everything after the callable)."""
    names: Set[str] = set()
    for arg in call.args[1:]:
        if isinstance(arg, ast.Name):
            names.add(arg.id)
        elif isinstance(arg, ast.Starred) and isinstance(
            arg.value, ast.Name
        ):
            names.add(arg.value.id)
    for keyword in call.keywords:
        if isinstance(keyword.value, ast.Name):
            names.add(keyword.value.id)
    return names


def _mutation_of(node: ast.AST, live: Set[str]) -> Optional[Tuple[str, str]]:
    """(name, how) when ``node`` mutates a tracked name in place."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base: ast.AST = target
            depth = 0
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
                depth += 1
            if depth and isinstance(base, ast.Name) and base.id in live:
                how = (
                    "subscript store"
                    if isinstance(target, ast.Subscript)
                    else "attribute store"
                )
                return base.id, how
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        receiver = node.func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in live
            and node.func.attr in _MUTATING_METHODS
        ):
            return receiver.id, f".{node.func.attr}() call"
    return None


def _rebound_names(node: ast.AST) -> Set[str]:
    """Names plainly rebound by ``node`` (rebinding ends tracking)."""
    rebound: Set[str] = set()
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                rebound.add(target.id)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            rebound.add(node.target.id)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        if isinstance(node.target, ast.Name):
            rebound.add(node.target.id)
    return rebound


def _in_source_order(body) -> List[ast.AST]:
    """Every located node under ``body``, ordered by (line, column).

    ``ast.walk`` is breadth-first: it would visit a later statement's
    rebind before an earlier statement's nested mutating call.  The sort
    is stable, so a statement still precedes the expressions it starts
    with.
    """
    nodes = [
        node
        for node in ast.walk(ast.Module(body=list(body), type_ignores=[]))
        if hasattr(node, "lineno")
    ]
    return sorted(nodes, key=lambda node: (node.lineno, node.col_offset))


@module_rule(
    "FLOW002",
    "mutated-after-submit",
    Severity.ERROR,
    "argument object mutated after pool submission",
)
def check_mutation_after_submit(module) -> Iterator[Finding]:
    for function in walk_functions(module.tree):
        if isinstance(function, ast.Lambda):
            continue
        submits = [
            (call, _argument_names(call))
            for call in own_calls(function.body)
            if _is_dispatch(call)
        ]
        submits = [(call, names) for call, names in submits if names]
        if not submits:
            continue
        # Statements after each submit that mutate a submitted name
        # (without rebinding it first) are racy under fork and lost
        # under spawn.
        for node in _in_source_order(function.body):
            for call, live in submits:
                if node.lineno <= call.lineno:
                    continue
                live -= _rebound_names(node)
                hit = _mutation_of(node, live)
                if hit is None:
                    continue
                name, how = hit
                live.discard(name)  # one finding per name per submit
                yield Finding(
                    rule="FLOW002",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{name} is mutated ({how}) after being "
                        f"submitted to the pool at line {call.lineno} — "
                        "the worker may see either state depending on "
                        "dispatch timing; copy the object or mutate "
                        "before submitting"
                    ),
                )
