"""What may cross the process boundary: FLOW002 and FLOW003.

Both rules look at the two pool entry points,
``ExecutionEngine.submit`` and ``ExecutionEngine.dispatch`` (matched by
method name, so any ``.submit(``/``.dispatch(`` with arguments counts),
and register through the ordinary decorators like every other rule.

FLOW002  an argument object is mutated *after* being submitted to the
         pool — under fork the mutation may or may not be visible to
         the worker depending on dispatch timing; under spawn it never
         is.  Either way the result depends on a race.  Per-function,
         so a module rule.
FLOW003  an unpicklable value — a lambda, generator expression, nested
         function or open file handle — is handed to the pool, as the
         task **callable** or as one of its **arguments**, directly or
         through a chain of forwarding helpers.  Tasks are pickled by
         reference (module + qualified name), so a lambda or closure
         either crashes under spawn or works under fork on one platform
         and dies on another.  The chain case needs cross-function
         resolution, so this is the one project rule that builds the
         call graph (:mod:`.callgraph`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..astutil import call_values, walk_functions
from ..findings import Finding, Severity
from ..registry import module_rule, project_rule
from .callgraph import CallGraph, FunctionNode, build_call_graph, own_calls

#: Pool dispatch entry points (ExecutionEngine.submit / .dispatch).
_DISPATCH_METHODS = ("submit", "dispatch")


def _is_dispatch(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _DISPATCH_METHODS
        and bool(call.args)
    )


# ---------------------------------------------------------------------------
# FLOW002: mutation of an argument object after it was submitted.
# ---------------------------------------------------------------------------

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
        # Walk the body in source order; statements after each submit
        # that mutate a submitted name (without rebinding it first) are
        # racy under fork and lost under spawn.
        body = ast.Module(body=list(function.body), type_ignores=[])
        for node in ast.walk(body):
            if not hasattr(node, "lineno"):
                continue
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
                    col=getattr(node, "col_offset", 0),
                    message=(
                        f"{name} is mutated ({how}) after being "
                        f"submitted to the pool at line {call.lineno} — "
                        "the worker may see either state depending on "
                        "dispatch timing; copy the object or mutate "
                        "before submitting"
                    ),
                )


# ---------------------------------------------------------------------------
# FLOW003: unpicklable callables/values reaching the pool.
# ---------------------------------------------------------------------------


def _nested_def_names(node: ast.AST) -> Set[str]:
    """Names of defs/lambda-bindings nested anywhere inside ``node``."""
    nested: Set[str] = set()
    for inner in ast.walk(node):
        if inner is node:
            continue
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.add(inner.name)
        elif isinstance(inner, ast.Assign) and isinstance(
            inner.value, ast.Lambda
        ):
            for target in inner.targets:
                if isinstance(target, ast.Name):
                    nested.add(target.id)
    return nested


def _is_open(value: ast.AST) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "open"
    )


def _open_handles(node: ast.AST) -> Set[str]:
    """Names bound to ``open(...)`` results (incl. with-statement)."""
    handles: Set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Assign) and _is_open(inner.value):
            for target in inner.targets:
                if isinstance(target, ast.Name):
                    handles.add(target.id)
        elif isinstance(inner, (ast.With, ast.AsyncWith)):
            for item in inner.items:
                if _is_open(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    handles.add(item.optional_vars.id)
    return handles


def _unpicklable_reason(
    expr: ast.AST, graph: CallGraph, function: FunctionNode
) -> Optional[str]:
    """Why ``expr`` cannot cross the process boundary, or None."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(expr, ast.Name):
        # A closure may hand on a sibling defined in its enclosing
        # function, so local defs are collected from the outermost one.
        outermost = graph.functions[
            function.qualname.split(".<locals>.")[0]
        ]
        if expr.id in _nested_def_names(outermost.node):
            return f"the nested function {expr.id}"
        if expr.id in _open_handles(function.node):
            return f"the open file handle {expr.id}"
    if _is_open(expr):
        return "an open file handle"
    return None


def _param_positions_reaching_dispatch(
    graph: CallGraph,
) -> Dict[str, Set[int]]:
    """Fixed point: which positional params of which functions flow
    into a pool dispatch (as callable or argument), directly or through
    further calls."""
    reaching: Dict[str, Set[int]] = {}
    # Seed: parameters handed directly to a dispatch call.
    for qualname, function in graph.functions.items():
        params = {name: i for i, name in enumerate(function.params)}
        for site in function.calls:
            if not _is_dispatch(site.node):
                continue
            for value in call_values(site.node):
                if isinstance(value, ast.Name) and value.id in params:
                    reaching.setdefault(qualname, set()).add(
                        params[value.id]
                    )
    # Propagate: caller param -> callee param position already reaching.
    changed = True
    while changed:
        changed = False
        for qualname, function in graph.functions.items():
            params = {name: i for i, name in enumerate(function.params)}
            if not params:
                continue
            forwarded = _forwarded(graph, function, reaching)
            for _call, _callee, _index, arg in forwarded:
                if isinstance(arg, ast.Name) and arg.id in params:
                    bucket = reaching.setdefault(qualname, set())
                    if params[arg.id] not in bucket:
                        bucket.add(params[arg.id])
                        changed = True
    return reaching


def _forwarded(
    graph: CallGraph,
    function: FunctionNode,
    reaching: Dict[str, Set[int]],
) -> Iterator[Tuple[ast.Call, FunctionNode, int, ast.AST]]:
    """(call, callee, callee-param index, argument) for every positional
    argument ``function`` passes into a parameter that reaches a
    dispatch."""
    for site in function.calls:
        for target in site.targets:
            positions = reaching.get(target)
            if not positions:
                continue
            callee = graph.functions[target]
            offset = 1 if callee.is_method else 0
            for pos, arg in enumerate(site.node.args):
                if pos + offset in positions:
                    yield site.node, callee, pos + offset, arg


def _flow003(
    function: FunctionNode, value: ast.AST, message: str
) -> Finding:
    return Finding(
        rule="FLOW003",
        severity=Severity.ERROR,
        path=function.path,
        line=value.lineno,
        col=value.col_offset,
        message=message,
    )


@project_rule(
    "FLOW003",
    "unpicklable-dispatch",
    Severity.ERROR,
    "unpicklable task callable or argument reaches a pool submit/dispatch",
)
def check_unpicklable_dispatch(modules) -> Iterator[Finding]:
    graph = build_call_graph(modules)
    reaching = _param_positions_reaching_dispatch(graph)
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        # Direct: an unpicklable expression in the dispatch call itself.
        for site in function.calls:
            if not _is_dispatch(site.node):
                continue
            # The callable comes first, then its arguments.
            for index, value in enumerate(call_values(site.node)):
                reason = _unpicklable_reason(value, graph, function)
                if reason is None:
                    continue
                if index == 0:
                    detail = (
                        "is submitted as the task callable — tasks "
                        "pickle by reference (module + qualified "
                        "name); define a module-level task function"
                    )
                else:
                    detail = (
                        "is passed as a task argument — it cannot be "
                        "pickled across the process boundary; pass "
                        "plain data and rebuild the object inside the "
                        "worker"
                    )
                yield _flow003(function, value, f"{reason} {detail}")
        # Transitive: handed to a parameter that flows into a dispatch
        # somewhere down the call chain.  Dispatch calls themselves were
        # just checked; resolving them into ExecutionEngine.submit /
        # .dispatch would only report the same value twice.
        forwarded = _forwarded(graph, function, reaching)
        for call, callee, index, arg in forwarded:
            if _is_dispatch(call):
                continue
            reason = _unpicklable_reason(arg, graph, function)
            if reason is None:
                continue
            yield _flow003(
                function,
                arg,
                f"{reason} flows into parameter {callee.params[index]} "
                f"of {callee.qualname}, which reaches a pool submit — "
                "it cannot be pickled across the process boundary",
            )
