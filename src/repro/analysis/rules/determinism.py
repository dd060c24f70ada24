"""Determinism rules.

PR 2 made byte-identical replay a contract: parallel runs must equal
serial runs at any worker count, and cached artifacts are
content-addressed.  Everything here guards that contract: RNG state
must be explicit and seeded, clocks belong to the tracer, and nothing
order-unstable may feed output or hashing paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import call_args, resolve_origin
from ..findings import Finding, Severity
from ..registry import module_rule

#: numpy.random attributes that are constructors for explicit-state
#: generators (fine when seeded) rather than global-state functions.
_NUMPY_EXPLICIT = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}

#: stdlib ``random`` module-level functions that mutate/read the hidden
#: global generator.
_STDLIB_GLOBAL = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "setstate",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}


def _calls(module) -> Iterator[ast.Call]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node


@module_rule(
    "DET001",
    "unseeded-rng",
    Severity.ERROR,
    "RNG constructed (or global RNG seeded) without an explicit seed",
)
def check_unseeded_rng(module) -> Iterator[Finding]:
    aliases = module.aliases
    constructors = {"random.Random", "numpy.random.seed", "random.seed"} | {
        f"numpy.random.{name}"
        for name in ("default_rng", "RandomState")
    }
    for call in _calls(module):
        origin = resolve_origin(call.func, aliases)
        if origin not in constructors:
            continue
        positional, keywords = call_args(call)
        if positional == 0 and not keywords:
            yield Finding(
                rule="DET001",
                severity=Severity.ERROR,
                path=module.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"{origin}() without an explicit seed — thread a "
                    "seeded rng/seed parameter through instead"
                ),
            )


@module_rule(
    "DET002",
    "global-rng",
    Severity.ERROR,
    "call into the hidden module-level RNG state",
)
def check_global_rng(module) -> Iterator[Finding]:
    aliases = module.aliases
    for call in _calls(module):
        origin = resolve_origin(call.func, aliases)
        if origin is None:
            continue
        flagged = False
        if origin.startswith("numpy.random."):
            tail = origin[len("numpy.random."):]
            flagged = "." not in tail and tail not in _NUMPY_EXPLICIT
        elif origin.startswith("random."):
            tail = origin[len("random."):]
            flagged = tail in _STDLIB_GLOBAL and tail != "seed"
            # random.seed / numpy.random.seed with arguments still
            # mutate global state other code observes.
            if tail == "seed":
                positional, keywords = call_args(call)
                flagged = positional > 0 or bool(keywords)
        if origin == "numpy.random.seed":
            positional, keywords = call_args(call)
            flagged = positional > 0 or bool(keywords)
        if flagged:
            yield Finding(
                rule="DET002",
                severity=Severity.ERROR,
                path=module.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"{origin}() uses process-global RNG state — pass an "
                    "explicit numpy Generator instead"
                ),
            )


@module_rule(
    "DET003",
    "wall-clock",
    Severity.ERROR,
    "wall-clock/timer call outside repro.obs",
)
def check_wall_clock(module) -> Iterator[Finding]:
    if module.modname.startswith("repro.obs"):
        return
    aliases = module.aliases
    for call in _calls(module):
        origin = resolve_origin(call.func, aliases)
        if origin in _WALL_CLOCKS:
            yield Finding(
                rule="DET003",
                severity=Severity.ERROR,
                path=module.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"{origin}() outside repro.obs — timing belongs to "
                    "the tracer; pipeline output must not depend on "
                    "the clock"
                ),
            )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


@module_rule(
    "DET004",
    "set-iteration",
    Severity.ERROR,
    "iteration over a set feeding output/hash paths (order is "
    "randomized across processes)",
)
def check_set_iteration(module) -> Iterator[Finding]:
    def flag(node: ast.AST) -> Finding:
        return Finding(
            rule="DET004",
            severity=Severity.ERROR,
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                "iterating a set — hash randomization makes the order "
                "differ between runs/processes; iterate sorted(...) "
                "instead"
            ),
        )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.For) and _is_set_expression(node.iter):
            yield flag(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    yield flag(generator.iter)
        elif isinstance(node, ast.Call):
            func = node.func
            ordering = (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "enumerate")
            ) or (isinstance(func, ast.Attribute) and func.attr == "join")
            if ordering and node.args and _is_set_expression(node.args[0]):
                yield flag(node.args[0])
