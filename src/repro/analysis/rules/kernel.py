"""DP-kernel hygiene and general code-health rules.

The kernel rules encode what Scrooge-style aligner work keeps
re-learning: score accumulators in narrow dtypes overflow silently on
long tiles, and a Python-level loop over *both* sequence axes turns an
O(n*m) kernel into an interpreter benchmark.  The general rules
(mutable defaults, stray terminal output) apply across the whole tree;
a bare ``except:`` is ruff's ``E722`` (CI's ruff job), not a rule here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import call_values, resolve_origin
from ..findings import Finding, Severity
from ..registry import module_rule

#: Signed narrow integer / half-float dtypes that overflow as DP score
#: accumulators.  Unsigned 8/16-bit stay legal: they carry base codes
#: and traceback pointers, which never accumulate.
_NARROW_DTYPES = {"int8", "int16", "float16"}

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "collections.defaultdict",
    "collections.deque",
    "collections.OrderedDict",
    "collections.Counter",
}


def _in_align_kernels(module) -> bool:
    # repro.align._reference is the frozen row-at-a-time oracle the
    # vectorised kernels are differentially tested against; its
    # deliberately naive loops are its whole point, so the kernel
    # hygiene rules skip it.
    if module.modname == "repro.align._reference":
        return False
    return module.modname.startswith("repro.align")


def _dtype_token(node: ast.AST, aliases) -> str:
    """Normalise a dtype expression to its bare name ("int16")."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    origin = resolve_origin(node, aliases)
    if origin and origin.startswith("numpy."):
        return origin[len("numpy."):]
    return ""


@module_rule(
    "KER001",
    "narrow-dp-dtype",
    Severity.ERROR,
    "narrow signed dtype for an alignment-kernel array (overflow risk)",
)
def check_narrow_dtype(module) -> Iterator[Finding]:
    if not _in_align_kernels(module):
        return
    aliases = module.aliases
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        # Any argument position counts: ``np.zeros(n, dtype=np.int16)``
        # and ``h.astype(np.int8)``, but also a workspace slab such as
        # ``ws.array("h", shape, np.int16)`` that no allocator list
        # would know about.
        for value in call_values(node):
            token = _dtype_token(value, aliases)
            if token in _NARROW_DTYPES:
                yield Finding(
                    rule="KER001",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"dtype {token} in an alignment kernel — DP "
                        "scores accumulate past 16-bit range on long "
                        "tiles; use int32/int64 (uint8/16 remain fine "
                        "for codes and traceback pointers)"
                    ),
                )


def _is_range_loop(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
    )


@module_rule(
    "KER002",
    "nested-dp-loop",
    Severity.WARNING,
    "Python-level loop over both sequence axes in an alignment kernel",
)
def check_nested_loop(module) -> Iterator[Finding]:
    if not _in_align_kernels(module):
        return
    for node in ast.walk(module.tree):
        if not _is_range_loop(node):
            continue
        for inner in ast.walk(node):
            if inner is node or not _is_range_loop(inner):
                continue
            yield Finding(
                rule="KER002",
                severity=Severity.WARNING,
                path=module.path,
                line=inner.lineno,
                col=inner.col_offset,
                message=(
                    "range-loop nested inside a range-loop in an "
                    "alignment kernel — vectorise the inner axis "
                    "(row-wise numpy, see align/_dp.py)"
                ),
            )


@module_rule(
    "KER003",
    "mutable-default",
    Severity.ERROR,
    "mutable default argument",
)
def check_mutable_default(module) -> Iterator[Finding]:
    aliases = module.aliases
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                 ast.DictComp),
            )
            if isinstance(default, ast.Call):
                origin = resolve_origin(default.func, aliases)
                mutable = origin in _MUTABLE_CALLS
            if mutable:
                yield Finding(
                    rule="KER003",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=default.lineno,
                    col=default.col_offset,
                    message=(
                        f"mutable default argument in {node.name}() — "
                        "shared across calls; default to None and "
                        "create inside"
                    ),
                )


#: Direct writes to the process's terminal streams.
_TERMINAL_WRITES = {
    f"sys.{stream}.{method}"
    for stream in ("stdout", "stderr")
    for method in ("write", "writelines")
}


@module_rule(
    "KER005",
    "stray-print",
    Severity.ERROR,
    "print() or sys.stdout/sys.stderr write in library code "
    "(outside repro.cli)",
)
def check_stray_print(module) -> Iterator[Finding]:
    if not module.modname.startswith("repro"):
        return
    if module.modname == "repro.cli":
        return
    aliases = module.aliases
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            what = "print()"
        else:
            what = resolve_origin(node.func, aliases)
            if what not in _TERMINAL_WRITES:
                continue
            what += "()"
        yield Finding(
            rule="KER005",
            severity=Severity.ERROR,
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{what} in library code — return/log data instead; "
                "user-facing output belongs to the CLI layer, and "
                "worker processes report only through their results "
                "(the parent owns the terminal)"
            ),
        )
