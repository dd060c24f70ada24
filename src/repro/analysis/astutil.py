"""Small AST helpers shared by the rule modules.

The central facility is *origin resolution*: mapping a call such as
``np.random.default_rng()`` or ``rng_seed()`` (after ``from
numpy.random import default_rng as rng_seed``) back to the dotted path
of the thing being called (``numpy.random.default_rng``), using the
module's own import statements.  Resolution is purely lexical — no code
is executed — so shadowed names can fool it; the rules accept that
trade in exchange for zero runtime cost.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

#: Conventional aliases resolved even without seeing the import (the
#: parsed snippet may be a fragment in tests).
_WELL_KNOWN = {"np": "numpy"}


def import_aliases(tree: ast.AST, modname: str = "") -> Dict[str, str]:
    """Map local names to the dotted origin they were imported from.

    Relative imports are resolved against ``modname`` when given, so
    ``from ..obs import tracer`` inside ``repro.seed.cache`` yields
    ``{"tracer": "repro.obs.tracer"}``.
    """
    aliases: Dict[str, str] = dict(_WELL_KNOWN)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                origin = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            base = resolve_import_base(node, modname)
            if base is None:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{base}.{name.name}" if base else name.name
    return aliases


def resolve_import_base(
    node: ast.ImportFrom, modname: str
) -> Optional[str]:
    """The absolute module an ``ImportFrom`` pulls names out of."""
    if not node.level:
        return node.module or ""
    if not modname:
        return None
    parts = modname.split(".")
    # Importing from within a package's __init__ consumes one fewer part.
    anchor = parts[: len(parts) - node.level]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor) if anchor else None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_origin(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """The dotted origin of a Name/Attribute expression, or None.

    The head of the chain is translated through the module's imports:
    with ``import numpy as np``, ``np.random.rand`` resolves to
    ``numpy.random.rand``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def call_args(node: ast.Call) -> Tuple[int, List[str]]:
    """(positional-arg count, keyword names) of a call."""
    keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
    return len(node.args), keywords


def call_values(node: ast.Call) -> List[ast.AST]:
    """Every value a call passes: positionals, then keyword values."""
    return list(node.args) + [kw.value for kw in node.keywords]


def walk_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Every function/lambda definition node in the tree."""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            yield node


def is_type_checking_guard(node: ast.If) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    test = node.test
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def module_level_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Module-level import statements, with their TYPE_CHECKING-ness.

    Descends into module-level ``if``/``try`` blocks (a common pattern
    for optional dependencies) but not into function or class bodies —
    deferred imports inside functions are the sanctioned wiring escape
    hatch for top-layer construction and are deliberately not reported.
    """

    def visit(stmts, type_checking: bool):
        for stmt in stmts:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt, type_checking
            elif isinstance(stmt, ast.If):
                guarded = type_checking or is_type_checking_guard(stmt)
                yield from visit(stmt.body, guarded)
                yield from visit(stmt.orelse, type_checking)
            elif isinstance(stmt, ast.Try):
                yield from visit(stmt.body, type_checking)
                for handler in stmt.handlers:
                    yield from visit(handler.body, type_checking)
                yield from visit(stmt.orelse, type_checking)
                yield from visit(stmt.finalbody, type_checking)

    yield from visit(tree.body, False)
