"""Resilience rules: recovery code must never swallow failures blind.

A retry/fallback layer is exactly where ``except Exception: pass``
does the most damage: the run "succeeds" while a recovery path silently
discarded a real fault, and the byte-identical-output contract breaks
without a trace.  Every broad handler in recovery code must either act
on the exception (reraise, record, return a substitute) or carry an
explicit ``# repro: allow[RES001] reason`` suppression explaining why
ignoring it is safe.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import resolve_origin
from ..findings import Finding, Severity
from ..registry import module_rule

#: Exception names too broad to discard without explanation.  Narrow
#: handlers (``except OSError: pass`` around a best-effort unlink) stay
#: legal: they name the one failure they deliberately ignore.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_broad(node: ast.AST, aliases) -> bool:
    origin = resolve_origin(node, aliases) or ""
    name = origin.rsplit(".", 1)[-1]
    return name in _BROAD_EXCEPTIONS


def _only_discards(body) -> bool:
    """Whether a handler body does nothing but swallow the exception."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        return False
    return True


@module_rule(
    "RES001",
    "swallowed-exception",
    Severity.ERROR,
    "broad exception handler that silently discards the failure",
)
def check_swallowed_exception(module) -> Iterator[Finding]:
    if not module.modname.startswith("repro"):
        return
    aliases = module.aliases
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        broad = _is_broad(node.type, aliases)
        if isinstance(node.type, ast.Tuple):
            broad = any(
                _is_broad(item, aliases) for item in node.type.elts
            )
        if broad and _only_discards(node.body):
            yield Finding(
                rule="RES001",
                severity=Severity.ERROR,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "except Exception: pass hides real faults from the "
                    "recovery ladder — handle, record or reraise; if "
                    "discarding is provably safe, suppress with "
                    "# repro: allow[RES001] <reason>"
                ),
            )
