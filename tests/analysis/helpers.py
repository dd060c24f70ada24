"""Shared helpers for the static-analysis rule tests."""

from __future__ import annotations

import textwrap
from typing import Dict, List, Optional, Sequence

from repro.analysis import Finding, analyze_sources


def lint_snippet(
    source: str,
    modname: str = "repro.seed.snippet",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one dedented snippet under a virtual module name."""
    result = analyze_sources(
        {modname: textwrap.dedent(source)}, select=select
    )
    return result.findings


def lint_tree(
    sources: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a virtual multi-module tree (for the project rules)."""
    return analyze_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=select,
    ).findings


def call_graph(sources: Dict[str, str]):
    """Build the call graph of a dedented virtual tree."""
    from repro.analysis.engine import make_module
    from repro.analysis.flow import build_call_graph

    return build_call_graph(
        [
            make_module(
                textwrap.dedent(src), name, name.replace(".", "/") + ".py"
            )
            for name, src in sources.items()
        ]
    )


def rules_of(findings: List[Finding]) -> List[str]:
    return sorted(f.rule for f in findings)
