# repro: allow-file[KER005] lint is a command-line surface; the report is its output
"""Command-line front end for the static-analysis pass.

Reachable three ways, all equivalent::

    repro lint [paths...]
    python -m repro.analysis [paths...]
    python -m repro.cli lint [paths...]

Exit status is 1 when any unsuppressed finding exists (severity is a
triage label, not a gate level), 2 when a path or a ``--select`` rule
id does not exist, 0 otherwise.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import analyze_paths
from .registry import (
    ENGINE_RULES,
    RETIRED_RULES,
    all_rules,
    known_rule_ids,
)
from .report import render_json, render_text

#: Default lint target when no path is given (repo-root invocation).
DEFAULT_TARGET = Path("src/repro")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options.

    ``repro lint`` spells the same five in ``repro/cli.py`` — its parser
    is built without importing this package, so an ``align`` never
    compiles the rule engine — and ``tests/test_cli.py`` holds the two
    equal, action for action.
    """
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default="text",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list suppressed findings (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )


def list_rules() -> str:
    lines = ["rule    severity  name / description"]
    for rule in sorted(all_rules(), key=lambda r: r.id):
        lines.append(
            f"{rule.id:<7} {str(rule.severity):<9} "
            f"{rule.name}: {rule.description}"
        )
    for rule_id, description in sorted(ENGINE_RULES.items()):
        lines.append(f"{rule_id:<7} {'error':<9} engine: {description}")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation (used by ``repro lint`` too)."""
    if args.list_rules:
        print(list_rules())
        return 0
    paths: List[Path] = args.paths or [DEFAULT_TARGET]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}")
        return 2
    select: Optional[List[str]] = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
        known = set(known_rule_ids())
        unknown = [rule_id for rule_id in select if rule_id not in known]
        for rule_id in unknown:
            retired = RETIRED_RULES.get(rule_id)
            note = f" (retired: {retired})" if retired else ""
            print(f"repro lint: no such rule: {rule_id}{note}")
        if unknown:
            return 2
    result = analyze_paths(paths, select=select)
    if args.fmt == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.show_suppressed))
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "project-specific static analysis: determinism, "
            "process-boundary and DP-kernel invariants"
        ),
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
