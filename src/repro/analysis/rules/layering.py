"""Layering rules: the import-graph DAG of ``repro``.

The enforced architecture, bottom to top::

    rank 0   obs, analysis        (self-contained: no repro imports)
             _lazy                (the export resolver every __init__ calls)
    rank 1   genome, resilience
    rank 2   seed
    rank 3   align
    rank 4   chain, phylo
    rank 5   core, lastz, annotate, io
    rank 6   hw, parallel
    rank 7   cli, repro (root package modules)

A module may import packages of **equal or lower** rank at module
level; importing upward is LAY001.  Cycles in the module-level import
graph are LAY002 regardless of rank.  ``obs`` and ``analysis`` must be
importable by everything and so may import nothing from ``repro`` at
all (LAY003); nothing may import ``repro.cli`` (LAY004); a subpackage
missing from the map is LAY005 — extend the table (and CONTRIBUTING's
DAG) deliberately, never implicitly.

Only module-level imports count (including those under module-level
``if``/``try``, excluding ``if TYPE_CHECKING`` blocks).  Imports inside
function bodies are the sanctioned escape hatch for *top-layer
wiring* — e.g. the pipelines constructing a
``repro.parallel.ExecutionEngine`` on demand — because they defer the
dependency to call time and cannot create import cycles.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import module_level_imports, resolve_import_base
from ..findings import Finding, Severity
from ..registry import project_rule

#: package -> rank; lower ranks are more fundamental.
RANKS: Dict[str, int] = {
    "obs": 0,
    "analysis": 0,
    "genome": 1,
    "resilience": 1,
    "seed": 2,
    "align": 3,
    "chain": 4,
    "phylo": 4,
    "core": 5,
    "lastz": 5,
    "annotate": 5,
    "io": 5,
    "hw": 6,
    "parallel": 6,
    "cli": 7,
    "service": 7,  # serving daemon orchestrates every lower layer
    "repro": 7,  # root package modules (repro/__init__.py)
    # The PEP 562 export resolver: every package __init__ (but obs and
    # analysis) imports it, so it sits under all of them.  The tables
    # it is handed are strings, not imports — the modules they name are
    # linted like any other, which is where an upward import is caught.
    "_lazy": 0,
}

#: Packages everything may depend on — so they may depend on nothing.
SELF_CONTAINED: Set[str] = {"obs", "analysis"}

#: Packages nothing may import.
TOP_ONLY: Set[str] = {"cli"}


def _target_package(target: str) -> str:
    parts = target.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _repro_imports(
    module,
) -> Iterator[Tuple[ast.stmt, str]]:
    """(statement, absolute repro target) for module-level imports."""
    for stmt, type_checking in module_level_imports(module.tree):
        if type_checking:
            continue
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield stmt, alias.name
        elif isinstance(stmt, ast.ImportFrom):
            base = resolve_import_base(stmt, module.modname)
            if base is None:
                continue
            if base == "repro" or base.startswith("repro."):
                yield stmt, base


def _strongly_connected(
    graph: Dict[str, Set[str]],
) -> List[List[str]]:
    """Tarjan's SCC, iterative; returns components of size > 1."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return components


def _resolve_node(target: str, analyzed: Set[str]) -> Optional[str]:
    """Map an import target onto an analyzed module (longest prefix)."""
    parts = target.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in analyzed:
            return candidate
    return None


@project_rule(
    "LAY001",
    "layer-order",
    Severity.ERROR,
    "module-level import of a higher-rank package",
)
def check_layer_order(modules) -> Iterator[Finding]:
    for module in modules:
        if not module.modname.startswith("repro"):
            continue
        source_pkg = module.package
        source_rank = RANKS.get(source_pkg)
        if source_rank is None:
            continue  # LAY005 reports the unknown package
        for stmt, target in _repro_imports(module):
            target_pkg = _target_package(target)
            target_rank = RANKS.get(target_pkg)
            if target_rank is None:
                continue
            if target_rank > source_rank:
                yield Finding(
                    rule="LAY001",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"{source_pkg} (layer {source_rank}) imports "
                        f"{target_pkg} (layer {target_rank}) — imports "
                        "must point down the DAG; defer construction "
                        "to a function body or invert the dependency"
                    ),
                )


@project_rule(
    "LAY002",
    "import-cycle",
    Severity.ERROR,
    "cycle in the module-level import graph",
)
def check_import_cycle(modules) -> Iterator[Finding]:
    repro_modules = {
        m.modname: m for m in modules if m.modname.startswith("repro")
    }
    analyzed = set(repro_modules)
    graph: Dict[str, Set[str]] = {name: set() for name in analyzed}
    for name, module in repro_modules.items():
        for _, target in _repro_imports(module):
            node = _resolve_node(target, analyzed)
            if node is not None and node != name:
                graph[name].add(node)
    for component in _strongly_connected(graph):
        anchor = repro_modules[component[0]]
        yield Finding(
            rule="LAY002",
            severity=Severity.ERROR,
            path=anchor.path,
            line=1,
            col=0,
            message=(
                "import cycle: " + " <-> ".join(component)
            ),
        )


@project_rule(
    "LAY003",
    "self-contained",
    Severity.ERROR,
    "obs/analysis importing the rest of repro",
)
def check_self_contained(modules) -> Iterator[Finding]:
    for module in modules:
        if module.package not in SELF_CONTAINED:
            continue
        prefix = f"repro.{module.package}"
        for stmt, target in _repro_imports(module):
            if target == prefix or target.startswith(prefix + "."):
                continue
            yield Finding(
                rule="LAY003",
                severity=Severity.ERROR,
                path=module.path,
                line=stmt.lineno,
                col=stmt.col_offset,
                message=(
                    f"repro.{module.package} must stay dependency-free "
                    f"(everything imports it) but imports {target}"
                ),
            )


@project_rule(
    "LAY004",
    "cli-top-only",
    Severity.ERROR,
    "library code importing the CLI",
)
def check_cli_top_only(modules) -> Iterator[Finding]:
    for module in modules:
        if module.package in TOP_ONLY:
            continue
        for stmt, target in _repro_imports(module):
            if _target_package(target) in TOP_ONLY:
                yield Finding(
                    rule="LAY004",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"{target} is the top of the DAG — nothing may "
                        "import it"
                    ),
                )


@project_rule(
    "LAY005",
    "unmapped-package",
    Severity.ERROR,
    "repro subpackage missing from the layer map",
)
def check_unmapped_package(modules) -> Iterator[Finding]:
    reported: Set[str] = set()
    for module in modules:
        if not module.modname.startswith("repro"):
            continue
        package = module.package
        if package in RANKS or package in reported:
            continue
        reported.add(package)
        yield Finding(
            rule="LAY005",
            severity=Severity.ERROR,
            path=module.path,
            line=1,
            col=0,
            message=(
                f"package repro.{package} has no layer rank — add it to "
                "repro.analysis.rules.layering.RANKS and to the DAG in "
                "CONTRIBUTING.md"
            ),
        )
