"""Analysis engine: file discovery, parsing, rule dispatch, suppression.

The engine is deliberately self-contained (stdlib only, no imports from
the rest of :mod:`repro`) so the layering rules it hosts can place
``repro.analysis`` at the bottom of the DAG alongside ``repro.obs``.

Entry points:

* :func:`analyze_paths` — lint files/directories from disk (the CLI).
* :func:`analyze_sources` — lint in-memory ``{modname: source}``
  mappings (the test fixtures).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .astutil import import_aliases
from .findings import Finding, Severity
from .registry import MODULE_RULES, PROJECT_RULES, known_rule_ids
from .suppress import Suppressions, lint_suppressions, parse_suppressions

# Rule modules register themselves on import.
from . import flow, rules  # noqa: F401  (imported for the registration)


@dataclass
class ModuleInfo:
    """One parsed source file, ready for the rules."""

    path: str
    modname: str
    source: str
    tree: Optional[ast.Module]
    suppressions: Suppressions

    @property
    def package(self) -> str:
        """Top-level repro subpackage ("align" for repro.align.stats);
        root modules (repro.cli, repro.__init__) map to "cli"/"repro"."""
        parts = self.modname.split(".")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return parts[-1] if parts else self.modname

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """The module's import table (local name -> dotted origin),
        computed once and shared by every rule that resolves origins."""
        return import_aliases(self.tree, self.modname)


@dataclass
class AnalysisResult:
    """Findings split by suppression state, plus run metadata."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def find_package_root(path: Path) -> Path:
    """Ascend from a file/dir to the directory that contains the
    top-level package (the first parent without an ``__init__.py``)."""
    current = path if path.is_dir() else path.parent
    while (current / "__init__.py").exists() and current.parent != current:
        current = current.parent
    return current


def module_name_for(path: Path, root: Optional[Path] = None) -> str:
    """Dotted module name of ``path`` relative to its package root.

    Package ``__init__`` files keep the ``__init__`` component
    (``repro.genome.__init__``): relative-import level stripping then
    works uniformly for packages and plain modules.
    """
    root = root or find_package_root(path)
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = Path(path.name)
    parts = list(relative.with_suffix("").parts)
    return ".".join(parts) if parts else path.stem


def load_module(path: Path, modname: Optional[str] = None) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    return make_module(
        source,
        modname if modname is not None else module_name_for(path),
        str(path),
    )


def make_module(source: str, modname: str, path: str) -> ModuleInfo:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        tree = None
    return ModuleInfo(
        path=path,
        modname=modname,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


def collect_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving order.
    seen = set()
    unique = []
    for file in files:
        key = file.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(file)
    return unique


def _selected(rules, select: Optional[Sequence[str]]):
    if not select:
        return rules
    wanted = set(select)
    return [rule for rule in rules if rule.id in wanted]


def analyze_modules(
    modules: List[ModuleInfo],
    select: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run every (selected) rule over already-parsed modules."""
    result = AnalysisResult(files=[m.path for m in modules])
    raw: List[Finding] = []
    hard: List[Finding] = []  # never suppressible
    known = known_rule_ids()
    for module in modules:
        hard.extend(
            lint_suppressions(module.path, module.suppressions, known)
        )
        if module.tree is None:
            hard.append(
                Finding(
                    rule="PARSE",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=1,
                    col=0,
                    message="file does not parse",
                )
            )
            continue
        for rule in _selected(MODULE_RULES, select):
            raw.extend(rule.check(module))
    parsed = [m for m in modules if m.tree is not None]
    for rule in _selected(PROJECT_RULES, select):
        raw.extend(rule.check(parsed))

    by_path: Dict[str, Suppressions] = {
        m.path: m.suppressions for m in modules
    }
    for finding in raw:
        table = by_path.get(finding.path)
        if table is not None and table.is_suppressed(
            finding.rule, finding.line
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.findings.extend(hard)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


def analyze_paths(
    paths: Iterable[Path],
    select: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Lint files and/or directory trees from disk."""
    files = collect_files(Path(p) for p in paths)
    modules = [load_module(path) for path in files]
    return analyze_modules(modules, select=select)


def analyze_sources(
    sources: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Lint in-memory sources keyed by module name (test fixtures).

    The pseudo-path of each module is its module name with slashes, so
    suppression scoping and reports behave exactly as for disk files.
    """
    modules = [
        make_module(source, modname, modname.replace(".", "/") + ".py")
        for modname, source in sources.items()
    ]
    return analyze_modules(modules, select=select)
