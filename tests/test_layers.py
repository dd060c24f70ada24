"""The layer DAG of ``src/repro``, read from module-level imports (also
under ``if``/``try``, never under ``if TYPE_CHECKING:``).  Standard
library only: CI runs it without numpy.  The same checker runs on
synthetic trees in ``tests/test_layering.py``."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: package -> rank, bottom to top: module-level imports go to equal or
#: lower ranks.  A new subpackage needs a rank here and in CONTRIBUTING.md.
LAYERS = (
    "obs _lazy", "genome resilience", "seed", "align",
    "chain phylo", "core lastz annotate io", "hw parallel", "cli service repro",
)
RANKS = {pkg: rank for rank, row in enumerate(LAYERS) for pkg in row.split()}

SELF_CONTAINED = {"obs"}  # everything imports it: no repro
TOP_ONLY = {"cli"}  # nothing imports it


def package_of(name):
    return name.split(".")[1] if "." in name else name


def module_level_imports(body):
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            guard = ast.unparse(stmt.test)
            if guard not in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                yield from module_level_imports(stmt.body)
            yield from module_level_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            handlers = [handler.body for handler in stmt.handlers]
            for block in (stmt.body, *handlers, stmt.orelse, stmt.finalbody):
                yield from module_level_imports(block)


def repro_imports(key, source, modules):
    """Absolute ``repro`` targets; ``key`` keeps a package's ``__init__``
    part, so a relative import strips parts alike from any module."""
    parts = key.split(".")
    for stmt in module_level_imports(ast.parse(source).body):
        if isinstance(stmt, ast.Import):
            targets = [alias.name for alias in stmt.names]
        else:
            base = parts[: len(parts) - stmt.level] if stmt.level else []
            base = ".".join(base + (stmt.module or "").split(".")).strip(".")
            targets = [  # a name imported from a package may be a module
                f"{base}.{a.name}" if f"{base}.{a.name}" in modules else base
                for a in stmt.names
            ]
        yield from (t for t in targets if t.split(".")[0] == "repro")


def layer_violations(sources):
    """``(kind, detail)`` per violation in ``{module name: source}``."""
    names = {key: key.removesuffix(".__init__") for key in sources}
    modules = set(names.values())
    found = [
        ("unmapped", f"repro.{package} has no rank in RANKS")
        for package in sorted({package_of(n) for n in modules} - set(RANKS))
    ]
    graph = {name: set() for name in modules}
    for key, source in sorted(sources.items()):
        name, package = names[key], package_of(names[key])
        rank = RANKS.get(package)
        for target in repro_imports(key, source, modules):
            if target in modules and target != name:
                graph[name].add(target)
            other = package_of(target)
            if rank is not None and RANKS.get(other, -1) > rank:
                found.append(("upward", f"{name} imports {target}"))
            if package in SELF_CONTAINED and other != package:
                found.append(("self-contained", f"{name} imports {target}"))
            if other in TOP_ONLY and package not in TOP_ONLY:
                found.append(("top-only", f"{name} imports {target}"))
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as cycle:
        found.append(("cycle", " -> ".join(cycle.args[1])))
    return found


def test_src_tree_keeps_the_layer_dag():
    sources = {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text()
        for path in (SRC / "repro").rglob("*.py")
    }
    found = layer_violations(sources)
    assert found == [], "\n".join(f"{kind}: {what}" for kind, what in found)


def test_layer_map_covers_every_package():
    packages = {p.parent.name for p in (SRC / "repro").glob("*/__init__.py")}
    assert packages <= set(RANKS), sorted(packages - set(RANKS))

