"""The one place a ``repro`` package turns a name into an import.

Every package ``__init__`` (but ``obs``) declares its
public surface as a ``name -> submodule`` table and hands it to
:func:`lazy_exports`; a submodule is imported — and, with no bytecode
cache, compiled — the first time one of its names is asked for, so an
invocation pays for the modules it runs and no others.  Code inside
``src/repro`` imports from the concrete module and never goes through
these tables (DESIGN.md, "Import policy").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``table`` maps each public name to the submodule to take it from
    (``"pipeline"``; from the root the subpackage, ``"core"``, whose own
    table finishes the job).  A name outside the table that is a
    submodule resolves to that submodule, as it did when ``__init__``
    imported them all (``import repro; repro.core.DarwinWGA``).
    Whatever is resolved is cached in the package namespace, so PEP
    562's ``__getattr__`` runs once per name.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        target = table.get(name)
        if target is not None:
            value = getattr(import_module(f".{target}", package), name)
        else:
            value = None
            if not name.startswith("__"):  # dunder probes are not modules
                try:
                    value = import_module(f".{name}", package)
                except ModuleNotFoundError as error:
                    if error.name != f"{package}.{name}":
                        raise  # the submodule exists; one of its imports failed
            if value is None:
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
