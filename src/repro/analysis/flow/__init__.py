"""Cross-function analysis of what reaches the worker pool.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time; a lambda handed to a forwarding helper in one module and
submitted to the pool in another is invisible to them.  This package
holds the one piece of whole-program machinery that case needs:

* :mod:`.callgraph` — a module-qualified call graph over the project
  tree (imports and aliases resolved through each module's own import
  table, ``__init__`` re-exports followed, attribute calls handled
  conservatively by method-name union);
* :mod:`.rules` — FLOW002 (argument mutated after submission) and
  FLOW003 (unpicklable callable or argument reaches ``submit`` /
  ``dispatch``, directly or through a call chain).  Importing it
  registers both with :mod:`repro.analysis.registry`; FLOW003 builds
  the call graph when it runs.

Everything here stays stdlib-only, like the rest of
:mod:`repro.analysis`.
"""

from . import rules  # noqa: F401  (import has the side effect of registration)
from .callgraph import CallGraph, FunctionNode, build_call_graph

__all__ = ["CallGraph", "FunctionNode", "build_call_graph"]
