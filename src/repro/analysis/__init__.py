"""Project-specific static analysis (``repro lint``).

An AST-based pass enforcing the invariants this codebase's correctness
arguments actually rest on — properties generic linters cannot know
about:

* **determinism** (``DET0xx``) — parallel output is byte-identical to
  serial and caches are content-addressed, so RNGs must be explicitly
  seeded and threaded, clocks live only in :mod:`repro.obs`, and set
  iteration order must never reach output or hashing paths;
* **kernel hygiene** (``KER0xx``) — no narrow signed dtypes for DP
  accumulators, no Python-level loops over both sequence axes in
  ``repro.align`` kernels, plus mutable defaults / stray terminal
  output tree-wide;
* **the process boundary** (``FLOW002``, ``PAR003``) — nothing
  submitted to the worker pool is mutated afterwards; stage buffers are
  bounded;
* **recovery hygiene** (``RES001``) and **sampling locality**
  (``OBS001``).

There is one pass and one mode: every rule sees one file at a time,
registers through :func:`repro.analysis.registry.module_rule` and runs
on every invocation.  A rule earns its place by catching a bug class
nothing cheaper catches (``tests/analysis/test_mutations.py`` is the
evidence).  What a test holds better is a test: the layer DAG is
``tests/test_layers.py``, "task callables and arguments pickle" is the
check ``tests/conftest.py`` puts on ``ExecutionEngine.submit`` and
``dispatch``, and a bare ``except:`` is ruff's ``E722``.  Ids of
retired rules are never reused.

Findings are suppressed inline with
``# repro: allow[RULE] <reason>`` — the reason is mandatory and itself
linted.  This package is deliberately stdlib-only and imports nothing
from the rest of ``repro`` so it sits at the bottom of the layer DAG.
"""

from .engine import (
    AnalysisResult,
    ModuleInfo,
    analyze_modules,
    analyze_paths,
    analyze_sources,
)
from .findings import Finding, Severity
from .registry import MODULE_RULES, all_rules
from .report import render_json, render_text

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "MODULE_RULES",
    "Severity",
    "all_rules",
    "analyze_modules",
    "analyze_paths",
    "analyze_sources",
    "render_json",
    "render_text",
]
