"""Project-specific static analysis (``repro lint``).

An AST-based pass enforcing the invariants this codebase's correctness
arguments actually rest on — properties generic linters cannot know
about:

* **determinism** (``DET0xx``) — parallel output is byte-identical to
  serial and caches are content-addressed, so RNGs must be explicitly
  seeded and threaded, clocks live only in :mod:`repro.obs`, and set
  iteration order must never reach output or hashing paths;
* **layering** (``LAY0xx``) — the import DAG
  genome -> seed -> align -> chain -> {core, lastz, annotate} ->
  {hw, parallel}, with ``obs``/``analysis`` self-contained and ``cli``
  top-only; cycles are errors;
* **kernel hygiene** (``KER0xx``) — no narrow signed dtypes for DP
  accumulators, no Python-level loops over both sequence axes in
  ``repro.align`` kernels, plus mutable defaults / bare except / stray
  terminal output tree-wide;
* **the process boundary** (``FLOW0xx``, ``PAR003``) — task callables
  and arguments handed to the worker pool must pickle (module-level
  functions, plain data), directly or through forwarding helpers;
  nothing submitted is mutated afterwards; stage buffers are bounded.
  See :mod:`repro.analysis.flow`.

There is one pass and one mode: every rule registers through the same
two decorators (:mod:`repro.analysis.registry`) and runs on every
invocation.  A rule earns its place by catching a bug class nothing
cheaper catches (``tests/analysis/test_mutations.py`` is the evidence);
ids of rules that were retired are never reused.

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
from .registry import MODULE_RULES, PROJECT_RULES, all_rules
from .report import render_json, render_text
from .rules.layering import RANKS, SELF_CONTAINED, TOP_ONLY

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "MODULE_RULES",
    "PROJECT_RULES",
    "RANKS",
    "SELF_CONTAINED",
    "Severity",
    "TOP_ONLY",
    "all_rules",
    "analyze_modules",
    "analyze_paths",
    "analyze_sources",
    "render_json",
    "render_text",
]
