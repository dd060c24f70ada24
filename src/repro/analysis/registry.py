"""Rule registry for :mod:`repro.analysis`.

Every rule sees one parsed file at a time (``check(module) ->
findings``).  Invariants that need the whole program — the layer DAG,
what crosses the process boundary — are tier-1 tests, not rules: a test
reads the import graph or pickles the real task, where a rule could only
approximate either from source text (see ``RETIRED_RULES``).

Registration is declarative::

    @module_rule(
        "DET001", "unseeded-rng", Severity.ERROR,
        "RNG constructed without an explicit seed",
    )
    def check_unseeded(module):
        ...

Rule ids are stable identifiers (they appear in suppression comments
and CI reports); never reuse a retired id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .findings import Severity

#: Ids reserved by the engine itself (parse failures, suppression
#: meta-lint) — valid in reports but not backed by a registered rule.
ENGINE_RULES: Dict[str, str] = {
    "PARSE": "file does not parse",
    "SUP001": "suppression comment without a reason",
    "SUP002": "suppression comment with unknown/missing rule ids",
}

_LAYERS = "replaced by tests/test_layers.py (module-level import graph)"
_PICKLE = (
    "replaced by the pickle check on ExecutionEngine.submit/dispatch "
    "in tests/conftest.py"
)

#: Ids that once named a rule.  They are never reused (a suppression or
#: ``--select`` written against the old meaning must not silently take
#: on a new one); the value says where the invariant is guarded now.
RETIRED_RULES: Dict[str, str] = {
    "FLOW001": "deleted; DET001-DET003 and KER005 report the same sites",
    "FLOW003": _PICKLE,
    "KER004": "replaced by ruff E722 (bare except), CI's ruff job",
    "KER006": "deleted; KER001 flags the narrow dtype token itself",
    "LAY001": _LAYERS,
    "LAY002": _LAYERS,
    "LAY003": _LAYERS,
    "LAY004": _LAYERS,
    "LAY005": _LAYERS,
    "OBS002": "folded into KER005",
    "PAR001": "folded into FLOW003, which was " + _PICKLE,
    "PAR002": "folded into FLOW003, which was " + _PICKLE,
}


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus its check callable."""

    id: str
    name: str
    severity: Severity
    description: str
    check: Callable


MODULE_RULES: List[Rule] = []


def module_rule(
    rule_id: str, name: str, severity: Severity, description: str
):
    """Register ``check(module) -> findings`` under ``rule_id``."""

    def decorator(fn: Callable) -> Callable:
        if rule_id in RETIRED_RULES or any(
            r.id == rule_id for r in MODULE_RULES
        ):
            raise ValueError(f"duplicate or retired rule id {rule_id!r}")
        MODULE_RULES.append(
            Rule(
                id=rule_id,
                name=name,
                severity=severity,
                description=description,
                check=fn,
            )
        )
        return fn

    return decorator


def all_rules() -> List[Rule]:
    return list(MODULE_RULES)


def known_rule_ids() -> List[str]:
    return [rule.id for rule in MODULE_RULES] + sorted(ENGINE_RULES)
