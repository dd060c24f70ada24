"""Rule registry for :mod:`repro.analysis`.

Rules come in two scopes:

* **module** rules see one parsed file at a time
  (``check(module) -> findings``);
* **project** rules see every module at once
  (``check(modules) -> findings``) — the layering/import-graph checks
  and the cross-function pickling check (``FLOW003``) live here.

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

#: Ids that once named a rule.  They are never reused (a suppression or
#: ``--select`` written against the old meaning must not silently take
#: on a new one); the value says where the invariant is guarded now.
RETIRED_RULES: Dict[str, str] = {
    "FLOW001": "deleted; DET001-DET003 and KER005 report the same sites",
    "KER006": "deleted; KER001 flags the narrow dtype token itself",
    "OBS002": "folded into KER005",
    "PAR001": "folded into FLOW003",
    "PAR002": "folded into FLOW003",
}


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus its check callable."""

    id: str
    name: str
    severity: Severity
    scope: str  # "module" | "project"
    description: str
    check: Callable


MODULE_RULES: List[Rule] = []
PROJECT_RULES: List[Rule] = []


def _register(bucket: List[Rule], scope: str):
    def decorator_factory(
        rule_id: str, name: str, severity: Severity, description: str
    ):
        def decorator(fn: Callable) -> Callable:
            if rule_id in RETIRED_RULES or any(
                r.id == rule_id for r in all_rules()
            ):
                raise ValueError(f"duplicate or retired rule id {rule_id!r}")
            bucket.append(
                Rule(
                    id=rule_id,
                    name=name,
                    severity=severity,
                    scope=scope,
                    description=description,
                    check=fn,
                )
            )
            return fn

        return decorator

    return decorator_factory


module_rule = _register(MODULE_RULES, "module")
project_rule = _register(PROJECT_RULES, "project")


def all_rules() -> List[Rule]:
    return MODULE_RULES + PROJECT_RULES


def known_rule_ids() -> List[str]:
    return [rule.id for rule in all_rules()] + sorted(ENGINE_RULES)
