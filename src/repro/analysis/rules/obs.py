"""Observability rules.

Every process has exactly one sampling substrate: resource/CPU
sampling lives in :mod:`repro.obs.resource`.
This rule keeps ad-hoc probes from growing back.  (Its one-output-
channel twin — workers never write to the terminal — is ``KER005``,
which bans terminal writes from all library code.)

* ``OBS001`` — CPU-time / rusage sampling outside ``repro.obs``.
  Complements DET003 (wall clocks): ``time.process_time`` and
  ``resource.getrusage`` don't break determinism, but scattering them
  through pipeline code produces unmergeable one-off measurements; all
  sampling should flow through :func:`repro.obs.resource.sample_resources`
  so it lands in the shared registry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import resolve_origin
from ..findings import Finding, Severity
from ..registry import module_rule

#: CPU/rusage sampling calls that belong in repro.obs.resource.  Kept
#: disjoint from determinism's ``_WALL_CLOCKS`` — those are DET003's.
_SAMPLING_CALLS = {
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
    "resource.getrusage",
    "resource.getpagesize",
}


@module_rule(
    "OBS001",
    "adhoc-sampling",
    Severity.ERROR,
    "CPU-time/rusage sampling outside repro.obs",
)
def check_adhoc_sampling(module) -> Iterator[Finding]:
    if module.modname.startswith("repro.obs"):
        return
    aliases = module.aliases
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = resolve_origin(node.func, aliases)
        if origin in _SAMPLING_CALLS:
            yield Finding(
                rule="OBS001",
                severity=Severity.ERROR,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{origin}() outside repro.obs — sample through "
                    "repro.obs.resource so measurements land in the "
                    "shared metric registry instead of one-off probes"
                ),
            )
