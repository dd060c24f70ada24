"""Rule modules; importing this package registers every rule.

Rule id blocks:

* ``DET0xx`` — determinism (RNG seeding, wall clocks, set ordering)
* ``LAY0xx`` — layering / import-graph DAG
* ``KER0xx`` — DP-kernel and general hygiene
* ``OBS0xx`` — observability (sampling locality)
* ``PAR0xx`` — parallel-dispatch buffer bounds
* ``FLOW0xx`` — what crosses the process boundary (registered from
  :mod:`repro.analysis.flow.rules`, which owns the call graph)
* ``RES0xx`` — resilience / recovery-path hygiene
* ``SUP0xx`` / ``PARSE`` — engine-reserved (see ``registry.ENGINE_RULES``)
"""

from . import (  # noqa: F401
    determinism,
    kernel,
    layering,
    obs,
    parallel,
    resilience,
)
