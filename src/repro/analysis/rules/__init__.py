"""Rule modules; importing this package registers every rule.

Rule id blocks:

* ``DET0xx`` — determinism (RNG seeding, wall clocks, set ordering)
* ``KER0xx`` — DP-kernel and general hygiene
* ``OBS0xx`` — observability (sampling locality)
* ``PAR0xx`` / ``FLOW002`` — parallel dispatch: buffer bounds, arguments
  mutated after submission
* ``RES0xx`` — resilience / recovery-path hygiene
* ``SUP0xx`` / ``PARSE`` — engine-reserved (see ``registry.ENGINE_RULES``)

Retired ids, and where each invariant is guarded now, are
``registry.RETIRED_RULES``.
"""

from . import (  # noqa: F401
    determinism,
    kernel,
    obs,
    parallel,
    resilience,
)
