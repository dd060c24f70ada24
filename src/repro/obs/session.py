"""One telemetry bundle threaded from the CLI down to the engine.

:class:`TelemetryOptions` is the observability counterpart of
:class:`~repro.resilience.policy.ResilienceOptions`: a single object
carrying the progress sink, the shared metric registry, the optional
worker-profiling directory and (once :meth:`ensure_bus` runs) the
heartbeat bus.  The pipelines accept it as one optional parameter;
passing nothing keeps every hot path on the allocation-free null
objects.

Lifecycle: the owner (CLI command, daemon, test) creates the options,
calls :meth:`ensure_bus` before the pool is built if workers should
beat, and afterwards takes :meth:`summary` for the run report and
calls :meth:`close`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from .bus import TelemetryBus
from .metrics import MetricRegistry
from .progress import NO_PROGRESS

__all__ = ["TelemetryOptions"]


@dataclass
class TelemetryOptions:
    """Progress + metrics + heartbeat bus + profiling knobs for one run.

    ``profile_dir`` turns on cProfile capture in every worker via the
    pool initializer.  ``heartbeat_interval`` (seconds) makes every
    pool worker publish liveness beats over the bus — the serving
    daemon's hang sentinel reads them through a
    :class:`~repro.obs.bus.HeartbeatMonitor`.
    """

    progress: object = NO_PROGRESS
    registry: MetricRegistry = field(default_factory=MetricRegistry)
    profile_dir: Union[str, Path, None] = None
    bus: Optional[TelemetryBus] = None
    heartbeat_interval: Optional[float] = None

    def ensure_bus(self) -> TelemetryBus:
        """Create the bus on first use."""
        if self.bus is None:
            self.bus = TelemetryBus()
        return self.bus

    def summary(self) -> Dict:
        return {"metrics": self.registry.as_dict()}

    def close(self) -> None:
        if self.bus is not None:
            self.bus.close()
            self.bus = None
