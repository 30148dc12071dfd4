"""Request, tenant, and configuration types of the serving front-end."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError

__all__ = ["FrontEndConfig", "Request", "TenantSpec"]


@dataclass
class FrontEndConfig:
    """Tuning knobs of the serving layer.

    A write is acknowledged at Aceso's commit CAS: checkpointing, Slot
    Versions and erasure coding make it durable there, so the front-end
    adds no fabric work of its own to the ack path.
    """

    #: Target queueing+service latency; the adaptive batcher lingers at
    #: most a quarter of this waiting for a batch to fill.
    latency_target: float = 24e-6
    max_batch: int = 16
    #: Per-lane (per-CN) value-cache entries; 0 disables the cache.
    cache_capacity: int = 4096
    #: Local service time of a front-end cache hit (no fabric traffic).
    cache_hit_time: float = 0.3e-6

    def validate(self) -> None:
        if self.latency_target <= 0 or self.max_batch < 1:
            raise ConfigError("latency_target/max_batch out of range")


@dataclass
class TenantSpec:
    """One tenant's traffic contract and SLO targets."""

    name: str
    trace: str                  # Twitter mix: STORAGE / COMPUTE / TRANSIENT
    rate: float                 # open-loop arrival rate (req/s)
    max_in_flight: int = 64     # admission cap; excess requests are shed
    slo_p50_us: float = 50.0
    slo_p99_us: float = 200.0
    slo_p999_us: float = 500.0


@dataclass
class Request:
    """One in-flight front-end request.

    ``done`` triggers with the result value (SEARCH) or None; it fails
    with the terminal exception on error/shed.  ``outcome`` is one of
    "ok", "miss", "hit", "shed", "error" once settled.
    """

    tenant: str
    verb: str
    key: bytes
    value: bytes
    t_submit: float
    done: object = None
    outcome: Optional[str] = None
    shed: bool = False
    rerouted: bool = field(default=False, compare=False)
