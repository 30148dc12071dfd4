"""Aceso (SOSP 2024) reproduction.

A fault-tolerant key-value store on (simulated) disaggregated memory:
differential checkpointing + slot/index versioning for the index, offline
erasure coding with delta-based space reclamation for KV pairs, and tiered
failure recovery — compared against a FUSEE-style replication baseline.

Quickstart::

    from repro import AcesoCluster, aceso_config

    cluster = AcesoCluster(aceso_config())
    cluster.start()
    client = cluster.clients[0]
    cluster.run_op(client.insert(b"hello", b"world"))
    value = cluster.run_op(client.search(b"hello"))
"""

from .config import (
    ClusterConfig,
    SystemConfig,
    aceso_config,
    factor_config,
    fusee_config,
)
from .core.store import AcesoCluster
from .errors import (
    AllocationError,
    CodingError,
    ConfigError,
    IndexFullError,
    KeyNotFoundError,
    NodeFailedError,
    RecoveryError,
    ReproError,
    RetryBudgetExceeded,
)

__version__ = "1.0.0"

__all__ = [
    "AcesoCluster",
    "ClusterConfig",
    "SystemConfig",
    "aceso_config",
    "factor_config",
    "fusee_config",
    "AllocationError",
    "CodingError",
    "ConfigError",
    "IndexFullError",
    "KeyNotFoundError",
    "NodeFailedError",
    "RecoveryError",
    "ReproError",
    "RetryBudgetExceeded",
    "__version__",
]
