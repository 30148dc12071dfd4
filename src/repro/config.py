"""Configuration for clusters, NICs, and the two systems under test.

The defaults mirror the paper's testbed *scaled down* so that simulations
finish in seconds of wall-clock time: the CloudLab cluster had 5 MNs, 23 CNs
with 184 clients, 2 MB blocks and a 240 GB pool; we keep the ratios and the
protocol constants (coding-group size 5, replication factor 3, checkpoint
interval 500 ms) but shrink counts and block sizes.  Every benchmark states
the config it runs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError

__all__ = [
    "NICConfig",
    "CPUConfig",
    "CodingConfig",
    "CheckpointConfig",
    "ReclamationConfig",
    "FaultToleranceConfig",
    "ClusterConfig",
    "SystemConfig",
    "aceso_config",
    "fusee_config",
    "factor_config",
]

KIB = 1024


@dataclass
class NICConfig:
    """RNIC model: a FIFO pipeline with an IOPS bound and a bandwidth bound.

    A verb of ``size`` bytes occupies the NIC for
    ``max(1 / iops, size / bandwidth)`` seconds, so small verbs are
    IOPS-bound and large transfers are bandwidth-bound — the asymmetry the
    paper's §2.4 builds on.

    The defaults are the paper's ConnectX-3 scaled down (~10x on verb
    rates) so that the handful of simulated clients used by tests and
    benchmarks drives the NICs at the same operating point as the paper's
    184 clients drive real NICs: **writes are IOPS/atomic-bound with
    bandwidth headroom** (§2.4: "the main bottleneck for write requests
    is the IOPS bound rather than bandwidth") and reads below saturation.
    """

    iops: float = 3e6                 # small-verb rate (verbs/s)
    #: RDMA atomics are far slower than small reads/writes on real RNICs
    #: (a PCIe read-modify-write per CAS/FAA) — this is the IOPS bound
    #: §2.4's replication analysis rests on.
    atomic_iops: float = 0.75e6
    bandwidth: float = 6e9            # wire bandwidth (bytes/s)
    rtt: float = 1.5e-6               # propagation round trip (s)
    inline_max: int = 256             # WRITEs <= this skip the src DMA read


@dataclass
class CPUConfig:
    """Memory-node server CPU model (4 cores, as assigned in §4.1).

    Rates are bytes/s for streaming kernels; the XOR/RS ratio follows the
    paper's ISA-L measurement (Table 2: 20.6 vs 12.6 GB/s).
    """

    xor_rate: float = 20.6e9          # XOR encode/decode throughput
    rs_rate: float = 12.6e9           # Reed-Solomon encode/decode throughput
    memcpy_rate: float = 30e9         # checkpoint snapshot copy
    compress_rate: float = 4e9        # LZ4-class compression
    decompress_rate: float = 8e9
    scan_rate: float = 20e6           # KV pairs scanned per second (recovery)
    rpc_handle_time: float = 2e-6     # per-RPC CPU time on the serving core


@dataclass
class CodingConfig:
    """Erasure-coding layout: stripes of *k* DATA + *m* PARITY blocks placed
    on distinct MNs of one coding group."""

    codec: str = "xor"                # "xor" (X-Code family) or "rs"
    k: int = 3                        # data blocks per stripe
    m: int = 2                        # parity blocks per stripe
    group_size: int = 5               # MNs per coding group (n = k + m)

    def validate(self) -> None:
        if self.codec not in ("xor", "rs"):
            raise ConfigError(f"unknown codec {self.codec!r}")
        if self.k < 1 or self.m < 1:
            raise ConfigError("need k >= 1 data and m >= 1 parity blocks")
        if self.k + self.m != self.group_size:
            raise ConfigError(
                f"stripe width k+m={self.k + self.m} must equal "
                f"coding group size {self.group_size}"
            )
        if self.codec == "xor" and self.m != 2:
            raise ConfigError("XOR array code needs exactly 2 parities")


@dataclass
class CheckpointConfig:
    """Differential index checkpointing (§3.2.1)."""

    interval: float = 0.5             # seconds between rounds (paper: 500 ms)
    #: "zlib" (level 1, the paper's LZ4 stand-in) or "none" (the
    #: no-compression ablation).  The codec's name lands in bench metadata.
    compression: str = "zlib"
    #: Extra bytes appended to every shipped checkpoint (Fig. 1b's
    #: bandwidth-interference experiment varies this).
    extra_bytes: int = 0


@dataclass
class ReclamationConfig:
    """Delta-based space reclamation thresholds (§3.3.3)."""

    block_obsolete_ratio: float = 0.75   # reclaim blocks >= this fraction dead
    free_space_ratio: float = 0.25       # ...when MN free space below this
    bitmap_flush_interval: float = 0.01  # client bitmap RPC batching period


@dataclass
class FaultToleranceConfig:
    """Which mechanism protects each component.

    The factor-analysis presets of Fig. 13 are expressed here:

    * ORIGIN  — compact slots, replicated index, replicated KVs, value cache
    * +SLOT   — wide (16 B) slots, otherwise ORIGIN
    * +CKPT   — wide slots, checkpointed index, erasure-coded KVs
    * +CACHE  — +CKPT plus the addr+value cache (full Aceso)
    """

    #: "checkpoint" pairs with erasure-coded KVs (Aceso), "replication"
    #: with replicated KVs (FUSEE).
    index_mode: str = "checkpoint"       # "checkpoint" | "replication"
    slot_format: str = "wide16"          # "wide16" | "compact8"
    cache_policy: str = "addr_value"     # "addr_value" | "value_only"
    replication_factor: int = 3          # for the replication modes

    def validate(self) -> None:
        if self.index_mode not in ("checkpoint", "replication"):
            raise ConfigError(f"bad index_mode {self.index_mode!r}")
        if self.slot_format not in ("wide16", "compact8"):
            raise ConfigError(f"bad slot_format {self.slot_format!r}")
        if self.cache_policy not in ("addr_value", "value_only"):
            raise ConfigError(f"bad cache_policy {self.cache_policy!r}")
        if self.index_mode == "checkpoint" and self.slot_format != "wide16":
            raise ConfigError("checkpointed index requires wide16 slots "
                              "(slot versions live in the extra 8 bytes)")
        if self.replication_factor < 1:
            raise ConfigError("replication_factor must be >= 1")


@dataclass
class ClusterConfig:
    """Topology and memory geometry (scaled-down defaults)."""

    num_mns: int = 5
    num_cns: int = 4
    clients_per_cn: int = 4
    block_size: int = 64 * KIB           # paper: 2 MB
    blocks_per_mn: int = 256             # Block Area capacity per MN
    index_buckets: int = 512             # buckets per MN index
    bucket_slots: int = 8                # slots per bucket (RACE-style)
    kv_size: int = 256                   # default KV pair size (paper: 1 KB)
    nic: NICConfig = field(default_factory=NICConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)

    def validate(self) -> None:
        if self.num_mns < 1 or self.num_cns < 1 or self.clients_per_cn < 1:
            raise ConfigError("cluster needs at least one of each node kind")
        if self.block_size <= 0 or self.block_size % 64:
            raise ConfigError("block_size must be a positive multiple of 64")
        if self.kv_size <= 0 or self.kv_size % 64:
            raise ConfigError("kv_size must be a positive multiple of 64 "
                              "(the index length field counts 64 B units)")
        if self.kv_size > self.block_size:
            raise ConfigError("kv_size larger than block_size")
        if self.index_buckets & (self.index_buckets - 1):
            raise ConfigError("index_buckets must be a power of two")


@dataclass
class SystemConfig:
    """Everything needed to build one system under test."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    ft: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)
    coding: CodingConfig = field(default_factory=CodingConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    reclamation: ReclamationConfig = field(default_factory=ReclamationConfig)
    seed: int = 42
    name: str = "aceso"

    def validate(self) -> None:
        self.cluster.validate()
        self.ft.validate()
        self.coding.validate()
        if self.ft.index_mode == "checkpoint" \
                and self.coding.group_size > self.cluster.num_mns:
            raise ConfigError(
                f"coding group of {self.coding.group_size} MNs does not fit "
                f"a cluster of {self.cluster.num_mns} MNs"
            )
        if self.ft.index_mode == "replication" and \
                self.ft.replication_factor > self.cluster.num_mns:
            raise ConfigError("more index replicas than MNs")


def aceso_config(**cluster_overrides) -> SystemConfig:
    """Full Aceso: checkpointed index + erasure-coded KVs + addr+value cache."""
    cfg = SystemConfig(name="aceso")
    if cluster_overrides:
        cfg = replace(cfg, cluster=replace(cfg.cluster, **cluster_overrides))
    cfg.validate()
    return cfg


def fusee_config(replication_factor: int = 3, **cluster_overrides) -> SystemConfig:
    """FUSEE baseline: replicated index + replicated KVs + value-only cache."""
    ft = FaultToleranceConfig(
        index_mode="replication",
        slot_format="compact8",
        cache_policy="value_only",
        replication_factor=replication_factor,
    )
    cfg = SystemConfig(ft=ft, name=f"fusee-r{replication_factor}")
    if cluster_overrides:
        cfg = replace(cfg, cluster=replace(cfg.cluster, **cluster_overrides))
    cfg.validate()
    return cfg


_FACTOR_PRESETS = {
    # Fig. 13: step-by-step evolution from FUSEE to Aceso.
    "origin": dict(index_mode="replication", slot_format="compact8",
                   cache_policy="value_only"),
    "+slot": dict(index_mode="replication", slot_format="wide16",
                  cache_policy="value_only"),
    "+ckpt": dict(index_mode="checkpoint", slot_format="wide16",
                  cache_policy="value_only"),
    "+cache": dict(index_mode="checkpoint", slot_format="wide16",
                   cache_policy="addr_value"),
}


def factor_config(step: str, **cluster_overrides) -> SystemConfig:
    """Config preset for one step of the Fig. 13 factor analysis."""
    try:
        ft_kwargs = _FACTOR_PRESETS[step]
    except KeyError:
        raise ConfigError(
            f"unknown factor step {step!r}; choose from {sorted(_FACTOR_PRESETS)}"
        ) from None
    cfg = SystemConfig(ft=FaultToleranceConfig(**ft_kwargs), name=f"factor{step}")
    if cluster_overrides:
        cfg = replace(cfg, cluster=replace(cfg.cluster, **cluster_overrides))
    cfg.validate()
    return cfg
