"""Tests for configuration validation and presets."""

import pytest

from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    CodingConfig,
    FaultToleranceConfig,
    SystemConfig,
    aceso_config,
    factor_config,
    fusee_config,
    paper_scale,
)
from repro.errors import ConfigError


def test_default_aceso_valid():
    cfg = aceso_config()
    assert cfg.ft.index_mode == "checkpoint"
    assert cfg.coding.k + cfg.coding.m == cfg.coding.group_size


def test_fusee_preset():
    cfg = fusee_config(replication_factor=3)
    assert cfg.ft.index_mode == "replication"
    assert cfg.ft.slot_format == "compact8"
    assert cfg.ft.cache_policy == "value_only"
    assert cfg.name == "fusee-r3"


def test_cluster_overrides():
    cfg = aceso_config(num_cns=7, kv_size=512)
    assert cfg.cluster.num_cns == 7
    assert cfg.cluster.kv_size == 512


def test_factor_presets_cover_fig13():
    steps = ["origin", "+slot", "+ckpt", "+cache"]
    configs = {s: factor_config(s) for s in steps}
    assert configs["origin"].ft.slot_format == "compact8"
    assert configs["+slot"].ft.slot_format == "wide16"
    assert configs["+slot"].ft.index_mode == "replication"
    assert configs["+ckpt"].ft.index_mode == "checkpoint"
    assert configs["+ckpt"].ft.cache_policy == "value_only"
    assert configs["+cache"].ft.cache_policy == "addr_value"


def test_factor_unknown_step():
    with pytest.raises(ConfigError):
        factor_config("origin++")


def test_coding_validation():
    with pytest.raises(ConfigError):
        CodingConfig(codec="lrc").validate()
    with pytest.raises(ConfigError):
        CodingConfig(k=4, m=2, group_size=5).validate()
    with pytest.raises(ConfigError):
        CodingConfig(codec="xor", k=2, m=3, group_size=5).validate()


def test_ft_validation():
    with pytest.raises(ConfigError):
        FaultToleranceConfig(index_mode="raid").validate()
    for field in ("index_mode", "cache_policy"):
        with pytest.raises(ConfigError):
            FaultToleranceConfig(**{field: "none"}).validate()
    with pytest.raises(ConfigError):
        FaultToleranceConfig(index_mode="checkpoint",
                             slot_format="compact8").validate()
    with pytest.raises(ConfigError):
        FaultToleranceConfig(replication_factor=0).validate()


def test_cluster_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(block_size=100).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(kv_size=100).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(kv_size=1 << 20, block_size=1 << 16).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(index_buckets=100).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(num_mns=0).validate()


def test_system_cross_validation():
    cfg = SystemConfig()
    cfg.cluster.num_mns = 3  # smaller than the coding group
    with pytest.raises(ConfigError):
        cfg.validate()


def test_replication_factor_bounded_by_mns():
    cfg = fusee_config()
    cfg.ft.replication_factor = 99
    with pytest.raises(ConfigError):
        cfg.validate()


def test_num_clients():
    cfg = ClusterConfig(num_cns=3, clients_per_cn=4)
    assert cfg.num_clients == 12


def test_paper_scale_geometry():
    paper = paper_scale()
    assert paper.num_mns == 5
    assert paper.num_cns == 23
    assert paper.clients_per_cn == 8
    assert paper.num_clients == 184
    assert paper.block_size == 2 * 1024 * 1024
    # 240 GB pool split over 5 MNs
    assert paper.blocks_per_mn * paper.block_size == 48 * (1 << 30)


def test_derive_replaces_fields():
    cfg = aceso_config()
    derived = cfg.derive(seed=99, name="variant")
    assert derived.seed == 99
    assert cfg.seed != 99
    assert derived.cluster is cfg.cluster


def test_checkpoint_defaults_match_paper():
    ck = CheckpointConfig()
    assert ck.interval == pytest.approx(0.5)  # 500 ms
    assert ck.extra_bytes == 0
