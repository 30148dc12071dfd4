"""Shared fixtures and tiny-cluster factories for the test suite."""

from __future__ import annotations

import pytest

from repro import aceso_config, fusee_config
from repro.core.store import AcesoCluster
from repro.sim import Environment


def small_cluster_kwargs(**overrides):
    """A cluster geometry small enough for unit tests to run in ms."""
    base = dict(num_cns=2, clients_per_cn=1, index_buckets=256,
                blocks_per_mn=64, kv_size=256, block_size=8 * 1024)
    base.update(overrides)
    return base


def make_aceso(**overrides) -> AcesoCluster:
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs(**overrides)))
    cluster.start()
    return cluster


def make_fusee(replication_factor: int = 3, **overrides):
    from repro.baselines.fusee import FuseeCluster

    cluster = FuseeCluster(fusee_config(
        replication_factor=replication_factor,
        **small_cluster_kwargs(**overrides),
    ))
    cluster.start()
    return cluster


def cached(cache, key):
    """The entry ``cache.lookup(key)`` would return, read without counting
    a hit or moving it to the MRU end."""
    return cache._entries.get(key)


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def aceso() -> AcesoCluster:
    return make_aceso()


@pytest.fixture
def fusee():
    return make_fusee()
