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


#: Case ids of the ``env`` fixture.  The engine once had four interchangeable
#: event-queue backends and this fixture ran every engine test once per
#: backend; the queue is now a single heapq inside Environment.  The ids
#: are kept so every case keeps its name, and each builds the same
#: Environment.
ENV_IDS = ["adaptive", "calendar", "flatheap", "heapq"]


@pytest.fixture(params=ENV_IDS)
def env(request) -> Environment:
    return Environment()


@pytest.fixture
def aceso() -> AcesoCluster:
    return make_aceso()


@pytest.fixture
def fusee():
    return make_fusee()
