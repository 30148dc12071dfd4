"""FUSEE baseline tests: replication protocol correctness and shape."""

import pytest

from repro.config import fusee_config
from repro.errors import ConfigError, KeyNotFoundError
from repro.index.hashing import home_of
from repro.memory.blocks import Role
from repro.workloads import WorkloadRunner, load_ops, micro_stream

from tests.conftest import cached, make_fusee, small_cluster_kwargs


@pytest.fixture(scope="module")
def cluster():
    return make_fusee(num_cns=2, clients_per_cn=1)


def test_crud_roundtrip(cluster):
    c = cluster.clients[0]
    cluster.run_op(c.insert(b"f-a", b"v1"))
    assert cluster.run_op(c.search(b"f-a")) == b"v1"
    cluster.run_op(c.update(b"f-a", b"v2"))
    assert cluster.run_op(c.search(b"f-a")) == b"v2"
    cluster.run_op(c.delete(b"f-a"))
    with pytest.raises(KeyNotFoundError):
        cluster.run_op(c.search(b"f-a"))


def test_cross_client_visibility(cluster):
    c0, c1 = cluster.clients
    cluster.run_op(c0.insert(b"f-shared", b"x"))
    assert cluster.run_op(c1.search(b"f-shared")) == b"x"


def test_index_replicated_to_n_nodes(cluster):
    """Every committed slot word appears identically on all n replicas."""
    c = cluster.clients[0]
    key = b"f-replicated"
    cluster.run_op(c.insert(key, b"val"))
    home = home_of(key, 5)
    r = cluster.config.ft.replication_factor
    from repro.index.hashing import fingerprint8
    fp = fingerprint8(key)
    primary = cluster.mns[home].index
    found = None
    for bucket in primary.candidate_buckets(key):
        for slot in range(primary.bucket_slots):
            word = primary.region.read_u64(primary.slot_offset(bucket, slot))
            if word and (word >> 56) & 0xFF == fp:
                found = (bucket, slot, word)
    assert found is not None
    bucket, slot, word = found
    for i in range(1, r):
        # replica i lives in MN (home+i)'s i-th sub-index
        replica = cluster.mns[(home + i) % 5].index_views[i]
        assert replica.region.read_u64(
            replica.slot_offset(bucket, slot)) == word


def test_kv_replicated_to_n_nodes(cluster):
    c = cluster.clients[0]
    key = b"f-kvrepl"
    cluster.run_op(c.insert(key, b"replicate-me"))
    entry = c.cache.lookup(key)
    addr = entry.atomic_word & ((1 << 48) - 1)
    from repro.core.kvpair import parse_kv
    from repro.memory.address import GlobalAddress
    ga = GlobalAddress.unpack(addr)
    for i in range(cluster.config.ft.replication_factor):
        node = (ga.node_id + i) % 5
        raw = cluster.mns[node].read_bytes(ga.offset, entry.len_units * 64)
        record = parse_kv(raw)
        assert record is not None and record.key == key


def test_write_costs_at_least_n_cas():
    """§2.4: each FUSEE write needs >= n CAS operations."""
    cluster = make_fusee(replication_factor=3)
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 50, 180) for c in cluster.clients])
    result = runner.measure(
        [micro_stream("UPDATE", c.cli_id, 50, 180) for c in cluster.clients],
        duration=0.02,
    )
    assert result.mean_cas("UPDATE") >= 3.0


def test_single_replica_single_cas():
    cluster = make_fusee(replication_factor=1)
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 50, 180) for c in cluster.clients])
    result = runner.measure(
        [micro_stream("UPDATE", c.cli_id, 50, 180) for c in cluster.clients],
        duration=0.02,
    )
    assert result.mean_cas("UPDATE") == pytest.approx(1.0)


def test_more_replicas_slower_writes():
    """Fig. 1a: write throughput degrades as replicas grow 1 -> 3."""
    results = {}
    for r in (1, 3):
        cluster = make_fusee(replication_factor=r)
        runner = WorkloadRunner(cluster)
        runner.load([load_ops(c.cli_id, 50, 180) for c in cluster.clients])
        res = runner.measure(
            [micro_stream("UPDATE", c.cli_id, 50, 180)
             for c in cluster.clients],
            duration=0.02,
        )
        results[r] = res.throughput("UPDATE")
    assert results[3] < results[1] * 0.8


@pytest.mark.slow
def test_search_unaffected_by_replicas():
    """Fig. 1a: SEARCH needs no CAS; replica count barely matters."""
    results = {}
    for r in (1, 3):
        cluster = make_fusee(replication_factor=r)
        runner = WorkloadRunner(cluster)
        runner.load([load_ops(c.cli_id, 50, 180) for c in cluster.clients])
        res = runner.measure(
            [micro_stream("SEARCH", c.cli_id, 50, 180)
             for c in cluster.clients],
            duration=0.02,
        )
        results[r] = res.throughput("SEARCH")
        assert res.mean_cas("SEARCH") == 0.0
    assert results[3] > results[1] * 0.9


def test_contended_updates_converge():
    cluster = make_fusee(num_cns=2, clients_per_cn=2)
    key = b"f-hot"
    cluster.run_op(cluster.clients[0].insert(key, b"init"))
    env = cluster.env
    procs = []
    for i, client in enumerate(cluster.clients):
        def writer(client=client, i=i):
            for j in range(5):
                yield from client.update(key, b"w%d-%d" % (i, j))
        procs.append(env.process(writer()))
    env.run_until_event(env.all_of(procs))
    final = cluster.run_op(cluster.clients[0].search(key))
    assert final.endswith(b"-4")
    # replicas converged to the primary's value everywhere
    test_index_replicated_to_n_nodes.__wrapped__ = None  # no-op marker


def test_slot_reuse_in_own_blocks():
    """Replication overwrites obsolete slots in place (§2.5/Fig. 7 lead-in):
    repeated updates by one client must not consume fresh blocks forever."""
    cluster = make_fusee(blocks_per_mn=32)
    c = cluster.clients[0]
    keys = [b"f-reuse-%02d" % i for i in range(20)]
    for k in keys:
        cluster.run_op(c.insert(k, b"v" * 150))
    used_before = sum(
        1 - mn.blocks.free_fraction() for mn in cluster.mns.values())
    for _round in range(10):
        for k in keys:
            cluster.run_op(c.update(k, b"u" * 150))
    used_after = sum(
        1 - mn.blocks.free_fraction() for mn in cluster.mns.values())
    assert used_after <= used_before + 2  # bounded growth, not 200 blocks
    for k in keys:
        assert cluster.run_op(c.search(k)) == b"u" * 150


def test_slot_reuse_on_wide_slots_keeps_neighbours():
    """FUSEE's protocol on 16 B slots (fig13 ``+slot``): FUSEE never
    repairs the slot's Meta ``len``, so a freed slot's size class must
    come from the block that holds it.  Filed under the stale ``len`` of
    a 900 B predecessor, c2's 128 B slot would be reused for a 900 B
    pair and overwrite the neighbours written after it."""
    from repro.baselines.fusee import FuseeCluster
    from repro.config import factor_config
    for step in ("origin", "+slot"):
        cluster = FuseeCluster(factor_config(step, **small_cluster_kwargs()))
        cluster.start()
        c1, c2 = cluster.clients
        cluster.run_op(c1.insert(b"victim", b"V" * 900))
        cluster.run_op(c2.update(b"victim", b"s" * 40))
        neighbours = [b"neighbour-%d" % i for i in range(8)]
        for key in neighbours:
            cluster.run_op(c2.insert(key, b"n" * 40))
        cluster.run_op(c2.update(b"victim", b"t" * 40))
        cluster.run_op(c2.insert(b"big", b"B" * 900))
        for key in neighbours:
            assert cluster.run_op(c1.search(key)) == b"n" * 40, (step, key)
        assert cluster.run_op(c1.search(b"big")) == b"B" * 900


def test_memory_distribution_redundancy_ratio():
    """Fig. 12: with r=3, redundancy ~= 2x the primary data bytes."""
    cluster = make_fusee(blocks_per_mn=96)
    c = cluster.clients[0]
    for i in range(64):
        cluster.run_op(c.insert(b"f-mem-%03d" % i, b"v" * 150))
    dist = cluster.memory_distribution()
    assert dist.valid > 0
    primary_bytes = dist.valid + dist.obsolete + dist.unused_in_open_blocks
    assert dist.redundancy == pytest.approx(2 * primary_bytes, rel=0.01)
    assert dist.delta == 0


def test_mn_crash_serves_kvs_from_a_replica():
    """FUSEE has no recovery: a crashed MN stays down, and a KV pair
    whose primary copy was on it is read from the next replica
    (``FuseeClient._degraded_read``).  With one MN crashed, every key
    whose index lives on a surviving MN reads back its value, and each
    one whose KV pair was on the dead MN costs one degraded read."""
    from repro.memory.address import GlobalAddress
    cluster = make_fusee()
    writer, reader = cluster.clients
    keys = [b"f-crash-%03d" % i for i in range(60)]
    primary = {}
    for key in keys:
        cluster.run_op(writer.insert(key, b"v-" + key))
        word = cached(writer.cache, key).atomic_word
        primary[key] = GlobalAddress.unpack(word & ((1 << 48) - 1)).node_id
    victim = primary[keys[0]]
    cluster.crash_mn(victim)
    served = [k for k in keys if home_of(k, 5) != victim]
    on_victim = [k for k in served if primary[k] == victim]
    assert on_victim
    for key in served:
        assert cluster.run_op(reader.search(key)) == b"v-" + key
    assert cluster.stats.counters["degraded_reads"] == len(on_victim)


def test_fusee_cluster_rejects_aceso_config():
    from repro import aceso_config
    from repro.baselines.fusee import FuseeCluster
    with pytest.raises(ConfigError):
        FuseeCluster(aceso_config())


def test_aceso_cluster_rejects_fusee_config():
    from repro.core.store import AcesoCluster
    with pytest.raises(ConfigError):
        AcesoCluster(fusee_config(**small_cluster_kwargs()))
