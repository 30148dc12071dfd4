"""Failure handling and tiered recovery (§3.4)."""

import pytest

from repro.cluster.master import MnState
from repro.errors import KeyNotFoundError
from repro.index.hashing import home_of
from repro.workloads import WorkloadRunner, load_ops, micro_stream
from repro.workloads.micro import micro_key

from tests.conftest import make_aceso


def loaded_cluster(keys_per_client=120, **overrides):
    cluster = make_aceso(**overrides)
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, keys_per_client, 180)
                 for c in cluster.clients])
    return cluster, runner, keys_per_client


def snapshot(cluster, n_keys):
    reader = cluster.clients[0]
    out = {}
    for client in cluster.clients:
        for i in range(n_keys):
            key = micro_key(client.cli_id, i)
            try:
                out[key] = cluster.run_op(reader.search(key))
            except KeyNotFoundError:
                out[key] = None
    return out


def verify(cluster, expected):
    reader = cluster.clients[0]
    mismatches = []
    for key, value in expected.items():
        try:
            got = cluster.run_op(reader.search(key))
        except KeyNotFoundError:
            got = None
        if got != value:
            mismatches.append(key)
    return mismatches


def crash_and_recover(cluster, node_id, limit=120.0):
    cluster.crash_mn(node_id)
    done = cluster.master.milestone(node_id, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + limit)
    return cluster._recovery.reports[-1]


# ---------------------------------------------------------------- MN crash

def test_mn_recovery_preserves_all_data():
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    crash_and_recover(cluster, 1)
    assert verify(cluster, expected) == []


def test_mn_recovery_after_updates_past_checkpoint():
    """Slot/index versioning (§3.2.2-3.2.3): updates committed after the
    last checkpoint survive via the KV-pair replay."""
    cluster, runner, n = loaded_cluster()
    # force at least one checkpoint round so there is a base image
    cluster.run(cluster.env.now + 0.6)
    c = cluster.clients[0]
    post_ckpt = {}
    for i in range(40):
        key = micro_key(c.cli_id, i)
        value = b"post-ckpt-%d" % i
        cluster.run_op(c.update(key, value))
        post_ckpt[key] = value
    crash_and_recover(cluster, 2)
    assert verify(cluster, post_ckpt) == []


def test_mn_recovery_is_tiered():
    cluster, runner, n = loaded_cluster()
    report = crash_and_recover(cluster, 0)
    assert report.meta_done_at <= report.index_done_at <= report.blocks_done_at
    assert report.total_time > 0
    row = report.row()
    assert row["total_ms"] > 0


def test_writes_resume_after_index_milestone():
    cluster, runner, n = loaded_cluster()
    victim = 3
    cluster.crash_mn(victim)
    env = cluster.env
    index_done = cluster.master.milestone(victim, MnState.INDEX_RECOVERED)
    env.run_until_event(index_done, limit=env.now + 120)
    # a write whose home is the recovering node commits before full
    # Block-Area recovery completes
    client = cluster.clients[0]
    key = next(b"probe-%d" % i for i in range(1000)
               if home_of(b"probe-%d" % i, 5) == victim)
    t0 = env.now
    cluster.run_op(client.insert(key, b"written-degraded"))
    assert cluster.run_op(client.search(key)) == b"written-degraded"
    assert env.now - t0 < 1.0


def test_recovered_index_points_to_highest_version():
    cluster, runner, n = loaded_cluster()
    c = cluster.clients[0]
    key = micro_key(c.cli_id, 0)
    for i in range(20):
        cluster.run_op(c.update(key, b"version-%02d" % i))
    home = home_of(key, 5)
    crash_and_recover(cluster, home)
    assert cluster.run_op(c.search(key)) == b"version-19"


def test_deletes_survive_recovery():
    """Tombstones carry slot versions; a deleted key must stay deleted."""
    cluster, runner, n = loaded_cluster()
    c = cluster.clients[0]
    dead = [micro_key(c.cli_id, i) for i in range(10)]
    for key in dead:
        cluster.run_op(c.delete(key))
    home_counts = {home_of(k, 5) for k in dead}
    victim = home_counts.pop()
    crash_and_recover(cluster, victim)
    for key in dead:
        with pytest.raises(KeyNotFoundError):
            cluster.run_op(c.search(key))


def test_recovery_without_checkpoint_image():
    """If the checkpoint holder died too (or no round ran yet), the index
    is rebuilt by scanning every block."""
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim = 1
    # wipe every checkpoint image of the victim before the crash
    for mn in cluster.mns.values():
        mn.ckpt_images.pop(victim, None)
    crash_and_recover(cluster, victim)
    assert verify(cluster, expected) == []


@pytest.mark.slow
def test_crash_during_traffic_and_degraded_reads():
    cluster, runner, n = loaded_cluster(blocks_per_mn=128)
    from repro.cluster.failures import FailureInjector
    injector = FailureInjector(cluster.env, cluster)
    injector.schedule_mn_crash(cluster.env.now + 0.02, 4)
    streams = [micro_stream("SEARCH" if c.cli_id % 2 else "UPDATE",
                            c.cli_id, n, 180)
               for c in cluster.clients]
    result = runner.measure(streams, duration=0.2)
    assert result.total_ops > 0
    done = cluster.master.milestone(4, MnState.RECOVERED)
    if not done.triggered:
        cluster.env.run_until_event(done, limit=cluster.env.now + 120)
    expected_keys = [micro_key(c.cli_id, i)
                     for c in cluster.clients for i in range(n)]
    reader = cluster.clients[0]
    for key in expected_keys:
        cluster.run_op(reader.search(key))  # must not raise


def log_block_reads(cluster):
    """Hook the recovery driver: one (recovery-class bytes posted,
    resolver) pair per lost block whose rebuild reads were issued."""
    recovery, fabric = cluster._recovery, cluster.fabric
    start = recovery._start_block_reads
    reads = []

    def hooked(server, meta, src_nic=None):
        before = fabric.bytes_by_class.get("recovery", 0)
        started = start(server, meta, src_nic)
        if started is not None:
            posted = fabric.bytes_by_class.get("recovery", 0) - before
            reads.append((posted, started[0]))
        return started

    recovery._start_block_reads = hooked
    return reads


def data_blocks(mn):
    from repro.memory.blocks import Role
    return {meta.block_id: bytes(mn.blocks.buffer(meta.block_id))
            for meta in mn.blocks.meta
            if meta.role is Role.DATA and meta.valid}


def test_single_failure_reads_only_the_shards_it_needs():
    """One lost MN is one erasure per stripe, and P alone decodes it: a
    rebuilt block costs the other allocated data shards, the P block and
    the stripe's live delta blocks — the Q parity is neither read nor
    charged — and comes back byte for byte."""
    cluster, runner, n = loaded_cluster()
    from repro.rdma.verbs import WIRE_HEADER
    k = cluster.codec.k
    # an 8 KiB block is one read chunk: one wire header per block
    per_block = cluster.config.cluster.block_size + WIRE_HEADER
    # the MN holding a client's open block: its stripe has a live delta
    victim = next(iter(cluster.clients[0].blocks.all_open())).grant.data_node
    before = data_blocks(cluster.mns[victim])
    reads = log_block_reads(cluster)
    crash_and_recover(cluster, victim)
    assert len(reads) >= len(before) > 0
    for posted, resolver in reads:
        shards, reference = resolver["shards"], resolver["reference"]
        others = [j for j in range(k)
                  if j != resolver["pos"] and reference.data[j] is not None]
        assert all(shards[j] is not None for j in others)
        assert shards[k] is not None and shards[k + 1] is None
        assert posted == (len(others) + 1 + len(resolver["deltas"])) \
            * per_block
    assert max(len(r["deltas"]) for _posted, r in reads) > 0   # open blocks
    assert data_blocks(cluster.mns[victim]) == before


def test_two_mn_failures_recover_sealed_data():
    """X-Code-class stripes tolerate two MN crashes (§3.4.1 remark 2).

    The guarantee covers *sealed* (erasure-coded) data: we load an exact
    multiple of the block capacity so every block seals, then kill two
    MNs — including the victim pair that holds each other's meta replica
    and checkpoint image, exercising both fallback paths.
    """
    # 128 keys/client at slot size 256 with 8 KiB blocks = exactly 4
    # blocks per client, so nothing stays unsealed.
    cluster, runner, n = loaded_cluster(keys_per_client=128)
    cluster.run(cluster.env.now + 0.1)  # drain seal + fold + Q forwards
    expected = snapshot(cluster, n)
    reads = log_block_reads(cluster)
    cluster.crash_mn(1)
    cluster.crash_mn(2)
    for victim in (1, 2):
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    mismatches = verify(cluster, expected)
    assert mismatches == []
    # a second lost shard or a dead P holder still needs the Q parity
    k = cluster.codec.k
    assert any(r["shards"][k + 1] is not None for _posted, r in reads)


def test_two_mn_crash_unsealed_window():
    """Unsealed blocks are protected by their DELTA twin: when the data
    node and the P-parity node *both* die before sealing, those recent
    writes can be lost (see DESIGN.md interpretation note 1) — but every
    sealed KV must still survive."""
    cluster, runner, n = loaded_cluster(keys_per_client=100)  # partial blocks
    cluster.run(cluster.env.now + 0.1)
    cluster.crash_mn(1)
    cluster.crash_mn(2)
    for victim in (1, 2):
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    reader = cluster.clients[0]
    lost = 0
    for client in cluster.clients:
        for i in range(n):
            try:
                cluster.run_op(reader.search(micro_key(client.cli_id, i)))
            except KeyNotFoundError:
                lost += 1
    # only the unsealed tail (at most one open block per client) may be
    # affected
    slots_per_block = cluster.config.cluster.block_size // 256
    assert lost <= slots_per_block * len(cluster.clients)


def test_master_milestones_progress():
    cluster, runner, n = loaded_cluster()
    master = cluster.master
    assert master.mn_state(2) == MnState.ALIVE
    cluster.crash_mn(2)
    assert master.mn_state(2) == MnState.FAILED
    assert not master.mn_writable(2)
    done = master.milestone(2, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 120)
    assert master.mn_writable(2)
    assert master.mn_state(2) == MnState.RECOVERED
    assert master.failure_log


def test_checkpointing_resumes_after_recovery():
    cluster, runner, n = loaded_cluster()
    crash_and_recover(cluster, 1)
    before = cluster.servers[1].ckpt_rounds
    cluster.run(cluster.env.now + 1.2)
    assert cluster.servers[1].ckpt_rounds > before


# ---------------------------------------------------------------- CN crash

def test_cn_crash_restart_preserves_data():
    cluster, runner, n = loaded_cluster()
    victim = cluster.clients[1]
    for i in range(30):
        cluster.run_op(victim.update(micro_key(victim.cli_id, i), b"CN" * 30))
    cluster.crash_cn(victim.cn.node_id)
    new_client, proc = cluster.restart_client(victim)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    reader = cluster.clients[0]
    for i in range(30):
        assert cluster.run_op(
            reader.search(micro_key(victim.cli_id, i))) == b"CN" * 30


def test_cn_crash_torn_write_rolled_back():
    """§3.4.2: a KV written without its delta is detected by the write
    versions and rolled back, keeping parity folding consistent."""
    cluster, runner, n = loaded_cluster()
    victim = cluster.clients[1]
    # Manufacture a torn state: write KV bytes directly into the open
    # block without the delta (as if the client died between the writes).
    block = victim.blocks.open_block(
        ((cluster.config.cluster.kv_size + 63) // 64) * 64)
    assert block is not None
    slot = block.take_slot()
    from repro.core.kvpair import encode_kv
    kv_addr = block.kv_address(slot)
    torn = encode_kv(b"torn-key", b"torn-value", 99,
                     block.size_class.slot_size)
    cluster.mns[kv_addr.node_id].write_bytes(kv_addr.offset, torn)
    cluster.crash_cn(victim.cn.node_id)
    new_client, proc = cluster.restart_client(victim)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    # the torn KV slot was zeroed (never committed to the index anyway)
    raw = cluster.mns[kv_addr.node_id].read_bytes(
        kv_addr.offset, block.size_class.slot_size)
    assert raw == bytes(block.size_class.slot_size)


def test_cn_recovery_seals_unfilled_blocks():
    cluster, runner, n = loaded_cluster()
    victim = cluster.clients[1]
    open_blocks = [b.grant for b in victim.blocks.all_open()]
    assert open_blocks
    cluster.crash_cn(victim.cn.node_id)
    new_client, proc = cluster.restart_client(victim)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    cluster.run(cluster.env.now + 0.05)
    for grant in open_blocks:
        meta = cluster.mns[grant.data_node].blocks.meta[grant.data_block]
        assert meta.index_version != 0  # sealed by recovery


def test_mixed_crash_cn_then_mn():
    """§3.4.3: clients restart first, then MN recovery proceeds."""
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim_client = cluster.clients[1]
    cluster.crash_cn(victim_client.cn.node_id)
    new_client, proc = cluster.restart_client(victim_client)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    crash_and_recover(cluster, 2)
    assert verify(cluster, expected) == []


def test_parallel_recovery_workers_preserve_data():
    """Extension (paper's future work): recovery distributed over CN
    workers reconstructs exactly the same state as the single driver."""
    from repro import aceso_config
    from repro.core.store import AcesoCluster
    from tests.conftest import small_cluster_kwargs

    cfg = aceso_config(**small_cluster_kwargs())
    cfg.coding.recovery_workers = 3
    cluster = AcesoCluster(cfg)
    cluster.start()
    runner = WorkloadRunner(cluster)
    n = 128  # exact block multiples: everything seals
    runner.load([load_ops(c.cli_id, n, 180) for c in cluster.clients])
    cluster.run(cluster.env.now + 0.1)
    expected = snapshot(cluster, n)
    report = crash_and_recover(cluster, 1)
    assert verify(cluster, expected) == []
    assert report.total_time > 0


# ------------------------------------------------- crash-timing windows

def test_crash_during_checkpoint_round():
    """A node dying *while shipping its own checkpoint delta* must leave
    a usable chain: the neighbour either holds a consistent older image
    or none at all, and recovery restores every committed KV."""
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim = 1
    server = cluster.servers[victim]
    round_started = server.next_ckpt_round()
    cluster.env.run_until_event(round_started,
                                limit=cluster.env.now + 2.0)
    # the round is mid-flight (snapshot/XOR/ship all take simulated
    # time); kill the checkpointing node before it completes
    report = crash_and_recover(cluster, victim)
    assert verify(cluster, expected) == []
    assert report.total_time > 0


def test_crash_of_checkpoint_holder_mid_round():
    """The *neighbour* (checkpoint holder) dying mid-round: the shipping
    server's loop absorbs the NodeFailedError, the next round restarts
    the delta chain against a new neighbour, and the holder's own
    recovery preserves all data."""
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    shipper = 1
    server = cluster.servers[shipper]
    holder = server._ckpt_neighbor().node_id
    round_started = server.next_ckpt_round()
    cluster.env.run_until_event(round_started,
                                limit=cluster.env.now + 2.0)
    crash_and_recover(cluster, holder)
    # the shipper must still complete a later round cleanly
    next_round = server.next_ckpt_round()
    cluster.env.run_until_event(next_round, limit=cluster.env.now + 2.0)
    cluster.run(cluster.env.now + 0.1)
    assert verify(cluster, expected) == []


def test_crash_during_recovery_restarts_tiers():
    """A second MN dying while the first is mid-recovery: the running
    recovery loses its dependency, wipes the partial restoration, and
    restarts its tiers against the surviving membership (§3.4.1).  All
    sealed data must still come back."""
    # exact block multiples so every block seals (two-failure guarantee
    # covers erasure-coded data; the unsealed tail is a documented window)
    cluster, runner, n = loaded_cluster(keys_per_client=128)
    cluster.run(cluster.env.now + 0.1)  # drain seal + fold + Q forwards
    expected = snapshot(cluster, n)
    first, second = 1, 2
    cluster.crash_mn(first)
    meta_done = cluster.master.milestone(first, MnState.META_RECOVERED)
    cluster.env.run_until_event(meta_done, limit=cluster.env.now + 120)
    # first is mid-recovery (meta tier done, index/blocks pending) when
    # its meta-replica / checkpoint neighbour dies
    cluster.crash_mn(second)
    for victim in (first, second):
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    assert verify(cluster, expected) == []
    assert cluster.master.mn_state(first) == MnState.RECOVERED
    assert cluster.master.mn_state(second) == MnState.RECOVERED


# ------------------------------------------- re-stamped records (conflicts)

def test_restamped_records_survive_each_mn_crash():
    """A contended burst commits KV pairs whose Slot Version was re-stamped
    after a lost CAS, in blocks since sealed and in blocks still open.
    Crashing the MN that holds such a record, the one holding its delta
    and parity, and the key's home MN must each lose nothing: every key
    reads the value last committed, the index walks clean, and every
    block of the crashed MN is rebuilt byte for byte (the delta was
    patched by XOR, so the parity stayed linear)."""
    import random

    from repro.chaos.oracle import walk_index
    from repro.index.slot import INVALID_SLOT_VERSION

    cluster = make_aceso(num_cns=4, clients_per_cn=1, blocks_per_mn=128)
    env = cluster.env
    keys = [b"hot-%d" % i for i in range(6)]
    for key in keys:
        cluster.run_op(cluster.clients[0].insert(key, b"init"))
    restamped = []          # (KV address, delta node) of re-stamp writes

    def record_stamps(client):
        stamp = client._stamp_orphan

        def hooked(orphan, version):
            if version != INVALID_SLOT_VERSION:
                restamped.append((orphan.kv, orphan.delta.node_id))
            return stamp(orphan, version)
        client._stamp_orphan = hooked

    rounds = 70             # > 2 blocks of 32 slots per client
    last = {key: set() for key in keys}   # each writer's final value

    def writer(client):
        rng = random.Random(client.cli_id)
        for j in range(rounds):
            for key in keys:
                value = b"%s-c%d-%03d" % (key, client.cli_id, j)
                yield from client.update(key, value)
                if j == rounds - 1:
                    last[key].add(value)
                yield env.timeout(rng.uniform(0, 4e-6))

    for client in cluster.clients:
        record_stamps(client)
    procs = [env.process(writer(c)) for c in cluster.clients]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []
    cluster.run(env.now + 0.01)          # seals and folds settle
    assert cluster.stats.counters["restamp_retries"] == len(restamped) > 0

    reader = cluster.clients[0]
    expected = {key: cluster.run_op(reader.search(key)) for key in keys}
    for key, value in expected.items():
        assert value in last[key]        # some writer's final update

    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems

    # One re-stamped record in a block since sealed, one in an open block.
    sealed = opened = None
    for kv, delta_node in restamped:
        blocks = cluster.mns[kv.node_id].blocks
        block_id, _intra = blocks.locate(kv.offset)
        if blocks.meta[block_id].is_unfilled():
            opened = (kv.node_id, delta_node)
        else:
            sealed = (kv.node_id, delta_node)
    assert sealed is not None and opened is not None
    homes = tuple(home_of(key, 5) for key in keys[:2])

    for victim in dict.fromkeys(sealed + opened + homes):
        mn = cluster.mns[victim]
        before = data_blocks(mn)
        crash_and_recover(cluster, victim)
        assert verify(cluster, expected) == []
        _versions, problems = walk_index(cluster)
        assert not any(problems.values()), (victim, problems)
        for block_id, content in before.items():
            assert bytes(mn.blocks.buffer(block_id)) == content, \
                (victim, block_id)


# ------------------------------------- refreshed cache entries and crashes

def stale_hot_entry(cluster, key):
    """Leave clients[1] with a cache entry of *key* that it refreshes
    before a write and whose pair is stale (clients[0] wrote since)."""
    from tests.test_core_versioning import hot_entry
    c0, c1 = cluster.clients[:2]
    hot_entry(cluster, key, c0, c1)
    cluster.run_op(c0.update(key, b"two"))
    return c0, c1, c1.cache.peek(key)


@pytest.mark.parametrize("crash_at", ["refresh_in_flight", "before_cas"])
def test_home_crash_around_a_refresh(crash_at):
    """The home MN dies while the refresh READ is in flight (nothing
    written yet) or after it returned and before the commit CAS (KV and
    delta written, CAS posted to a dead node).  Either way the op drops
    the entry, waits for the index, retries through the bucket query and
    commits exactly once; no record of the key is left carrying a version
    the slot has not reached, and the index walks clean."""
    from repro.chaos.oracle import walk_index
    from tests.test_core_versioning import (VerbLog, slot_version_of,
                                            valid_versions)

    cluster, runner, n = loaded_cluster()
    cluster.run(cluster.env.now + 0.6)          # a checkpoint image exists
    key = micro_key(cluster.clients[0].cli_id, 3)
    home = home_of(key, 5)
    c0, c1, _entry = stale_hot_entry(cluster, key)
    before = slot_version_of(cluster, key)
    log = VerbLog(c1)
    cas_won = []
    post_read, post_cas = c1._post_read, c1._post_cas

    def read(node, offset, length):
        event = post_read(node, offset, length)
        if crash_at == "refresh_in_flight" and length == 16 \
                and cluster.mns[home].alive:
            cluster.crash_mn(home)
        return event

    def cas(node, offset, expected, new):
        if crash_at == "before_cas" and cluster.master.mn_incarnation(home) == 0:
            cluster.crash_mn(home)
        event = post_cas(node, offset, expected, new)
        event.add_callback(
            lambda ev: cas_won.append(ev.ok and ev.value[0]))
        return event

    c1._post_read, c1._post_cas = read, cas
    cluster.run_op(c1.update(key, b"after-crash"))
    done = cluster.master.milestone(home, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 120)

    assert log.verbs[0] == ("READ", 16) and log.bucket_queries == 1
    assert cas_won.count(True) == 1
    kv_writes = sum(1 for verb in log.verbs if verb == ("WRITE", 64))
    if crash_at == "refresh_in_flight":
        assert kv_writes == 2                   # nothing written before it
        after = before + 1
    else:
        assert kv_writes == 4
        # the pair whose CAS never landed is an in-flight write to index
        # recovery, which adopted it; the retry committed its successor
        after = before + 2
    assert slot_version_of(cluster, key) == after
    versions = valid_versions(cluster, key)
    assert max(versions) == after and len(set(versions)) == len(versions)
    assert cluster.stats.per_op["UPDATE"].retries == 1
    for client in (c0, c1):
        assert cluster.run_op(client.search(key)) == b"after-crash"
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_refresh_of_a_rekeyed_slot_drops_the_entry():
    """Index recovery may re-place a key and hand its old slot to another
    key of the same fingerprint.  A refresh through an entry stored under
    the home MN's previous incarnation must not adopt that slot on the
    fingerprint match: the entry is dropped, the bucket query finds the
    key where it lives now, and the other key's slot is untouched."""
    from repro.index.hashing import fingerprint8
    from tests.test_core_versioning import VerbLog, locate_slot

    cluster, runner, n = loaded_cluster()
    key = micro_key(cluster.clients[0].cli_id, 3)
    home = home_of(key, 5)
    other = next(k for k in (b"twin-%d" % i for i in range(100000))
                 if home_of(k, 5) == home
                 and fingerprint8(k) == fingerprint8(key))
    cluster.run_op(cluster.clients[0].insert(other, b"other-value"))
    c0, c1, entry = stale_hot_entry(cluster, key)
    crash_and_recover(cluster, home)
    assert entry.home_epoch != cluster.master.mn_incarnation(home)

    index, bucket, slot = locate_slot(cluster, key)
    assert index.slot_offset(bucket, slot) == entry.slot_offset
    _index, other_bucket, other_slot = locate_slot(cluster, other)
    moved_to = next((b, s) for b in index.candidate_buckets(key)
                    for s in range(index.bucket_slots)
                    if index.read_atomic(b, s).empty)
    for src, dst in (((bucket, slot), moved_to),
                     ((other_bucket, other_slot), (bucket, slot))):
        index.write_atomic(*dst, index.read_atomic(*src))
        index.write_meta(*dst, index.read_meta(*src))
    rekeyed = cluster.mns[home].read_bytes(entry.slot_offset, 16)

    log = VerbLog(c1)
    cluster.run_op(c1.update(key, b"three"))
    assert log.verbs[0] == ("READ", 16) and log.bucket_queries == 1
    assert cluster.stats.counters.get("slot_refreshes", 0) == 0
    assert cluster.mns[home].read_bytes(entry.slot_offset, 16) == rekeyed
    assert c1.cache.peek(key).slot_offset == index.slot_offset(*moved_to)
    assert cluster.run_op(c0.search(key)) == b"three"
    assert cluster.run_op(c0.search(other)) == b"other-value"


def test_dead_delta_node_does_not_resend_the_kv_write():
    """§3.4.1: a write bypasses a failed delta node.  The delta write to
    a node that just died fails one round trip after it was posted,
    usually before the KV write next to it has landed: the op waits for
    that KV write instead of posting it a second time."""
    cluster = make_aceso(kv_size=1024)
    client = cluster.clients[0]
    value = b"v" * 900
    cluster.run_op(client.insert(b"open-a-block", value))
    block = next(iter(client.blocks.all_open()))
    grant = block.grant
    key = next(k for k in (b"deg-%d" % i for i in range(1000))
               if home_of(k, 5) not in (grant.data_node, grant.delta_node))
    cluster.run_op(client.insert(key, value))
    written = block.writes_done
    posted = []
    post_write = client._post_write

    def write(node, offset, data):
        event = post_write(node, offset, data)
        posted.append((node, len(data)))
        if len(posted) == 1:                    # the KV write is on its way
            cluster.crash_mn(grant.delta_node)
        return event

    client._post_write = write
    cluster.run_op(client.update(key, b"u" * 900))
    size = block.size_class.slot_size
    assert posted == [(grant.data_node, size), (grant.delta_node, size)]
    assert block.writes_done == written + 1
    assert cluster.stats.per_op["UPDATE"].retries == 0
    assert cluster.run_op(client.search(key)) == b"u" * 900
