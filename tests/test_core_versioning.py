"""Slot-versioning protocol tests (Algorithm 1, §3.2.2)."""

import random

import pytest

from repro.index.hashing import home_of
from repro.index.slot import AtomicField, MetaField, slot_version

from tests.conftest import make_aceso


def locate_slot(cluster, key):
    """(index, bucket, slot) of a committed key, found by fingerprint and
    address chase through the raw index."""
    home = home_of(key, cluster.config.cluster.num_mns)
    index = cluster.mns[home].index
    from repro.index.hashing import fingerprint8
    fp = fingerprint8(key)
    for bucket in index.candidate_buckets(key):
        for slot in range(index.bucket_slots):
            atomic = index.read_atomic(bucket, slot)
            if not atomic.empty and atomic.fp == fp:
                return index, bucket, slot
    raise AssertionError(f"slot for {key!r} not found")


def test_version_increments_per_update():
    cluster = make_aceso()
    c = cluster.clients[0]
    key = b"ver-key"
    cluster.run_op(c.insert(key, b"v0"))
    index, bucket, slot = locate_slot(cluster, key)
    v0 = index.read_atomic(bucket, slot).ver
    for i in range(3):
        cluster.run_op(c.update(key, b"v%d" % (i + 1)))
    assert index.read_atomic(bucket, slot).ver == (v0 + 3) & 0xFF


def test_kv_pair_records_slot_version():
    cluster = make_aceso()
    c = cluster.clients[0]
    key = b"ver-rec"
    cluster.run_op(c.insert(key, b"a"))
    cluster.run_op(c.update(key, b"b"))
    index, bucket, slot = locate_slot(cluster, key)
    atomic = index.read_atomic(bucket, slot)
    meta = index.read_meta(bucket, slot)
    from repro.core.kvpair import parse_kv
    from repro.memory.address import GlobalAddress
    ga = GlobalAddress.unpack(atomic.addr)
    raw = cluster.mns[ga.node_id].read_bytes(ga.offset, meta.len_units * 64)
    record = parse_kv(raw)
    assert record.slot_version == slot_version(meta.epoch, atomic.ver)


def test_epoch_rolls_over_after_256_updates():
    """ver wraps 255 -> 0 and the epoch advances by 2 (lock/unlock)."""
    cluster = make_aceso(blocks_per_mn=192)
    c = cluster.clients[0]
    key = b"ver-roll"
    cluster.run_op(c.insert(key, b"x"))  # ver = 1
    index, bucket, slot = locate_slot(cluster, key)
    assert index.read_meta(bucket, slot).epoch == 0
    for i in range(256):
        cluster.run_op(c.update(key, b"u%03d" % (i % 100)))
    atomic = index.read_atomic(bucket, slot)
    meta = index.read_meta(bucket, slot)
    assert atomic.ver == 1  # wrapped past 0
    assert meta.epoch == 2
    assert not meta.locked
    assert cluster.run_op(c.search(key)) is not None


def test_logical_version_monotone_across_rollover():
    cluster = make_aceso(blocks_per_mn=192)
    c = cluster.clients[0]
    key = b"ver-mono"
    cluster.run_op(c.insert(key, b"x"))
    index, bucket, slot = locate_slot(cluster, key)
    last = -1
    for i in range(300):
        cluster.run_op(c.update(key, b"%d" % i))
        atomic = index.read_atomic(bucket, slot)
        meta = index.read_meta(bucket, slot)
        current = slot_version(meta.epoch, atomic.ver)
        assert current > last
        last = current


def test_lock_takeover_after_timeout():
    """§3.2.2 remark 2: a dead client's Meta lock is taken over by
    bumping the epoch to the next odd number."""
    cluster = make_aceso()
    c = cluster.clients[0]
    key = b"ver-lock"
    cluster.run_op(c.insert(key, b"x"))
    index, bucket, slot = locate_slot(cluster, key)
    # Simulate a client that died holding the lock: force an odd epoch.
    meta = index.read_meta(bucket, slot)
    index.write_meta(bucket, slot, MetaField(meta.epoch + 1,
                                             meta.len_units))
    c2 = cluster.clients[1]
    cluster.run_op(c2.update(key, b"rescued"))
    assert cluster.run_op(c.search(key)) == b"rescued"
    assert not index.read_meta(bucket, slot).locked
    assert cluster.stats.counters.get("lock_takeovers", 0) >= 1


def test_concurrent_updates_same_key_linearizable():
    """Zipf-style contention: many clients update one key; the final
    value must be the last committed one and every CAS conflict must
    have been resolved by retry."""
    cluster = make_aceso(num_cns=4, clients_per_cn=2)
    key = b"ver-hot"
    cluster.run_op(cluster.clients[0].insert(key, b"init"))
    env = cluster.env
    procs = []
    for i, client in enumerate(cluster.clients):
        def writer(client=client, i=i):
            for j in range(10):
                yield from client.update(key, b"c%d-%d" % (i, j))
        procs.append(env.process(writer()))
    env.run_until_event(env.all_of(procs))
    assert cluster.env.unexpected_failures() == []
    # total committed updates = 80; version advanced by exactly 80.
    index, bucket, slot = locate_slot(cluster, key)
    meta = index.read_meta(bucket, slot)
    atomic = index.read_atomic(bucket, slot)
    assert slot_version(meta.epoch, atomic.ver) == slot_version(0, 1) + 80
    # the value is one of the writers' final writes
    final = cluster.run_op(cluster.clients[0].search(key))
    assert final.endswith(b"-9")


def test_conflicting_writers_invalidate_orphans():
    """A failed commit marks its orphan KV pair with version -1 so
    recovery can never resurrect it."""
    cluster = make_aceso(num_cns=2, clients_per_cn=2)
    key = b"ver-orphan"
    cluster.run_op(cluster.clients[0].insert(key, b"init"))
    env = cluster.env
    procs = [env.process(c.update(key, b"w%d" % i))
             for i, c in enumerate(cluster.clients)]
    env.run_until_event(env.all_of(procs))
    conflicts = cluster.stats.counters.get("commit_conflicts", 0)
    if conflicts:
        # every conflicting write left an invalidated record behind;
        # scan all DATA blocks and check no two valid records of this
        # key share a slot version.
        from repro.core.kvpair import parse_kv
        from repro.memory.blocks import Role
        versions = []
        for mn in cluster.mns.values():
            for meta in mn.blocks.meta:
                if meta.role is not Role.DATA or not meta.slots:
                    continue
                buf = mn.blocks.buffer(meta.block_id)
                for s in range(meta.slots):
                    raw = bytes(buf[s * meta.slot_size:(s + 1) * meta.slot_size])
                    rec = parse_kv(raw)
                    if rec and rec.key == key and not rec.invalidated:
                        versions.append(rec.slot_version)
        assert len(versions) == len(set(versions))


def test_cache_trusts_coherent_pair():
    """A successful CAS against a cached Atomic word implies the cached
    Meta (epoch) was still current: updates through the cache never skip
    or repeat versions."""
    cluster = make_aceso()
    c0, c1 = cluster.clients
    key = b"ver-pair"
    cluster.run_op(c0.insert(key, b"x"))
    for i in range(5):
        cluster.run_op(c0.update(key, b"a%d" % i))
        cluster.run_op(c1.update(key, b"b%d" % i))
    index, bucket, slot = locate_slot(cluster, key)
    atomic = index.read_atomic(bucket, slot)
    meta = index.read_meta(bucket, slot)
    assert slot_version(meta.epoch, atomic.ver) == slot_version(0, 11)


# ---------------------------------------------------------------------
# conflict path: re-stamp the orphan KV instead of rewriting it
# ---------------------------------------------------------------------

class VerbLog:
    """Records every one-sided verb one client posts, as (opcode, bytes),
    plus its bucket queries (the only verbs not posted one by one)."""

    def __init__(self, client):
        self.verbs = []
        self.bucket_queries = 0
        post_read, post_write = client._post_read, client._post_write
        post_cas, query = client._post_cas, client._query_buckets

        def read(node, offset, length):
            self.verbs.append(("READ", length))
            return post_read(node, offset, length)

        def write(node, offset, data):
            self.verbs.append(("WRITE", len(data)))
            return post_write(node, offset, data)

        def cas(node, offset, expected, new):
            self.verbs.append(("CAS", 8))
            return post_cas(node, offset, expected, new)

        def query_buckets(key, home):
            self.bucket_queries += 1
            return query(key, home)

        client._post_read, client._post_write = read, write
        client._post_cas, client._query_buckets = cas, query_buckets

    def count(self, opcode, size):
        return self.verbs.count((opcode, size))


def run_writers(cluster, key, writers, between=None):
    """Run one update loop per (client, values) pair concurrently; returns
    the longest single UPDATE of *key* in simulated seconds.  *between*,
    a generator function of the client, runs after each update."""
    env = cluster.env
    longest = [0.0]

    def loop(client, values):
        for value in values:
            t0 = env.now
            yield from client.update(key, value)
            longest[0] = max(longest[0], env.now - t0)
            if between is not None:
                yield from between(client)

    procs = [env.process(loop(c, v)) for c, v in writers]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []
    return longest[0]


def slot_bytes(key, value):
    from repro.core.kvpair import kv_wire_size
    return -(-kv_wire_size(len(key), len(value)) // 64) * 64


def test_op_cost_uncontended_update():
    """Algorithm 1: UPDATE = 1 KV write + 1 delta write + 1 CAS."""
    cluster = make_aceso()
    c = cluster.clients[0]
    key = b"cost-solo"
    cluster.run_op(c.insert(key, b"x" * 100))
    log = VerbLog(c)
    cluster.run_op(c.update(key, b"y" * 100))
    size = slot_bytes(key, b"y" * 100)
    assert sorted(log.verbs) == [("CAS", 8), ("WRITE", size), ("WRITE", size)]
    assert log.bucket_queries == 0


def test_op_cost_of_a_lost_commit_cas():
    """Each lost CAS costs 1 x 16 B READ + 2 x 8 B WRITE + 1 CAS: no
    bucket query, no KV-sized verb, no second block slot."""
    cluster = make_aceso()
    c0, c1 = cluster.clients
    key = b"cost-race"
    cluster.run_op(c0.insert(key, b"x" * 100))
    cluster.run_op(c1.search(key))          # both caches hold the slot
    cluster.run_op(c1.update(key, b"x" * 100))
    cluster.run_op(c0.update(key, b"x" * 100))   # open a block each
    logs = [VerbLog(c0), VerbLog(c1)]
    size = slot_bytes(key, b"x" * 100)
    open_blocks = [c.blocks.open_block(size) for c in (c0, c1)]
    left = [b.slots_left() for b in open_blocks]
    cluster.stats.open_window(cluster.env.now)
    n = 6
    run_writers(cluster, key, [(c0, [b"a" * 100] * n), (c1, [b"b" * 100] * n)])

    counters = cluster.stats.counters
    lost = counters["commit_conflicts"]
    assert lost >= 2
    assert counters["restamp_retries"] == lost
    verbs = logs[0].verbs + logs[1].verbs
    assert sorted(set(verbs)) == [("CAS", 8), ("READ", 16), ("WRITE", 8),
                                  ("WRITE", size)]
    assert verbs.count(("WRITE", size)) == 2 * 2 * n   # KV + delta, once
    assert verbs.count(("CAS", 8)) == 2 * n + lost
    assert verbs.count(("READ", 16)) == lost
    assert verbs.count(("WRITE", 8)) == 2 * lost
    assert logs[0].bucket_queries == logs[1].bucket_queries == 0
    # one block slot per op, however many CASes it lost
    assert [b.slots_left() for b in open_blocks] == [x - n for x in left]
    update = cluster.stats.per_op["UPDATE"]
    assert update.ops == 2 * n
    assert update.cas_issued == 2 * n + lost
    assert update.retries == lost
    # the orphans that won are ordinary records now
    index, bucket, slot = locate_slot(cluster, key)
    atomic, meta = index.read_atomic(bucket, slot), index.read_meta(bucket, slot)
    assert slot_version(meta.epoch, atomic.ver) == slot_version(0, 3) + 2 * n
    assert cluster.run_op(c0.search(key)) in (b"a" * 100, b"b" * 100)


def timed_search(cluster, client, key):
    """(value, round trips, CN NIC submissions) of one SEARCH on an idle
    cluster.  Round trips come from the simulated latency: each costs one
    RTT of propagation plus NIC service, which for these sizes stays
    under half an RTT."""
    env, nic = cluster.env, client.nic
    t0, posted = env.now, nic.messages
    value = cluster.run_op(client.search(key))
    rtt = cluster.config.cluster.nic.rtt
    return value, int((env.now - t0) // rtt), nic.messages - posted


def test_op_cost_search_cache_hit():
    """§3.5.1: a cached SEARCH is one round trip of two parallel verbs —
    the KV read and the 16 B slot read — and never a bucket query."""
    cluster = make_aceso()
    c = cluster.clients[0]
    key, value = b"cost-hit", b"x" * 100
    cluster.run_op(c.insert(key, value))
    log = VerbLog(c)
    got, round_trips, posted = timed_search(cluster, c, key)
    assert got == value
    assert sorted(log.verbs) == [("READ", 16),
                                 ("READ", slot_bytes(key, value))]
    assert log.bucket_queries == 0
    assert (round_trips, posted) == (1, 2)


def test_op_cost_search_stale_hit():
    """Another client committed in between: the slot read shows the new
    address, so the cost is one more KV read — a second round trip, still
    no bucket query."""
    cluster = make_aceso()
    writer, reader = cluster.clients
    key, value = b"cost-stale", b"x" * 100
    cluster.run_op(writer.insert(key, value))
    assert cluster.run_op(reader.search(key)) == value
    cluster.run_op(writer.update(key, b"y" * 100))
    log = VerbLog(reader)
    got, round_trips, posted = timed_search(cluster, reader, key)
    assert got == b"y" * 100
    size = slot_bytes(key, value)
    assert log.verbs == [("READ", size), ("READ", 16), ("READ", size)]
    assert log.bucket_queries == 0
    assert (round_trips, posted) == (2, 3)
    assert cluster.stats.counters["cache_slot_changed"] == 1


def test_op_cost_search_cold_miss():
    """Nothing cached: one bucket query — both candidate buckets in one
    doorbell batch, a single submission — then the KV read."""
    cluster = make_aceso()
    writer, cold = cluster.clients
    key, value = b"cost-cold", b"x" * 100
    cluster.run_op(writer.insert(key, value))
    log = VerbLog(cold)
    got, round_trips, posted = timed_search(cluster, cold, key)
    assert got == value
    assert log.verbs == [("READ", slot_bytes(key, value))]
    assert log.bucket_queries == 1
    assert (round_trips, posted) == (2, 2)


def test_op_cost_search_fusee_value_only_hit():
    """The baseline's cache holds no slot address: a hit validates by
    re-reading the slot's whole bucket next to the KV read (the read
    amplification §3.5.1 removes) — one round trip, no bucket query."""
    from tests.conftest import make_fusee
    cluster = make_fusee()
    c = cluster.clients[0]
    key, value = b"cost-fusee", b"x" * 100
    cluster.run_op(c.insert(key, value))
    assert c.cache.policy == "value_only"
    log = VerbLog(c)
    got, round_trips, posted = timed_search(cluster, c, key)
    assert got == value
    bucket_size = cluster.mns[0].index.bucket_size
    assert sorted(log.verbs) == sorted([("READ", slot_bytes(key, value)),
                                        ("READ", bucket_size)])
    assert log.bucket_queries == 0
    assert (round_trips, posted) == (1, 2)


def committed_versions(cluster, key):
    """Hook the home MN's CAS: the Slot Version stored in the KV pair each
    successful commit CAS on *key*'s slot points at, in commit order."""
    from repro.core.kvpair import parse_kv
    from repro.memory.address import GlobalAddress
    index, bucket, slot = locate_slot(cluster, key)
    home = cluster.mns[home_of(key, cluster.config.cluster.num_mns)]
    offset = index.slot_offset(bucket, slot)
    versions = []
    cas_u64 = home.cas_u64

    def hooked(off, expected, new):
        result = cas_u64(off, expected, new)
        if off == offset and result[0]:
            ga = GlobalAddress.unpack(AtomicField.unpack(new).addr)
            length = index.read_meta(bucket, slot).len_units * 64
            raw = cluster.mns[ga.node_id].read_bytes(ga.offset, length)
            versions.append(parse_kv(raw).slot_version)
        return result

    home.cas_u64 = hooked
    return versions


def test_hot_key_through_three_rollovers():
    """4 writers + 1 reader on one key across three ``ver`` rollovers:
    nobody exhausts the retry budget, nobody has to take a lock over, no
    UPDATE stalls for a lock timeout, committed versions only grow."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso(num_cns=5, clients_per_cn=1, blocks_per_mn=256)
    key = b"ver-hot-roll"
    writers, reader = cluster.clients[:4], cluster.clients[4]
    cluster.run_op(writers[0].insert(key, b"init"))
    versions = committed_versions(cluster, key)
    env = cluster.env
    reads = []
    done = [False]

    def read_loop():
        while not done[0]:
            reads.append((yield from reader.search(key)))

    reader_proc = env.process(read_loop())
    per_writer = 200
    # Seeded think time between a writer's updates.  The commit protocol
    # is lock-free, not wait-free: closed loops with no other work form a
    # convoy on the home NIC's atomics and, in a simulator without jitter,
    # the writer whose retry round is slowest loses every volley.
    rngs = {c.cli_id: random.Random(c.cli_id) for c in writers}

    def think(client):
        yield env.timeout(rngs[client.cli_id].uniform(0, 16e-6))

    longest = run_writers(
        cluster, key,
        [(c, [b"w%d-%03d" % (i, j) for j in range(per_writer)])
         for i, c in enumerate(writers)],
        between=think)
    done[0] = True
    env.run_until_event(reader_proc)
    assert env.unexpected_failures() == []

    commits = 4 * per_writer
    assert len(versions) == commits
    assert all(a < b for a, b in zip(versions, versions[1:]))
    assert versions[-1] >> 8 == 2 * 3          # three rollovers, epoch += 2
    assert cluster.stats.counters.get("lock_takeovers", 0) == 0
    assert cluster.stats.counters.get("restamp_retries", 0) > 0
    assert longest < LOCK_TIMEOUT
    assert reads and all(v == b"init" or v.startswith(b"w") for v in reads)
    index, bucket, slot = locate_slot(cluster, key)
    assert not index.read_meta(bucket, slot).locked


def test_cached_locked_meta_word_does_not_livelock():
    """A cache entry read while another client held the rollover lock
    keeps an odd epoch; the writer must re-read the slot, not poll the
    stale word until the retry budget runs out."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso()
    c0, c1 = cluster.clients
    key = b"ver-stale-lock"
    cluster.run_op(c0.insert(key, b"x"))
    cluster.run_op(c1.search(key))
    entry = c1.cache.peek(key)
    meta = MetaField.unpack(entry.meta_word)
    entry.meta_word = MetaField(meta.epoch + 1, meta.len_units).pack()
    t0 = cluster.env.now
    cluster.run_op(c1.update(key, b"y"))
    assert cluster.env.now - t0 < LOCK_TIMEOUT
    assert cluster.run_op(c0.search(key)) == b"y"
    assert cluster.stats.counters.get("lock_takeovers", 0) == 0


def test_cached_pre_rollover_pair_does_not_livelock():
    """A cached (ver 0xFF, old epoch) pair after someone else rolled the
    slot over: the Meta lock CAS can never win against it."""
    cluster = make_aceso(blocks_per_mn=192)
    c0, c1 = cluster.clients
    key = b"ver-stale-roll"
    cluster.run_op(c0.insert(key, b"x"))           # ver 1
    for i in range(254):
        cluster.run_op(c0.update(key, b"%d" % i))  # ver 0xFF
    cluster.run_op(c1.search(key))
    assert AtomicField.unpack(c1.cache.peek(key).atomic_word).ver == 0xFF
    cluster.run_op(c0.update(key, b"rolled"))      # ver 0, epoch 2
    cluster.run_op(c1.update(key, b"after"))
    index, bucket, slot = locate_slot(cluster, key)
    assert index.read_meta(bucket, slot).epoch == 2
    assert index.read_atomic(bucket, slot).ver == 1
    assert cluster.run_op(c0.search(key)) == b"after"


def test_alternating_size_classes_keep_len_exact():
    """Two writers alternating 64 B and 1 KiB values on one key: the slot's
    ``len`` ends up naming the committed KV's size class, so a cold SEARCH
    is one bucket query plus one KV read."""
    from repro.core.kvpair import parse_kv
    from repro.memory.address import GlobalAddress
    cluster = make_aceso(num_cns=3, clients_per_cn=1, kv_size=1024,
                         blocks_per_mn=256)
    c0, c1, cold = cluster.clients
    key = b"ver-sizes"
    small, big = b"s" * 20, b"B" * 960
    cluster.run_op(c0.insert(key, big))
    cluster.run_op(c1.search(key))
    n = 40
    run_writers(cluster, key, [
        (c0, [(small, big)[j % 2] for j in range(n)]),
        (c1, [(big, small)[j % 2] for j in range(n)]),
    ])
    assert cluster.stats.counters["commit_conflicts"] > 0
    index, bucket, slot = locate_slot(cluster, key)
    atomic, meta = index.read_atomic(bucket, slot), index.read_meta(bucket, slot)
    ga = GlobalAddress.unpack(atomic.addr)
    raw = cluster.mns[ga.node_id].read_bytes(ga.offset, meta.len_units * 64)
    record = parse_kv(raw)
    assert record is not None and record.key == key
    assert meta.len_units * 64 == slot_bytes(key, record.value)
    assert record.slot_version == slot_version(meta.epoch, atomic.ver)
    log = VerbLog(cold)
    assert cluster.run_op(cold.search(key)) == record.value
    assert log.bucket_queries == 1
    assert log.verbs == [("READ", meta.len_units * 64)]


@pytest.mark.parametrize("stale_units", [1, 255])
def test_search_sees_through_a_stale_len(stale_units):
    """A slot ``len`` that is wrong — too short for the record, or so long
    that the read would cross the block end — costs a SEARCH one more KV
    read, not the key."""
    cluster = make_aceso(num_cns=2, clients_per_cn=1, kv_size=1024)
    writer, cold = cluster.clients
    key, value = b"ver-stale-len", b"v" * 600
    cluster.run_op(writer.insert(key, value))
    index, bucket, slot = locate_slot(cluster, key)
    meta = index.read_meta(bucket, slot)
    assert meta.len_units * 64 == slot_bytes(key, value)
    index.write_meta(bucket, slot, MetaField(meta.epoch, stale_units))
    log = VerbLog(cold)
    assert cluster.run_op(cold.search(key)) == value
    assert log.bucket_queries == 1
    assert 1 <= len(log.verbs) <= 2
    # the cache remembers the record's real size: one KV read next time
    assert cold.cache.peek(key).len_units * 64 == slot_bytes(key, value)
    # and a writer that locates the key through the stale slot repairs it
    cold.cache.invalidate(key)
    cluster.run_op(cold.update(key, value))
    assert index.read_meta(bucket, slot).len_units * 64 \
        == slot_bytes(key, value)
