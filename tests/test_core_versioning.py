"""Slot-versioning protocol tests (Algorithm 1, §3.2.2)."""

import pytest

from repro.index.hashing import home_of
from repro.index.slot import AtomicField, MetaField, slot_version

from tests.conftest import cached, make_aceso


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


def slot_version_of(cluster, key):
    """The committed Slot Version (epoch:ver) of *key*'s slot."""
    index, bucket, slot = locate_slot(cluster, key)
    return slot_version(index.read_meta(bucket, slot).epoch,
                        index.read_atomic(bucket, slot).ver)


def valid_versions(cluster, key):
    """Slot Versions of every parseable, not invalidated record of *key*
    in any valid DATA block."""
    from repro.core.kvpair import parse_kv
    from repro.memory.blocks import Role
    versions = []
    for mn in cluster.mns.values():
        for meta in mn.blocks.meta:
            if meta.role is not Role.DATA or not meta.valid:
                continue
            content = bytes(mn.blocks.buffer(meta.block_id))
            for at in range(0, meta.slots * meta.slot_size, meta.slot_size):
                record = parse_kv(content[at:at + meta.slot_size])
                if record and record.key == key and not record.invalidated:
                    versions.append(record.slot_version)
    return versions


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
    value must be the last committed one and every update must either
    commit or be overwritten by a concurrent commit."""
    cluster = make_aceso(num_cns=4, clients_per_cn=2)
    key = b"ver-hot"
    cluster.run_op(cluster.clients[0].insert(key, b"init"))
    env = cluster.env
    procs = []
    committed = []
    for i, client in enumerate(cluster.clients):
        def writer(client=client, i=i):
            for j in range(10):
                committed.append(
                    (yield from client.update(key, b"c%d-%d" % (i, j))))
        procs.append(env.process(writer()))
    env.run_until_event(env.all_of(procs))
    assert cluster.env.unexpected_failures() == []
    # 80 updates, each committed or overwritten; the version advanced by
    # exactly the number of commits.
    commits = committed.count(True)
    assert len(committed) == 80
    assert commits + cluster.stats.counters.get("overwritten", 0) == 80
    index, bucket, slot = locate_slot(cluster, key)
    meta = index.read_meta(bucket, slot)
    atomic = index.read_atomic(bucket, slot)
    assert slot_version(meta.epoch, atomic.ver) \
        == slot_version(0, 1) + commits
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
        # every conflicting write left an invalidated record behind:
        # no two valid records of this key share a slot version.
        versions = valid_versions(cluster, key)
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
    plus its bucket queries (the only verbs not posted one by one), its
    control-plane RPCs by method name, and the instants it posted at:
    verbs posted at one instant share a round trip, so the distinct
    instants of an op are its round trips."""

    def __init__(self, client):
        self.verbs = []
        self.posted_at = []
        self.bucket_queries = 0
        self.rpcs = []
        self.rpc_at = []
        self.bucket_size = client.mns[0].index.bucket_size
        env = client.env
        post_read, post_write = client._post_read, client._post_write
        post_cas, query = client._post_cas, client._query_buckets
        rpc = client._rpc

        def read(node, offset, length):
            self.verbs.append(("READ", length))
            self.posted_at.append(env.now)
            return post_read(node, offset, length)

        def write(node, offset, data):
            self.verbs.append(("WRITE", len(data)))
            self.posted_at.append(env.now)
            return post_write(node, offset, data)

        def cas(node, offset, expected, new):
            self.verbs.append(("CAS", 8))
            self.posted_at.append(env.now)
            return post_cas(node, offset, expected, new)

        def query_buckets(key, home):
            self.bucket_queries += 1
            self.posted_at.append(env.now)
            return query(key, home)

        def call(server, method, *args, **kwargs):
            self.rpcs.append(method)
            self.rpc_at.append(env.now)
            return rpc(server, method, *args, **kwargs)

        client._post_read, client._post_write = read, write
        client._post_cas, client._query_buckets = cas, query_buckets
        client._rpc = call

    def count(self, opcode, size):
        return self.verbs.count((opcode, size))

    def take(self):
        """(verbs, round trips) logged since the last call."""
        verbs, round_trips = self.verbs[:], len(set(self.posted_at))
        del self.verbs[:], self.posted_at[:]
        return verbs, round_trips

    def cost(self):
        """One row of the op-cost table for what was logged since the last
        call: (verbs, round trips, CAS, verb bytes, RPC methods).  A bucket
        query counts as its two bucket READs; an RPC is a round trip of
        its own and not a verb."""
        queries, rpcs = self.bucket_queries, self.rpcs[:]
        round_trips = len(set(self.posted_at) | set(self.rpc_at))
        verbs, _ = self.take()
        self.bucket_queries = 0
        del self.rpcs[:], self.rpc_at[:]
        return (len(verbs) + 2 * queries, round_trips,
                verbs.count(("CAS", 8)),
                sum(size for _op, size in verbs)
                + 2 * queries * self.bucket_size, rpcs)


def run_writers(cluster, key, writers):
    """Run one update loop per (client, values) pair concurrently; returns
    the longest single UPDATE of *key* in simulated seconds."""
    env = cluster.env
    longest = [0.0]

    def loop(client, values):
        for value in values:
            t0 = env.now
            yield from client.update(key, value)
            longest[0] = max(longest[0], env.now - t0)

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


def shared_key(key, value):
    """Two clients that both cache *key*'s slot and hold an open block of
    the value's size class, with verb logs attached."""
    cluster = make_aceso()
    c0, c1 = cluster.clients
    cluster.run_op(c0.insert(key, value))
    cluster.run_op(c1.search(key))
    cluster.run_op(c1.update(key, value))       # trusted, the pair is fresh
    return cluster, c0, c1, VerbLog(c0), VerbLog(c1)


def test_op_cost_update_shared_key():
    """The shared-key rows of the UPDATE table.  A client first learns
    that a key has other writers the old way — a trusted pair loses its
    commit CAS (7 verbs, 4 round trips, 2 CAS: the slot READ goes out
    beside the re-stamp) — and from then on
    refreshes the pair with one 16 B READ before writing: 4 verbs, 3 round
    trips, 1 CAS whether the pair turned out stale or fresh, no 8 B
    re-stamp write, no bucket query, one block slot per op."""
    key, value = b"cost-shared", b"x" * 100
    cluster, c0, c1, log0, log1 = shared_key(key, value)
    size = slot_bytes(key, value)
    counters = cluster.stats.counters
    kv_delta_cas = [("WRITE", size), ("WRITE", size), ("CAS", 8)]
    restamp = [("READ", 16), ("WRITE", 8), ("WRITE", 8), ("CAS", 8)]
    refreshed = [("READ", 16)] + kv_delta_cas

    # c0 still trusts its pair; c1 wrote since, so the commit CAS loses.
    cluster.run_op(c0.update(key, value))
    assert log0.take() == (kv_delta_cas + restamp, 4)
    assert counters["commit_conflicts"] == counters["restamp_retries"] == 1
    assert counters.get("slot_refreshes", 0) == 0
    block = c0.blocks.open_block(size)
    left = block.slots_left()

    # shared key, stale pair: c1 commits in between, c0 refreshes.
    cluster.run_op(c1.update(key, value))       # loses once, as c0 did
    assert log1.take() == (kv_delta_cas + restamp, 4)
    cluster.run_op(c0.update(key, value))
    assert log0.take() == (refreshed, 3)
    assert counters["slot_refreshes"] == counters["slot_refresh_stale"] == 1

    # shared key, fresh pair: nobody wrote in between — same four verbs.
    cluster.run_op(c0.update(key, value))
    assert log0.take() == (refreshed, 3)
    assert (counters["slot_refreshes"], counters["slot_refresh_stale"]) \
        == (2, 1)

    # a second unchanged look in a row and the pair is trusted again.
    cluster.run_op(c0.update(key, value))
    assert log0.take() == (refreshed, 3)
    cluster.run_op(c0.update(key, value))
    assert log0.take() == (kv_delta_cas, 2)

    assert counters["commit_conflicts"] == 2    # the two trusted losses
    assert log0.bucket_queries == log1.bucket_queries == 0
    assert block.slots_left() == left - 4
    assert slot_version_of(cluster, key) == slot_version(0, 2) + 6


def test_op_cost_of_a_lost_commit_cas():
    """Two closed-loop writers on one key.  A *true* race — a commit CAS
    that loses although its pair was read in this op — is an overwrite:
    READ 16, KV + delta WRITE, CAS lost, 2 x WRITE 8 invalidating the
    orphan = 6 verbs, 4 round trips, 1 CAS, and the op returns.  A
    trusted stale pair keeps its row (1 x 16 B READ beside 2 x 8 B WRITE,
    then 1 CAS: one round trip more), plus at most one overwrite — which
    a slot that moved on since the lost CAS shows before the re-stamp CAS
    (the predicted stamp, 2 x 8 B WRITE, is then invalidated).  No bucket
    query, no KV-sized verb twice, no second block slot."""
    key = b"cost-race"
    cluster, c0, c1, log0, log1 = shared_key(key, b"x" * 100)
    cluster.run_op(c0.update(key, b"x" * 100))   # open a block each
    log0.take()
    size = slot_bytes(key, b"x" * 100)
    open_blocks = [c.blocks.open_block(size) for c in (c0, c1)]
    left = [b.slots_left() for b in open_blocks]
    cluster.stats.open_window(cluster.env.now)
    env, n = cluster.env, 6
    rows = {True: [], False: []}      # (verbs, round trips) per op

    def loop(client, log, value):
        for _ in range(n):
            committed = yield from client.update(key, value)
            rows[committed].append(log.take())

    procs = [env.process(loop(c0, log0, b"a" * 100)),
             env.process(loop(c1, log1, b"b" * 100))]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []

    kv_delta_cas = [("WRITE", size), ("WRITE", size), ("CAS", 8)]
    restamp = [("READ", 16), ("WRITE", 8), ("WRITE", 8), ("CAS", 8)]
    refreshed = [("READ", 16)] + kv_delta_cas
    invalidate = [("WRITE", 8), ("WRITE", 8)]
    assert set(map(repr, rows[True])) <= {
        repr((kv_delta_cas, 2)), repr((refreshed, 3)),
        repr((kv_delta_cas + restamp, 4))}
    assert set(map(repr, rows[False])) <= {
        repr((refreshed + invalidate, 4)),
        repr((kv_delta_cas + restamp + invalidate, 5)),
        repr((kv_delta_cas + restamp[:-1] + invalidate, 4))}
    assert (refreshed + invalidate, 4) in rows[False]

    counters = cluster.stats.counters
    lost = counters["commit_conflicts"]
    stamps = counters.get("restamp_retries", 0)
    # re-stamp CASes: a wrong prediction posts none
    restamps = stamps - counters.get("restamp_mispredicted", 0)
    overwritten = counters["overwritten"]
    assert overwritten == len(rows[False]) >= 2
    assert lost == restamps + overwritten
    verbs = [verb for row, _ in rows[True] + rows[False] for verb in row]
    assert verbs.count(("WRITE", size)) == 2 * 2 * n   # KV + delta, once
    assert verbs.count(("CAS", 8)) == 2 * n + restamps
    assert verbs.count(("READ", 16)) \
        == counters["slot_refreshes"] + stamps
    assert verbs.count(("WRITE", 8)) == 2 * (stamps + overwritten)
    assert log0.bucket_queries == log1.bucket_queries == 0
    # one block slot per op, however its CAS went
    assert [b.slots_left() for b in open_blocks] == [x - n for x in left]
    update = cluster.stats.per_op["UPDATE"]
    assert update.ops == 2 * n
    assert update.cas_issued == 2 * n + restamps
    assert update.retries == restamps           # a refresh is not a retry
    # the orphans that won are ordinary records now
    index, bucket, slot = locate_slot(cluster, key)
    atomic, meta = index.read_atomic(bucket, slot), index.read_meta(bucket, slot)
    assert slot_version(meta.epoch, atomic.ver) \
        == slot_version(0, 3) + len(rows[True])
    assert cluster.run_op(c0.search(key)) in (b"a" * 100, b"b" * 100)


def test_trust_or_refresh_follows_what_the_client_saw():
    """The rule, one look at a time: an entry is trusted until a look at
    its slot finds another writer's change, and again after two unchanged
    looks in a row.  Looks are a cached SEARCH's slot read, a refresh READ
    and a trusted commit CAS; the count outlives the client's own commits
    and dies with the entry."""
    from repro.index.cache import COOL_LOOKS
    key, value = b"ver-heat", b"x" * 100
    cluster, c0, c1, log0, log1 = shared_key(key, value)

    def refreshes(client, log):
        """Whether the client's next UPDATE of *key* starts with the READ."""
        log.take()
        cluster.run_op(client.update(key, value))
        return log.take()[0][0] == ("READ", 16)

    assert COOL_LOOKS == 2
    # never seen changed: trusted, however often the client itself commits
    assert cached(c1.cache, key).heat == 0
    assert not refreshes(c1, log1) and not refreshes(c1, log1)
    assert cached(c1.cache, key).heat == 0

    # one change, seen by a SEARCH: the next write refreshes
    cluster.run_op(c0.search(key))
    assert cached(c0.cache, key).heat == COOL_LOOKS
    assert cluster.stats.counters["cache_slot_changed"] == 1
    assert refreshes(c0, log0)                  # unchanged look: heat 1
    # ... carried across the post-commit store of a fresh CacheEntry
    assert cached(c0.cache, key).heat == 1
    # SEARCH looks count: one more unchanged look and the pair is trusted
    cluster.run_op(c0.search(key))
    assert cached(c0.cache, key).heat == 0
    assert not refreshes(c0, log0)

    # a change between two unchanged looks starts the count again
    cluster.run_op(c1.search(key))              # changed
    cluster.run_op(c1.search(key))              # unchanged
    assert cached(c1.cache, key).heat == 1
    cluster.run_op(c0.update(key, value))       # trusted CAS, pair was fresh
    cluster.run_op(c1.search(key))              # changed
    assert cached(c1.cache, key).heat == COOL_LOOKS
    assert refreshes(c1, log1) and refreshes(c1, log1)
    assert not refreshes(c1, log1)

    # a trusted commit CAS that loses is a look that found a change
    assert cached(c0.cache, key).heat == 0
    cluster.run_op(c0.update(key, value))
    assert cached(c0.cache, key).heat == COOL_LOOKS
    # invalidation forgets: the re-learnt entry starts trusted
    c0.cache.invalidate(key)
    cluster.run_op(c0.search(key))
    assert cached(c0.cache, key).heat == 0
    assert not refreshes(c0, log0)


def test_fusee_and_value_only_cache_never_refresh():
    """The refresh needs the slot *address* cache on wide slots: FUSEE
    (its own write path, value_only cache, compact slots) and the factor
    step that runs Aceso's write path with the value_only cache post no
    refresh READ, however often their cached word turns out stale."""
    from repro.config import factor_config
    from repro.core.store import AcesoCluster
    from tests.conftest import make_fusee, small_cluster_kwargs
    ckpt_step = AcesoCluster(factor_config("+ckpt", **small_cluster_kwargs()))
    ckpt_step.start()
    key, value = b"cost-norefresh", b"x" * 100
    for cluster in (make_fusee(), ckpt_step):
        c0, c1 = cluster.clients
        assert c0.cache.policy == "value_only"
        cluster.run_op(c0.insert(key, value))
        cluster.run_op(c1.search(key))
        logs = [VerbLog(c0), VerbLog(c1)]
        for _ in range(4):
            cluster.run_op(c1.update(key, value))
            cluster.run_op(c0.update(key, value))
        counters = cluster.stats.counters
        assert counters["commit_conflicts"] >= 4
        assert counters.get("slot_refreshes", 0) == 0
        # the only 16 B READs are the conflict path's, one per lost CAS
        # (none in FUSEE: compact slots, no re-stamp)
        assert sum(log.count("READ", 16) for log in logs) \
            == counters.get("restamp_retries", 0)


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


# The rest of the op-cost table: (verbs, round trips, CAS, verb bytes, RPCs)
# per op on an idle cluster, with the client's block of the op's size class
# already open.  Values are 100 B (a 192 B slab slot); a tombstone takes a
# 64 B slot; wide buckets are 128 B, compact ones 64 B.
OP_COSTS = {
    # bucket query, KV + delta WRITE, Meta WRITE 8, CAS
    ("aceso", "INSERT"): (6, 4, 1, 656, []),
    # tombstone + delta WRITE, CAS, len repair WRITE 8
    ("aceso", "DELETE"): (4, 3, 1, 144, []),
    # nothing cached: bucket query, the KV READ that proves the candidate,
    # KV + delta WRITE, CAS ...
    ("aceso", "UPDATE cold miss"): (6, 4, 1, 840, []),
    # ... and a tombstone's len repair WRITE 8 after it
    ("aceso", "DELETE cold miss"): (7, 5, 1, 592, []),
    # bucket query, KV READ of the lost block, the block's stripe from its
    # MN, the read plan from the P holder, the plan's four region READs
    ("aceso", "degraded SEARCH"): (7, 5, 0, 1216,
                                   ["block_info", "degraded_plan"]),
    # r KV WRITEs, then the r - 1 backup CASes, then the primary CAS
    ("fusee-r1", "UPDATE"): (2, 2, 1, 200, []),
    ("fusee-r3", "UPDATE"): (6, 3, 3, 600, []),
    # ... behind a bucket query
    ("fusee-r1", "INSERT"): (4, 3, 1, 328, []),
    ("fusee-r3", "INSERT"): (8, 4, 3, 728, []),
    ("fusee-r1", "DELETE"): (2, 2, 1, 72, []),
    ("fusee-r3", "DELETE"): (6, 3, 3, 216, []),
    # bucket query, KV READ
    ("fusee-r1", "SEARCH cold miss"): (3, 2, 0, 320, []),
    ("fusee-r3", "SEARCH cold miss"): (3, 2, 0, 320, []),
}


def degraded_search_cost():
    """Cold SEARCH of a key whose sealed block is lost (§3.4.1)."""
    from repro.memory.address import GlobalAddress
    cluster = make_aceso()
    writer, reader = cluster.clients
    keys = [b"cost-degraded-%02d" % i for i in range(40)]
    for key in keys:
        cluster.run_op(writer.insert(key, b"x" * 100))
    cluster.run(cluster.env.now + 0.05)             # seal and fold
    for key in keys:
        ga = GlobalAddress.unpack(cached(writer.cache, key).atomic_word
                                  & ((1 << 48) - 1))
        block_id, _ = cluster.mns[ga.node_id].blocks.locate(ga.offset)
        meta = cluster.mns[ga.node_id].blocks.meta[block_id]
        if meta.stripe_id >= 0 and meta.index_version:
            break
    meta.valid = False                              # the block is lost
    log = VerbLog(reader)
    assert cluster.run_op(reader.search(key)) == b"x" * 100
    assert cluster.stats.counters["degraded_reads"] == 1
    return log.cost()


def op_cost(system, op):
    from tests.conftest import make_fusee
    if op == "degraded SEARCH":
        return degraded_search_cost()
    cluster = (make_aceso() if system == "aceso"
               else make_fusee(replication_factor=int(system[-1])))
    c0, c1 = cluster.clients
    value = b"x" * 100
    # open the blocks of both size classes, then cache the key
    cluster.run_op(c0.insert(b"cost-warm", value))
    cluster.run_op(c0.delete(b"cost-warm"))
    cluster.run_op(c0.insert(b"cost-key", value))
    if op in ("UPDATE cold miss", "DELETE cold miss"):
        cluster.run_op(c1.insert(b"cost-warm-1", value))
        cluster.run_op(c1.delete(b"cost-warm-1"))
    log = VerbLog(c1 if op.endswith("cold miss") else c0)
    if op == "INSERT":
        cluster.run_op(c0.insert(b"cost-fresh", value))
    elif op == "UPDATE":
        cluster.run_op(c0.update(b"cost-key", value))
    elif op == "DELETE":
        cluster.run_op(c0.delete(b"cost-key"))
    elif op == "UPDATE cold miss":
        cluster.run_op(c1.update(b"cost-key", value))
    elif op == "DELETE cold miss":
        cluster.run_op(c1.delete(b"cost-key"))
    else:
        assert cluster.run_op(c1.search(b"cost-key")) == value
    return log.cost()


@pytest.mark.parametrize("system,op", sorted(OP_COSTS))
def test_op_cost_table(system, op):
    """INSERT, DELETE, cold-miss UPDATE and DELETE and degraded SEARCH for
    Aceso; UPDATE, INSERT, DELETE and a cold SEARCH for FUSEE at one and
    three replicas."""
    assert op_cost(system, op) == OP_COSTS[system, op]


def commit_log(cluster, key):
    """Hook the home MN's CAS: (instant, record) of the KV pair each
    successful commit CAS on *key*'s slot points at, in commit order."""
    from repro.core.kvpair import parse_kv
    from repro.memory.address import GlobalAddress
    index, bucket, slot = locate_slot(cluster, key)
    home = cluster.mns[home_of(key, cluster.config.cluster.num_mns)]
    offset = index.slot_offset(bucket, slot)
    commits = []
    cas_u64 = home.cas_u64

    def hooked(off, expected, new):
        result = cas_u64(off, expected, new)
        if off == offset and result[0]:
            ga = GlobalAddress.unpack(AtomicField.unpack(new).addr)
            length = index.read_meta(bucket, slot).len_units * 64
            raw = cluster.mns[ga.node_id].read_bytes(ga.offset, length)
            commits.append((cluster.env.now, parse_kv(raw)))
        return result

    home.cas_u64 = hooked
    return commits


def test_hot_key_through_three_rollovers():
    """4 closed-loop writers with no think time + 1 reader on one key
    across three ``ver`` rollovers: nobody exhausts the retry budget,
    nobody has to take a lock over, no UPDATE stalls for a lock timeout,
    committed versions only grow, and every UPDATE commits or is
    overwritten."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso(num_cns=5, clients_per_cn=1, blocks_per_mn=256)
    key = b"ver-hot-roll"
    writers, reader = cluster.clients[:4], cluster.clients[4]
    cluster.run_op(writers[0].insert(key, b"init"))
    # Every writer starts with a cached pair it trusts: the first lost
    # CASes take the re-stamp path.
    for client in writers[1:]:
        cluster.run_op(client.search(key))
    commits = commit_log(cluster, key)
    env = cluster.env
    reads = []
    done = [False]

    def read_loop():
        while not done[0]:
            reads.append((yield from reader.search(key)))

    reader_proc = env.process(read_loop())
    # About 45 % of the updates are overwritten: 460 each is ~830 commits.
    per_writer = 460
    longest = run_writers(
        cluster, key,
        [(c, [b"w%d-%03d" % (i, j) for j in range(per_writer)])
         for i, c in enumerate(writers)])
    done[0] = True
    env.run_until_event(reader_proc)
    assert env.unexpected_failures() == []

    writes = 4 * per_writer
    versions = [record.slot_version for _at, record in commits]
    assert len(versions) + cluster.stats.counters["overwritten"] == writes
    assert all(a < b for a, b in zip(versions, versions[1:]))
    assert versions[-1] >> 8 == 2 * 3          # three rollovers, epoch += 2
    assert cluster.stats.counters.get("lock_takeovers", 0) == 0
    assert cluster.stats.counters.get("restamp_retries", 0) > 0
    assert longest < LOCK_TIMEOUT
    assert reads and all(v == b"init" or v.startswith(b"w") for v in reads)
    index, bucket, slot = locate_slot(cluster, key)
    assert not index.read_meta(bucket, slot).locked


@pytest.mark.parametrize("n_writers", [2, 4])
def test_shared_key_writers_make_bounded_progress(n_writers):
    """Closed-loop writers on one key with no think time, and a reader,
    for 5 sim-ms.  Every writer keeps completing UPDATEs, none waits a
    lock timeout: a commit CAS lost to a commit made inside the op is an
    overwrite, and the op returns.  It is linearized just before that
    commit — its interval holds a winning commit CAS on the key — and no
    SEARCH ever returns its value."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso(num_cns=n_writers + 1, clients_per_cn=1,
                         blocks_per_mn=128)
    key = b"ver-progress"
    writers, reader = cluster.clients[:-1], cluster.clients[-1]
    cluster.run_op(writers[0].insert(key, b"init"))
    commits = commit_log(cluster, key)
    env = cluster.env
    end = env.now + 5e-3
    ops = {c.cli_id: [] for c in writers}   # (start, end, value, committed)
    reads = []
    done = [False]

    def write_loop(client, i):
        j = 0
        while env.now < end:
            value = b"w%d-%05d" % (i, j)
            t0 = env.now
            committed = yield from client.update(key, value)
            ops[client.cli_id].append((t0, env.now, value, committed))
            j += 1

    def read_loop():
        while not done[0]:
            reads.append((yield from reader.search(key)))

    reader_proc = env.process(read_loop())
    procs = [env.process(write_loop(c, i)) for i, c in enumerate(writers)]
    env.run_until_event(env.all_of(procs))
    done[0] = True
    env.run_until_event(reader_proc)
    assert env.unexpected_failures() == []

    assert all(len(done_ops) >= 100 for done_ops in ops.values()), \
        {cli: len(done_ops) for cli, done_ops in ops.items()}
    every = [op for done_ops in ops.values() for op in done_ops]
    assert max(t1 - t0 for t0, t1, _v, _c in every) < LOCK_TIMEOUT
    committed = {v for _t0, _t1, v, ok in every if ok}
    overwritten = [(t0, t1, v) for t0, t1, v, ok in every if not ok]
    assert overwritten
    assert len(overwritten) == cluster.stats.counters["overwritten"]
    # each committed value won exactly one commit CAS
    assert sorted(record.value for _at, record in commits) == sorted(committed)
    assert cluster.run_op(reader.search(key)) == commits[-1][1].value
    assert reads and set(reads) <= committed | {b"init"}
    assert not set(reads) & {value for _t0, _t1, value in overwritten}
    commit_times = [at for at, _record in commits]
    for t0, t1, _value in overwritten:
        assert any(t0 <= at <= t1 for at in commit_times), (t0, t1)


def test_an_overwritten_writer_keeps_the_slot_it_queried():
    """Two closed-loop writers on one key, as above: the writer that
    starts without a cache entry queries the buckets once.  An op
    overwritten after a query caches the words the query read, with the
    len of the record that proved them and a heat that makes its next
    write refresh them; later ops cost a 16 B READ, never a query."""
    cluster = make_aceso(num_cns=2, clients_per_cn=1, blocks_per_mn=128)
    key = b"ver-progress"
    c0, c1 = cluster.clients
    cluster.run_op(c0.insert(key, b"init"))
    logs = [VerbLog(c0), VerbLog(c1)]
    env = cluster.env
    end = env.now + 5e-3
    committed = {c0.cli_id: [], c1.cli_id: []}

    def write_loop(client, i):
        j = 0
        while env.now < end:
            ok = yield from client.update(key, b"w%d-%05d" % (i, j))
            committed[client.cli_id].append(ok)
            j += 1

    procs = [env.process(write_loop(c, i)) for i, c in enumerate((c0, c1))]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []
    assert cluster.stats.counters["overwritten"] > 100
    assert [log.bucket_queries for log in logs] == [0, 1]
    entry = cached(c1.cache, key)
    index, bucket, slot = locate_slot(cluster, key)
    assert (entry.bucket, entry.slot) == (bucket, slot)
    assert entry.len_units == index.read_meta(bucket, slot).len_units


def test_a_value_only_writer_caches_nothing_it_was_overwritten_on():
    """The same two writers on the ``+ckpt`` factor step, whose
    value_only cache uses a cached pair as it is: an op overwritten after
    a bucket query stores no entry, since the words that query read are
    known stale and the next write's CAS would lose to them for certain.
    The next op queries again."""
    from repro.config import factor_config
    from repro.core.store import AcesoCluster
    from tests.conftest import small_cluster_kwargs
    cluster = AcesoCluster(factor_config("+ckpt", **small_cluster_kwargs(
        num_cns=2, clients_per_cn=1, blocks_per_mn=128)))
    cluster.start()
    key = b"ver-progress"
    c0, c1 = cluster.clients
    assert c1.cache.policy == "value_only"
    cluster.run_op(c0.insert(key, b"init"))
    logs = [VerbLog(c0), VerbLog(c1)]
    env = cluster.env
    end = env.now + 2e-3
    queried_and_overwritten = []

    def write_loop(client, log, i):
        j = 0
        while env.now < end:
            queries = log.bucket_queries
            ok = yield from client.update(key, b"w%d-%05d" % (i, j))
            if not ok and log.bucket_queries > queries:
                queried_and_overwritten.append(cached(client.cache, key))
            j += 1

    procs = [env.process(write_loop(c, log, i))
             for i, (c, log) in enumerate(zip((c0, c1), logs))]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []
    assert len(queried_and_overwritten) > 10
    assert set(queried_and_overwritten) == {None}


def twin_setup():
    """A cluster whose key ``cold-twin-0`` is absent and shares its bucket
    pair with one other key of the same fingerprint, stored there by
    client 0; client 1 has its block of the key's size class open.
    Returns (cluster, key, value, other, (bucket, slot) of other)."""
    from repro.index.hashing import fingerprint8
    cluster = make_aceso()
    c0, c1 = cluster.clients
    key, value = b"cold-twin-0", b"x" * 100
    home = home_of(key, 5)
    index = cluster.mns[home].index
    shared = set(index.candidate_buckets(key))
    other = next(k for k in (b"twin-%d" % i for i in range(100000))
                 if home_of(k, 5) == home
                 and fingerprint8(k) == fingerprint8(key)
                 and shared & set(index.candidate_buckets(k)))
    cluster.run_op(c0.insert(other, b"other-value"))
    cluster.run_op(c1.insert(b"cold-warm", value))   # open c1's block
    _index, bucket, slot = locate_slot(cluster, other)
    if bucket not in shared:
        # keep the twin in the bucket both keys query
        dst = next((b, s) for b in sorted(shared) for s in
                   range(index.bucket_slots) if index.read_atomic(b, s).empty)
        index.write_atomic(*dst, index.read_atomic(bucket, slot))
        index.write_meta(*dst, index.read_meta(bucket, slot))
        index.write_atomic(bucket, slot, AtomicField())
        index.write_meta(bucket, slot, MetaField(0, 0))
        bucket, slot = dst
        c0.cache.invalidate(other)
    return cluster, key, value, other, (bucket, slot)


def test_cold_miss_proof_of_a_twin_key():
    """A cold UPDATE whose query finds one fingerprint candidate reads
    that candidate's KV pair before it writes anything.  When that is
    another key of the same fingerprint, the UPDATE finds no key, from
    its one bucket query, and leaves no KV pair behind.  With the key in
    its own slot as well, the query has two candidates, verified before
    the write: the value commits in the key's own slot.  Either way the
    other key is unchanged."""
    from repro.chaos.oracle import walk_index
    from repro.core.kvpair import parse_kv
    from repro.errors import KeyNotFoundError
    from repro.memory.address import GlobalAddress
    cluster, key, value, other, (bucket, slot) = twin_setup()
    c0, c1 = cluster.clients
    index = cluster.mns[home_of(key, 5)].index
    twin = (index.read_atomic(bucket, slot), index.read_meta(bucket, slot))

    log = VerbLog(c1)
    with pytest.raises(KeyNotFoundError):
        cluster.run_op(c1.update(key, value))
    size = slot_bytes(key, value)
    assert log.bucket_queries == 1
    assert log.take() == ([("READ", slot_bytes(other, b"other-value"))], 2)
    assert cluster.stats.per_op["UPDATE"].errors == 1

    # the key in its own slot too: two candidates, verified first
    cluster.run_op(c0.insert(key, b"f" * 100))
    log.bucket_queries = 0
    assert cluster.run_op(c1.update(key, value))
    assert log.bucket_queries == 1
    verbs, round_trips = log.take()
    reads = len(verbs) - 3          # the KV READs, then KV + delta and CAS
    assert verbs[reads:] == [("WRITE", size), ("WRITE", size), ("CAS", 8)]
    assert set(verbs[:reads]) <= {("READ", size),
                                  ("READ", slot_bytes(other, b"other-value"))}
    assert round_trips == 1 + reads + 2
    _index, key_bucket, key_slot = locate_slot(cluster, key)
    assert (key_bucket, key_slot) != (bucket, slot)
    ga = GlobalAddress.unpack(index.read_atomic(key_bucket, key_slot).addr)
    record = parse_kv(cluster.mns[ga.node_id].read_bytes(ga.offset, size))
    assert (record.key, record.value) == (key, value)
    assert (index.read_atomic(bucket, slot), index.read_meta(bucket, slot)) \
        == twin
    assert cluster.run_op(c0.search(other)) == b"other-value"
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_a_crash_inside_a_cold_update_of_an_absent_key_creates_nothing():
    """An UPDATE can only fail on an absent key, so no crash inside it may
    leave a KV pair that recovery would adopt.  Client 1's cold UPDATE
    finds one candidate, a twin key of the same fingerprint; its CN dies
    the instant the READ of the twin's pair lands.  After the client's
    recovery and a crash and recovery of the key's home MN (whose index
    recovery re-places every key it finds a live record of), the key is
    still absent, the twin unchanged and the index clean."""
    from repro.chaos.oracle import walk_index
    from repro.cluster.master import MnState
    from repro.errors import KeyNotFoundError
    cluster, key, value, other, _twin = twin_setup()
    env = cluster.env
    c0, c1 = cluster.clients
    home = home_of(key, 5)
    proof_bytes = slot_bytes(other, b"other-value")
    post_read = c1._post_read
    crashed = env.event()

    def dead(*_args):
        return env.event()          # a dead CN posts nothing

    def crash(_read):
        cluster.crash_cn(c1.cn.node_id)
        c1._post_read = c1._post_write = c1._post_cas = dead
        crashed.succeed()

    def read(node, offset, length):
        event = post_read(node, offset, length)
        if length == proof_bytes and not crashed.triggered:
            event.add_callback(crash)
        return event

    c1._post_read = read
    log = VerbLog(c1)

    def cold_update():
        try:
            yield from c1.update(key, value)
        except KeyNotFoundError:
            pass            # the crash instant's own resume may end it

    c1._spawn(cold_update(), "cold-update")
    env.run_until_event(crashed, limit=env.now + 0.01)
    assert crashed.triggered and not c1.alive
    assert [v for v in log.verbs if v[0] != "READ"] == []
    cluster.run(env.now + 0.001)           # whatever was in flight lands
    new_client, proc = cluster.restart_client(c1)
    env.run_until_event(proc, limit=env.now + 30)
    assert proc.value is new_client
    cluster.crash_mn(home)
    env.run_until_event(cluster.master.milestone(home, MnState.RECOVERED),
                        limit=env.now + 120)
    with pytest.raises(KeyNotFoundError):
        cluster.run_op(c0.search(key))
    assert cluster.run_op(c0.search(other)) == b"other-value"
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_rollover_claims_its_block_slot_before_the_lock():
    """A rollover write whose size class has no block left allocates one
    before it takes the Meta lock: the allocation stall (the leader's
    ``alloc_block`` held 1 ms here) holds no lock, so the key's other
    writer neither polls the lock to LOCK_TIMEOUT nor takes it over — it
    rolls the slot over itself, and the stalled writer, whose lock CAS
    then loses, starts over from the new words."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso(blocks_per_mn=192)
    env = cluster.env
    c0, c1 = cluster.clients
    key, value = b"ver-roll-stall", b"x" * 100
    cluster.run_op(c0.insert(key, b"x"))            # ver 1
    cluster.run_op(c1.search(key))
    cluster.run_op(c1.update(key, value))           # ver 2: c1 has a block
    for i in range(253):
        cluster.run_op(c0.update(key, b"%d" % i))   # ver 0xFF, small values
    cluster.run_op(c1.search(key))
    assert AtomicField.unpack(cached(c1.cache, key).atomic_word).ver == 0xFF
    size = slot_bytes(key, value)
    assert c0.blocks.open_block(size) is None and size not in c0._prefetched

    rpc = cluster.servers[0].rpc_server             # the leader's
    alloc = rpc.handler("alloc_block")

    def held(*args):
        yield env.timeout(1e-3)
        grant = yield from alloc(*args)
        return grant

    rpc._handlers["alloc_block"] = held
    took = {}

    def update(client, delay, new):
        yield env.timeout(delay)
        t0 = env.now
        yield from client.update(key, new)
        took[client.cli_id] = env.now - t0

    procs = [env.process(update(c0, 0.0, b"y" * 100)),
             env.process(update(c1, 5e-6, value))]
    env.run_until_event(env.all_of(procs))
    assert env.unexpected_failures() == []
    assert cluster.stats.counters.get("lock_takeovers", 0) == 0
    assert took[c1.cli_id] < LOCK_TIMEOUT
    index, bucket, slot = locate_slot(cluster, key)
    assert index.read_meta(bucket, slot).epoch == 2
    assert index.read_atomic(bucket, slot).ver == 1
    assert cluster.run_op(c1.search(key)) == b"y" * 100


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
    entry = cached(c1.cache, key)
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
    assert AtomicField.unpack(cached(c1.cache, key).atomic_word).ver == 0xFF
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
    assert cached(cold.cache, key).len_units * 64 == slot_bytes(key, value)
    # and a writer that locates the key through the stale slot repairs it
    cold.cache.invalidate(key)
    cluster.run_op(cold.update(key, value))
    assert index.read_meta(bucket, slot).len_units * 64 \
        == slot_bytes(key, value)


# ---------------------------------------------------------------------
# refresh: the fresh pair drives the rest of Algorithm 1
# ---------------------------------------------------------------------

def hot_entry(cluster, key, writer, client):
    """Leave *client* with an entry of *key* it refreshes before a write:
    one of its looks found *writer*'s commit."""
    cluster.run_op(client.search(key))
    cluster.run_op(writer.update(key, b"seen"))
    cluster.run_op(client.search(key))
    assert cached(client.cache, key).heat > 0


def test_refresh_finding_ver_0xff_rolls_over():
    """The refreshed pair, not the cached one, decides the rollover: a
    writer whose cached ``ver`` is 0xFE reads 0xFF, locks the Meta field,
    commits ``ver`` 0 under the next epoch and unlocks — no lost CAS."""
    cluster = make_aceso(blocks_per_mn=192)
    c0, c1 = cluster.clients
    key = b"ver-refresh-roll"
    cluster.run_op(c0.insert(key, b"x"))            # ver 1
    for i in range(252):
        cluster.run_op(c0.update(key, b"%d" % i))   # ver 0xFD
    hot_entry(cluster, key, c0, c1)                 # ver 0xFE, cached
    cluster.run_op(c0.update(key, b"last"))         # ver 0xFF
    assert AtomicField.unpack(cached(c1.cache, key).atomic_word).ver == 0xFE
    log = VerbLog(c1)
    cluster.run_op(c1.update(key, b"rolled"))
    size = slot_bytes(key, b"rolled")
    assert log.verbs == [("READ", 16), ("CAS", 8),              # lock
                         ("WRITE", size), ("WRITE", size), ("CAS", 8),
                         ("CAS", 8)]                            # unlock
    assert cluster.stats.counters.get("commit_conflicts", 0) == 0
    index, bucket, slot = locate_slot(cluster, key)
    assert index.read_atomic(bucket, slot).ver == 0
    assert index.read_meta(bucket, slot) == MetaField(2, size // 64)
    assert cluster.run_op(c0.search(key)) == b"rolled"


def test_refresh_finding_the_meta_locked_waits_for_the_lock():
    """A refresh that lands while the rollover lock is held sees the odd
    epoch and takes the lock path — poll, then take over a dead holder's
    lock — where a trusted pair would have CASed straight through it."""
    from repro.core.api import LOCK_TIMEOUT
    cluster = make_aceso()
    c0, c1 = cluster.clients
    key = b"ver-refresh-lock"
    cluster.run_op(c0.insert(key, b"x"))
    hot_entry(cluster, key, c0, c1)
    index, bucket, slot = locate_slot(cluster, key)
    meta = index.read_meta(bucket, slot)
    index.write_meta(bucket, slot, MetaField(meta.epoch + 1, meta.len_units))
    assert not MetaField.unpack(cached(c1.cache, key).meta_word).locked
    log = VerbLog(c1)
    t0 = cluster.env.now
    cluster.run_op(c1.update(key, b"rescued"))
    assert cluster.env.now - t0 >= LOCK_TIMEOUT
    assert log.verbs[:2] == [("READ", 16), ("READ", 8)]     # refresh, poll
    assert cluster.stats.counters["lock_takeovers"] == 1
    assert not index.read_meta(bucket, slot).locked
    assert cluster.run_op(c0.search(key)) == b"rescued"


def test_shared_key_mix_commits_in_one_cas_mostly():
    """``ycsb_a`` in small: 12 closed-loop clients, Zipf 0.99 over shared
    keys, half the ops UPDATEs.  Once the caches know which keys have
    other writers, three commits in four go through on the first CAS —
    pinned here, about a quarter above what this mix measures (0.24 lost
    CASes and 1.24 CASes per UPDATE; 0.70 / 1.70 when every cached pair
    was trusted), so that the protocol cost is guarded before throughput
    moves."""
    from repro.workloads import WorkloadRunner, ycsb_load_ops, ycsb_stream
    cluster = make_aceso(num_cns=6, clients_per_cn=2, blocks_per_mn=256,
                         index_buckets=1024)
    clients, keys, seed = cluster.clients, 2000, 7
    runner = WorkloadRunner(cluster)
    runner.load([ycsb_load_ops(c.cli_id, len(clients), keys, 180, seed=seed)
                 for c in clients])
    result = runner.measure(
        [ycsb_stream("A", c.cli_id, keys, 180, seed=seed) for c in clients],
        duration=0.004, warmup=0.008)
    update = cluster.stats.per_op["UPDATE"]
    assert update.ops > 1500 and result.total_ops > 3000
    assert result.per_op["UPDATE"]["errors"] == 0
    counters = result.counters
    assert counters["slot_refresh_stale"] > 0.5 * counters["slot_refreshes"]
    assert counters["commit_conflicts"] / update.ops <= 0.30
    assert update.cas_issued / update.ops <= 1.30
