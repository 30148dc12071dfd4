"""Failure handling and tiered recovery (§3.4)."""

import pytest

from repro.cluster.master import MnState
from repro.errors import KeyNotFoundError
from repro.index.hashing import home_of
from repro.workloads import WorkloadRunner, load_ops, micro_stream
from repro.workloads.micro import micro_key

from tests.conftest import cached, make_aceso, small_cluster_kwargs


def make_coded(codec="xor", **overrides):
    """An Aceso cluster with the given erasure codec."""
    from repro import aceso_config
    from repro.core.store import AcesoCluster
    cfg = aceso_config(**small_cluster_kwargs(**overrides))
    cfg.coding.codec = codec
    cluster = AcesoCluster(cfg)
    cluster.start()
    return cluster


def loaded_cluster(keys_per_client=120, make=make_aceso, **overrides):
    cluster = make(**overrides)
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


def test_a_grant_from_before_its_node_crashed_is_not_written_through():
    """A client found its open block writable, then the block's data
    node crashed and came back: the recovered node may hand that space
    out again, so the next write abandons the grant.  The write path
    re-checks a grant only when ``Master.version`` moved, so the crash
    and the recovery milestones must move it."""
    cluster = make_aceso()
    c = cluster.clients[0]
    key, value = b"grant-key", b"g" * 150
    cluster.run_op(c.insert(key, value))
    cluster.run_op(c.update(key, value))
    block = c.blocks.open_block(192)
    assert block.writable_at == cluster.master.version
    node = block.grant.data_node
    crash_and_recover(cluster, node)
    cluster.run_op(c.update(key, b"h" * 150))
    assert c.blocks.open_block(192) is not block
    start = block.grant.data_offset
    kv_addr = cached(c.cache, key).atomic_word & ((1 << 48) - 1)
    assert not (kv_addr >> 40 == node
                and start <= kv_addr & ((1 << 40) - 1)
                < start + cluster.config.cluster.block_size)
    assert cluster.run_op(c.search(key)) == b"h" * 150


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
    """Hook the recovery driver: one (recovery-class bytes posted with
    the call, resolver) pair per lost block whose rebuild was started —
    the aggregator's reads of the other holders' blocks — and the stripe
    id of every holder-side fold asked for (an aggregator other than the
    P holder reads the folded block later, when the fold RPC has
    returned)."""
    recovery, fabric = cluster._recovery, cluster.fabric
    start, fold = recovery._start_block_reads, recovery._fold_parity
    reads, folds = [], []

    def hooked(server, meta):
        before = fabric.bytes_by_class.get("recovery", 0)
        started = start(server, meta)
        if started is not None:
            posted = fabric.bytes_by_class.get("recovery", 0) - before
            reads.append((posted, started[0]))
        return started

    def hooked_fold(run, agg, psrv, sid):
        folds.append(sid)
        return fold(run, agg, psrv, sid)

    recovery._start_block_reads = hooked
    recovery._fold_parity = hooked_fold
    return reads, folds


def gathered_from(cluster, resolver):
    """The node each block a rebuild gathered sits on: its data shards,
    its parity blocks and the live DELTA blocks (on the P holder)."""
    k, sid = cluster.codec.k, resolver["sid"]
    shards, data = resolver["shards"], resolver["reference"].data
    return ([data[j][0] for j in range(k) if shards[j] is not None]
            + [cluster.layout.node_of(sid, k + i)
               for i in range(cluster.codec.m) if shards[k + i] is not None]
            + [cluster.layout.node_of(sid, k)] * len(resolver["deltas"]))


def data_blocks(mn):
    from repro.memory.blocks import Role
    return {meta.block_id: bytes(mn.blocks.buffer(meta.block_id))
            for meta in mn.blocks.meta
            if meta.role is Role.DATA and meta.valid}


def p_record(cluster, sid):
    """(P holder's server, its record) of stripe *sid*."""
    server = cluster.servers[cluster.layout.node_of(sid, cluster.codec.k)]
    return server, server.stripes[sid]


def live_deltas(cluster, sid):
    """Positions of stripe *sid* whose DELTA block is live."""
    return [j for j, dblk in enumerate(p_record(cluster, sid)[1].delta_blocks)
            if dblk is not None]


def twin_served(cluster, meta):
    """Whether lost DATA block *meta* would be copied from its DELTA twin:
    its P holder's record says the position was granted fresh (baseline
    zero in P) and its DELTA block is live."""
    record = p_record(cluster, meta.stripe_id)[1]
    return (record.fresh[meta.xor_id]
            and record.delta_blocks[meta.xor_id] is not None)


def decoded(reads):
    """The rebuilds of *reads* that decode (not copied from a twin)."""
    return [(posted, r) for posted, r in reads if "twin" not in r]


def test_single_failure_reads_only_the_shards_it_needs():
    """One lost MN is one erasure per stripe, and one parity block
    decodes it whatever the stripe's state: a rebuild gathers the other
    allocated data shards plus P — as it is when the stripe has no live
    delta, else folded with them by its holder (one RPC, one block read
    once it returned, or nothing to read when the P holder aggregates).
    The aggregator is one of those holders and reads the others' blocks;
    neither Q nor any DELTA block is read or charged, and every block
    comes back byte for byte.  A block the DELTA twin serves is not
    decoded, so the open block's stripe is re-baselined first (its P
    holder crashed and recovered): its deltas stay live, and its blocks
    are decoded through the fold."""
    from repro.rdma.verbs import WIRE_HEADER
    cluster, runner, n = loaded_cluster()
    k = cluster.codec.k
    # an 8 KiB block is one read chunk: one wire header per block
    per_block = cluster.config.cluster.block_size + WIRE_HEADER
    # the MN holding a client's open block: its stripe has a live delta
    grant = next(iter(cluster.clients[0].blocks.all_open())).grant
    crash_and_recover(cluster, cluster.layout.node_of(grant.stripe_id, k))
    assert live_deltas(cluster, grant.stripe_id)
    victim = grant.data_node
    before = data_blocks(cluster.mns[victim])
    reads, folds = log_block_reads(cluster)
    report = crash_and_recover(cluster, victim)
    assert len(reads) >= len(before) > 0
    folded, fold_reads = [], 0
    for posted, resolver in decoded(reads):
        shards, reference = resolver["shards"], resolver["reference"]
        others = [j for j in range(k)
                  if j != resolver["pos"] and reference.data[j] is not None]
        assert all(shards[j] is not None for j in others)
        assert shards[k] is not None and shards[k + 1] is None
        assert resolver["deltas"] == {}
        holders = gathered_from(cluster, resolver)
        assert resolver["agg"] in holders and victim not in holders
        fold = bool(live_deltas(cluster, resolver["sid"]))
        p_node = cluster.layout.node_of(resolver["sid"], k)
        # the folded P is read once its holder is done, not with the call
        assert posted == sum(node != resolver["agg"] and not (
            fold and node == p_node) for node in holders) * per_block
        if fold:
            folded.append(resolver["sid"])
            fold_reads += resolver["agg"] != p_node
    assert folds == folded and folds                    # open blocks
    served = sum(s.mn.rpc.requests_served for s in cluster.servers.values())
    assert served >= fold_reads
    # all in all: every rebuild gathered its other data shards and one
    # parity block but the aggregator's own — nothing DELTA-sized on top
    gathered = (sum(posted for posted, _r in decoded(reads))
                + fold_reads * per_block)
    assert gathered == sum(
        sum(s is not None for s in r["shards"]) - 1
        for _p, r in decoded(reads)) * per_block
    assert report.recovery_bytes >= gathered + len(reads) * per_block
    assert data_blocks(cluster.mns[victim]) == before


def test_a_second_erasure_still_reads_the_live_deltas():
    """The holder-side fold is for single erasures.  With two data
    holders of an unsealed stripe down and its P holder alive, a rebuild
    gathers P, Q and every live DELTA block at its aggregator, which
    folds them itself.  The stripe is re-baselined first (its P holder
    crashed and recovered), so no block of it is a DELTA twin."""
    from repro.rdma.verbs import WIRE_HEADER
    cluster, runner, n = loaded_cluster()
    k = cluster.codec.k
    per_block = cluster.config.cluster.block_size + WIRE_HEADER
    grant = next(iter(cluster.clients[0].blocks.all_open())).grant
    sid = grant.stripe_id
    crash_and_recover(cluster, cluster.layout.node_of(sid, k))
    assert live_deltas(cluster, sid)
    first, second = [cluster.layout.node_of(sid, j) for j in range(k)][:2]
    reads, folds = log_block_reads(cluster)
    cluster.crash_mn(first)
    cluster.crash_mn(second)
    for victim in (first, second):
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    double = [(posted, r) for posted, r in reads
              if r["sid"] == sid and r["shards"][k + 1] is not None]
    assert double
    for posted, resolver in double:
        assert resolver["shards"][k] is not None and resolver["deltas"]
        holders = gathered_from(cluster, resolver)
        assert len(holders) == (sum(s is not None for s in resolver["shards"])
                                + len(resolver["deltas"]))
        assert posted == sum(node != resolver["agg"]
                             for node in holders) * per_block
    # the stripe is folded for again only once it is down to one erasure
    assert folds.count(sid) == sum(
        1 for _posted, r in reads
        if r["sid"] == sid and r["shards"][k + 1] is None)


@pytest.mark.parametrize("codec", ["xor", "rs"])
def test_rebuilt_blocks_are_byte_identical_for_any_number_of_live_deltas(
        codec):
    """Each MN in turn is crashed and rebuilt.  Its DATA blocks sit in
    stripes with 0 ... k live DELTA blocks (open blocks of other clients,
    its own open block, allocated-but-empty ones); each comes back byte
    for byte under either codec, and the fold left the holder's P block,
    DELTA blocks and XOR Map exactly as they were.  The 0 ... k count is
    of decoded blocks: a fresh grant with a live delta is copied from its
    DELTA twin instead, with no fold, until its P holder's turn
    re-baselines the stripe — later victims' blocks there are decoded, so
    the P holders of stripes open at every position go first."""
    from repro.memory.blocks import Role
    fills = (10, 10, 10, 96, 96, 96, 20, 32)    # 32 slots per block
    cluster = make_coded(codec, num_cns=len(fills), clients_per_cn=1)
    for client, fill in zip(cluster.clients, fills):
        for i in range(fill):
            cluster.run_op(client.insert(micro_key(client.cli_id, i),
                                         b"v" * 180))
    cluster.run(cluster.env.now + 0.05)
    k = cluster.codec.k
    seen = set()
    reads, folds = log_block_reads(cluster)

    def all_open(node):
        """P stripes of *node* with a live delta at every position."""
        return sum(1 for record in cluster.servers[node].stripes.values()
                   if record.parity_index == 0
                   and len(live_deltas(cluster, record.stripe_id)) == k)

    # the P holders of stripes open everywhere go first: their turn
    # re-baselines those stripes, and later turns decode blocks there
    for victim in sorted(cluster.mns, key=lambda node: -all_open(node)):
        mn = cluster.mns[victim]
        before = data_blocks(mn)
        holders, folded = {}, set()
        for meta in mn.blocks.meta:
            if meta.role is not Role.DATA:
                continue
            server, record = p_record(cluster, meta.stripe_id)
            if not twin_served(cluster, meta):
                seen.add(len(live_deltas(cluster, meta.stripe_id)))
                folded.add(meta.stripe_id)
            holders[meta.stripe_id] = (
                server, record, list(record.sealed),
                list(record.delta_blocks),
                [bytes(server.mn.blocks.buffer(b))
                 for b in [record.parity_block] + record.delta_blocks
                 if b is not None])
        del folds[:]
        crash_and_recover(cluster, victim)
        assert data_blocks(mn) == before, victim
        assert sorted(folds) == sorted(
            sid for sid, held in holders.items() if sid in folded and any(
                b is not None for b in held[3]))
        for server, record, sealed, delta_blocks, contents in \
                holders.values():
            assert record is server.stripes[record.stripe_id]
            assert record.sealed == sealed
            assert record.delta_blocks == delta_blocks
            assert contents == [
                bytes(server.mn.blocks.buffer(b))
                for b in [record.parity_block] + delta_blocks
                if b is not None]
    assert seen == set(range(k + 1))
    assert any("twin" in r for _posted, r in reads)


def test_a_fresh_unsealed_block_is_rebuilt_from_its_delta_twin():
    """A fresh grant's baseline in P is zero, so while the block is
    unsealed its DELTA block holds the same bytes: its twin.  Each such
    lost block is rebuilt by one block-sized read from its P holder into
    the recovering node — no shard gathered, no fold asked for, no decode
    run — and comes back byte for byte."""
    from repro.memory.blocks import Role
    from repro.rdma.verbs import WIRE_HEADER
    cluster, runner, n = loaded_cluster()
    k = cluster.codec.k
    per_block = cluster.config.cluster.block_size + WIRE_HEADER
    grant = next(iter(cluster.clients[0].blocks.all_open())).grant
    victim = grant.data_node
    mn = cluster.mns[victim]
    before = data_blocks(mn)
    twins = {meta.block_id for meta in mn.blocks.meta
             if meta.role is Role.DATA and twin_served(cluster, meta)}
    assert grant.data_block in twins and len(twins) < len(before)
    for block_id in twins:
        meta = mn.blocks.meta[block_id]
        psrv, record = p_record(cluster, meta.stripe_id)
        assert bytes(psrv.mn.blocks.buffer(
            record.delta_blocks[meta.xor_id])) == before[block_id]
    reads, folds = log_block_reads(cluster)
    reconstruct, decodes = cluster.codec.reconstruct, []

    def counted(shards):
        decodes.append(shards)
        return reconstruct(shards)

    cluster.codec.reconstruct = counted
    crash_and_recover(cluster, victim)
    copied = [(posted, r) for posted, r in reads if "twin" in r]
    assert {r["meta"].block_id for _posted, r in copied} == twins
    for posted, resolver in copied:
        assert posted == per_block
        assert resolver["agg"] == cluster.layout.node_of(resolver["sid"], k)
        assert resolver["shards"] == [None] * len(resolver["shards"])
        assert resolver["sid"] not in folds
    assert len(decodes) == len(reads) - len(copied) > 0
    assert data_blocks(mn) == before


def twin_setup():
    """A loaded cluster past a checkpoint round (the scrub and the
    re-apply take time), the MN with the most DELTA twins, its DATA
    blocks ({block id: bytes}) and the ids of those its twins serve, and
    {key: value} of the committed keys whose record lives in one of
    them."""
    from repro.memory.address import GlobalAddress
    from repro.memory.blocks import Role
    from tests.test_core_versioning import locate_slot
    cluster, runner, n = loaded_cluster()
    cluster.run(cluster.env.now + 0.6)
    expected = snapshot(cluster, n)

    def twins_of(mn):
        return {meta.block_id for meta in mn.blocks.meta
                if meta.role is Role.DATA and twin_served(cluster, meta)}

    victim = max(cluster.mns, key=lambda node: len(twins_of(
        cluster.mns[node])))
    mn = cluster.mns[victim]
    twins = twins_of(mn)
    in_twins = {}
    for key, value in expected.items():
        index, bucket, slot = locate_slot(cluster, key)
        ga = GlobalAddress.unpack(index.read_atomic(bucket, slot).addr)
        if ga.node_id == victim and mn.blocks.locate(ga.offset)[0] in twins:
            in_twins[key] = value
    return cluster, victim, data_blocks(mn), twins, in_twins


def test_twins_are_walked_at_their_p_holders_and_streamed_after_the_scrub():
    """A lost block its DELTA twin serves is no Recover LBlock job: its P
    holder walks the twin beside its own recent blocks and ships the
    records homed on the victim, merged under the lost block's address,
    so every key of a twin is in the index at ``INDEX_RECOVERED``.  The
    twins' bytes come by one stream: no twin read into the victim is
    posted before the scrub starts, at most one is in flight before the
    Index milestone, and after ``RECOVERED`` every twin is byte for byte
    what it was before the crash."""
    from repro.memory.address import GlobalAddress
    from tests.test_core_versioning import locate_slot
    cluster, victim, before, twins, in_twins = twin_setup()
    env, recovery = cluster.env, cluster._recovery
    k = cluster.codec.k
    homed = [key for key in in_twins if home_of(key, 5) == victim]
    assert len(twins) > 1 and homed
    scan, start_twin = recovery._scan_at_holder, recovery._start_twin
    walked, streamed = [], []       # (holder, owner, block); [posted, landed]

    def hooked_scan(run, rescan, holder, entries):
        walked.extend((holder.node_id, owner, block_id)
                      for owner, block_id, _data, _size in entries)
        yield from scan(run, rescan, holder, entries)

    def hooked_twin(run, meta, psrv, prec):
        resolver, delivered = start_twin(run, meta, psrv, prec)
        read = [env.now, None]
        streamed.append(read)
        delivered.add_callback(lambda _event: read.__setitem__(1, env.now))
        return resolver, delivered

    recovery._scan_at_holder = hooked_scan
    recovery._start_twin = hooked_twin
    cluster.crash_mn(victim)
    env.run_until_event(
        cluster.master.milestone(victim, MnState.INDEX_RECOVERED),
        limit=env.now + 120)
    for key in homed:       # the twin's record, at the lost block's address
        index, bucket, slot = locate_slot(cluster, key)
        ga = GlobalAddress.unpack(index.read_atomic(bucket, slot).addr)
        assert ga.node_id == victim
        assert cluster.mns[victim].blocks.locate(ga.offset)[0] in twins
    env.run_until_event(cluster.master.milestone(victim, MnState.RECOVERED),
                        limit=env.now + 120)
    report = recovery.reports[-1]
    mn = cluster.mns[victim]
    assert sorted(block for _h, owner, block in walked
                  if owner == victim) == sorted(twins)
    for holder, owner, block_id in walked:
        if owner == victim:
            assert holder == cluster.layout.node_of(
                mn.blocks.meta[block_id].stripe_id, k)
    assert report.rblock_count == sum(owner != victim
                                      for _h, owner, _b in walked)
    assert report.lblock_count >= len(twins) and report.kv_count
    scrub_start = report.index_done_at - report.apply_s - report.scrub_s
    assert len(streamed) == len(twins)
    assert all(posted >= scrub_start - 1e-12 for posted, _l in streamed)
    early = [read for read in streamed if read[0] < report.index_done_at]
    assert early and all(later[0] >= earlier[1]
                         for earlier, later in zip(early, early[1:]))
    assert report.twins_done_at == max(landed for _p, landed in streamed)
    assert report.row()["twins_done_ms"] > 0
    assert data_blocks(mn) == before


def test_a_search_between_the_milestones_reads_a_twin_degraded():
    """The Index milestone does not wait for the twin stream.  With every
    twin read held on the wire, a SEARCH of a key whose only record lives
    in a twin not yet installed, issued between the two milestones, is
    served by a degraded read from the block's stripe; once the reads
    land every twin is installed byte for byte and every key reads
    back."""
    cluster, victim, before, twins, in_twins = twin_setup()
    env, recovery = cluster.env, cluster._recovery
    expected = snapshot(cluster, 120)
    key = next(iter(in_twins))
    gate, start_twin = env.event(), recovery._start_twin

    def held(run, meta, psrv, prec):
        resolver, delivered = start_twin(run, meta, psrv, prec)
        return resolver, env.all_of([delivered, gate])

    recovery._start_twin = held
    cluster.crash_mn(victim)
    env.run_until_event(
        cluster.master.milestone(victim, MnState.INDEX_RECOVERED),
        limit=env.now + 120)
    mn = cluster.mns[victim]
    assert not any(mn.blocks.meta[block_id].valid for block_id in twins)
    counters = cluster.stats.counters
    degraded = counters["degraded_reads"]
    assert cluster.run_op(cluster.clients[0].search(key)) == in_twins[key]
    assert counters["degraded_reads"] > degraded
    assert cluster.master.mn_state(victim) == MnState.INDEX_RECOVERED
    gate.succeed()
    env.run_until_event(cluster.master.milestone(victim, MnState.RECOVERED),
                        limit=env.now + 120)
    assert data_blocks(mn) == before
    assert verify(cluster, expected) == []


@pytest.mark.parametrize("baseline", ["reuse_grant", "rebaselined"])
def test_a_block_whose_p_baseline_is_not_zero_is_decoded_not_copied(
        baseline):
    """The twin rule holds only while P's baseline for the position is
    zero.  A reuse grant's baseline is the block's old contents; a parity
    re-baseline (its P holder crashed and recovered) folds the landed KV
    pairs into P and zeroes their deltas.  Either way the DELTA block is
    no copy of the unsealed data block, P's record says so, and the lost
    block is decoded from its stripe, byte for byte."""
    if baseline == "reuse_grant":
        cluster = make_aceso(blocks_per_mn=20)
        client = cluster.clients[0]
        keys = [b"reuse-%04d" % i for i in range(96)]
        for key in keys:
            cluster.run_op(client.insert(key, b"V" * 150))

        def reused_block():
            return next((b for b in client.blocks.all_open()
                         if b.grant.reused and b.writes_done), None)

        # Updates obsolete slots, and the small pool forces their reuse.
        for _round in range(40):
            if reused_block() is not None:
                break
            for key in keys:
                cluster.run_op(client.update(key, b"W" * 150))
            cluster.run(cluster.env.now + 0.02)
        grant = reused_block().grant
    else:
        cluster, runner, n = loaded_cluster()
        grant = next(iter(cluster.clients[0].blocks.all_open())).grant
        crash_and_recover(cluster, cluster.layout.node_of(
            grant.stripe_id, cluster.codec.k))
    psrv, record = p_record(cluster, grant.stripe_id)
    pos = grant.stripe_pos
    mn = cluster.mns[grant.data_node]
    assert record.delta_blocks[pos] is not None and not record.fresh[pos]
    assert bytes(psrv.mn.blocks.buffer(record.delta_blocks[pos])) \
        != bytes(mn.blocks.buffer(grant.data_block))
    before = data_blocks(mn)
    reads, _folds = log_block_reads(cluster)
    crash_and_recover(cluster, grant.data_node)
    rebuilt = [r for _posted, r in reads
               if r["meta"].block_id == grant.data_block]
    assert len(rebuilt) == 1 and "twin" not in rebuilt[0]
    assert rebuilt[0]["shards"][cluster.codec.k] is not None
    assert data_blocks(mn) == before


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
    reads, _folds = log_block_reads(cluster)
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


def test_cn_torn_write_into_a_reused_block_rolls_back_to_the_backup():
    """§3.4.2 on a reused block: a torn write into a slot that held an
    obsolete KV pair of the block's previous life is rolled back to those
    bytes, which the data node kept as the block's reclamation backup
    (``read_backup``).  Zeroing the slot instead would leave P, encoded
    over the old contents, inconsistent with the stripe."""
    from repro.chaos.oracle import walk_index
    from repro.core.kvpair import encode_kv, wv_toggle
    from tests.test_core_blocks import stripe_invariant_holds
    cluster = make_aceso(blocks_per_mn=20)
    victim = cluster.clients[0]
    value = b"V" * 150
    keys = [b"reuse-%04d" % i for i in range(96)]
    for key in keys:
        cluster.run_op(victim.insert(key, value))

    def reused_block():
        return next((b for b in victim.blocks.all_open() if b.grant.reused),
                    None)

    # Updates obsolete slots, and the small pool forces their reuse.
    for _round in range(40):
        if reused_block() is not None:
            break
        for key in keys:
            cluster.run_op(victim.update(key, value))
        cluster.run(cluster.env.now + 0.02)
    block = reused_block()
    assert block is not None
    slot = block.take_slot()
    old = block.slot_old_bytes(slot)
    assert old[0] != 0
    kv_addr = block.kv_address(slot)
    slot_size = block.size_class.slot_size
    cluster.mns[kv_addr.node_id].write_bytes(kv_addr.offset, encode_kv(
        b"torn-key", b"torn-value", 99, slot_size,
        write_version=wv_toggle(old[0])))
    cluster.crash_cn(victim.cn.node_id)
    new_client, proc = cluster.restart_client(victim)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    assert proc.value is new_client
    assert cluster.mns[kv_addr.node_id].read_bytes(
        kv_addr.offset, slot_size) == old
    cluster.run(cluster.env.now + 0.05)          # seal and fold settle
    sid = block.grant.stripe_id
    server = cluster.servers[cluster.layout.node_of(sid, cluster.codec.k)]
    assert stripe_invariant_holds(cluster, sid, server.stripes[sid], server)
    for key in keys:
        assert cluster.run_op(new_client.search(key)) == value
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_cn_recovery_after_its_p_holder_recovered():
    """A recovered P holder re-claims each stripe's DELTA block as not
    valid, and the parity re-baseline rewrites it.  The re-baseline has
    to mark it valid again, or the CN recovery that later reads the delta
    fails on a "lost" block and the restarted client never reports
    recovered.  It also zeroes the deltas of the KV pairs it folded into
    P, which CN recovery must not take for torn writes and roll back.
    Crash and recover the P holder of a client's open block, then crash
    that client with a torn write in the block."""
    from repro.chaos.oracle import walk_index
    from repro.core.kvpair import encode_kv
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim = cluster.clients[1]
    slot_size = ((cluster.config.cluster.kv_size + 63) // 64) * 64
    block = victim.blocks.open_block(slot_size)
    assert block is not None
    crash_and_recover(cluster, cluster.layout.node_of(block.grant.stripe_id,
                                                      cluster.codec.k))
    kv_addr = block.kv_address(block.take_slot())
    cluster.mns[kv_addr.node_id].write_bytes(
        kv_addr.offset, encode_kv(b"torn-key", b"torn-value", 99, slot_size))
    cluster.crash_cn(victim.cn.node_id)
    new_client, proc = cluster.restart_client(victim)
    cluster.env.run_until_event(proc, limit=cluster.env.now + 30)
    assert proc.triggered and proc.value is new_client
    assert cluster.mns[kv_addr.node_id].read_bytes(
        kv_addr.offset, slot_size) == bytes(slot_size)
    assert verify(cluster, expected) == []
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


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


def crash_holder_when(cluster, triggers, pick):
    """Wrap each ``recovery.<trigger>`` so that the first call of any
    crashes the MN ``pick(*args)`` names; returns the list the crashed
    id lands in."""
    recovery = cluster._recovery
    crashed = []

    def hook(wrapped):
        def hooked(*args):
            if not crashed:
                crashed.append(pick(*args))
                cluster.crash_mn(crashed[0])
            return wrapped(*args)
        return hooked

    for trigger in triggers:
        setattr(recovery, trigger, hook(getattr(recovery, trigger)))
    return crashed


@pytest.mark.parametrize("dies", ["p_holder_while_folding",
                                  "data_holder_mid_rebaseline",
                                  "aggregator_mid_job",
                                  "holder_mid_scan",
                                  "p_holder_mid_twin_scan"])
def test_dependency_crash_in_a_new_stage_restarts_tiers(dies):
    """The waits of an aggregated job.  The P holder dying with a fold
    on its EC core fails the fold; a data holder dying before a
    re-baseline's capture fails that job; the aggregator dying after its
    helpers' blocks landed and before it delivered the Q of a P
    re-baseline fails the push, which installs nothing; a holder dying
    with its Read RBlock scan on its EC core, or a P holder with its
    walk of a DELTA twin of the victim's there, fails the scan, which
    merges nothing.  Either way the recovery wipes what it restored and
    restarts its tiers, now a double failure that needs the Q parity,
    and every key reads back
    (every written block is sealed; the live DELTA blocks the dead P
    holder takes with it belong to prefetched, still empty blocks)."""
    from repro.chaos.oracle import walk_index
    cluster, runner, n = loaded_cluster(keys_per_client=128)
    cluster.run(cluster.env.now + 0.1)  # drain seal + fold + Q forwards
    expected = snapshot(cluster, n)
    k = cluster.codec.k
    recovery = cluster._recovery
    reads, folds = log_block_reads(cluster)
    # a holder of parity blocks of two stripes, both re-baselined at once
    victim = max(cluster.servers,
                 key=lambda node: len(cluster.servers[node].stripes))
    if dies == "p_holder_while_folding":
        # a data holder of a stripe with a live DELTA block: folded for
        sid = next(sid for server in cluster.servers.values()
                   for sid, record in server.stripes.items()
                   if record.parity_index == 0 and live_deltas(cluster, sid))
        victim = next(loc[0] for loc in p_record(cluster, sid)[1].data if loc)
        second = crash_holder_when(
            cluster, ["_fold_parity"],
            lambda run, agg, psrv, sid: psrv.node_id)
    elif dies == "data_holder_mid_rebaseline":
        def holder_being_read(run, server, agg, sid, record, sources):
            ahead = next(other for other in server.stripes.values()
                         if other is not record)
            return next(loc[0] for loc in ahead.data if loc)

        second = crash_holder_when(
            cluster, ["_rebaseline_p", "_rebaseline_q"], holder_being_read)
    elif dies == "aggregator_mid_job":
        # the first aggregator to push a Q to another node dies once the
        # recovering node has its P, before the push: nothing else fails
        push = recovery._push_q
        second, pushed = [], []

        def crash_then_push(run, agg, sid, q, record):
            if not second and agg is not recovery._q_holder(sid):
                second.append(agg.node_id)
                yield cluster.env.timeout(50e-6)    # the hand-back landed
                cluster.crash_mn(agg.node_id)
            yield from push(run, agg, sid, q, record)
            pushed.append(agg.mn.alive)

        recovery._push_q = crash_then_push
    else:
        # the first holder to scan its recent blocks (or to walk a DELTA
        # twin of the victim's) dies while the walk is on its EC core
        if dies == "p_holder_mid_twin_scan":
            from repro.memory.blocks import Role
            victim = next(node for node, mn in cluster.mns.items() if any(
                meta.role is Role.DATA and twin_served(cluster, meta)
                for meta in mn.blocks.meta))
        scan = recovery._scan_at_holder
        second, on_core, merged = [], [], []

        def crash_soon(holder):
            yield cluster.env.timeout(1e-6)
            on_core.append(holder.mn.ec_core.backlog() > 0)
            cluster.crash_mn(holder.node_id)

        def crash_mid_scan(run, rescan, holder, entries):
            if not second and (dies == "holder_mid_scan" or any(
                    owner == run.node for owner, *_rest in entries)):
                second.append(holder.node_id)
                cluster.env.process(crash_soon(holder))
            yield from scan(run, rescan, holder, entries)
            merged.append(holder.node_id)

        recovery._scan_at_holder = crash_mid_scan
    cluster.crash_mn(victim)
    done = cluster.master.milestone(victim, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    assert second and second[0] != victim
    done = cluster.master.milestone(second[0], MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    report = next(r for r in cluster._recovery.reports
                  if r.node_id == victim)
    assert report.attempts == 2
    assert any(r["shards"][k + 1] is not None for _posted, r in reads)
    if dies == "aggregator_mid_job":
        # every Q installed came from a live aggregator
        assert pushed and all(pushed)
    if dies in ("holder_mid_scan", "p_holder_mid_twin_scan"):
        # the dead holder's scan merged nothing; the others' did
        assert on_core == [True]
        assert merged and second[0] not in merged
    assert verify(cluster, expected) == []
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems
    assert cluster.env.unexpected_failures() == []


def hold_meta_tier(cluster, node_id, delay):
    """Wrap ``recovery._recover_meta`` so that *node_id*'s first Meta tier
    starts *delay* seconds late: the node is back up (``mn.alive``) with
    the fresh metadata of a reboot, its master state still FAILED."""
    recovery = cluster._recovery
    recover_meta = recovery._recover_meta
    held = []

    def hooked(server, run):
        if server.node_id == node_id and not held:
            held.append(node_id)
            yield cluster.env.timeout(delay)
        yield from recover_meta(server, run)

    recovery._recover_meta = hooked
    return held


@pytest.mark.parametrize("first, second", [(1, 2), (2, 3), (1, 0)])
def test_a_node_in_its_meta_tier_is_no_recovery_source(first, second):
    """A second MN crashes while the first is back up but still before
    its Meta tier: the first's blocks all read FREE and its buffers zero.
    The second recovery must take neither a shard nor a parity
    re-baseline source from it, and must read its inventory of recent
    blocks only once its Meta milestone is reached — a zero shard decodes
    wrong bytes, an empty inventory rescans nothing.  Every key of both
    victims' blocks reads back, each recovery walked every record, and
    the index walks clean."""
    from repro.chaos.oracle import walk_index
    cluster, runner, n = loaded_cluster(keys_per_client=128)
    expected = snapshot(cluster, n)
    held = hold_meta_tier(cluster, first, 2e-3)
    cluster.crash_mn(first)
    cluster.run(cluster.env.now + 0.5e-3)
    assert held and cluster.mns[first].alive
    assert cluster.master.mn_state(first) == MnState.FAILED
    cluster.crash_mn(second)
    for victim in (first, second):
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 240)
    assert verify(cluster, expected) == []
    assert [r.kv_count for r in cluster._recovery.reports] \
        == [len(expected)] * 2
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_a_client_read_of_a_node_in_its_meta_tier_is_degraded():
    """A crashed MN's blocks come back not valid, so while the node is up
    but before its Meta tier a one-sided read of its Block Area fails
    instead of returning the zeros of a reboot.  A client reading a KV
    pair there sees the failure (its search is interrupted and waits for
    the node, or it reads the slot degraded) and gets the value."""
    from repro.errors import NodeFailedError
    from repro.memory.address import GlobalAddress
    from tests.test_core_versioning import locate_slot
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim = 1

    def kv_address(key):
        index, bucket, slot = locate_slot(cluster, key)
        return GlobalAddress.unpack(index.read_atomic(bucket, slot).addr)

    key = next(key for key in expected if home_of(key, 5) != victim
               and kv_address(key).node_id == victim)
    addr = kv_address(key)
    hold_meta_tier(cluster, victim, 2e-3)
    cluster.crash_mn(victim)
    cluster.run(cluster.env.now + 0.5e-3)
    mn = cluster.mns[victim]
    assert mn.alive and cluster.master.mn_state(victim) == MnState.FAILED
    assert not any(meta.valid for meta in mn.blocks.meta)
    with pytest.raises(NodeFailedError):
        mn.read_bytes(addr.offset, 64)
    counters = cluster.stats.counters
    assert not counters["degraded_reads"] + counters["search_interrupted"]
    assert cluster.run_op(cluster.clients[0].search(key)) == expected[key]
    assert counters["degraded_reads"] + counters["search_interrupted"] > 0
    assert cluster.master.mn_state(victim) != MnState.FAILED
    done = cluster.master.milestone(victim, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 120)
    assert verify(cluster, expected) == []


def test_the_leader_places_no_block_on_a_node_in_its_meta_tier():
    """The leader's placement trusts what recovery trusts: a node whose
    master state is FAILED gets no block, although it is back up
    (``mn.alive``) before its Meta tier.  Placed there, a DATA grant came
    from the free list of a reboot — ids of blocks that still hold the
    node's lost data — and its record was replicated, so the Meta tier
    restored the empty grant in their place: at the parent three of these
    twelve allocations landed on the victim, over its blocks 0-2, and 64
    keys were lost.  Now none lands there, and every key reads back."""
    from repro.chaos.oracle import walk_index
    cluster, runner, n = loaded_cluster()
    expected = snapshot(cluster, n)
    victim = 1
    hold_meta_tier(cluster, victim, 2e-3)
    cluster.crash_mn(victim)
    cluster.run(cluster.env.now + 0.5e-3)
    leader, client = cluster.leader_server(), cluster.clients[0]
    assert leader.node_id != victim
    grants = [cluster.run_op(client._rpc(leader, "alloc_block", client.cli_id,
                                         256, response_size=128))
              for _ in range(12)]
    assert cluster.mns[victim].alive
    assert cluster.master.mn_state(victim) == MnState.FAILED
    assert victim not in {grant.data_node for grant in grants}
    assert victim not in {grant.delta_node for grant in grants}
    done = cluster.master.milestone(victim, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 120)
    assert verify(cluster, expected) == []
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


# --------------------------------------------- the Index tier's data flow

def updated_after_checkpoint(cluster):
    """Update a few keys of each client before and after a checkpoint
    round; returns {key: last value}."""
    written = {}
    for phase in ("pre", "post"):
        for client in cluster.clients:
            for i in range(3):
                key = micro_key(client.cli_id, i)
                written[key] = b"%s-ckpt-%d" % (phase.encode(), i)
                cluster.run_op(client.update(key, written[key]))
        if phase == "pre":
            cluster.run(cluster.env.now + 0.6)
    return written


def log_posts(cluster):
    """Every verb group posted from here on: (instant, source node,
    destination node, traffic class, bytes on the wire)."""
    fabric = cluster.fabric
    submit = fabric._submit
    posts = []

    def hooked(src, dst, src_service, dst_service, wire, opcodes, fn, args,
               traffic_class, track):
        posts.append((cluster.env.now, src.node_id, dst.node_id,
                      traffic_class, wire))
        return submit(src, dst, src_service, dst_service, wire, opcodes, fn,
                      args, traffic_class, track)

    fabric._submit = hooked
    return posts


def test_report_stages_add_up():
    """The wall-clock stages of the report partition the recovery: no
    simulated time is spent outside a named stage."""
    cluster, runner, n = loaded_cluster()
    updated_after_checkpoint(cluster)
    report = crash_and_recover(cluster, 1)
    stages = dict(report.stages())
    assert abs(sum(stages.values()) - report.total_time) < 1e-6
    assert abs(stages["read_meta"] - report.meta_time) < 1e-9
    assert abs(stages["recover_old"] + stages["rebaseline"]
               - report.block_time) < 1e-9
    assert min(stages.values()) >= 0 and stages["rebaseline"] > 0
    # Scan KV is CPU time; only its tail, if any, is on the clock
    scan_rate = cluster.config.cluster.cpu.scan_rate
    assert report.scan_kv_s == report.kv_count / scan_rate > 0
    assert report.scan_tail_s < report.scan_kv_s
    row = report.row()
    for stage, seconds in stages.items():
        assert row[f"{stage}_ms"] == seconds * 1e3
    assert row["recovery_bytes"] == report.recovery_bytes > 0
    assert 0 < row["recovering_nic_bytes"] == report.recovering_nic_bytes \
        < report.recovery_bytes
    assert row["helper_nic_busy_ms"] == report.helper_nic_busy_s * 1e3 > 0
    assert 0 < report.nic_busy_s <= report.total_time


def expected_recovery_bytes(cluster, victim):
    """Recovery-class bytes a quiescent single-MN recovery of *victim*
    moves, from the cluster's state before the crash, as (into the
    victim's NIC, on the whole fabric at most).

    Into the NIC: the Meta replica, the checkpoint image, one block per
    lost DATA block and per parity block held — every rebuilt or
    re-encoded block crosses it once — and one read per other MN of the
    index entries its scan of its recently sealed or open blocks, and of
    the DELTA twins it holds of the victim's lost recent blocks, ships:
    8 B per block, and 16 B plus the key per record homed on the victim.
    On the fabric at most what a driver pulling every stripe mate
    through that NIC moved: k blocks per lost DATA block (its other
    allocated shards and one parity), the scanned entries, and per
    parity block held the stripe's data blocks plus the Q push (P) or
    the live DELTA blocks (Q); the aggregator's own block is local, its
    hand-back takes that block's place, and a Q it holds itself is not
    pushed.  Key look-ups of the re-apply pass are in neither."""
    from repro.core.kvpair import parse_kv
    from repro.core.recovery import _READ_CHUNK
    from repro.memory.blocks import Role
    from repro.rdma.verbs import WIRE_HEADER
    block_size = cluster.config.cluster.block_size
    num_mns = cluster.config.cluster.num_mns

    def bulk(size, chunk=_READ_CHUNK):
        return size + -(-size // chunk) * WIRE_HEADER

    def shipped(data, size):
        records = [parse_kv(data[off:off + size])
                   for off in range(0, block_size - size + 1, size)]
        return 8 + sum(16 + len(record.key) for record in records
                       if record is not None
                       and home_of(record.key, num_mns) == victim)

    others = [s for i, s in cluster.servers.items() if i != victim]
    mn = cluster.mns[victim]
    replicas = next(s.mn.meta_replicas[victim] for s in others
                    if victim in s.mn.meta_replicas)
    image = next(s.mn.ckpt_images[victim] for s in others
                 if victim in s.mn.ckpt_images)
    total = bulk(len(replicas) * mn.meta_record_size) + bulk(len(image.data))
    into = pulled = 0               # blocks
    for meta in mn.blocks.meta:
        if meta.role is Role.DATA:      # its other shards and one parity
            data = p_record(cluster, meta.stripe_id)[1].data
            into += 1
            pulled += sum(loc is not None for loc in data)
    threshold = max(image.index_version - 1, 1)

    def new(mn):
        return [meta for meta in mn.blocks.meta
                if meta.role is Role.DATA and (
                    meta.index_version == 0
                    or meta.index_version >= threshold)]

    twins = [meta for meta in new(mn) if twin_served(cluster, meta)]
    for s in others:
        blocks = s.mn.blocks
        scanned = sum(shipped(bytes(blocks.buffer(meta.block_id)),
                              meta.slot_size) for meta in new(s.mn))
        for meta in twins:
            psrv, record = p_record(cluster, meta.stripe_id)
            if psrv is s:
                scanned += shipped(bytes(blocks.buffer(
                    record.delta_blocks[meta.xor_id])), meta.slot_size)
        total += bulk(scanned) if scanned else 0
    pushes = 0
    for sid, record in cluster.servers[victim].stripes.items():
        held = [j for j, loc in enumerate(record.data) if loc is not None]
        into += 1
        pulled += len(held)
        if record.parity_index == 0:
            pushes += 1
        else:
            pulled += len(set(held) & set(live_deltas(cluster, sid)))
    return (total + into * bulk(block_size),
            total + pulled * bulk(block_size)
            + pushes * bulk(block_size, chunk=16 * 1024))


def test_recovery_runs_at_the_recovering_nics_line_rate():
    """The pin of the data flow, small enough for tier 1: every rebuilt
    or re-encoded block crosses the recovering NIC once, so that NIC
    carries exactly the bytes the closed form names, the fabric no more
    than a driver pulling every stripe mate through it moved, and the
    stripe mates' load is spread over the survivors: the busiest one is
    busy at most 1.25x their mean (an aggregator picked by position
    instead of by load piles the jobs onto some of them)."""
    from repro.core.kvpair import HEADER_SIZE
    from repro.rdma.verbs import WIRE_HEADER
    cluster = make_coded(num_cns=4, kv_size=1024, block_size=64 * 1024,
                         blocks_per_mn=128, index_buckets=1024)
    WorkloadRunner(cluster).load([load_ops(c.cli_id, 1500, 900)
                                  for c in cluster.clients])
    cluster.run(cluster.env.now + 1.6)      # seals, folds, checkpoints
    victim = 1
    into, pulled = expected_recovery_bytes(cluster, victim)
    posts = log_posts(cluster)
    busy0 = {i: mn.nic.busy_time for i, mn in cluster.mns.items()}
    report = crash_and_recover(cluster, victim)
    busy = [mn.nic.busy_time - busy0[i] for i, mn in cluster.mns.items()
            if i != victim]
    lookups = sum(p[4] for p in posts
                  if p[1] == victim and p[3] == "recovery"
                  and p[4] == HEADER_SIZE + 256 + WIRE_HEADER
                  and p[0] >= report.index_done_at - report.apply_s - 1e-12)
    assert report.recovering_nic_bytes == into + lookups
    assert report.recovering_nic_bytes < report.recovery_bytes \
        <= pulled + lookups
    assert report.lblock_count and report.rblock_count and report.old_count
    assert report.helper_nic_busy_s == max(busy)
    assert max(busy) <= 1.25 * sum(busy) / len(busy)
    assert report.nic_busy_s <= report.total_time


def stripe_data(cluster, sid):
    """The current contents of stripe *sid*'s data blocks, zero blocks
    for positions never allocated."""
    block_size = cluster.config.cluster.block_size
    return [bytes(cluster.mns[loc[0]].blocks.buffer(loc[1])) if loc
            else bytes(block_size) for loc in p_record(cluster, sid)[1].data]


def test_rebaseline_skips_the_q_push_only_when_q_is_current():
    """A recovered P holder re-encodes P of every stripe it holds, but
    leaves Q alone where Q already matches the data: every allocated
    position sealed in the captured P record (no live delta) and sealed
    at the Q holder (its forwarded Q contribution landed).  A stripe
    with a live delta, or one whose Q holder still waits for a forwarded
    contribution (set up by hand), gets its Q pushed; every stripe ends
    with P and Q encoding its current data, and every key reads back."""
    cluster, runner, n = loaded_cluster(keys_per_client=600)
    cluster.run(cluster.env.now + 0.1)  # drain seal + fold + Q forwards
    expected = snapshot(cluster, n)
    k = cluster.codec.k
    layout, recovery = cluster.layout, cluster._recovery

    def q_record(sid):
        return cluster.servers[layout.node_of(sid, k + 1)].stripes[sid]

    def kinds(victim):
        live, sealed = [], []
        for sid, record in cluster.servers[victim].stripes.items():
            if record.parity_index:
                continue
            if live_deltas(cluster, sid):
                live.append(sid)
            elif all(record.sealed[j] and q_record(sid).sealed[j]
                     for j, loc in enumerate(record.data) if loc):
                sealed.append(sid)
        return live, sealed

    victim = next(node for node in cluster.servers
                  if kinds(node)[0] and len(kinds(node)[1]) >= 2)
    (live, *_), (current, in_flight, *_) = kinds(victim)
    # a Q contribution of a sealed position still on the wire
    q_record(in_flight).sealed[
        next(j for j, loc in enumerate(q_record(in_flight).data) if loc)] \
        = False
    push, transfer = recovery._push_q, cluster.fabric.transfer
    pushed, transfers = [], []

    def hooked_push(run, agg, sid, q, record):
        pushed.append(sid)
        yield from push(run, agg, sid, q, record)

    def hooked_transfer(src, dst, size, **kw):
        if kw.get("traffic_class") == "recovery":
            transfers.append((pushed[-1], dst.node_id))
        return transfer(src, dst, size, **kw)

    recovery._push_q = hooked_push
    cluster.fabric.transfer = hooked_transfer
    crash_and_recover(cluster, victim)
    assert current not in pushed
    assert not [t for t in transfers if t[0] == current]
    assert live in pushed and in_flight in pushed
    for sid in (current, live, in_flight):
        parity = cluster.codec.encode(stripe_data(cluster, sid))
        p_block = p_record(cluster, sid)[1].parity_block
        assert bytes(cluster.mns[victim].blocks.buffer(p_block)) == parity[0]
        q_node = layout.node_of(sid, k + 1)
        assert bytes(cluster.mns[q_node].blocks.buffer(
            q_record(sid).parity_block)) == parity[1]
    assert verify(cluster, expected) == []


def test_block_tier_is_one_job_pool():
    """The Block tier's old-block decodes and parity re-baselines share
    one pool: the first re-baseline is posted before the last decode is
    delivered (no drain between the two), every old block is installed
    by ``index_done_at + recover_old_s``, and no stage of the recovery
    ever has more than two jobs per survivor in flight."""
    from repro.memory.blocks import Role
    cluster, runner, n = loaded_cluster(keys_per_client=600)
    cluster.run(cluster.env.now + 1.6)  # checkpoints: old blocks exist
    expected = snapshot(cluster, n)
    recovery, env = cluster._recovery, cluster.env
    deliver, install = recovery._deliver, recovery._install
    blocks = recovery._recover_blocks
    posted, delivered, installed, old = [], [], {}, []
    in_flight, peak = [0], [0]

    def hooked_deliver(run, agg, gathered, count, capture=None):
        kind = "old" if capture is None else "rebaseline"
        posted.append((env.now, kind))
        in_flight[0] += 1
        peak[0] = max(peak[0], in_flight[0])

        def body():
            yield from deliver(run, agg, gathered, count, capture)
            delivered.append((env.now, kind))
            in_flight[0] -= 1

        return body()

    def hooked_install(server, resolver):
        installed[resolver["meta"].block_id] = env.now
        return install(server, resolver)

    def hooked_blocks(server, run):
        old.extend(m.block_id for m in server.mn.blocks.meta
                   if m.role is Role.DATA and not m.valid)
        yield from blocks(server, run)

    recovery._deliver = hooked_deliver
    recovery._install = hooked_install
    recovery._recover_blocks = hooked_blocks
    victim = 1
    report = crash_and_recover(cluster, victim)
    survivors = len(cluster.layout.members) - 1
    assert report.old_count == len(old) > 0
    block_tier = report.index_done_at
    first_rebaseline = min(t for t, kind in posted if kind == "rebaseline")
    last_old = max(t for t, kind in delivered
                   if kind == "old" and t >= block_tier)
    assert block_tier <= first_rebaseline < last_old
    done_at = max(installed[block_id] for block_id in old)
    assert done_at == block_tier + report.recover_old_s
    assert all(cluster.mns[victim].blocks.meta[b].valid for b in old)
    assert peak[0] <= 2 * survivors
    assert verify(cluster, expected) == []


def test_same_fingerprint_keys_sharing_a_bucket_pair_applied_in_one_pass():
    """Two keys with one home, one fingerprint and one bucket pair, both
    re-applied by the same pass (no checkpoint: the index is rebuilt from
    the blocks): the second one finds the slot the first has just taken,
    sees another key behind it and takes a slot of its own."""
    from repro.chaos.oracle import walk_index
    from repro.index.hashing import bucket_pair, fingerprint8
    from tests.test_core_versioning import locate_slot
    buckets = 8
    cluster = make_aceso(index_buckets=buckets)
    victim = 1
    first = next(k for k in (b"twin-%d" % i for i in range(100000))
                 if home_of(k, 5) == victim)
    second = next(k for k in (b"twin-%d" % i for i in range(100000, 10**7))
                  if home_of(k, 5) == victim
                  and fingerprint8(k) == fingerprint8(first)
                  and set(bucket_pair(k, buckets))
                  == set(bucket_pair(first, buckets)))
    client = cluster.clients[0]
    cluster.run_op(client.insert(first, b"first"))
    cluster.run_op(client.insert(second, b"second"))
    for mn in cluster.mns.values():
        mn.ckpt_images.pop(victim, None)
    posts = log_posts(cluster)
    report = crash_and_recover(cluster, victim)
    assert report.applied_slots == 2 and report.apply_s == 0
    assert not [p for p in posts if p[1] == p[2]]       # no loopback verb
    _index, bucket_a, slot_a = locate_slot(cluster, first)
    assert cluster.run_op(client.search(first)) == b"first"
    assert cluster.run_op(client.search(second)) == b"second"
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems
    index = cluster.mns[victim].index
    occupied = [(b, s) for b, s, _word in index.iter_slots()]
    assert len(occupied) == 2 and (bucket_a, slot_a) in occupied


def test_apply_pass_costs_no_verb_for_pointers_it_already_holds():
    """Re-apply settles fingerprint collisions by the key behind a slot.
    A slot pointing into a block image recovery has just read, or into
    the node's own Block Area, costs no verb at all — the pass then takes
    no simulated time; pointers into blocks of other nodes that were not
    rescanned are read over the fabric, all posted at one instant.  The
    twin stream's one read in flight may be posted in the same window:
    only reads no larger than a look-up are look-ups."""
    from repro.core.kvpair import HEADER_SIZE
    from repro.rdma.verbs import WIRE_HEADER
    # (1) every pointer held: the checkpointed slots of the updated keys
    # point into the clients' open blocks, which are rescanned
    cluster, runner, n = loaded_cluster(keys_per_client=100)
    for client in cluster.clients:
        for i in range(3):
            cluster.run_op(client.update(micro_key(client.cli_id, i), b"a"))
    cluster.run(cluster.env.now + 0.6)
    written = {}
    for client in cluster.clients:
        for i in range(3):
            key = micro_key(client.cli_id, i)
            written[key] = b"b"
            cluster.run_op(client.update(key, b"b"))
    victim = home_of(next(iter(written)), 5)
    posts = log_posts(cluster)
    report = crash_and_recover(cluster, victim)
    assert report.applied_slots > 0 and report.apply_s == 0
    assert not [p for p in posts if p[1] == p[2]]
    assert not [p for p in posts if p[3] == "client"]
    assert verify(cluster, written) == []

    # (2) checkpointed slots pointing into long-sealed blocks of other
    # nodes: one READ each, all on the wire together
    cluster, runner, n = loaded_cluster()
    cluster.run(cluster.env.now + 2.6)      # rounds enough to age the load
    written = {}
    for client in cluster.clients:
        for i in range(12):
            key = micro_key(client.cli_id, i)
            written[key] = b"after-ckpt-%d" % i
            cluster.run_op(client.update(key, written[key]))
    victim = home_of(next(iter(written)), 5)
    posts = log_posts(cluster)
    report = crash_and_recover(cluster, victim)
    looked_up = [p for p in posts
                 if report.index_done_at - report.apply_s - 1e-12 <= p[0]
                 < report.index_done_at and p[1] == victim
                 and p[4] <= HEADER_SIZE + 256 + WIRE_HEADER]
    assert len(looked_up) > 1 and report.apply_s > 0
    assert max(p[0] for p in looked_up) - min(p[0] for p in looked_up) < 1e-12
    assert {p[3] for p in looked_up} == {"recovery"}
    assert not [p for p in posts if p[1] == p[2]]
    # one round trip for all of them, not one each
    nic = cluster.config.cluster.nic
    assert report.apply_s <= nic.rtt + len(looked_up) / nic.iops + 1e-9
    assert verify(cluster, written) == []


def test_scrub_drops_a_slot_whose_record_is_now_homed_elsewhere():
    """The scrub on the rescan's homed-records map.  Key A's checkpointed
    slot points into a client's open block on another MN; A was updated
    since, and its old offset was rewritten with a record of a key homed
    elsewhere, as a reuse grant would — one with A's fingerprint, so the
    home alone tells them apart.  The block is rescanned at its holder,
    which ships only the records homed on the crashed MN, so nothing is
    at that offset: the slot is scrubbed (left in place it would stand
    for A but lead to the other key's record) and A is re-applied from
    its newer record.  Key C's slot, pointing at its live record in
    such a block, is kept: A's is the one slot scrubbed.  All three keys
    read back."""
    from repro.chaos.oracle import walk_index
    from repro.checkpoint.differential import xor_bytes
    from repro.core.kvpair import parse_kv
    from repro.index.hashing import fingerprint8
    from repro.memory.address import GlobalAddress
    from tests.test_core_blocks import stripe_invariant_holds
    from tests.test_core_versioning import locate_slot
    cluster, runner, n = loaded_cluster()
    cluster.run(cluster.env.now + 0.6)      # a checkpoint round saw the load
    num_mns = cluster.config.cluster.num_mns

    def live(key):
        index, bucket, slot = locate_slot(cluster, key)
        return GlobalAddress.unpack(index.read_atomic(bucket, slot).addr)

    # the committed records of each client's open blocks, by home MN
    homed = {}      # home -> [(client, open block, slot, key)]
    for client in cluster.clients:
        for block in client.blocks.all_open():
            if block.grant.delta_node < 0 or block.slots_left() < 2:
                continue
            size = block.size_class.slot_size
            for slot in range(block.slots - block.slots_left()):
                addr = block.kv_address(slot)
                record = parse_kv(cluster.mns[addr.node_id].read_bytes(
                    addr.offset, size))
                if record is not None and live(record.key) == addr:
                    homed.setdefault(home_of(record.key, num_mns), []).append(
                        (client, block, slot, record.key))
    victim, held = next(
        (home, [e for e in entries if e[1].grant.data_node != home])
        for home, entries in sorted(homed.items())
        if sum(e[1].grant.data_node != home for e in entries) >= 2)
    (client, block, slot, key_a), (_c, _b, _s, key_c) = held[:2]
    other = next(c for c in cluster.clients if c is not client)
    key_b = next(key for key in (micro_key(other.cli_id, n + i)
                                 for i in range(100000))
                 if fingerprint8(key) == fingerprint8(key_a)
                 and home_of(key, num_mns) != victim)
    cluster.run_op(other.insert(key_b, b"B" * 180))
    cluster.run_op(client.update(key_a, b"A-after-ckpt"))
    assert block in client.blocks.all_open()    # still open, delta live
    # rewrite A's old offset with B's record, its delta to match
    size = block.size_class.slot_size
    grant = block.grant
    delta_at = GlobalAddress(grant.delta_node, grant.delta_offset
                             + block.size_class.slot_offset(slot))
    old_at, b_at = block.kv_address(slot), live(key_b)
    mns = cluster.mns
    old = mns[old_at.node_id].read_bytes(old_at.offset, size)
    new = mns[b_at.node_id].read_bytes(b_at.offset, size)
    mns[old_at.node_id].write_bytes(old_at.offset, new)
    mns[delta_at.node_id].write_bytes(delta_at.offset, xor_bytes(
        mns[delta_at.node_id].read_bytes(delta_at.offset, size),
        xor_bytes(old, new)))
    psrv, record = p_record(cluster, block.grant.stripe_id)
    assert stripe_invariant_holds(cluster, block.grant.stripe_id, record,
                                  psrv)
    expected = {key: cluster.run_op(cluster.clients[0].search(key))
                for key in (key_a, key_b, key_c)}
    assert expected[key_a] == b"A-after-ckpt"
    report = crash_and_recover(cluster, victim)
    assert report.scrubbed_slots == 1
    assert verify(cluster, expected) == []
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


def test_checkpointed_slot_into_a_block_still_lost_is_not_duplicated():
    """A key homed on the crashed MN whose checkpointed slot points at a
    record in an old block *of that MN* and that was updated since: the
    Index tier runs before the Block tier rebuilds that block, so the key
    behind the slot comes from a degraded read of the one slot.  Left
    unknown, the newer KV pair would be given a second slot and either
    could be served.  Every such key keeps one slot, at the new value."""
    from repro.chaos.oracle import walk_index
    from repro.memory.address import GlobalAddress
    cluster, runner, n = loaded_cluster()
    cluster.run(cluster.env.now + 2.6)      # rounds enough to age the load
    victim = 1
    index = cluster.mns[victim].index
    local = {GlobalAddress.unpack(index.read_atomic(b, s).addr).offset
             for b, s, _word in index.iter_slots()
             if GlobalAddress.unpack(
                 index.read_atomic(b, s).addr).node_id == victim}
    written = {}
    for client in cluster.clients:
        for i in range(n):
            key = micro_key(client.cli_id, i)
            if home_of(key, 5) == victim and len(written) < 6:
                from tests.test_core_versioning import locate_slot
                _index, bucket, slot = locate_slot(cluster, key)
                addr = GlobalAddress.unpack(
                    index.read_atomic(bucket, slot).addr)
                if addr.node_id == victim and addr.offset in local:
                    written[key] = b"newer-%d" % i
    assert len(written) > 1
    for key, value in written.items():
        cluster.run_op(cluster.clients[0].update(key, value))
    posts = log_posts(cluster)
    report = crash_and_recover(cluster, victim)
    plans_asked = [p for p in posts if p[1] == victim and p[3] == "rpc"]
    assert len(plans_asked) >= len(written)
    assert report.applied_slots >= len(written)
    assert verify(cluster, written) == []
    _versions, problems = walk_index(cluster)
    assert not any(problems.values()), problems


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
        if blocks.meta[block_id].index_version == 0:     # unfilled
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
    return c0, c1, cached(c1.cache, key)


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
    assert cached(c1.cache, key).slot_offset == index.slot_offset(*moved_to)
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
