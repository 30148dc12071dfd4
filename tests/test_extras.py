"""Tests for performance-path machinery: block prefetching, paced bulk
transfers, atomic verb costs, cache fallbacks, and the bench utilities."""

import pytest

from repro.bench.common import SCALES, FigureResult, format_table
from repro.bench.fig_recovery import encode_throughput
from repro.config import NICConfig
from repro.rdma import Fabric, Opcode, RNIC, Verb
from repro.sim import Environment

from tests.conftest import make_aceso


# ------------------------------------------------------------- NIC atomics

def test_atomic_verbs_cost_more_than_small_reads(env):
    nic = RNIC(env, NICConfig(iops=1e6, atomic_iops=0.25e6,
                              bandwidth=1e12), 0)
    # The shapes ``Fabric.post`` charges: a message on one doorbell, and
    # an atomic at its destination (a PCIe read-modify-write, no doorbell).
    read = nic._svc_cache[(40, 1, 0)]
    atomic = nic._svc_cache[(40, 0, 1)]
    assert atomic == pytest.approx(4 * read)


def test_fabric_charges_atomics(env):
    fabric = Fabric(env)
    cfg = NICConfig(iops=1e6, atomic_iops=0.2e6, bandwidth=1e12, rtt=0.0)
    a = fabric.register(RNIC(env, cfg, 0))
    b = fabric.register(RNIC(env, cfg, 1))

    def proc():
        t0 = env.now
        yield fabric.cas(a, b, execute=lambda: (True, 0))
        cas_time = env.now - t0
        t0 = env.now
        yield fabric.read(a, b, 8)
        read_time = env.now - t0
        return cas_time, read_time

    p = env.process(proc())
    env.run()
    cas_time, read_time = p.value
    assert cas_time > read_time * 2


# ------------------------------------------------------------ transfer()

def make_pair(env, bandwidth=1e9):
    fabric = Fabric(env)
    cfg = NICConfig(iops=1e9, bandwidth=bandwidth, rtt=1e-6)
    a = fabric.register(RNIC(env, cfg, 0))
    b = fabric.register(RNIC(env, cfg, 1))
    return fabric, a, b


def test_transfer_runs_execute_once_at_end(env):
    fabric, a, b = make_pair(env)
    calls = []

    def proc():
        value = yield fabric.transfer(a, b, 100_000, chunk=16 * 1024,
                                      execute=lambda: calls.append(1) or 42)
        return value

    p = env.process(proc())
    env.run()
    assert p.value == 42
    assert calls == [1]


def test_transfer_zero_size(env):
    fabric, a, b = make_pair(env)

    def proc():
        return (yield fabric.transfer(a, b, 0, execute=lambda: "empty"))

    p = env.process(proc())
    env.run()
    assert p.value == "empty"


def test_transfer_duty_paces_occupancy(env):
    """At duty 0.25, the destination NIC is busy ~1/4 of the elapsed
    transfer time, leaving room for foreground verbs."""
    fabric, a, b = make_pair(env, bandwidth=1e9)

    def proc():
        yield fabric.transfer(a, b, 1_000_000, chunk=16 * 1024, duty=0.25)
        return env.now

    p = env.process(proc())
    env.run()
    elapsed = p.value
    assert b.busy_time < elapsed * 0.5
    assert b.busy_time > elapsed * 0.1


def test_transfer_full_duty_is_dense(env):
    fabric, a, b = make_pair(env, bandwidth=1e9)

    def proc():
        yield fabric.transfer(a, b, 1_000_000, chunk=64 * 1024, duty=1.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert b.busy_time > p.value * 0.5


def test_transfer_invalid_duty(env):
    fabric, a, b = make_pair(env)
    with pytest.raises(ValueError):
        fabric.transfer(a, b, 1024, duty=0.0)


def test_transfer_foreground_interleaves(env):
    """A small read issued mid-transfer completes long before the bulk
    stream does (the head-of-line-blocking regression test)."""
    fabric, a, b = make_pair(env, bandwidth=0.5e9)
    fabric_done = {}

    def bulk():
        yield fabric.transfer(a, b, 2_000_000, chunk=16 * 1024)
        fabric_done["bulk"] = env.now

    def small_read():
        yield env.timeout(20e-6)
        t0 = env.now
        yield fabric.read(a, b, 64)
        return env.now - t0

    env.process(bulk())
    p = env.process(small_read())
    env.run()
    assert p.value < 200e-6
    assert fabric_done["bulk"] > 2_000_000 / 0.5e9  # bulk took its time


# ------------------------------------------------------------- prefetching

def test_client_prefetches_next_block():
    cluster = make_aceso(block_size=8 * 1024, kv_size=256)
    c = cluster.clients[0]
    slots = 8 * 1024 // 256  # values sized for the 256 B slab class
    # Fill most of the first block; the prefetch fires PREFETCH_MARGIN
    # slots before exhaustion.
    for i in range(slots - 4):
        cluster.run_op(c.insert(b"pf-%04d" % i, b"v" * 200))
    cluster.run(cluster.env.now + 0.01)
    assert 256 in c._prefetched or 256 in c._prefetching or \
        c.blocks.open_block(256) is not None
    # write past the boundary: no stall, correctness intact
    for i in range(slots - 4, slots + 8):
        cluster.run_op(c.insert(b"pf-%04d" % i, b"v" * 200))
    for i in range(slots + 8):
        assert cluster.run_op(c.search(b"pf-%04d" % i)) == b"v" * 200


def test_cached_search_falls_back_when_slot_vacated():
    """If a cached slot is found empty (e.g. recovery re-placed the key),
    the client must re-query the index, not report not-found."""
    cluster = make_aceso()
    c = cluster.clients[0]
    key = b"vacate-me"
    cluster.run_op(c.insert(key, b"value"))
    cluster.run_op(c.search(key))
    entry = c.cache.lookup(key)
    index = cluster.mns[entry.slot_node].index
    bucket, slot = entry.bucket, entry.slot
    # move the slot's contents to another free slot in the same bucket
    from repro.index.slot import AtomicField
    word = index.read_atomic(bucket, slot)
    meta = index.read_meta(bucket, slot)
    for other in range(index.bucket_slots):
        if other != slot and index.read_atomic(bucket, other).empty:
            index.write_atomic(bucket, other, word)
            index.write_meta(bucket, other, meta)
            index.write_atomic(bucket, slot, AtomicField())
            break
    assert cluster.run_op(c.search(key)) == b"value"


# --------------------------------------------------------------- bench utils

def test_figure_result_lookup_and_series():
    result = FigureResult(figure="f", title="t", columns=["a", "b"])
    result.add(a=1, b="x")
    result.add(a=2, b="y")
    assert result.lookup(a=2)["b"] == "y"
    assert result.series("a") == [1, 2]
    assert result.series("a", where={"b": "y"}) == [2]
    with pytest.raises(KeyError):
        result.lookup(a=3)
    rendered = result.render()
    assert "f — t" in rendered


def test_format_table_alignment():
    out = format_table("T", ["col"], [{"col": 1.23456}], notes="n")
    assert "1.235" in out
    assert out.endswith("n")


def test_scales_are_valid_cluster_kwargs():
    from repro import aceso_config
    for scale in SCALES.values():
        aceso_config(**scale.cluster_kwargs()).validate()


def test_bench_cli_creates_a_missing_json_dir(tmp_path, capsys):
    """A nested ``--json-dir`` that does not exist yet is created before
    the run, so the run's BENCH json is not lost at the end."""
    from repro.bench.__main__ import main
    out = tmp_path / "not" / "yet"
    assert main(["fig19", "--scale", "smoke", "--json-dir", str(out)]) == 0
    assert (out / "BENCH_fig19.json").is_file()


@pytest.mark.parametrize("noisy, code", [(False, 1), (True, 0)])
def test_bench_cli_exit_code_follows_shape_ok(monkeypatch, tmp_path, capsys,
                                              noisy, code):
    """``repro.bench`` exits 1 when a target's non-noisy verdict fails and
    0 when only a noisy one does (stub runners: no simulation)."""
    from repro.bench import REGISTRY
    from repro.bench.__main__ import main

    def passing(scale):
        result = FigureResult(figure="stub-pass", title="t", columns=["a"])
        result.add(a=1)
        result.add_verdict("holds", True)
        return result

    def failing(scale):
        result = FigureResult(figure="stub-fail", title="t", columns=["a"])
        result.add(a=1)
        result.add_verdict("holds", True)
        result.add_verdict("breaks", False, "why", noisy=noisy)
        return result

    monkeypatch.setitem(REGISTRY, "stub-pass", passing)
    monkeypatch.setitem(REGISTRY, "stub-fail", failing)
    assert main(["stub-pass", "--json-dir", str(tmp_path)]) == 0
    assert main(["stub-pass", "stub-fail",
                 "--json-dir", str(tmp_path)]) == code
    assert ("[shape verdicts failed: stub-fail]"
            in capsys.readouterr().out) == (code == 1)


def test_encode_throughput_order():
    xor = encode_throughput("xor", block_mb=1)
    rs = encode_throughput("rs", block_mb=1)
    assert xor > rs  # numpy XOR beats table-lookup GF multiply
