"""Host cost of the verb round trip and of the write ops, pinned.

Frames may fall, events may not change: the Python-level calls one verb
round trip, one cached SEARCH and each kind of write cost the host are
held under a ceiling (about 15 % over what the code measures), and the
simulated events an op schedules are held to the exact count — fewer
events means the protocol or the NIC model moved, not that the host got
faster.  The flight recorder's appends per op are held to the exact
count as well.

All are deterministic: ``cProfile`` counts calls, not time, and the
per-iteration figure is a difference of two run lengths, so whatever a
run costs once (process start, the profiler's own frames) cancels out.
"""

import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import cached, make_aceso

ROOT = Path(__file__).resolve().parent.parent

KEY = b"host-cost-key"
VALUE = b"v" * 150                       # a 256 B slab slot, KV-size READ


def python_calls(cluster, body, iterations):
    """Python-level calls (profiler rows not in C) of one process that
    runs *body* — a generator function — *iterations* times."""
    env = cluster.env

    def loop():
        for _ in range(iterations):
            yield from body()

    profiler = cProfile.Profile()
    proc = env.process(loop())
    profiler.enable()
    env.run_until_event(proc)
    profiler.disable()
    assert env.unexpected_failures() == []
    return sum(row[1] for (filename, _line, _fn), row
               in pstats.Stats(profiler).stats.items() if filename != "~")


def calls_per_iteration(cluster, body, short=20, long=60):
    few = python_calls(cluster, body, short)
    many = python_calls(cluster, body, long)
    assert (many - few) % (long - short) == 0, "call count is not linear"
    return (many - few) // (long - short)


def loaded_cluster(**overrides):
    cluster = make_aceso(**overrides)
    client = cluster.clients[0]
    cluster.run_op(client.insert(KEY, VALUE))
    assert cluster.run_op(client.search(KEY)) == VALUE     # cache is warm
    return cluster, client


def kv_location(client):
    from repro.index.slot import AtomicField
    from repro.memory.address import GlobalAddress
    entry = cached(client.cache, KEY)
    ga = GlobalAddress.unpack(AtomicField.unpack(entry.atomic_word).addr)
    return entry, ga


def test_read_round_trip_calls():
    cluster, client = loaded_cluster()
    entry, ga = kv_location(client)

    def body():
        raw = yield client._post_read(ga.node_id, ga.offset,
                                      entry.len_units * 64)
        assert len(raw) == entry.len_units * 64

    assert calls_per_iteration(cluster, body) <= 14    # measures 12; was 28


def test_cas_round_trip_calls():
    cluster, client = loaded_cluster()
    entry, _ga = kv_location(client)

    def body():
        # expected != current: the CAS runs and leaves the slot alone
        ok, _old = yield client._post_cas(entry.slot_node, entry.slot_offset,
                                          0, 1)
        assert not ok

    assert calls_per_iteration(cluster, body) <= 14    # measures 12; was 26


def test_cached_search_calls():
    cluster, client = loaded_cluster()

    def body():
        value = yield from client.search(KEY)
        assert value == VALUE

    assert calls_per_iteration(cluster, body) <= 53    # measures 46; was 91


def write_calls(make_body):
    """Python-level calls per iteration of the loop body *make_body*
    builds for the loaded cluster's client (one or two writes), with
    every write inside one open block.

    A run that crosses a block boundary also pays the allocation, seal
    and fold RPCs and the MN-side EC work behind them, and that work
    repeats with the stripe layout, not with the block fill: no pair of
    run lengths is linear across it.  So the block here is large enough
    (32 KiB: 170 slots of 192 B, 512 of 64 B) that the warm-up and both
    runs — 101 slots of a class at most — neither fill it nor reach the
    prefetch margin; what a block costs once is not in these figures.
    A warm-up run pays the first-use costs: the op's stats row, and
    each MN NIC's service-time entry for each new verb shape.
    """
    cluster, client = loaded_cluster(block_size=32 * 1024)
    body = make_body(client)
    python_calls(cluster, body, 20)
    return calls_per_iteration(cluster, body)


def trusted_update(client):
    def body():
        yield from client.update(KEY, VALUE)
    return body


def refreshed_update(client):
    def body():
        # A key seen to be shared: the write reads the slot first.
        cached(client.cache, KEY).looked(changed=True)
        yield from client.update(KEY, VALUE)
    return body


def fresh_insert(client):
    keys = (b"fresh-key-%04d" % i for i in range(1000))

    def body():
        yield from client.insert(next(keys), VALUE)
    return body


def delete_reinsert(client):
    def body():
        # A tombstone is a 64 B record: the DELETE and the INSERT each
        # repair the slot's len after their commit.
        yield from client.delete(KEY)
        yield from client.insert(KEY, VALUE)
    return body


def test_trusted_update_calls():
    assert write_calls(trusted_update) <= 77    # measures 67; was 103


def test_refreshed_update_calls():
    assert write_calls(refreshed_update) <= 104  # measures 90; was 126


def test_fresh_insert_calls():
    assert write_calls(fresh_insert) <= 136     # measures 118; was 155


def test_delete_reinsert_calls():
    assert write_calls(delete_reinsert) <= 181  # measures 157; was 239


def events_per_op(cluster, op, iterations=10):
    env = cluster.env
    before = env.scheduled_count
    for _ in range(iterations):
        cluster.run_op(op())
    scheduled = env.scheduled_count - before
    # Few enough ops that no block fills and no background timer fires.
    assert scheduled % iterations == 0, "background events in the window"
    return scheduled // iterations


def test_events_per_op_unchanged():
    """Scheduled events per op, as measured before the post path was
    collapsed: the process kick-off and its completion (2, from
    ``run_op``), and one event per verb plus one per ``AllOf`` fan-in.
    A private key's UPDATE never refreshes: its count is the parent's.
    The INSERT and DELETE rows are the counts measured before the write
    path's frames were cut: no write op gained or lost an event."""
    cluster, client = loaded_cluster()
    # KV read + slot read + their fan-in
    assert events_per_op(cluster, lambda: client.search(KEY)) == 2 + 3
    # KV write + delta write + fan-in + commit CAS
    assert events_per_op(cluster, lambda: client.update(KEY, VALUE)) == 2 + 4

    def refreshed_update():
        cached(client.cache, KEY).looked(changed=True)
        return client.update(KEY, VALUE)

    # ... and the 16 B slot READ in front, for a key seen to be shared
    assert events_per_op(cluster, refreshed_update) == 2 + 5

    keys = iter([b"events-key-%02d" % i for i in range(11)])
    inserted = []

    def insert_fresh():
        inserted.append(next(keys))
        return client.insert(inserted[-1], VALUE)

    def delete_inserted():
        return client.delete(inserted.pop())

    # bucket query + KV write + delta write + fan-in + Meta write + CAS
    assert events_per_op(cluster, insert_fresh) == 2 + 6
    # The first tombstone allocates the 64 B class's block: not measured.
    cluster.run_op(insert_fresh())
    cluster.run_op(delete_inserted())
    # KV write + delta write + fan-in + CAS + the len repair WRITE (a
    # tombstone is a smaller size class than the value it replaces)
    assert events_per_op(cluster, delete_inserted) == 2 + 5


def flight_appends(cluster, op, iterations=10):
    """Kinds of the flight-ring appends *iterations* runs of *op* make,
    on an unbounded ring so none is evicted."""
    from collections import deque

    from repro.obs.flight import RECORDER
    ring, enabled = RECORDER.events, RECORDER.enabled
    RECORDER.events, RECORDER.enabled = deque(), True
    try:
        for _ in range(iterations):
            cluster.run_op(op())
        return [kind for _t, kind, _detail in RECORDER.events]
    finally:
        RECORDER.events, RECORDER.enabled = ring, enabled


def test_flight_appends_per_op():
    """The always-on flight recorder costs one ring append per completed
    op and nothing per verb: a cached SEARCH and an uncontended UPDATE
    each append exactly their own ``op.<NAME>`` event.  Result neutrality
    is ``test_obs_v2.py::test_flight_recorder_is_result_neutral``."""
    cluster, client = loaded_cluster()
    assert flight_appends(cluster, lambda: client.search(KEY)) \
        == ["op.SEARCH"] * 10
    assert flight_appends(cluster, lambda: client.update(KEY, VALUE)) \
        == ["op.UPDATE"] * 10


@pytest.mark.slow
def test_perfbench_quick_smoke():
    """The repo's benchmark still runs against this tree: the tripwire
    for renaming anything ``perfbench/`` reads through public attributes
    (``nic.messages``, ``nic.busy_time``, the MN cores' ``busy_time``,
    ``env.scheduled_count``, ``fabric.bytes_by_class``,
    ``repro.sim.sched.sched_provenance``)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--workload",
         "ycsb_b", "--seed", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    contract = json.loads(proc.stdout.strip().splitlines()[-1])
    assert contract["correct"] is True
    assert contract["attempted"] > 0 and contract["failed"] == 0
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(contract["metrics"]) == sorted(declared)
    assert len(declared) == 11
