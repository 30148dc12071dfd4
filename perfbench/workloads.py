"""The four workloads: geometry, generated inputs, and what they wrote.

Every workload is a closed loop (one client process per (CN, slot), the
next op issued when the previous completes) over 5 MNs, 1 KiB KV pairs,
256 KiB blocks and a 20 ms checkpoint interval — the figure runners' 25x
time scale of the paper's 500 ms.  All inputs come from the seed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.bench.common import Scale, build_cluster
from repro.workloads import (Op, WorkloadRunner, load_ops, micro_stream,
                             ycsb_load_ops, ycsb_stream)

CHECKPOINT_INTERVAL = 0.02
SETTLE = 0.05                       # sim-s: seal/fold + >= 2 checkpoint rounds
MICRO_VERBS = ("INSERT", "UPDATE", "SEARCH", "DELETE")

_YCSB_SCALE = Scale(name="perfbench-ycsb", num_cns=6, clients_per_cn=2,
                    index_buckets=4096, blocks_per_mn=256,
                    block_size=256 * 1024, kv_size=1024, keys_per_client=0,
                    total_keys=12000, duration=0.0, warmup=0.0)
_MICRO_SCALE = Scale(name="perfbench-micro", num_cns=16, clients_per_cn=4,
                     index_buckets=16384, blocks_per_mn=512,
                     block_size=256 * 1024, kv_size=1024, keys_per_client=150,
                     total_keys=0, duration=0.0, warmup=0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    window: float                   # sim-s measured at the nominal --seconds
    mix: str                        # YCSB letter, or "micro4"
    #: MN crashed inside the window, and when (fraction of the window).
    crash_mn: Optional[int] = None
    crash_at: float = 0.25
    #: Op types whose latencies are reported (each must run in the window).
    ops: tuple = ("SEARCH", "UPDATE")
    #: Whether >= 2 checkpoint rounds per MN must fall inside the window.
    needs_ckpt_rounds: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ycsb_a", _YCSB_SCALE, 0.056, "A"),
    Workload("ycsb_b", _YCSB_SCALE, 0.034, "B", needs_ckpt_rounds=False),
    Workload("micro4_sat", _MICRO_SCALE, 0.034, "micro4", ops=MICRO_VERBS),
    Workload("mn_crash", _YCSB_SCALE, 0.056, "A", crash_mn=2),
)}


class InputLog:
    """What the generated input wrote and deleted, per key — the ground
    truth the read-back is checked against.  Values are kept as hashes."""

    def __init__(self):
        self.loaded: List[bytes] = []
        self.written: Dict[bytes, Set[int]] = defaultdict(set)
        self.deleted: Set[bytes] = set()

    def load(self, ops: List[Op]) -> List[Op]:
        for _verb, key, value in ops:
            self.loaded.append(key)
            self.written[key].add(hash(value))
        return ops

    def tap(self, stream: Iterator[Op]) -> Iterator[Op]:
        written, deleted = self.written, self.deleted
        for op in stream:
            verb, key, value = op
            if verb == "DELETE":
                deleted.add(key)
            elif verb != "SEARCH":
                written[key].add(hash(value))
            yield op

    def readable_keys(self) -> List[bytes]:
        """Loaded keys the input never deletes: each must be found."""
        return [k for k in self.loaded if k not in self.deleted]


class Bench:
    """One loaded, settled and warmed-up cluster, ready to measure."""

    def __init__(self, workload: Workload, seed: int, window: float,
                 on_cluster: Callable = lambda cluster: None):
        scale = workload.scale
        value_size = scale.kv_size - 64

        def mutate(cfg):
            cfg.checkpoint.interval = CHECKPOINT_INTERVAL

        self.cluster = cluster = build_cluster("aceso", scale, mutate=mutate)
        on_cluster(cluster)
        self.runner = WorkloadRunner(cluster)
        self.log = log = InputLog()
        clients = cluster.clients
        if workload.mix == "micro4":
            loads = [load_ops(c.cli_id, scale.keys_per_client, value_size,
                              seed=seed) for c in clients]
            streams = [micro_stream(MICRO_VERBS[c.cli_id % 4], c.cli_id,
                                    scale.keys_per_client, value_size,
                                    seed=seed) for c in clients]
        else:
            loads = [ycsb_load_ops(c.cli_id, len(clients), scale.total_keys,
                                   value_size, seed=seed) for c in clients]
            streams = [ycsb_stream(workload.mix, c.cli_id, scale.total_keys,
                                   value_size, seed=seed) for c in clients]
        self.runner.load([log.load(ops) for ops in loads])
        cluster.run(cluster.env.now + SETTLE)
        self.streams = [log.tap(s) for s in streams]
        self.runner.measure(self.streams, duration=window / 10)   # warm-up
