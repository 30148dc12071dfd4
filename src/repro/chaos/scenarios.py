"""Declarative chaos scenarios.

A :class:`ScenarioSpec` is a pure description — workload shape, fault
actions with their triggers, and which invariant profile the oracle
should hold it to.  The engine (:mod:`repro.chaos.engine`) compiles the
actions into scheduled injection processes against a live cluster.

Actions fire at a *relative* offset from the start of the chaos window
and may additionally be gated on runtime conditions: ``after_milestone``
delays until a node's recovery reaches a tier (crash-during-recovery),
``after_ckpt_round`` delays until a server opens its next checkpoint
round (crash-during-checkpoint).

The default geometry is one XOR coding group (5 MNs: node ids 0–4) with
two CNs (node ids 5 and 6) running one client each (cli ids 0 and 1).
Scenario comments refer to those ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..cluster.master import MnState

__all__ = ["ChaosAction", "ScenarioSpec", "SCENARIOS", "fast_scenarios"]

#: Verb mix of the background chaos traffic (weighted; single-writer keys).
MIX_DEFAULT = (("UPDATE", 0.45), ("SEARCH", 0.30), ("INSERT", 0.15),
               ("DELETE", 0.10))

#: Action kinds routed through the failure injector.
INJECTOR_KINDS = {
    "crash_mn": "mn",
    "crash_cn": "cn",
    "recover_mn": "recover_mn",
    "rejoin_cn": "rejoin_cn",
    "degrade_nic": "nic_degrade",
    "restore_nic": "nic_restore",
}
#: Action kinds the engine executes itself.
ENGINE_KINDS = ("leak_lock", "touch")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault (or fault-adjacent) action."""

    kind: str                 # INJECTOR_KINDS key or ENGINE_KINDS member
    at: float = 0.0           # offset from the chaos window start
    node: int = -1            # target node id (kind-dependent)
    client: int = -1          # acting client id (leak_lock / touch)
    factor: float = 1.0       # degrade_nic slowdown
    #: Gate on another node's recovery stage, e.g.
    #: ``(1, MnState.META_RECOVERED)`` = wait until mn1 finishes its Meta
    #: tier (crash-during-recovery scenarios).
    after_milestone: Optional[Tuple[int, str]] = None
    #: Gate on this server opening its next checkpoint round (the value
    #: is the *checkpointing* node id; ``node`` stays the crash target).
    after_ckpt_round: int = -1
    #: Extra delay after the round opens, to land mid-round.
    ckpt_offset: float = 10e-6

    def __post_init__(self):
        if self.kind not in INJECTOR_KINDS and self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown chaos action kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative chaos scenario."""

    name: str
    description: str
    actions: Tuple[ChaosAction, ...]
    #: Length of the chaos traffic window (simulated seconds).  0 = no
    #: background traffic: the actions run against a quiesced store.
    duration: float = 0.03
    #: A second traffic window after the cluster has healed (verifies the
    #: recovered system still takes writes).
    post_traffic: float = 0.0
    keys_per_client: int = 64
    mix: Tuple[Tuple[str, float], ...] = MIX_DEFAULT
    #: Restrict background traffic to these client ids (None = all).
    drive_clients: Optional[Tuple[int, ...]] = None
    #: Seal every open block after the load phase, so the chaos window
    #: starts with no unsealed data (the correlated-crash zero-loss case).
    flush_before: bool = False
    #: Correlated data+parity crashes may lose the unsealed tail (§3.4.1);
    #: the oracle then asserts *bounded* loss and zero corruption instead
    #: of strict zero loss.
    tolerate_unsealed_loss: bool = False
    #: When False the master defers MN recovery to an explicit
    #: ``recover_mn`` action (transient-failure modelling).
    auto_recover_mn: bool = True
    #: Let the engine rejoin still-dead CNs during quiesce.
    rejoin_cns: bool = True
    #: Override the checkpoint interval (0 = keep the config default).
    ckpt_interval: float = 0.0
    #: Member of the quick subset (CI push lane / pytest fast matrix).
    fast: bool = False
    #: Cluster geometry overrides merged into the default small geometry.
    cluster: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.actions:
            raise ValueError(f"scenario {self.name!r} has no actions")
        if self.duration == 0 and not self.flush_before \
                and self.post_traffic == 0:
            raise ValueError(
                f"scenario {self.name!r} would neither drive traffic nor "
                f"flush: the oracle would have nothing to check"
            )


def _registry(*specs: ScenarioSpec) -> Dict[str, ScenarioSpec]:
    out: Dict[str, ScenarioSpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate scenario {spec.name!r}")
        out[spec.name] = spec
    return out


SCENARIOS: Dict[str, ScenarioSpec] = _registry(
    # -- memory-node crashes -------------------------------------------------
    ScenarioSpec(
        name="mn_single_hot",
        description="One MN crashes under live traffic; recovery returns "
                    "it with zero acknowledged-write loss.",
        actions=(ChaosAction("crash_mn", at=0.010, node=2),),
        duration=0.03, post_traffic=0.01, fast=True,
    ),
    ScenarioSpec(
        name="mn_double_flushed",
        description="Two MNs of the coding group crash at the same instant "
                    "with every block sealed: XOR m=2 covers it, zero loss.",
        actions=(ChaosAction("crash_mn", at=0.0005, node=1),
                 ChaosAction("crash_mn", at=0.0005, node=2)),
        duration=0.0, flush_before=True, post_traffic=0.01, fast=True,
    ),
    ScenarioSpec(
        name="mn_double_hot",
        description="Two MNs crash simultaneously under live traffic: the "
                    "unsealed tail may be lost (bounded), never corrupted.",
        actions=(ChaosAction("crash_mn", at=0.012, node=1),
                 ChaosAction("crash_mn", at=0.012, node=2)),
        duration=0.03, post_traffic=0.01, tolerate_unsealed_loss=True,
    ),
    ScenarioSpec(
        name="mn_ckpt_pair_flushed",
        description="A quiesced MN crashes together with its meta/checkpoint "
                    "neighbour: recovery falls back to the skeleton-restore "
                    "path (parity-holder records) with zero loss.",
        actions=(ChaosAction("crash_mn", at=0.0005, node=3),
                 ChaosAction("crash_mn", at=0.0005, node=4)),
        duration=0.0, flush_before=True, post_traffic=0.01,
    ),
    ScenarioSpec(
        name="mn_crash_during_recovery",
        description="A second MN crashes while the first is mid-recovery "
                    "(after its Meta tier): recovery restarts against the "
                    "surviving membership; both nodes come back, zero loss.",
        actions=(ChaosAction("crash_mn", at=0.0005, node=1),
                 ChaosAction("crash_mn", at=0.0, node=2,
                             after_milestone=(1, MnState.META_RECOVERED))),
        duration=0.0, flush_before=True, post_traffic=0.01,
    ),
    ScenarioSpec(
        name="mn_crash_during_checkpoint",
        description="The checkpoint target dies mid-round, then the "
                    "checkpointing node itself dies at its own round start: "
                    "differential checkpoints stay usable, zero loss.",
        actions=(ChaosAction("crash_mn", at=0.0, node=2,
                             after_ckpt_round=1),
                 ChaosAction("crash_mn", at=0.002, node=1,
                             after_milestone=(2, MnState.RECOVERED),
                             after_ckpt_round=1)),
        duration=0.045, ckpt_interval=0.008, fast=True,
    ),
    ScenarioSpec(
        name="mn_transient_delayed_recover",
        description="Operator-style transient failure: auto-recovery off, "
                    "the MN stays FAILED until an explicit recover_mn event; "
                    "writes stall and resume, zero loss.",
        actions=(ChaosAction("crash_mn", at=0.006, node=3),
                 ChaosAction("recover_mn", at=0.020, node=3)),
        duration=0.035, post_traffic=0.01, auto_recover_mn=False,
    ),
    # -- compute-node crashes ------------------------------------------------
    ScenarioSpec(
        name="cn_mid_op",
        description="A CN dies mid-operation: orphaned unfilled blocks are "
                    "sealed and torn writes rolled back by client recovery; "
                    "zero loss for acknowledged writes.",
        actions=(ChaosAction("crash_cn", at=0.012, node=5),),
        duration=0.03, post_traffic=0.01, fast=True,
    ),
    ScenarioSpec(
        name="cn_leaked_lock",
        description="A client locks an index slot and its CN dies before "
                    "unlocking; a survivor's write takes the lock over and "
                    "no slot stays locked.",
        actions=(ChaosAction("leak_lock", at=0.004, client=0),
                 ChaosAction("crash_cn", at=0.0045, node=5),
                 ChaosAction("touch", at=0.010, client=1, node=0)),
        duration=0.02, post_traffic=0.005, drive_clients=(1,),
    ),
    ScenarioSpec(
        name="cn_then_mn",
        description="A CN crash followed by an MN crash while the dead "
                    "client's blocks are still orphaned: MN recovery covers "
                    "them via parity, then the CN rejoins; zero loss.",
        actions=(ChaosAction("crash_cn", at=0.008, node=5),
                 ChaosAction("crash_mn", at=0.018, node=1)),
        duration=0.035, post_traffic=0.01,
    ),
    ScenarioSpec(
        name="cn_delayed_rejoin",
        description="Transient CN failure with a delayed rejoin event: the "
                    "node's clients restart in place mid-window; zero loss.",
        actions=(ChaosAction("crash_cn", at=0.006, node=6),
                 ChaosAction("rejoin_cn", at=0.020, node=6)),
        duration=0.03, post_traffic=0.01,
    ),
    # -- gray failures -------------------------------------------------------
    ScenarioSpec(
        name="gray_slow_nic",
        description="Gray failure: one MN's NIC degrades 20x then recovers; "
                    "no crash, no recovery, and still zero loss.",
        actions=(ChaosAction("degrade_nic", at=0.005, node=2, factor=20.0),
                 ChaosAction("restore_nic", at=0.020, node=2)),
        duration=0.03, fast=True,
    ),
)


def fast_scenarios() -> Tuple[str, ...]:
    return tuple(name for name, spec in SCENARIOS.items() if spec.fast)
