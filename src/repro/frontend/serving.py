"""The serving front-end: per-CN queues, adaptive batching, dispatch.

The :class:`FrontEnd` sits between workload generators and the KV core:

* **routing** — requests map to one *lane* per alive compute node by
  rendezvous (highest-random-weight) hashing, so all traffic for a key
  flows through one lane, and a CN failure remaps only the dead lane's
  keys (whose cache died with it) — a key can never land on a surviving
  lane that holds a stale cached value for it.  Within a lane, reads
  and writes for a key may still overlap across dispatchers; the value
  cache's write-generation tokens keep fills coherent (see
  :mod:`repro.frontend.cache`);
* **queueing + adaptive batching** — each lane holds an async request
  queue drained by one dispatcher per client on that CN.  A dispatcher
  lingers (bounded by a quarter of the latency target) while the queue
  is below its *batch target*, which doubles when a drain leaves backlog
  and halves when the queue empties — deep queues grow batches (fewer
  doorbells per request), idle lanes serve singles at minimum latency;
* **execution** — consecutive SEARCHes in a batch resolve through
  :meth:`AcesoClient.search_many` (doorbell-batched verb groups); writes
  run through the core write path and are acknowledged at Aceso's
  commit CAS;
* **failure handling** — a master failure listener reroutes a crashed
  CN's queued requests to surviving lanes, fails its in-flight batch
  (indeterminate for the caller), and invalidates cached values homed on
  a failed MN.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..errors import (
    AdmissionError,
    AllocationError,
    IndexFullError,
    KeyNotFoundError,
    NodeFailedError,
    RetryBudgetExceeded,
)
from ..index.hashing import hash64
from ..sim import Interrupt
from .cache import ValueCache
from .request import FrontEndConfig, Request, TenantSpec
from .slo import SLOBook

__all__ = ["FrontEnd", "Lane"]

_ROUTE_SALT = b"fe-route"
#: Fraction of the latency target a dispatcher may linger for a batch.
_LINGER_FRACTION = 0.25


class Lane:
    """One compute node's serving queue, cache, and batch state."""

    def __init__(self, env, cn_id: int, clients: List, cache_capacity: int):
        self.env = env
        self.cn_id = cn_id
        #: Hash family for rendezvous routing: one per lane, so each
        #: key gets an independent preference order over lanes.
        self.route_salt = _ROUTE_SALT + b":%d" % cn_id
        self.clients = clients
        self.q: deque = deque()
        self.cache = ValueCache(cache_capacity)
        self.alive = True
        self.batch_target = 1
        self._arrival = None
        # Counters (report-only).
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0
        self.max_depth_seen = 0

    def enqueue(self, req: Request) -> None:
        self.q.append(req)
        if len(self.q) > self.max_depth_seen:
            self.max_depth_seen = len(self.q)
        arrival = self._arrival
        if arrival is not None and not arrival.triggered:
            arrival.succeed()

    def wait_arrival(self):
        if self._arrival is None or self._arrival.triggered:
            self._arrival = self.env.event()
        return self._arrival

    def note_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        if size > self.max_batch_seen:
            self.max_batch_seen = size


class FrontEnd:
    """Client-facing serving layer over one Aceso cluster."""

    def __init__(self, cluster, config: Optional[FrontEndConfig] = None,
                 slo: Optional[SLOBook] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config if config is not None else FrontEndConfig()
        self.config.validate()
        self.slo = slo if slo is not None else SLOBook()
        self.tenants: Dict[str, TenantSpec] = {}
        self._inflight: Dict[str, int] = {}
        self.lanes: List[Lane] = []
        by_cn: Dict[int, List] = {}
        for client in cluster.clients:
            by_cn.setdefault(client.cn.node_id, []).append(client)
        for cn_id in sorted(by_cn):
            self.lanes.append(Lane(self.env, cn_id, by_cn[cn_id],
                                   self.config.cache_capacity))
        cluster.master.add_failure_listener(self._on_failure)
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def add_tenant(self, spec: TenantSpec) -> TenantSpec:
        self.tenants[spec.name] = spec
        self._inflight.setdefault(spec.name, 0)
        return spec

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.cluster.start()
        for lane in self.lanes:
            for client in lane.clients:
                proc = self.env.process(
                    self._dispatch_loop(lane, client),
                    name=f"fe.cn{lane.cn_id}.cli{client.cli_id}",
                )
                # Registered with the client so a CN crash interrupts the
                # dispatcher mid-batch (in-flight requests fail over).
                client._procs.append(proc)

    # -- submission ------------------------------------------------------

    def submit(self, tenant: str, verb: str, key: bytes,
               value: bytes = b"") -> Request:
        """Enqueue one request; returns it immediately (``done`` settles
        later).  Sheds synchronously when the tenant is over its cap."""
        spec = self.tenants[tenant]
        req = Request(tenant=tenant, verb=verb, key=key, value=value,
                      t_submit=self.env.now, done=self.env.event())
        if self._inflight[tenant] >= spec.max_in_flight:
            req.shed = True
            req.outcome = "shed"
            self.slo.bump(tenant, "shed")
            req.done.fail(AdmissionError(tenant))
            return req
        self._inflight[tenant] += 1
        self.slo.bump(tenant, "submitted")
        lane = self._lane_for(key)
        if lane is None:
            self._finish_error(req, NodeFailedError(-1, "no alive lanes"))
            return req
        if verb == "SEARCH" and lane.cache.enabled:
            hit = lane.cache.get(key)
            if hit is not None:
                # Served from CN-local memory; no fabric, no dispatcher.
                self.env.defer(self.config.cache_hit_time,
                               lambda _ev, r=req, v=hit:
                               self._finish_value(r, v, "hit"))
                return req
        lane.enqueue(req)
        return req

    def _lane_for(self, key: bytes) -> Optional[Lane]:
        """Rendezvous (highest-random-weight) hashing over alive lanes.

        Stable under membership change: a key moves only when its own
        lane dies, so it can never route to a surviving lane that still
        caches a value from before an earlier failure."""
        best = None
        best_weight = -1
        for lane in self.lanes:
            if not lane.alive:
                continue
            weight = hash64(key, lane.route_salt)
            if weight > best_weight:
                best_weight = weight
                best = lane
        return best

    # -- completion ------------------------------------------------------

    def _finish_value(self, req: Request, value, kind: str) -> None:
        if req.done.triggered:
            return
        req.outcome = "miss" if kind == "miss" else \
            ("hit" if kind == "hit" else "ok")
        self._inflight[req.tenant] -= 1
        self.slo.record(req.tenant, self.env.now - req.t_submit, kind)
        req.done.succeed(value)

    def _finish_error(self, req: Request, exc: Exception) -> None:
        if req.done.triggered:
            return
        req.outcome = "error"
        self._inflight[req.tenant] -= 1
        self.slo.bump(req.tenant, "errors")
        req.done.fail(exc)

    # -- failure handling ------------------------------------------------

    def _on_failure(self, kind: str, node_id: int) -> None:
        if kind == "cn":
            for lane in self.lanes:
                if lane.cn_id != node_id or not lane.alive:
                    continue
                lane.alive = False
                lane.cache.clear()
                pending = list(lane.q)
                lane.q.clear()
                for req in pending:
                    if req.done.triggered:
                        continue
                    target = self._lane_for(req.key)
                    if target is None:
                        self._finish_error(req, NodeFailedError(
                            node_id, "no surviving lanes"))
                    else:
                        req.rerouted = True
                        self.slo.bump(req.tenant, "rerouted")
                        target.enqueue(req)
        else:  # MN failure: recovery may restore older committed state
            num_mns = self.cluster.config.cluster.num_mns
            for lane in self.lanes:
                if lane.cache.enabled:
                    lane.cache.invalidate_home(node_id, num_mns)

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self, lane: Lane, client):
        env = self.env
        cfg = self.config
        linger = cfg.latency_target * _LINGER_FRACTION
        batch: List[Request] = []
        try:
            while True:
                if not lane.alive or not client.alive:
                    return
                if not lane.q:
                    yield lane.wait_arrival()
                    continue
                # Linger while the queue is shallow and the head is fresh.
                deadline = lane.q[0].t_submit + linger
                while lane.q and len(lane.q) < lane.batch_target \
                        and env.now < deadline:
                    yield env.any_of([lane.wait_arrival(),
                                      env.timeout(deadline - env.now)])
                if not lane.q:
                    continue
                n = min(len(lane.q), cfg.max_batch)
                batch = [lane.q.popleft() for _ in range(n)]
                # Adapt: backlog after a full drain grows the target,
                # an emptied queue shrinks it back toward singles.
                if lane.q:
                    lane.batch_target = min(lane.batch_target * 2,
                                            cfg.max_batch)
                else:
                    lane.batch_target = max(1, lane.batch_target // 2)
                lane.note_batch(n)
                yield from self._execute(lane, client, batch)
                batch = []
        except Interrupt:
            # The CN died under us: everything popped but unsettled is
            # indeterminate for the caller.
            for req in batch:
                if not req.done.triggered:
                    self._finish_error(req, NodeFailedError(
                        lane.cn_id, "compute node crashed mid-batch"))

    def _execute(self, lane: Lane, client, batch: List[Request]):
        i = 0
        n = len(batch)
        while i < n:
            req = batch[i]
            if req.done.triggered:
                i += 1
                continue
            if req.verb == "SEARCH":
                j = i
                run: List[Request] = []
                while j < n and batch[j].verb == "SEARCH":
                    if not batch[j].done.triggered:
                        run.append(batch[j])
                    j += 1
                yield from self._execute_searches(lane, client, run)
                i = j
            else:
                yield from self._execute_write(lane, client, req)
                i += 1

    def _execute_searches(self, lane: Lane, client, run: List[Request]):
        todo: List[Request] = []
        for req in run:
            hit = lane.cache.get(req.key) if lane.cache.enabled else None
            if hit is not None:
                self._finish_value(req, hit, "hit")
            else:
                todo.append(req)
        if not todo:
            return
        # Coherence tokens captured before the fabric reads: another
        # dispatcher on this lane may commit a write to one of these
        # keys while our read is in flight, and its value must not be
        # overwritten by our (older) read result.
        tokens = {req.key: lane.cache.gen(req.key) for req in todo}
        if len(todo) == 1:
            req = todo[0]
            try:
                value = yield from client.search(req.key)
            except KeyNotFoundError:
                self._finish_value(req, None, "miss")
                return
            except (NodeFailedError, RetryBudgetExceeded) as exc:
                self._finish_error(req, exc)
                return
            lane.cache.fill(req.key, value, tokens[req.key])
            self._finish_value(req, value, "ok")
            return
        outcomes = yield from client.search_many([r.key for r in todo])
        for req in todo:
            kind, payload = outcomes[req.key]
            if kind == "ok":
                lane.cache.fill(req.key, payload, tokens[req.key])
                self._finish_value(req, payload, "ok")
            elif kind == "miss":
                self._finish_value(req, None, "miss")
            else:
                self._finish_error(req, payload)

    def _execute_write(self, lane: Lane, client, req: Request):
        key, value = req.key, req.value
        try:
            if req.verb == "INSERT":
                committed = yield from client.insert(key, value)
            elif req.verb == "UPDATE":
                committed = yield from client.update(key, value)
            elif req.verb == "DELETE":
                committed = yield from client.delete(key)
            else:
                raise ValueError(f"unknown verb {req.verb!r}")
        except KeyNotFoundError:
            # UPDATE/DELETE of an absent key: a no-op, not an error.
            lane.cache.invalidate(key)
            self._finish_value(req, None, "miss")
            return
        except (NodeFailedError, RetryBudgetExceeded, AllocationError,
                IndexFullError) as exc:
            lane.cache.invalidate(key)
            self._finish_error(req, exc)
            return
        if req.verb == "DELETE":
            lane.cache.invalidate(key)
            self._finish_value(req, None, "ok")
        else:
            # An overwritten value was never visible: caching it would
            # serve it after the commit that beat it.
            if committed:
                lane.cache.put(key, value)
            else:
                lane.cache.invalidate(key)
            self._finish_value(req, value, "ok")

    # -- reporting -------------------------------------------------------

    def lane_counters(self) -> Dict[str, int]:
        out = {
            "lanes_alive": sum(1 for ln in self.lanes if ln.alive),
            "batches": sum(ln.batches for ln in self.lanes),
            "batched_requests": sum(ln.batched_requests
                                    for ln in self.lanes),
            "max_batch": max((ln.max_batch_seen for ln in self.lanes),
                             default=0),
            "max_depth": max((ln.max_depth_seen for ln in self.lanes),
                             default=0),
            "cache_hits": sum(ln.cache.hits for ln in self.lanes),
            "cache_misses": sum(ln.cache.misses for ln in self.lanes),
            "cache_invalidations": sum(ln.cache.invalidations
                                       for ln in self.lanes),
            "cache_stale_fills": sum(ln.cache.stale_fills
                                     for ln in self.lanes),
        }
        return out
