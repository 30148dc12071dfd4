"""The fabric: posts verbs between NICs, models liveness and completion.

A verb posted from ``src`` to ``dst``:

1. occupies the source NIC (request and/or response bytes, whichever is
   larger; doorbell batching collapses per-message overheads),
2. occupies the destination NIC (full wire size per message),
3. completes half an RTT of propagation after both NICs drain,
4. executes its side effect (memory read/write/CAS) at completion time,
   which serializes all accesses to destination memory,
5. fails with :class:`NodeFailedError` if the destination is dead at post
   or completion time (in-flight verbs are lost on a crash, like real RDMA
   QPs erroring out).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..errors import NodeFailedError
from ..sim import Deferred, Environment, Event
from .nic import RNIC
from .verbs import ATOMIC_SIZE, WIRE_HEADER, Opcode, Verb

__all__ = ["Fabric"]

# What the opcode-named wrappers hand the post path in place of a Verb.
_READ, _WRITE = (Opcode.READ,), (Opcode.WRITE,)
_CAS, _FAA = (Opcode.CAS,), (Opcode.FAA,)
_ATOMIC_WIRE = ATOMIC_SIZE + WIRE_HEADER
#: Service-time shapes of an atomic: a plain message at the source, a
#: PCIe read-modify-write (no doorbell) at the destination.
_ATOMIC_SRC, _ATOMIC_DST = (_ATOMIC_WIRE, 1, 0), (_ATOMIC_WIRE, 0, 1)


def _raise_dead(node_id: int):
    raise NodeFailedError(node_id, "post")


def _execute_all(verbs: Sequence[Verb]) -> list:
    return [v.execute() if v.execute else None for v in verbs]


class _Completion(Deferred):
    """The completion of one posted verb (or doorbell group).  Its
    dispatch is the verb: the destination's liveness is checked — a verb
    in flight when its destination dies is lost — and the side effect
    ``resolver(*args)`` runs right here, then the waiters.  ``_trace``
    (tracing on) emits the group's span, given the error text or "" (a
    side effect that raises emits none).  ``Fabric._submit`` fills the
    three slots right after construction."""

    __slots__ = ("_alive", "_dst_id", "_trace")

    def _run_callbacks(self) -> None:
        trace = self._trace
        if not self._alive.get(self._dst_id, False):
            self._ok = False
            self._value = NodeFailedError(self._dst_id, "in flight")
            if trace is not None:
                trace("node failed in flight")
        else:
            fn = self._resolver
            try:
                if fn is not None:
                    self._value = fn(*self._args)
                if trace is not None:
                    trace("")
            except BaseException as exc:
                self._ok = False
                self._value = exc
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)


class Fabric:
    """Connects all NICs; the single authority on node liveness."""

    def __init__(self, env: Environment):
        self.env = env
        self._nics: Dict[int, RNIC] = {}
        self._alive: Dict[int, bool] = {}
        # Traffic accounting for the bandwidth-interference analyses.
        self.bytes_by_class: Dict[str, int] = {}
        #: Observability bundle (set by the cluster); None or disabled
        #: keeps the post path free of tracing work.
        self.obs = None

    # -- membership --------------------------------------------------------

    def register(self, nic: RNIC) -> RNIC:
        if nic.node_id in self._nics:
            raise ValueError(f"node {nic.node_id} already registered")
        self._nics[nic.node_id] = nic
        self._alive[nic.node_id] = True
        return nic

    def is_alive(self, node_id: int) -> bool:
        return self._alive.get(node_id, False)

    def kill(self, node_id: int) -> None:
        self._alive[node_id] = False

    def revive(self, node_id: int) -> None:
        self._alive[node_id] = True

    # -- posting -----------------------------------------------------------

    def _submit(self, src: RNIC, dst: RNIC, src_service: float,
                dst_service: float, wire: int, opcodes: Sequence[Opcode],
                fn: Optional[Callable[..., Any]], args: tuple,
                traffic_class: str, track: Optional[str]) -> Event:
        """The one submission path, for every verb and doorbell group
        (millions of calls per simulated second).  ``src_service`` /
        ``dst_service`` are the group's occupancy of each NIC, ``wire``
        its bytes at the destination, ``fn(*args)`` its side effect, run
        by the completion event; ``opcodes`` (one per message) is read by
        tracing only."""
        env = self.env
        now = env.now
        rtt = src.config.rtt
        alive = self._alive
        dst_id = dst.node_id
        if not alive.get(dst_id, False):
            # Already dead: the QP errors out about an RTT later.
            return Deferred(env, now + rtt, _raise_dead, (dst_id,))
        bbc = self.bytes_by_class
        bbc[traffic_class] = bbc.get(traffic_class, 0) + wire
        obs = self.obs
        trace = None
        if obs is not None and obs.enabled:
            trace = self._trace_post(src, dst, src_service, dst_service,
                                     wire, opcodes, traffic_class, track)
        # Each NIC's FIFO drain instant: ``ThroughputServer.submit_at``
        # written out (NIC pipes have parallelism 1) and re-based through
        # ``now`` as the event-per-side engine did (``now + delay``), so
        # timestamps stay bit-identical to it.
        pipe = src._pipe
        free = pipe._free_at
        done = (now if now > free else free) + src_service
        pipe._free_at = done
        pipe._busy_time += src_service
        pipe._jobs += 1
        t_src = now + (done - now)
        pipe = dst._pipe
        free = pipe._free_at
        done = (now if now > free else free) + dst_service
        pipe._free_at = done
        pipe._busy_time += dst_service
        pipe._jobs += 1
        t_dst = now + (done - now)
        # Half an RTT of propagation each way once both NICs have drained.
        completion = _Completion(
            env, (t_src if t_src > t_dst else t_dst) + rtt, fn, args)
        completion._alive = alive
        completion._dst_id = dst_id
        completion._trace = trace
        return completion

    def _trace_post(self, src: RNIC, dst: RNIC, src_service: float,
                    dst_service: float, wire: int,
                    opcodes: Sequence[Opcode], traffic_class: str,
                    track: Optional[str]) -> Callable[[str], None]:
        """Tracing hook of the post path, called *before* the group
        enters the FIFOs (the wait it will see is the backlog already
        there, which separates wait from service in its span): records
        the per-class and per-NIC series, returns the emitter of the
        group's verb span for the completion to call."""
        env = self.env
        obs = self.obs
        metrics = obs.metrics
        metrics.add(f"bytes.{traffic_class}", wire)
        if any(op is not Opcode.READ for op in opcodes):
            # Write-path occupancy per side — the series behind the
            # paper's §2.4 asymmetry (writes are MN-IOPS-bound).
            metrics.add(f"nic.{src.obs_label}.wbusy", src_service)
            metrics.add(f"nic.{dst.obs_label}.wbusy", dst_service)
        t_post = env.now
        queue_wait = max(src.backlog(), dst.backlog())
        src.record_submit(metrics, src_service)
        dst.record_submit(metrics, dst_service)
        name = (opcodes[0].name if len(opcodes) == 1
                else f"batch[{len(opcodes)}]")
        span_track = track or f"nic.{src.obs_label}"
        rtt = src.config.rtt
        tracer = obs.tracer

        def trace_verb(error: str) -> None:
            span = tracer.complete(
                name, "verb", span_track, t_post, env.now,
                bytes=wire, tc=traffic_class,
                queue_us=round(queue_wait * 1e6, 3),
                service_us=round(dst_service * 1e6, 3),
                rtt_us=round(rtt * 1e6, 3),
            )
            if error:
                span.set(error=error)

        return trace_verb

    def post(self, src: RNIC, dst: RNIC, verb: Verb,
             traffic_class: str = "client",
             track: Optional[str] = None) -> Event:
        """Post one verb; the returned event triggers with
        ``verb.execute()``'s result (or ``None``) at completion time.
        ``track`` names the trace track of the verb's span (clients pass
        their own so verb spans nest under the op span; the default is
        the source NIC's track)."""
        wire = verb.payload + WIRE_HEADER
        return self._submit(
            src, dst,
            src._svc_cache[(verb.src_size(src.config.inline_max), 1, 0)],
            dst._svc_cache[(wire, 0, 1) if verb.opcode.is_atomic
                           else (wire, 1, 0)],
            wire, (verb.opcode,), verb.execute, (), traffic_class, track)

    def post_batch(self, src: RNIC, dst: RNIC, verbs: Sequence[Verb],
                   traffic_class: str = "client",
                   track: Optional[str] = None) -> Event:
        """Post a doorbell-batched group of verbs to one destination.

        With doorbell batching enabled, *both* sides charge the group as
        one doorbell ring plus per-byte wire time (atomics still pay their
        PCIe read-modify-write each): the per-message overhead is paid
        once for the whole group, which is the point of doorbell batching
        (§2.4).  With batching disabled, each message pays its own
        overhead on each side.  The returned event triggers with the list
        of per-verb results (the single result for a single verb).
        """
        if not verbs:
            raise ValueError("empty verb batch")
        if len(verbs) == 1:
            return self.post(src, dst, verbs[0],
                             traffic_class=traffic_class, track=track)
        inline_max = src.config.inline_max
        src_bytes = dst_bytes = atomics = 0
        opcodes = []
        for v in verbs:
            src_bytes += v.src_size(inline_max)
            dst_bytes += v.payload + WIRE_HEADER
            opcodes.append(v.opcode)
            if v.opcode.is_atomic:
                atomics += 1
        if src.config.doorbell_batching:
            # One op cost for the group plus the per-byte cost of
            # everything on the wire, on both sides.
            src_service = src._svc_cache[(src_bytes, 1, 0)]
            dst_service = dst._svc_cache[
                (dst_bytes, 1 if atomics < len(verbs) else 0, atomics)]
        else:
            src_service = src._svc_cache[(src_bytes, len(verbs), 0)]
            dst_service = 0.0
            for v in verbs:
                wire = v.payload + WIRE_HEADER
                dst_service += dst._svc_cache[
                    (wire, 0, 1) if v.opcode.is_atomic else (wire, 1, 0)]
        return self._submit(src, dst, src_service, dst_service, dst_bytes,
                            opcodes, _execute_all, (verbs,), traffic_class,
                            track)

    def transfer(self, src: RNIC, dst: RNIC, size: int, *,
                 chunk: int = 16 * 1024, execute=None,
                 opcode: Opcode = Opcode.WRITE, duty: float = 1.0,
                 traffic_class: str = "bulk") -> Event:
        """Bulk transfer split into *chunk*-sized verbs, posted one at a
        time so foreground verbs interleave between chunks (a background
        stream must not head-of-line-block the NIC FIFO for the whole
        transfer).  ``duty`` < 1 rate-limits the stream to that fraction
        of the wire (QoS for background work such as offline erasure
        coding).  ``execute`` runs once, at the completion of the final
        chunk, and provides the event's value."""
        done = self.env.event()

        if size <= 0:
            try:
                done.succeed(execute() if execute else None)
            except BaseException as exc:
                done.fail(exc)
            return done

        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1]: {duty}")
        idle = 0.0
        if duty < 1.0:
            idle = (chunk / dst.config.bandwidth) * (1.0 / duty - 1.0)
        state = {"remaining": size}

        def post_next(_ev=None):
            if _ev is not None and not _ev.ok:
                done.fail(_ev.value)
                return
            if state["remaining"] <= 0:
                done.succeed(_ev.value if _ev is not None else None)
                return
            this = min(chunk, state["remaining"])
            state["remaining"] -= this
            run = execute if state["remaining"] == 0 else None
            ev = self.post(src, dst, Verb(opcode, this, run),
                           traffic_class=traffic_class)
            if state["remaining"] > 0 and idle > 0:
                ev.add_callback(
                    lambda e: done.fail(e.value) if not e.ok
                    else self.env.timeout(idle).add_callback(
                        lambda _t: post_next(e))
                )
            else:
                ev.add_callback(post_next)

        post_next()
        return done

    # -- the opcode-named wrappers (the hot paths) -------------------------
    # No Verb is built: the side effect travels as ``execute, args`` and
    # is called as ``execute(*args)`` by the completion event.

    def read(self, src: RNIC, dst: RNIC, size: int, execute=None,
             args: tuple = (), traffic_class: str = "client",
             track: Optional[str] = None) -> Event:
        key = (size + WIRE_HEADER, 1, 0)    # the payload flows back
        return self._submit(src, dst, src._svc_cache[key],
                            dst._svc_cache[key], key[0], _READ, execute,
                            args, traffic_class, track)

    def write(self, src: RNIC, dst: RNIC, size: int, execute=None,
              args: tuple = (), traffic_class: str = "client",
              track: Optional[str] = None) -> Event:
        key = (size + WIRE_HEADER, 1, 0)
        # A small WRITE is inlined into the work request: the source
        # skips the DMA fetch and moves the header only.
        src_key = (WIRE_HEADER, 1, 0) if size <= src.config.inline_max \
            else key
        return self._submit(src, dst, src._svc_cache[src_key],
                            dst._svc_cache[key], key[0], _WRITE, execute,
                            args, traffic_class, track)

    def cas(self, src: RNIC, dst: RNIC, execute, args: tuple = (),
            traffic_class: str = "client",
            track: Optional[str] = None) -> Event:
        return self._submit(src, dst, src._svc_cache[_ATOMIC_SRC],
                            dst._svc_cache[_ATOMIC_DST], _ATOMIC_WIRE, _CAS,
                            execute, args, traffic_class, track)

    def faa(self, src: RNIC, dst: RNIC, execute, args: tuple = (),
            traffic_class: str = "client",
            track: Optional[str] = None) -> Event:
        return self._submit(src, dst, src._svc_cache[_ATOMIC_SRC],
                            dst._svc_cache[_ATOMIC_DST], _ATOMIC_WIRE, _FAA,
                            execute, args, traffic_class, track)
