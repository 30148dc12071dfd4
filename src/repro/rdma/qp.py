"""Two-sided RPC over UD queue pairs (§3.5.2).

Clients and MN servers exchange small RPCs (block allocation, bitmap
flushes, block-sealed notifications, recovery queries).  An RPC occupies
both NICs like any SEND, plus the destination's RPC-serving CPU core.

Handlers may be plain callables or generator functions (when the handler
itself needs to issue fabric operations); generator handlers are driven by
the server loop, which models the single serving core processing requests
one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..errors import NodeFailedError
from ..sim import (Environment, Event, Interrupt, Process, Store,
                   ThroughputServer)
from .network import Fabric
from .nic import RNIC
from .verbs import Opcode, Verb

__all__ = ["RpcRequest", "RpcServer", "rpc_call", "DEFAULT_RPC_TIMEOUT"]

#: Paper §3.2.2 uses a 500 us client timeout; RPCs use the same order.
DEFAULT_RPC_TIMEOUT = 500e-6

#: Wire size of a request/response if the caller does not override it.
DEFAULT_RPC_SIZE = 64


@dataclass
class RpcRequest:
    method: str
    args: tuple
    reply_to: RNIC
    reply_event: Event
    response_size: int = DEFAULT_RPC_SIZE


class RpcServer:
    """RPC dispatch loop bound to one node's NIC and serving core."""

    def __init__(self, env: Environment, fabric: Fabric, nic: RNIC,
                 serving_core: ThroughputServer, handle_time: float):
        self.env = env
        self.fabric = fabric
        self.nic = nic
        self.serving_core = serving_core
        self.handle_time = handle_time
        self.inbox: Store = Store(env)
        self._handlers: Dict[str, Callable] = {}
        self._process: Optional[Process] = None
        self.requests_served = 0
        #: Requests accepted and not yet answered — in the inbox or in
        #: the running handler — by ``id``, in arrival order.
        self._waiting: Dict[int, RpcRequest] = {}

    def register(self, method: str, handler: Callable) -> None:
        if method in self._handlers:
            raise ValueError(f"duplicate RPC handler {method!r}")
        self._handlers[method] = handler

    def handler(self, method: str) -> Callable:
        """Direct access to a handler (same-node dispatch skips the wire)."""
        return self._handlers[method]

    def start(self) -> Process:
        if self._process is not None and self._process.is_alive:
            raise RuntimeError("RPC server already running")
        # A restart is a fresh machine: requests still queued for the loop
        # that died are gone, and so is its parked ``get`` — left in the
        # store it would swallow the first request sent to the new loop.
        self.fail_waiting()
        self.inbox = Store(self.env)
        self._process = self.env.process(self._loop(), name=f"rpc@{self.nic.name}")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("rpc server stopped")

    def accept(self, request: RpcRequest) -> None:
        """A request landed on this node: queue it for the serving loop."""
        self._waiting[id(request)] = request
        self.inbox.put(request)

    def fail_waiting(self) -> None:
        """The node failed: every request it accepted and has not
        answered fails its caller with :class:`NodeFailedError` now,
        rather than when the caller's timeout runs out."""
        waiting, self._waiting = self._waiting, {}
        for request in waiting.values():
            if not request.reply_event.triggered:
                request.reply_event.succeed(NodeFailedError(
                    self.nic.node_id,
                    f"rpc {request.method}: server failed"))

    def _loop(self) -> Generator:
        while True:
            request: RpcRequest = yield self.inbox.get()
            yield self.serving_core.submit(self.handle_time)
            handler = self._handlers.get(request.method)
            if handler is None:
                result = NodeFailedError(
                    self.nic.node_id, f"no handler {request.method!r}"
                )
            else:
                try:
                    outcome = handler(*request.args)
                    if hasattr(outcome, "send"):  # generator handler
                        outcome = yield from outcome
                    result = outcome
                except Interrupt:
                    # stop() — the node crashed mid-handler.  Serving on
                    # would run queued requests against its wiped state.
                    raise
                except Exception as exc:
                    # Handler errors travel back to the caller; they must
                    # never kill the serving loop.
                    result = exc
            self.requests_served += 1
            self._waiting.pop(id(request), None)
            self._reply(request, result)

    def _reply(self, request: RpcRequest, result: Any) -> None:
        reply_event = request.reply_event

        def deliver() -> Any:
            if not reply_event.triggered:  # caller may have timed out
                reply_event.succeed(result)
            return None

        verb = Verb(Opcode.SEND, request.response_size, deliver)
        self.fabric.post(self.nic, request.reply_to, verb, traffic_class="rpc")


def rpc_call(env: Environment, fabric: Fabric, src: RNIC, server: RpcServer,
             method: str, *args, request_size: int = DEFAULT_RPC_SIZE,
             response_size: int = DEFAULT_RPC_SIZE,
             timeout: float = DEFAULT_RPC_TIMEOUT,
             track: Optional[str] = None) -> Generator:
    """Issue one RPC; yields until the response arrives.

    Raises :class:`NodeFailedError` if the handler returned an error, if
    the server's node is declared failed before it answers
    (:meth:`RpcServer.fail_waiting`), or if no response arrives within
    *timeout* (a server that is slow, or lost the reply).  ``track`` names
    the trace track of the emitted RPC span (default: the caller's NIC).
    """
    obs = fabric.obs
    tracer = obs.tracer if obs is not None and obs.enabled else None
    t0 = env.now

    def trace_rpc(error: str = "") -> None:
        span = tracer.complete(f"rpc.{method}", "rpc",
                               track or f"nic.{src.obs_label}",
                               t0, env.now, server=server.nic.name)
        if error:
            span.set(error=error)

    reply_event = env.event()
    request = RpcRequest(method, args, reply_to=src, reply_event=reply_event,
                         response_size=response_size)

    def enqueue() -> None:
        server.accept(request)

    verb = Verb(Opcode.SEND, request_size, enqueue)
    post_ev = fabric.post(src, server.nic, verb, traffic_class="rpc",
                          track=track)

    # Wait for the request to land; a dead destination fails here.
    yield post_ev

    outcome = yield env.any_of([reply_event, env.timeout(timeout)])
    index, value = outcome
    if index == 1:
        if tracer is not None:
            trace_rpc(error="timeout")
        raise NodeFailedError(server.nic.node_id, f"rpc {method} timed out")
    if isinstance(value, BaseException):
        if tracer is not None:
            trace_rpc(error=type(value).__name__)
        raise value
    if tracer is not None:
        trace_rpc()
    return value
