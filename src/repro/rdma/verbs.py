"""RDMA verb definitions and wire-size accounting.

The model keeps the distinctions the paper's analysis relies on:

* one-sided verbs (READ, WRITE, CAS, FAA) bypass the destination CPU and
  cost NIC resources only;
* SEND/RECV (used for the UD-based RPC of §3.5.2) additionally occupies the
  destination's RPC-serving CPU core;
* CAS and FAA operate on exactly 8 bytes (the RDMA atomic granularity that
  shapes Aceso's split Atomic/Meta slot layout);
* small WRITEs can be inlined into the work request, sparing the source a
  DMA read (modelled as a reduced source-side cost).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

__all__ = ["Opcode", "Verb", "ATOMIC_SIZE", "WIRE_HEADER"]

#: RDMA atomics operate on 8-byte words.
ATOMIC_SIZE = 8

#: Per-message wire overhead (headers, CRCs) in bytes.  A round number in
#: the right range for RoCE/IB transports.
WIRE_HEADER = 32


class Opcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    CAS = "cas"
    FAA = "faa"
    SEND = "send"


# ``is_atomic`` is consulted once per posted verb on the hot path; a plain
# member attribute is one dict lookup instead of a property descriptor call.
for _op in Opcode:
    _op.is_atomic = _op in (Opcode.CAS, Opcode.FAA)
del _op


class Verb:
    """One posted work request.

    ``execute`` runs at completion time *at the destination* and produces
    the verb's result (e.g. the bytes read, or the pre-swap value of a CAS).
    Keeping the side effect inside the verb gives the simulation a single
    serialization point per memory word, which is what makes RDMA_CAS
    conflict resolution faithful.
    """

    __slots__ = ("opcode", "payload", "execute", "signaled")

    def __init__(self, opcode: Opcode, payload: int,
                 execute: Optional[Callable[[], Any]] = None,
                 signaled: bool = True):
        if opcode.is_atomic and payload != ATOMIC_SIZE:
            raise ValueError(
                f"{opcode.value} must carry {ATOMIC_SIZE} bytes"
            )
        if payload < 0:
            raise ValueError("negative payload")
        self.opcode = opcode
        self.payload = payload                # payload bytes
        self.execute = execute                # side effect at completion
        self.signaled = signaled              # selective signaling model

    def src_size(self, inline_max: int) -> int:
        """Bytes the source NIC moves for this verb, charged once per
        message by the Fabric: the larger of the request it sends (only
        the header for a READ, or for a WRITE of at most ``inline_max``
        bytes, which is inlined and skips the DMA fetch) and the response
        it receives (a READ's data, an atomic's old value, else an
        ACK)."""
        op = self.opcode
        if op is Opcode.READ:
            return self.payload + WIRE_HEADER
        if op.is_atomic:
            return ATOMIC_SIZE + WIRE_HEADER
        if op is Opcode.WRITE and self.payload <= inline_max:
            return WIRE_HEADER
        return self.payload + WIRE_HEADER
