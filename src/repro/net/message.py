"""Message and packet types for the fast-messaging substrate.

Three message kinds, mirroring the protocol's use of the messaging layer
(paper Sections 2-3):

* ``REQUEST`` — a remote protocol request (page fetch, remote lock
  acquire, diff delivery).  Its arrival **interrupts** a processor at the
  destination node; the interrupt cost is the paper's headline parameter.
* ``REPLY`` — the response to a request.  Requests are synchronous
  (RPC-like) precisely so that replies are *expected*: the reply is
  deposited directly into host memory and wakes the blocked requester
  **without an interrupt**.
* ``SYNC`` — a synchronous point-to-point message some process at the
  destination is already waiting for (barrier legs).  Also interrupt-free.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.primitives import Event

_msg_ids = itertools.count()


class MessageKind(enum.Enum):
    REQUEST = "request"
    REPLY = "reply"
    SYNC = "sync"
    #: pure data deposit (AURC automatic updates): lands in destination
    #: memory with no interrupt and no waiting receiver
    DATA = "data"
    #: RDMA remote read (the "rdma" comm regime): the destination *NI*
    #: serves ``read_bytes`` back as a REPLY with no interrupt and no
    #: host involvement at the target
    READ = "read"


class Message:
    """One message travelling between nodes.

    ``size_bytes`` is the payload; the wire adds a per-packet header.
    ``tag`` selects the handler for REQUESTs or the rendezvous for SYNCs;
    ``reply_to`` carries the event a REPLY must trigger.  The other
    fields:

    * ``on_deposit`` — optional event triggered when the message has been
      deposited into destination host memory (set by the sending NI);
    * ``min_packets`` — minimum packet count regardless of size: AURC's
      automatic-update hardware emits one packet per spatially/temporally
      disjoint write run, so fine-grain updates cannot coalesce below it;
    * ``rx_nic`` — receive-side NI chosen by the sender's pipelined
      reservation (multi-NI nodes; see repro.net.nic.NICGroup);
    * ``seq`` — per-source sequence number assigned by the messaging
      layer when reliable delivery is on; retransmissions keep the
      original seq so the receiver can suppress duplicates.  ``None`` =
      unsequenced;
    * ``read_bytes`` — for READ: how many payload bytes the target NI
      streams back.

    A plain ``__slots__`` class: one is built per message sent, so its
    construction is on the per-message path.
    """

    __slots__ = (
        "src_node", "dst_node", "kind", "size_bytes", "tag", "payload",
        "reply_to", "on_deposit", "min_packets", "rx_nic", "seq",
        "read_bytes", "msg_id", "_packets",
    )

    def __init__(
        self, src_node: int, dst_node: int, kind: MessageKind, size_bytes: int,
        tag: str = "", payload: Any = None, reply_to: Optional["Event"] = None,
        on_deposit: Optional["Event"] = None, min_packets: int = 1, rx_nic: Any = None,
        seq: Optional[int] = None, read_bytes: int = 0, msg_id: Optional[int] = None,
    ) -> None:
        self.src_node = src_node
        self.dst_node = dst_node
        self.kind = kind
        self.size_bytes = size_bytes
        self.tag = tag
        self.payload = payload
        self.reply_to = reply_to
        self.on_deposit = on_deposit
        self.min_packets = min_packets
        self.rx_nic = rx_nic
        self.seq = seq
        self.read_bytes = read_bytes
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        #: memoized (mtu, packets) — the MTU is fixed for a run and the
        #: count is recomputed on every charge/transmit/retransmit
        self._packets: Optional[tuple] = None
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if src_node == dst_node:
            raise ValueError("intra-node traffic never reaches the NI")
        if kind is MessageKind.REPLY and reply_to is None:
            raise ValueError("REPLY without reply_to event")
        if kind is MessageKind.READ and reply_to is None:
            raise ValueError("READ without reply_to event")

    def packet_count(self, mtu: int) -> int:
        """Packets needed at the given MTU (at least one, even if empty)."""
        cached = self._packets
        if cached is not None and cached[0] == mtu:
            return cached[1]
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        count = max(1, self.min_packets, math.ceil(self.size_bytes / mtu))
        self._packets = (mtu, count)
        return count

    def wire_bytes(self, mtu: int, header_bytes: int) -> int:
        """Payload plus per-packet header overhead."""
        return self.size_bytes + self.packet_count(mtu) * header_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.kind.value} {self.tag!r} "
            f"{self.src_node}->{self.dst_node} {self.size_bytes}B)"
        )
