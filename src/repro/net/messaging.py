"""Fast-messages layer: asynchronous sends, synchronous RPC, sync legs.

This is the "basic communication library" of the paper (a fast messaging
system in the style of FM/AM/VMMC).  It centralizes the cost structure of
every protocol communication:

* the sender pays the **host overhead** (swept parameter) on its CPU;
* the NI pipeline (occupancy, DMA, link; see :mod:`repro.net.nic`) moves
  the data;
* ``REQUEST``s interrupt the destination; ``REPLY``/``SYNC`` do not.

The protocol layer talks to remote nodes exclusively through
:meth:`MessagingLayer.rpc` (synchronous request/reply, the page-fetch and
remote-lock path) and :meth:`MessagingLayer.send_async` /
:meth:`MessagingLayer.send_sync` (one-way traffic such as AURC updates and
barrier legs).

Accounting conventions
----------------------
Host overhead is charged to the CPU's ``overhead`` category when sent from
application context, but as plain time when sent from *inside an interrupt
handler* (the handler bracket already charges the whole duration to
``handler``; charging again would double count).  Message/byte counters go
to the sending CPU's stats either way, which is how Figures 3-4 count
traffic per processor.

Reliable delivery
-----------------
When the cluster runs with fault injection
(:class:`~repro.net.faults.FaultParams` enabled), every send is
*sequence-numbered* and watched: if the message has not been deposited in
the destination's memory within ``retry_timeout`` cycles, the NI
retransmits it (same sequence number), backing off exponentially with
seeded decorrelated jitter (see ``FaultParams.retry_jitter``), up to
``max_retries`` times — then raises
:class:`~repro.net.faults.RetryExhaustedError` instead of hanging.  The
deposit event doubles as the acknowledgement (a zero-cost piggybacked
ack); receivers suppress duplicates by sequence number, so spurious
retransmissions are harmless.  Retransmissions are NI-driven: they pay
the full wire pipeline again but no host overhead, and they are tallied
in :attr:`retransmits` / :attr:`retransmitted_bytes`, which flow into
``RunResult.meta`` for the traffic breakdowns.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, Optional

from repro.net.faults import FaultParams, RetryExhaustedError
from repro.net.message import Message, MessageKind
from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import ArchParams, CommParams
    from repro.arch.processor import Processor
    from repro.net.nic import NetworkInterface
    from repro.sim.engine import Simulator


class MessagingLayer:
    """Cluster-wide messaging facade over the per-node NIs."""

    def __init__(
        self,
        sim: "Simulator",
        arch: "ArchParams",
        comm: "CommParams",
        nics: Dict[int, "NetworkInterface"],
        faults: Optional[FaultParams] = None,
    ) -> None:
        self.sim = sim
        self.arch = arch
        self.comm = comm
        self.nics = nics
        #: reliable-delivery knobs; ``None`` = perfect fabric, no timers
        self.faults = faults if faults is not None and faults.enabled else None
        #: dedicated jitter stream for retransmit backoff — decoupled from
        #: the injector's draw stream so enabling jitter does not shift
        #: which messages get dropped, and seeded so runs stay
        #: bit-identical per fault_seed
        self._backoff_rng = (
            random.Random(self.faults.fault_seed ^ 0x9E3779B9)
            if self.faults is not None
            else None
        )
        self._seq_counters: Dict[int, "itertools.count"] = {}
        #: host cycles per posted send under the active regime (baseline:
        #: host_overhead; rdma: the descriptor-post cost)
        self._send_overhead = comm.send_post_cycles
        #: number of NI-driven retransmissions across the cluster
        self.retransmits = 0
        #: wire bytes consumed by retransmissions
        self.retransmitted_bytes = 0
        # RDMA remote reads are served NI-side: wire the serve hook into
        # every node's NI (harmless in the baseline regime — no READ
        # messages are ever sent there)
        for nic in nics.values():
            nic.on_read = self._serve_remote_read

    # ------------------------------------------------------------------ #
    # reliable transmission
    # ------------------------------------------------------------------ #
    def _transmit(self, msg: Message) -> Event:
        """Hand ``msg`` to its source NI; arm the retransmit watch when
        reliable delivery is on.  Returns the deposit event."""
        nic = self._nic(msg.src_node)
        if self.faults is None:
            return nic.send(msg)
        counter = self._seq_counters.get(msg.src_node)
        if counter is None:
            counter = self._seq_counters[msg.src_node] = itertools.count()
        msg.seq = next(counter)
        deposit = nic.send(msg)
        self.sim.schedule(
            self.faults.retry_timeout,
            self._check_delivery,
            msg,
            deposit,
            0,
            self.faults.retry_timeout,
        )
        return deposit

    def _post(self, msg: Message) -> None:
        """Transmit ``msg`` for a caller that ignores its deposit event.

        On a perfect fabric nothing waits on that event, so the NI skips
        allocating it; reliable delivery needs it as the acknowledgement.
        """
        if self.faults is None:
            self._nic(msg.src_node).post(msg)
        else:
            self._transmit(msg)

    def _check_delivery(
        self, msg: Message, deposit: Event, retries: int, timeout: int
    ) -> None:
        """Retransmit timer: fires ``timeout`` cycles after the (re)send.

        Raising from here propagates straight out of ``Simulator.run`` —
        an exhausted budget can never turn into a silent hang, even for
        fire-and-forget messages nobody is waiting on.
        """
        if deposit.triggered:
            return
        f = self.faults
        if retries >= f.max_retries:
            raise RetryExhaustedError(msg, retries)
        self.retransmits += 1
        self.retransmitted_bytes += msg.wire_bytes(
            self.arch.packet_mtu, self.arch.packet_header_bytes
        )
        self._nic(msg.src_node).send(msg)
        next_timeout = self._next_timeout(timeout)
        self.sim.schedule(
            next_timeout, self._check_delivery, msg, deposit, retries + 1, next_timeout
        )

    def _next_timeout(self, timeout: int) -> int:
        """Grow the retransmit timeout: exponential backoff, decorrelated.

        With ``retry_jitter`` 0 this is the legacy deterministic ladder
        (``timeout * retry_backoff``).  Otherwise the deterministic value
        is blended with a decorrelated draw uniform over
        ``[retry_timeout, 3 * timeout]`` (Exponential Backoff And Jitter,
        "decorrelated jitter" variant), so senders that lost messages in
        the same drop burst do not retry in synchronized waves.  Draws
        come from the dedicated seeded stream: per-seed bit-identical.
        """
        f = self.faults
        deterministic = max(1, int(timeout * f.retry_backoff))
        if not f.retry_jitter or self._backoff_rng is None:
            return deterministic
        decorrelated = self._backoff_rng.randint(
            f.retry_timeout, max(f.retry_timeout, 3 * timeout)
        )
        blended = (1.0 - f.retry_jitter) * deterministic + f.retry_jitter * decorrelated
        return max(1, int(blended))

    # ------------------------------------------------------------------ #
    # cost/accounting helpers
    # ------------------------------------------------------------------ #
    def _charge_send(
        self,
        cpu: "Processor",
        msg: Message,
        in_handler: bool,
    ) -> Iterable:
        """Count the message on the sending CPU and return its host
        overhead for the caller to ``yield from``.

        A plain function, not a generator: the caller's ``yield from``
        drives what it returns directly, one frame fewer per send.
        """
        arch = self.arch  # Message.wire_bytes, inline
        wire = msg.size_bytes + msg.packet_count(arch.packet_mtu) * arch.packet_header_bytes
        counters = cpu.stats.counters  # ProcessorStats.count, inline
        counters["messages_sent"] = counters.get("messages_sent", 0) + 1
        counters["bytes_sent"] = counters.get("bytes_sent", 0) + wire
        overhead = self._send_overhead
        if not overhead:
            return ()
        if in_handler:
            return (overhead,)  # the handler bracket charges it to 'handler'
        return cpu.busy(overhead, "overhead")

    def _nic(self, node_id: int) -> "NetworkInterface":
        try:
            return self.nics[node_id]
        except KeyError:
            raise ValueError(f"no NI for node {node_id}") from None

    # ------------------------------------------------------------------ #
    # public send operations (all are generators to be `yield from`-ed)
    # ------------------------------------------------------------------ #
    def rpc(
        self,
        cpu: "Processor",
        src_node: int,
        dst_node: int,
        tag: str,
        size_bytes: int,
        payload: Any = None,
        wait_category: str = "data_wait",
        in_handler: bool = False,
    ) -> Generator:
        """Synchronous request: send, block until the reply arrives.

        Returns the reply payload.  The elapsed blocking time is charged to
        ``wait_category`` (``data_wait`` for page fetches, ``lock_wait``
        for lock acquires, ...).
        """
        reply_ev = Event(self.sim, name=f"rpc.{tag}")
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            kind=MessageKind.REQUEST,
            size_bytes=size_bytes,
            tag=tag,
            payload=payload,
            reply_to=reply_ev,
        )
        yield from self._charge_send(cpu, msg, in_handler)
        self._post(msg)
        # Processor.wait_for, inline; a handler's wait is handler time
        t0 = self.sim.now
        value = yield reply_ev
        if not in_handler:
            cpu.stats.time[wait_category] += self.sim.now - t0
        return value

    def remote_read(
        self,
        cpu: "Processor",
        src_node: int,
        dst_node: int,
        tag: str,
        size_bytes: int,
        read_bytes: int,
        payload: Any = None,
        wait_category: str = "data_wait",
    ) -> Generator:
        """RDMA remote read: post a READ descriptor, block until the
        target *NI* has streamed ``read_bytes`` back.

        No processor at ``dst_node`` is involved and no interrupt is
        raised — the only host cost is the requester's descriptor post.
        Both legs travel the full wire pipeline and are retransmitted
        under reliable delivery exactly like RPC traffic.  Returns the
        reply payload.
        """
        reply_ev = Event(self.sim, name=f"read.{tag}")
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            kind=MessageKind.READ,
            size_bytes=size_bytes,
            tag=tag,
            payload=payload,
            reply_to=reply_ev,
            read_bytes=read_bytes,
        )
        yield from self._charge_send(cpu, msg, in_handler=False)
        self._post(msg)
        value = yield from cpu.wait_for(reply_ev, wait_category)
        return value

    def _serve_remote_read(self, msg: Message) -> None:
        """NI-side READ service: stream the data back as a REPLY.

        Runs at the target NI with zero host cycles — the reply pays the
        normal NI/bus/link pipeline (and its own retransmit watch) but no
        send-posting overhead and no handler.
        """
        reply = Message(
            src_node=msg.dst_node,
            dst_node=msg.src_node,
            kind=MessageKind.REPLY,
            size_bytes=msg.read_bytes,
            tag=msg.tag + ".reply",
            payload=msg.payload,
            reply_to=msg.reply_to,
        )
        self._post(reply)

    def send_reply(
        self,
        cpu: "Processor",
        request: Message,
        size_bytes: int,
        payload: Any = None,
    ) -> Generator:
        """Send the reply to ``request`` (from inside its handler).

        Replies never interrupt the requester: the NI deposits the data and
        triggers the RPC's reply event directly.
        """
        if request.reply_to is None:
            raise ValueError("request carries no reply_to event")
        msg = Message(
            src_node=request.dst_node,
            dst_node=request.src_node,
            kind=MessageKind.REPLY,
            size_bytes=size_bytes,
            tag=request.tag + ".reply",
            payload=payload,
            reply_to=request.reply_to,
        )
        yield from self._charge_send(cpu, msg, in_handler=True)
        self._post(msg)

    def send_async(
        self,
        cpu: "Processor",
        src_node: int,
        dst_node: int,
        tag: str,
        size_bytes: int,
        payload: Any = None,
        in_handler: bool = False,
    ) -> Generator:
        """One-way REQUEST (interrupts the destination); returns the
        deposit event so callers may later wait for delivery."""
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            kind=MessageKind.REQUEST,
            size_bytes=size_bytes,
            tag=tag,
            payload=payload,
            reply_to=Event(self.sim, name=f"async.{tag}"),
        )
        yield from self._charge_send(cpu, msg, in_handler)
        self._post(msg)
        return msg.reply_to

    def send_sync(
        self,
        cpu: "Processor",
        src_node: int,
        dst_node: int,
        tag: str,
        size_bytes: int,
        payload: Any = None,
        in_handler: bool = False,
        min_packets: int = 1,
        free_send: bool = False,
    ) -> Generator:
        """One-way SYNC message: the destination is (or will be) waiting at
        the matching rendezvous; no interrupt is raised.

        ``min_packets`` forces a packet count floor (AURC fine-grain
        updates).  ``free_send`` suppresses the host overhead — used for
        traffic the *hardware* emits autonomously (AURC's automatic-update
        snooper), which costs the host nothing.

        Returns the deposit event (succeeds when the data lands in the
        destination's memory).
        """
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            kind=MessageKind.SYNC,
            size_bytes=size_bytes,
            tag=tag,
            payload=payload,
            min_packets=min_packets,
        )
        if free_send:
            wire = msg.wire_bytes(self.arch.packet_mtu, self.arch.packet_header_bytes)
            cpu.stats.count("messages_sent")
            cpu.stats.count("bytes_sent", wire)
        else:
            yield from self._charge_send(cpu, msg, in_handler)
        return self._transmit(msg)

    def send_data(
        self,
        cpu: "Processor",
        src_node: int,
        dst_node: int,
        size_bytes: int,
        min_packets: int = 1,
        tag: str = "data",
    ) -> Generator:
        """Hardware-emitted data deposit (AURC automatic update): no host
        overhead, no interrupt, no receiver rendezvous.  Returns the
        deposit event so releases can wait for updates to drain."""
        msg = Message(
            src_node=src_node,
            dst_node=dst_node,
            kind=MessageKind.DATA,
            size_bytes=size_bytes,
            tag=tag,
            min_packets=min_packets,
        )
        wire = msg.wire_bytes(self.arch.packet_mtu, self.arch.packet_header_bytes)
        cpu.stats.count("messages_sent")
        cpu.stats.count("bytes_sent", wire)
        return self._transmit(msg)
        yield  # pragma: no cover — marks this function as a generator

    def receive_sync(self, node_id: int, tag: str) -> Event:
        """Event-like handle for the next SYNC message with ``tag`` at
        ``node_id`` (yield it to block until arrival)."""
        return self._nic(node_id).sync_get(tag)
