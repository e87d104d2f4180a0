"""Programmable network interface (Myrinet-like).

The NI model follows the paper's abstraction of the communication
subsystem (Section 3):

* an **asynchronous send** frees the host after the (swept) host
  overhead; the NI core then *prepares packets*, paying the swept
  **occupancy per packet** on the NI core — a single server shared by the
  send and receive paths, since the programmable assist is one processor;
* packet data is DMA'd from host memory across the **memory bus** and the
  **I/O bus** (the latter is the swept bandwidth parameter);
* packets transit the contention-free fabric and are processed by the
  receiving NI (occupancy again), then **deposited directly into host
  memory** across the receiver's I/O and memory buses **without an
  interrupt**;
* only ``REQUEST`` messages then raise an interrupt, via a hook the
  cluster wires to the node's interrupt controller;
* each NI has two 1 MB packet queues; if the outgoing queue fills, the NI
  interrupts the main processor and delays the sender until the queue
  drains (modelled as back-pressure plus an overflow-interrupt count).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

from repro.net.message import Message, MessageKind
from repro.sim.primitives import Event
from repro.sim.resources import FluidQueue, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.membus import MemoryBus
    from repro.arch.params import ArchParams, CommParams
    from repro.net.faults import FaultInjector
    from repro.net.iobus import IOBus
    from repro.net.link import Network
    from repro.sim.engine import Simulator


class NetworkInterface:
    """One node's NI: send/receive pipelines and delivery hooks."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        arch: "ArchParams",
        comm: "CommParams",
        membus: "MemoryBus",
        iobus: "IOBus",
        network: "Network",
        register: bool = True,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.arch = arch
        self.comm = comm
        self.membus = membus
        self.iobus = iobus
        self.network = network
        #: shared wire-level fault source, or ``None`` for a perfect fabric
        self.faults = faults
        #: the NI's programmable core: one server, occupancy per packet
        self.core = FluidQueue(sim, f"ni{node_id}.core")
        #: serial receive dispatch: the single-threaded NI core stalls all
        #: incoming processing while it signals a host interrupt, so
        #: request-heavy nodes delay even the replies their own
        #: processors are waiting for (the interrupt-cost knee)
        self.rx_gate = FluidQueue(sim, f"ni{node_id}.rx_gate")
        #: hook invoked for REQUEST arrivals (wired to the interrupt path)
        self.on_request: Optional[Callable[[Message], None]] = None
        #: hook invoked for READ arrivals (RDMA regime: the NI serves the
        #: remote read itself, no host, no interrupt)
        self.on_read: Optional[Callable[[Message], None]] = None
        #: cycles a REQUEST holds the serial receive gate (precomputed:
        #: interrupt signalling time, or zero when the regime/processing
        #: mode raises no interrupts)
        self._rx_gate_hold_cycles = (
            comm.null_interrupt_cycles
            if (
                arch.model_rx_gate
                and comm.effective_interrupt_cost
                and comm.protocol_processing == "interrupt"
            )
            else 0
        )
        #: hook invoked when the outgoing queue overflows
        self.on_queue_overflow: Optional[Callable[[], None]] = None
        self._sync_stores: Dict[str, Store] = {}
        #: (src_node, seq) pairs already delivered — duplicate suppression
        #: for sequenced (reliable) traffic; shared across a NICGroup
        self._delivered: Set[Tuple[int, int]] = set()
        # statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.wire_bytes_sent = 0
        self.packets_sent = 0
        self.overflow_interrupts = 0
        self.messages_dropped = 0
        self.duplicates_suppressed = 0
        #: optional metrics registry (None = disabled, single check per message)
        self.metrics = None

        if register:
            network.attach(node_id, self._on_arrival)
            network.register_endpoint(node_id, self)

    # ------------------------------------------------------------------ #
    # send path
    # ------------------------------------------------------------------ #
    def send(self, msg: Message) -> Event:
        """Post ``msg`` for transmission (asynchronous).

        Returns an event that succeeds when the message has been deposited
        into the destination node's memory (used by tests, by synchronous
        senders and by the retransmit watch).  Callers that ignore the
        event use :meth:`post`, which skips allocating it.
        """
        self.post(msg)
        if msg.on_deposit is None:
            msg.on_deposit = Event(self.sim, name=f"msg{msg.msg_id}.deposited")
        return msg.on_deposit

    def post(self, msg: Message) -> None:
        """Post ``msg`` for transmission without a deposit event.

        The send is a short chain of scheduled callbacks, no process:
        :meth:`_tx_stall` (faults only), :meth:`_tx_reserve`
        (back-pressure, then the pipelined path), :meth:`_tx_complete`
        (statistics, fault spike) and :meth:`_tx_deliver` (faults only:
        drop/duplicate).  Each link takes the calendar slot a resumption
        of a send process would take, so the events, their order and the
        resulting times are those of a generator yielding the same delays.
        """
        if msg.src_node != self.node_id:
            raise ValueError(f"message source {msg.src_node} != NI node {self.node_id}")
        # first link at the current time, after already-queued events
        first = self._tx_reserve if self.faults is None else self._tx_stall
        self.sim.schedule_now(first, msg)

    def _tx_stall(self, msg: Message) -> None:
        # Injected NIC firmware stall: the send sits in the outgoing
        # queue while the programmable core is wedged.
        stall = self.faults.draw_stall()
        if stall:
            self.sim.schedule(stall, self._tx_reserve, msg)
        else:
            self._tx_reserve(msg)

    def _tx_reserve(self, msg: Message) -> None:
        """Reserve the full source-to-destination path, *cut-through
        pipelined*.

        Packets stream through the stages (sender DMA, link, receiver
        DMA) concurrently, so the end-to-end time is governed by the
        *bottleneck* stage, not the sum of stages.  Every traversed
        resource is still reserved for its full service time — contention
        is preserved — but the message's latency is
        ``max(stage sojourns) + link latency``.

        The stages are reserved in one pass, in path order: the sender's
        memory bus (NI-out class) and I/O bus, the link, the receiver's
        I/O bus and memory bus (NI-in class), then both NI cores.  Each
        queued stage is :meth:`FluidQueue.latency
        <repro.sim.resources.FluidQueue.latency>` written out inline — a
        service time rounded up to whole cycles, queued behind the
        resource's backlog — with the service times and statistics of
        :meth:`MemoryBus.transfer_latency
        <repro.arch.membus.MemoryBus.transfer_latency>` and
        :meth:`IOBus.dma_latency <repro.net.iobus.IOBus.dma_latency>`.
        This send-path hot spot costs one call where the per-resource
        methods cost a dozen; ``tests/net/test_reservation.py`` holds
        the two to the same queue states and delays.
        """
        a = self.arch
        iobus = self.iobus
        now = self.sim.now
        if (iobus.queue._free_at - now) * iobus.bytes_per_cycle > a.ni_queue_bytes:
            # Back-pressure: outgoing queue full -> interrupt main CPU,
            # wait, then look again.
            self.overflow_interrupts += 1
            if self.on_queue_overflow is not None:
                self.on_queue_overflow()
            self.sim.schedule(max(1, iobus.queue.backlog // 2), self._tx_reserve, msg)
            return
        packets = msg.packet_count(a.packet_mtu)
        wire = msg.size_bytes + packets * a.packet_header_bytes  # as Message.wire_bytes
        peer = self.network.endpoint(msg.dst_node).pick_rx()
        msg.rx_nic = peer
        link_bpc = self.network.bytes_per_cycle
        if self.faults is not None:
            # degraded link: serialization runs at a fraction of nominal
            link_bpc *= self.faults.link_factor(self.node_id, msg.dst_node)

        # sender memory bus
        bus = self.membus
        if bus.metrics is not None:
            bus.meter("ni_out", wire)
        bpc = bus.bandwidth() if bus._bg_rate else bus._bpc
        service = int(-(-(bus._arb["ni_out"] + wire / bpc) // 1))
        q = bus.queue
        start = q._free_at if q._free_at > now else now
        q._free_at = start + service
        q.busy_cycles += service
        slowest = total = q._free_at - now
        # I/O buses (an empty DMA skips the bus, as dma_latency(0) does)
        # around the link
        stage = 0
        if wire:
            if iobus.metrics is not None:
                iobus.meter(wire)
            q = iobus.queue
            service = int(-(-(wire / iobus.bytes_per_cycle) // 1))
            start = q._free_at if q._free_at > now else now
            q._free_at = start + service
            q.busy_cycles += service
            stage = q._free_at - now
        total += stage
        if stage > slowest:
            slowest = stage
        stage = int(wire / link_bpc)  # link serialization
        total += stage
        if stage > slowest:
            slowest = stage
        stage = 0
        if wire:
            rx_iobus = peer.iobus
            if rx_iobus.metrics is not None:
                rx_iobus.meter(wire)
            q = rx_iobus.queue
            service = int(-(-(wire / rx_iobus.bytes_per_cycle) // 1))
            start = q._free_at if q._free_at > now else now
            q._free_at = start + service
            q.busy_cycles += service
            stage = q._free_at - now
        total += stage
        if stage > slowest:
            slowest = stage
        # receiver memory bus
        bus = peer.membus
        if bus.metrics is not None:
            bus.meter("ni_in", wire)
        bpc = bus.bandwidth() if bus._bg_rate else bus._bpc
        service = int(-(-(bus._arb["ni_in"] + wire / bpc) // 1))
        q = bus.queue
        start = q._free_at if q._free_at > now else now
        q._free_at = start + service
        q.busy_cycles += service
        stage = q._free_at - now
        total += stage
        if stage > slowest:
            slowest = stage
        occupancy = self.comm.ni_occupancy
        if occupancy:
            # NI cores: per-packet occupancy, sender then receiver
            service = int(-(-(packets * occupancy) // 1))
            for q in (self.core, peer.core):
                start = q._free_at if q._free_at > now else now
                q._free_at = start + service
                q.busy_cycles += service
                stage = q._free_at - now
                total += stage
                if stage > slowest:
                    slowest = stage
        # ablation: store-and-forward pays every stage in sequence
        delay = slowest if a.model_cut_through else total
        self.sim.schedule(delay, self._tx_complete, msg, packets, wire)

    def _tx_complete(self, msg: Message, packets: int, wire: int) -> None:
        self.messages_sent += 1
        self.packets_sent += packets
        self.wire_bytes_sent += wire
        metrics = self.metrics
        if metrics is not None:
            kind = msg.kind.name.lower()
            metrics.bump(f"ni{self.node_id}.sent.{kind}")
            metrics.bump(f"ni{self.node_id}.sent_bytes.{kind}", wire)
            metrics.sample_queue(f"{self.iobus.name}.tx_backlog_bytes", self.iobus.backlog_bytes)
        faults = self.faults
        if faults is None:
            self.network.deliver(msg, wire)
            return
        spike = faults.draw_spike()
        if spike:
            self.sim.schedule(spike, self._tx_deliver, msg, wire)
        else:
            self._tx_deliver(msg, wire)

    def _tx_deliver(self, msg: Message, wire: int) -> None:
        """Hand the message to the fabric under the injected faults."""
        faults = self.faults
        if faults.draw_drop():
            # the fabric ate it: bytes left the NI but nothing arrives;
            # recovery (if armed) is the messaging layer's retransmit
            self.messages_dropped += 1
            return
        self.network.deliver(msg, wire)
        if faults.draw_duplicate():
            # a second copy lands too; the receiver's sequence-number
            # dedup keeps it from re-triggering protocol events
            self.network.deliver(msg, wire)

    # ------------------------------------------------------------------ #
    # receive path (stage timing already accounted by the sender side)
    # ------------------------------------------------------------------ #
    def _on_arrival(self, msg: Message, wire_bytes: int) -> None:
        # All arrivals pass the serial receive gate: a REQUEST holds it
        # for the interrupt-issue time (the single-threaded NI core
        # busy-signals the host), and everything behind it — including
        # replies this node's own processors are blocked on — waits.
        # The request's *own* issue latency is charged by the interrupt
        # controller, so here it only delays followers.
        delay = self.rx_gate.backlog if self.arch.model_rx_gate else 0
        if self._rx_gate_hold_cycles and msg.kind is MessageKind.REQUEST:
            # The gate is held for issue + delivery: the single-threaded
            # assist cannot free the receive slot until the host has
            # taken the message.  Polling, NI-offload and the RDMA regime
            # raise no interrupts, so the gate never blocks there.
            self.rx_gate.latency(self._rx_gate_hold_cycles)
        if delay > 0:
            self.sim.schedule(delay, self._dispatch_arrival, msg)
        else:
            self._dispatch_arrival(msg)

    def _dispatch_arrival(self, msg: Message) -> None:
        if msg.seq is not None:
            # Sequenced (reliable) traffic: deliver-once semantics.  Both
            # fabric duplicates and spurious retransmissions of an
            # already-deposited message are absorbed here, so one-shot
            # events (RPC replies, deposit notifications) never re-fire.
            key = (msg.src_node, msg.seq)
            if key in self._delivered:
                self.duplicates_suppressed += 1
                return
            self._delivered.add(key)
        self.messages_received += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.bump(f"ni{self.node_id}.recv.{msg.kind.name.lower()}")
            metrics.sample_queue(
                f"ni{self.node_id}.rx_gate.backlog", self.rx_gate.backlog
            )
        if msg.on_deposit is not None:
            msg.on_deposit.succeed(msg)
        if msg.kind is MessageKind.REQUEST:
            if self.on_request is None:
                raise RuntimeError(f"node {self.node_id}: REQUEST arrived with no handler hook")
            self.on_request(msg)
        elif msg.kind is MessageKind.REPLY:
            msg.reply_to.succeed(msg.payload)
        elif msg.kind is MessageKind.SYNC:
            # a process is (or will be) waiting at the rendezvous
            store = self._sync_store(msg.tag)
            store.put(msg.payload)
            self._forget_if_idle(msg.tag, store)
        elif msg.kind is MessageKind.READ:
            # RDMA remote read: this NI streams the data back itself
            if self.on_read is None:
                raise RuntimeError(
                    f"node {self.node_id}: READ arrived with no serve hook"
                )
            self.on_read(msg)
        # MessageKind.DATA: nothing further — the deposit event above is all

    # ------------------------------------------------------------------ #
    # sync rendezvous
    # ------------------------------------------------------------------ #
    def sync_get(self, tag: str) -> Event:
        """Event for the next SYNC payload at ``tag``'s FIFO rendezvous."""
        store = self._sync_store(tag)
        ev = store.get()
        self._forget_if_idle(tag, store)
        return ev

    def _sync_store(self, tag: str) -> Store:
        store = self._sync_stores.get(tag)
        if store is None:
            store = self._sync_stores[tag] = Store(self.sim, name=f"ni{self.node_id}.{tag}")
        return store

    def _forget_if_idle(self, tag: str, store: Store) -> None:
        # A drained rendezvous holds no state, and the next use of the tag
        # makes a fresh one: the table keeps only rendezvous in flight,
        # not every tag a run ever used (barrier collectives use a new
        # tag per episode and round).
        if store.idle:
            del self._sync_stores[tag]

    def pick_rx(self) -> "NetworkInterface":
        """Receive-side endpoint selection (trivial for a single NI)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkInterface(node={self.node_id})"


class NICGroup:
    """Several NIs on one node, each with its own I/O bus.

    The paper's discussion proposes multiple network interfaces per node
    to raise node-to-network bandwidth.  Sends round-robin across the
    members; the sending side also round-robins the *receiver's* members
    when reserving the pipelined path, so both directions scale.  SYNC
    rendezvous stores are shared across members (a waiting receiver does
    not care which physical NI the message landed on), and the protocol's
    request/overflow hooks fan out to every member.
    """

    def __init__(self, nics) -> None:
        if not nics:
            raise ValueError("a NIC group needs at least one NI")
        self.nics = list(nics)
        first = self.nics[0]
        self.sim = first.sim
        self.node_id = first.node_id
        self.network = first.network
        self._tx = 0
        self._rx = 0
        # share one rendezvous table and one dedup table across members
        # (a retransmission may land on a different member than the
        # original, so deliver-once state must be per node)
        shared = first._sync_stores
        shared_delivered = first._delivered
        for nic in self.nics[1:]:
            if nic.node_id != self.node_id:
                raise ValueError("NIC group members must share a node")
            nic._sync_stores = shared
            nic._delivered = shared_delivered
        self.network.attach(self.node_id, self._on_arrival)
        self.network.register_endpoint(self.node_id, self)

    # -- send/receive ------------------------------------------------------
    def send(self, msg: Message) -> Event:
        return self._next_tx().send(msg)

    def post(self, msg: Message) -> None:
        self._next_tx().post(msg)

    def _next_tx(self) -> NetworkInterface:
        nic = self.nics[self._tx % len(self.nics)]
        self._tx += 1
        return nic

    def pick_rx(self) -> NetworkInterface:
        nic = self.nics[self._rx % len(self.nics)]
        self._rx += 1
        return nic

    def _on_arrival(self, msg: Message, wire_bytes: int) -> None:
        nic = msg.rx_nic if msg.rx_nic is not None else self.nics[0]
        nic._on_arrival(msg, wire_bytes)

    def sync_get(self, tag: str) -> Event:
        return self.nics[0].sync_get(tag)

    # -- protocol hooks fan out to every member ----------------------------
    @property
    def on_request(self):
        return self.nics[0].on_request

    @on_request.setter
    def on_request(self, hook) -> None:
        for nic in self.nics:
            nic.on_request = hook

    @property
    def on_read(self):
        return self.nics[0].on_read

    @on_read.setter
    def on_read(self, hook) -> None:
        for nic in self.nics:
            nic.on_read = hook

    @property
    def on_queue_overflow(self):
        return self.nics[0].on_queue_overflow

    @on_queue_overflow.setter
    def on_queue_overflow(self, hook) -> None:
        for nic in self.nics:
            nic.on_queue_overflow = hook

    # -- aggregated statistics ---------------------------------------------
    @property
    def messages_sent(self) -> int:
        return sum(n.messages_sent for n in self.nics)

    @property
    def messages_received(self) -> int:
        return sum(n.messages_received for n in self.nics)

    @property
    def packets_sent(self) -> int:
        return sum(n.packets_sent for n in self.nics)

    @property
    def wire_bytes_sent(self) -> int:
        return sum(n.wire_bytes_sent for n in self.nics)

    @property
    def overflow_interrupts(self) -> int:
        return sum(n.overflow_interrupts for n in self.nics)

    @property
    def messages_dropped(self) -> int:
        return sum(n.messages_dropped for n in self.nics)

    @property
    def duplicates_suppressed(self) -> int:
        return sum(n.duplicates_suppressed for n in self.nics)

    @property
    def core(self):
        """Primary member's core (single-NI compatibility accessor)."""
        return self.nics[0].core

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NICGroup(node={self.node_id}, nis={len(self.nics)})"
