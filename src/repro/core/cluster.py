"""Cluster assembly: nodes, fabric, protocol engine.

:class:`Cluster` instantiates the whole simulated machine from a
:class:`~repro.core.config.ClusterConfig`:

* one :class:`Node` per SMP (processors, memory bus, I/O bus, NI,
  interrupt controller),
* the contention-free interconnect and the fast-messages layer,
* the cluster-wide page directory,
* the selected protocol engine (HLRC or AURC), already wired to every
  NI's request hook.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.membus import MemoryBus
from repro.arch.processor import HandlerRun, Processor
from repro.core.config import ClusterConfig
from repro.core.stats import MetricsRegistry
from repro.net.faults import FaultInjector
from repro.net.iobus import IOBus
from repro.net.link import Network
from repro.net.messaging import MessagingLayer
from repro.net.nic import NetworkInterface, NICGroup
from repro.osys.interrupts import InterruptController
from repro.osys.vm import PageDirectory
from repro.protocol import PROTOCOLS
from repro.protocol.base import ProtocolContext
from repro.sim.engine import DEFAULT_LIVELOCK_EVENTS, Simulator, Watchdog


class Node:
    """One SMP node of the cluster."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: ClusterConfig,
        network: Network,
        faults: Optional[FaultInjector] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        arch, comm = config.arch, config.comm
        self.sim = sim
        self.comm = comm
        self.node_id = node_id
        self.membus = MemoryBus(sim, arch, name=f"membus{node_id}")
        #: one I/O bus per NI (multi-NI nodes get independent I/O paths)
        self.iobuses = [
            IOBus(sim, comm.io_bytes_per_cycle, name=f"iobus{node_id}.{k}")
            for k in range(comm.nis_per_node)
        ]
        self.iobus = self.iobuses[0]
        base = node_id * comm.procs_per_node
        self.cpus: List[Processor] = [
            Processor(
                sim,
                global_id=base + i,
                cpu_index=i,
                bus=self.membus,
                name=f"n{node_id}c{i}",
            )
            for i in range(comm.procs_per_node)
        ]
        for cpu in self.cpus:
            cpu.node = self
        nics = [
            NetworkInterface(
                sim,
                node_id,
                arch,
                comm,
                self.membus,
                iobus,
                network,
                register=(comm.nis_per_node == 1),
                faults=faults,
            )
            for iobus in self.iobuses
        ]
        self.nic = nics[0] if comm.nis_per_node == 1 else NICGroup(nics)
        self.irq = InterruptController(sim, self.cpus, comm)
        #: dedicated protocol processor (polling / NI-offload modes): a
        #: CPU-like executor that is *not* part of the application procs
        self.service_cpu: Processor | None = None
        if comm.protocol_processing in ("polling-dedicated", "ni-offload"):
            self.service_cpu = Processor(
                sim,
                global_id=-(node_id + 1),  # outside the application id space
                cpu_index=len(self.cpus),
                bus=self.membus,
                name=f"n{node_id}svc",
            )
            self.service_cpu.node = self
        if metrics is not None:
            self.membus.metrics = metrics
            for iobus in self.iobuses:
                iobus.metrics = metrics
            for nic in nics:
                nic.metrics = metrics
            for cpu in self.cpus:
                cpu.metrics = metrics
            if self.service_cpu is not None:
                self.service_cpu.metrics = metrics

    # ------------------------------------------------------------------ #
    def dispatch_request(self, body_factory, name: str = "req") -> None:
        """Route an incoming protocol request to a handler executor per
        the configured protocol-processing mode.

        ``body_factory(cpu)`` builds the handler generator for the chosen
        executor.  Every mode runs it as a
        :class:`~repro.arch.processor.HandlerRun` after a prologue that
        starts in a slot at the current time.
        """
        mode = self.comm.protocol_processing
        if mode == "interrupt":
            self.irq.post_interrupt(body_factory, name=name)
            return
        cpu = self.service_cpu
        assert cpu is not None
        handler = HandlerRun(cpu, body_factory(cpu), name)
        sim = self.sim
        if mode == "polling-dedicated":
            # the poller notices after (on average) poll_latency cycles;
            # no interrupt, no application CPU stolen
            sim.schedule_now(sim.schedule, self.comm.poll_latency, handler.start)
        else:
            sim.schedule_now(self._assist, handler)

    def _assist(self, handler: HandlerRun) -> None:
        # ni-offload: the slow programmable assist runs the handler; it
        # also consumes NI core bandwidth for the extra assist work
        overhead = self.comm.assist_overhead
        if overhead:
            self.sim.schedule(self.nic.core.latency(overhead), handler.start)
        else:
            handler.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, cpus={len(self.cpus)})"


class Cluster:
    """The fully assembled simulated machine."""

    def __init__(
        self,
        config: ClusterConfig,
        metrics: Optional["MetricsRegistry"] = None,
        verify_log: Optional[object] = None,
    ) -> None:
        self.config = config
        #: metrics registry shared by every instrumented component, or
        #: ``None`` (the default) for a zero-observability-cost run
        self.metrics = metrics
        if verify_log is None and config.verify:
            from repro.verify import VerifyLog  # local import avoids cycle

            verify_log = VerifyLog()
        #: conformance-oracle event log, or ``None`` (the default) for a
        #: zero-verification-cost run (see repro.verify)
        self.verify_log = verify_log
        #: shared wire-fault source (None when config.faults is all-off)
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(config.faults) if config.faults.enabled else None
        )
        # Deadlock detection is one scan when the calendar drains, and
        # the livelock cap is checked only when a batch is re-read, so
        # both are armed on every run.
        self.sim = Simulator(
            watchdog=Watchdog(livelock_events=DEFAULT_LIVELOCK_EVENTS)
        )
        arch, comm = config.arch, config.comm
        self.network = Network(
            self.sim, arch.link_bytes_per_cycle, arch.link_latency_cycles
        )
        self.network.metrics = metrics
        self.nodes: List[Node] = [
            Node(
                self.sim,
                i,
                config,
                self.network,
                faults=self.fault_injector,
                metrics=metrics,
            )
            for i in range(config.n_nodes)
        ]
        self.procs: List[Processor] = [cpu for node in self.nodes for cpu in node.cpus]
        self.msg = MessagingLayer(
            self.sim,
            arch,
            comm,
            {n.node_id: n.nic for n in self.nodes},
            faults=config.faults,
        )
        self.directory = PageDirectory(
            comm.page_size, config.n_nodes, policy=config.home_policy
        )
        self.ctx = ProtocolContext(
            sim=self.sim,
            arch=arch,
            comm=comm,
            msg=self.msg,
            directory=self.directory,
            nodes=self.nodes,
            procs=self.procs,
            free_page_fetches=config.free_page_fetches,
            metrics=metrics,
            verify=verify_log,
            collective=config.collective,
        )
        self.protocol = PROTOCOLS[config.protocol](self.ctx)

    # ------------------------------------------------------------------ #
    @property
    def n_procs(self) -> int:
        return len(self.procs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_of(self, proc_id: int) -> Node:
        return self.nodes[proc_id // self.config.comm.procs_per_node]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({self.config.label()})"
