"""Shared protocol plumbing: context, node memory state, handler dispatch.

The protocol engines (:class:`~repro.protocol.hlrc.HLRCProtocol`,
:class:`~repro.protocol.aurc.AURCProtocol`) operate on a
:class:`ProtocolContext` — the assembled cluster — and keep all SVM state
here-defined structures:

* :class:`NodeMemoryState` — per-node page caching state.  SMP nodes
  share pages in hardware, so validity, twins, and in-flight fetches are
  tracked **per node**, not per processor (the paper's SMP protocol);
* per-processor dirty-word tracking for diff/write-notice generation
  (inside the engines).

Every remote request arrives as an interrupt whose handler is found by
``tag`` in the engine's dispatch table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import ArchParams, CommParams
    from repro.arch.processor import Processor
    from repro.net.messaging import MessagingLayer
    from repro.osys.vm import PageDirectory
    from repro.sim.engine import Simulator

#: handler tags used on the wire
TAG_PAGE_FETCH = "page_fetch"
TAG_DIFF_APPLY = "diff_apply"
TAG_LOCK_ACQUIRE = "lock_acquire"
TAG_LOCK_RECALL = "lock_recall"
TAG_TOKEN_RETURN = "token_return"

#: small fixed wire sizes (bytes)
REQUEST_HEADER_BYTES = 64
ACK_BYTES = 16
GRANT_BASE_BYTES = 64


@dataclass
class ProtocolContext:
    """Everything a protocol engine needs from the assembled cluster."""

    sim: "Simulator"
    arch: "ArchParams"
    comm: "CommParams"
    msg: "MessagingLayer"
    directory: "PageDirectory"
    #: node objects (duck-typed: node_id, cpus, irq, nic, membus)
    nodes: List[Any]
    #: all processors, indexed by global id
    procs: List["Processor"]
    #: diagnostic: remote page fetches are free (Section 7 attribution)
    free_page_fetches: bool = False
    #: optional metrics registry (profiling runs only; ``None`` keeps the
    #: protocol hot paths at a single attribute check)
    metrics: Optional[Any] = None
    #: optional conformance-oracle event log (``repro.verify``; ``None``
    #: keeps the protocol hot paths at a single attribute check)
    verify: Optional[Any] = None
    #: inter-node barrier collective topology ("flat" | "tree" |
    #: "dissemination"); see :mod:`repro.protocol.collectives`
    collective: str = "flat"

    @property
    def n_procs(self) -> int:
        return len(self.procs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_of(self, proc_id: int) -> Any:
        return self.nodes[proc_id // self.comm.procs_per_node]

    def node_id_of(self, proc_id: int) -> int:
        return proc_id // self.comm.procs_per_node

    def node_id_of_cpu(self, cpu: Any) -> int:
        """Node id for any executor — application CPUs *and* the
        dedicated service/assist processors (whose global ids sit outside
        the application id space)."""
        node = getattr(cpu, "node", None)
        if node is not None:
            return node.node_id
        return self.node_id_of(cpu.global_id)

    def aggregate_time(self) -> Dict[str, int]:
        """Cluster-wide per-category cycle totals so far (phase snapshots)."""
        from repro.arch.processor import TIME_CATEGORIES

        total = {cat: 0 for cat in TIME_CATEGORIES}
        for cpu in self.procs:
            time = cpu.stats.time
            for cat in TIME_CATEGORIES:
                total[cat] += time[cat]
        return total


class NodeMemoryState:
    """Per-node SVM page state (shared by the node's processors)."""

    __slots__ = ("valid", "twins", "fetches", "invalidations", "faults_served")

    def __init__(self) -> None:
        #: pages with a valid local copy (home pages are implicitly valid)
        self.valid: Set[int] = set()
        #: non-home pages with a twin created this interval
        self.twins: Set[int] = set()
        #: in-flight page fetches: page -> completion event (fetch
        #: coalescing: the SMP protocol issues one fetch per node)
        self.fetches: Dict[int, Event] = {}
        #: number of pages invalidated at acquires (diagnostics)
        self.invalidations: int = 0
        #: remote fetch requests this node served as home (diagnostics)
        self.faults_served: int = 0

    def invalidate(self, pages) -> int:
        """Drop validity (and twins) for ``pages``; returns how many were
        actually resident."""
        dropped = 0
        for page in pages:
            if page in self.valid:
                self.valid.discard(page)
                dropped += 1
            self.twins.discard(page)
        self.invalidations += dropped
        return dropped


@dataclass
class ProtocolCounters:
    """Cluster-wide protocol event counters (beyond per-CPU stats)."""

    page_faults: int = 0
    page_fetches: int = 0
    local_lock_acquires: int = 0
    remote_lock_acquires: int = 0
    barriers: int = 0
    diffs_created: int = 0
    diff_words: int = 0
    updates_sent: int = 0
    update_words: int = 0
    write_notices: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``; names that are not a counter
        field (including method names) accumulate in :attr:`extra`."""
        if name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + n)
        else:
            self.extra[name] = self.extra.get(name, 0) + n


#: the integer counter fields of :class:`ProtocolCounters`
_COUNTER_FIELDS = frozenset(f.name for f in fields(ProtocolCounters)) - {"extra"}
