"""Architecture and communication parameters.

Two parameter families, mirroring the paper's methodology (Section 3):

* :class:`ArchParams` — the *fixed* node architecture (Section 2 of the
  paper): processor, cache hierarchy, write buffer, memory bus, network
  links, NI queues, protocol handler cost constants.  These never vary
  during the study.
* :class:`CommParams` — the communication-architecture parameters under
  study (Table 1): host overhead, I/O-bus bandwidth, NI occupancy,
  interrupt cost, plus the two granularity parameters (page size and
  processors per node).

The module also exports the paper's three named points in the parameter
space (:data:`ACHIEVABLE`, :data:`BEST`; *ideal* is a property of the
metrics, not of a configuration) and the sweep points for each figure.

All cycle values are 200 MHz processor cycles (5 ns each).  The original
text's numerals were stripped by OCR; the values below are reconstructions
documented in DESIGN.md and are trivially overridable via
``dataclasses.replace``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
from dataclasses import dataclass


class CommRegime(str, enum.Enum):
    """How the host reaches the network (paper's base system vs. modern).

    * ``BASELINE`` — the paper's architecture: sends cost
      ``host_overhead`` cycles of host occupancy, incoming protocol
      requests are delivered by interrupting a host processor.
    * ``RDMA`` — a user-level/RDMA-class network (PAPERS.md,
      "User-level DSM System for Modern High-Performance Interconnection
      Networks"): page fetches become remote reads served by the remote
      NI with no host involvement, sends post a descriptor for
      ``rdma_post_cycles``, and no interrupts are ever raised.
    """

    BASELINE = "baseline"
    RDMA = "rdma"


#: valid values for :attr:`CommParams.comm_regime`
COMM_REGIMES = tuple(r.value for r in CommRegime)

_NUMERIC_TYPES = {"int": int, "float": float, "bool": bool}


def canonical_numbers(params: object) -> None:
    """Give each int/float/bool field of a frozen dataclass its annotated
    type where the value converts without loss (``1`` in a float field
    becomes ``1.0``): equal params then encode to equal run-cache keys."""
    for f in dataclasses.fields(params):
        kind, value = _NUMERIC_TYPES.get(f.type), getattr(params, f.name)
        if kind and type(value) is not kind and isinstance(value, (int, float)):
            with contextlib.suppress(OverflowError, ValueError):  # inf, nan -> int
                if kind(value) == value:
                    object.__setattr__(params, f.name, kind(value))


@dataclass(frozen=True)
class ArchParams:
    """Fixed node-architecture parameters (paper Section 2, Figure 2)."""

    # -- processor ------------------------------------------------------
    cpu_mhz: int = 200
    #: sustained instructions per cycle of the P6-like core
    ipc: float = 1.0

    # -- cache hierarchy --------------------------------------------------
    l1_bytes: int = 16 * 1024
    l1_assoc: int = 1  # direct mapped, write-through
    l2_bytes: int = 512 * 1024
    l2_assoc: int = 2
    line_bytes: int = 64
    #: read hit cost if satisfied in write buffer / L1 (cycles)
    l1_hit_cycles: int = 1
    #: read cost if satisfied in L2 (cycles)
    l2_hit_cycles: int = 10
    #: memory access latency beyond L2 (cycles); memory is fully pipelined
    mem_latency_cycles: int = 60

    # -- write buffer -----------------------------------------------------
    wb_entries: int = 8
    wb_retire_at: int = 4
    #: average stall cycles charged per write that finds the buffer full
    wb_full_stall_cycles: int = 4

    # -- memory bus -------------------------------------------------------
    #: split-transaction 64-bit bus at cpu/4 clock: 8 B x 50 MHz = 400 MB/s
    #: => 2 bytes per 200 MHz processor cycle
    membus_bytes_per_cycle: float = 2.0
    #: arbitration takes one bus cycle = 4 processor cycles
    membus_arb_cycles: int = 4

    # -- network ----------------------------------------------------------
    #: links run at processor speed, 16 bits wide => 2 bytes/cycle
    link_bytes_per_cycle: float = 2.0
    #: constant SAN link+switch latency (small; the paper does not vary it)
    link_latency_cycles: int = 200
    #: each NI has two 1 MB queues (incoming / outgoing)
    ni_queue_bytes: int = 1 << 20
    #: maximum packet payload; a 4 KB page travels as one packet
    packet_mtu: int = 4096
    packet_header_bytes: int = 64

    # -- OS / protocol handler cost constants ------------------------------
    #: TLB access from a kernel-mode handler
    tlb_kernel_cycles: int = 50
    #: fixed instruction cost of a protocol handler's code sequence
    handler_base_cycles: int = 200
    #: diff creation/application: per word compared ...
    diff_compare_cycles_per_word: int = 6
    #: ... plus per word actually included in the diff
    diff_include_cycles_per_word: int = 6
    word_bytes: int = 4
    #: twin creation: copy cost per word (page copy on first write)
    twin_copy_cycles_per_word: int = 1
    #: intra-SMP shared-memory synchronization op (hierarchical barrier leg)
    smp_sync_cycles: int = 100
    #: per-page cost of dropping a mapping at an acquire (TLB shootdown)
    page_invalidate_cycles: int = 20

    # -- model ablation switches (see DESIGN.md / bench_ablations) ---------
    #: cut-through transfer pipelining: end-to-end latency is the
    #: bottleneck stage, not the sum of stages.  False = store-and-forward.
    model_cut_through: bool = True
    #: serial NI receive gate: a request holds the NI's receive dispatch
    #: for the interrupt-signalling time, delaying later arrivals
    model_rx_gate: bool = True

    #: fields that must be strictly positive for the machine to make sense
    _POSITIVE_FIELDS = (
        "cpu_mhz",
        "ipc",
        "l1_bytes",
        "l1_assoc",
        "l2_bytes",
        "l2_assoc",
        "line_bytes",
        "wb_entries",
        "membus_bytes_per_cycle",
        "link_bytes_per_cycle",
        "ni_queue_bytes",
        "packet_mtu",
        "word_bytes",
    )
    #: cycle/count fields that may be zero but never negative
    _NON_NEGATIVE_FIELDS = (
        "l1_hit_cycles",
        "l2_hit_cycles",
        "mem_latency_cycles",
        "wb_retire_at",
        "wb_full_stall_cycles",
        "membus_arb_cycles",
        "link_latency_cycles",
        "packet_header_bytes",
        "tlb_kernel_cycles",
        "handler_base_cycles",
        "diff_compare_cycles_per_word",
        "diff_include_cycles_per_word",
        "twin_copy_cycles_per_word",
        "smp_sync_cycles",
        "page_invalidate_cycles",
    )

    def __post_init__(self) -> None:
        for name in self._POSITIVE_FIELDS:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"ArchParams.{name} must be > 0, got {value!r}")
        for name in self._NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"ArchParams.{name} must be >= 0, got {value!r}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"ArchParams.line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.wb_retire_at > self.wb_entries:
            raise ValueError(
                f"ArchParams.wb_retire_at ({self.wb_retire_at}) cannot exceed "
                f"wb_entries ({self.wb_entries})"
            )
        canonical_numbers(self)


@dataclass(frozen=True)
class CommParams:
    """The communication parameters under study (paper Table 1).

    Defaults are the paper's **achievable** set: what an aggressive
    current/near-future system with well-optimized OS support provides.
    """

    #: cycles the host processor is busy posting an (asynchronous) send
    host_overhead: int = 500
    #: node-to-network bandwidth in MB per processor-clock-MHz.
    #: Numerically equal to bytes per processor cycle.
    io_bus_mb_per_mhz: float = 0.5
    #: NI core cycles spent preparing each packet
    ni_occupancy: int = 500
    #: cycles per *side* of an interrupt (issue, and delivery); a null
    #: interrupt therefore costs twice this
    interrupt_cost: int = 500
    #: coherence/transfer granularity
    page_size: int = 4096
    #: degree of clustering (SMP node size); total processors stays fixed
    procs_per_node: int = 4
    #: interrupt delivery scheme within an SMP node
    interrupt_scheme: str = "fixed"  # "fixed" | "round_robin"
    #: how incoming protocol requests reach a handler (the paper's
    #: Discussion section proposes the two interrupt-free alternatives):
    #: - "interrupt": interrupt a host processor (the base system)
    #: - "polling-dedicated": a reserved per-node protocol processor
    #:   polls the NI — no interrupts, but one CPU does no application
    #:   work (account for it by running the application on fewer procs)
    #: - "ni-offload": the programmable NI core runs the handlers itself
    #:   — no interrupts and no host CPU stolen, but the assist is slow
    protocol_processing: str = "interrupt"
    #: expected delay until a dedicated poller notices a request
    poll_latency: int = 250
    #: extra cycles per request when handlers run on the (slow) NI core
    assist_overhead: int = 1500
    #: network interfaces per node, each with its own I/O bus — the
    #: paper's suggested route to more node-to-network bandwidth
    #: ("Multiple network interfaces per node ... can increase the
    #: available bandwidth"); sends round-robin across them
    nis_per_node: int = 1
    #: communication regime: "baseline" (the paper's interrupt-driven
    #: architecture) or "rdma" (user-level remote reads, no interrupts)
    comm_regime: str = "baseline"
    #: host cycles to post an RDMA descriptor (replaces host_overhead on
    #: the send path when the regime is "rdma")
    rdma_post_cycles: int = 50

    def __post_init__(self) -> None:
        for name in ("host_overhead", "ni_occupancy", "interrupt_cost"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"CommParams.{name} must be >= 0, got {value!r}")
        if self.io_bus_mb_per_mhz <= 0:
            raise ValueError(
                f"CommParams.io_bus_mb_per_mhz must be > 0, got "
                f"{self.io_bus_mb_per_mhz!r}"
            )
        if self.page_size < 512 or self.page_size & (self.page_size - 1):
            raise ValueError(
                f"CommParams.page_size must be a power of two >= 512, got "
                f"{self.page_size!r}"
            )
        if self.procs_per_node < 1:
            raise ValueError(
                f"CommParams.procs_per_node must be >= 1, got {self.procs_per_node!r}"
            )
        if self.interrupt_scheme not in ("fixed", "round_robin"):
            raise ValueError(f"unknown interrupt scheme {self.interrupt_scheme!r}")
        if self.protocol_processing not in (
            "interrupt",
            "polling-dedicated",
            "ni-offload",
        ):
            raise ValueError(
                f"unknown protocol processing mode {self.protocol_processing!r}"
            )
        if self.poll_latency < 0 or self.assist_overhead < 0:
            raise ValueError("poll latency and assist overhead must be >= 0")
        if self.nis_per_node < 1:
            raise ValueError("nis_per_node must be >= 1")
        if isinstance(self.comm_regime, CommRegime):
            object.__setattr__(self, "comm_regime", self.comm_regime.value)
        if self.comm_regime not in COMM_REGIMES:
            raise ValueError(
                f"unknown comm_regime {self.comm_regime!r} "
                f"(valid: {', '.join(COMM_REGIMES)})"
            )
        if self.rdma_post_cycles < 0:
            raise ValueError(
                f"CommParams.rdma_post_cycles must be >= 0, got "
                f"{self.rdma_post_cycles!r}"
            )
        canonical_numbers(self)

    @property
    def io_bytes_per_cycle(self) -> float:
        """I/O-bus bandwidth in bytes per processor cycle.

        ``X`` MB/MHz at an ``F`` MHz clock is ``X*F`` MB/s over ``F`` M
        cycles/s — i.e. exactly ``X`` bytes per cycle, independent of the
        clock.  This is why the paper expresses bandwidth relative to
        processor speed.
        """
        return self.io_bus_mb_per_mhz

    @property
    def null_interrupt_cycles(self) -> int:
        """Cost of a null interrupt (issue + delivery)."""
        return 2 * self.interrupt_cost

    @property
    def is_rdma(self) -> bool:
        """True when the user-level/RDMA regime is selected."""
        return self.comm_regime == CommRegime.RDMA.value

    @property
    def send_post_cycles(self) -> int:
        """Host cycles charged to post one send under the active regime."""
        return self.rdma_post_cycles if self.is_rdma else self.host_overhead

    @property
    def effective_interrupt_cost(self) -> int:
        """Per-side interrupt cost under the active regime (RDMA: none)."""
        return 0 if self.is_rdma else self.interrupt_cost

    def replace(self, **kw) -> "CommParams":
        """Functional update (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **kw)


# --------------------------------------------------------------------- #
# The paper's named parameter-space points (Table 1)
# --------------------------------------------------------------------- #

#: aggressive current/near-future values; the baseline for every sweep
ACHIEVABLE = CommParams()

#: best value of every parameter within the studied ranges: free host
#: overhead, I/O bus as fast as the memory bus, free NI occupancy, free
#: interrupts.  Contention is still modelled.
BEST = CommParams(
    host_overhead=0,
    io_bus_mb_per_mhz=2.0,
    ni_occupancy=0,
    interrupt_cost=0,
)

# --------------------------------------------------------------------- #
# Sweep points per figure (paper Section 3 / figure captions)
# --------------------------------------------------------------------- #

#: Figure 5 — host overhead, five points, 0 to 6000 cycles (~30 us)
HOST_OVERHEAD_SWEEP = (0, 500, 1000, 3000, 6000)

#: Figure 6 / Figure 11 — NI occupancy per packet, six points (~0-20 us)
NI_OCCUPANCY_SWEEP = (0, 200, 500, 1000, 2000, 4000)

#: Figure 7 — I/O bus bandwidth in MB/MHz (400/200/100/50 MB/s @200 MHz)
IO_BANDWIDTH_SWEEP = (2.0, 1.0, 0.5, 0.25)

#: Figure 9 — interrupt cost per side, seven bars, 0 to 10000 cycles
INTERRUPT_COST_SWEEP = (0, 200, 500, 1000, 2000, 5000, 10000)

#: Figure 12 — page size, 1 KB to 16 KB
PAGE_SIZE_SWEEP = (1024, 2048, 4096, 8192, 16384)

#: Figure 13 — degree of clustering at 16 processors total
PROCS_PER_NODE_SWEEP = (1, 2, 4, 8)

#: Table 2 reports protocol events for these clusterings
TABLE2_CLUSTERINGS = (1, 4, 8)

#: total processors in every configuration of the study
TOTAL_PROCESSORS = 16

PARAMETER_RANGES = {
    "host_overhead": (0, 6000),
    "io_bus_mb_per_mhz": (0.25, 2.0),
    "ni_occupancy": (0, 4000),
    "interrupt_cost": (0, 10000),
    "page_size": (1024, 16384),
    "procs_per_node": (1, 8),
}
