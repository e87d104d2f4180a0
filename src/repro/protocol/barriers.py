"""Hierarchical barriers for SMP-node clusters.

The paper's protocol implements barriers "with synchronous messages and
no interrupts", hierarchically:

1. **Intra-node leg** — arrivals synchronize through node shared memory
   (``smp_sync_cycles`` each).  The *last* processor to arrive becomes
   the node's representative.
2. **Inter-node leg** — the representatives synchronize through one of
   the pluggable collectives in :mod:`repro.protocol.collectives`
   (flat master gather/broadcast — the paper's scheme and the default —
   binomial tree, or dissemination).  The representatives are already
   *waiting* for these messages, so no interrupts are raised.
3. **Release** — the merged consistency information (vector clocks;
   write notices piggyback on the release messages) reaches every
   representative, which releases its node's processors through shared
   memory.

Barrier episodes are identified per (barrier id, per-processor visit
count), so back-to-back barriers on the same id cannot alias.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.protocol.base import ProtocolContext, ProtocolCounters
from repro.protocol.collectives import make_collective
from repro.sim.primitives import Event
from repro.verify.events import EV_BARRIER_ARRIVE, EV_BARRIER_RELEASE, EV_PHASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.processor import Processor


class _Episode:
    """State of one global barrier episode."""

    __slots__ = ("arrived", "release_events", "merged_vc", "reps_done")

    def __init__(self, ctx: ProtocolContext) -> None:
        #: per-node arrival counts
        self.arrived: Dict[int, int] = {}
        #: per-node local release events
        self.release_events: Dict[int, Event] = {}
        self.merged_vc: Optional[Tuple[int, ...]] = None
        #: representatives that completed the inter-node leg (non-flat
        #: collectives mark the phase boundary when the last one does)
        self.reps_done: int = 0

    def node_release(self, ctx: ProtocolContext, node_id: int) -> Event:
        ev = self.release_events.get(node_id)
        if ev is None:
            ev = self.release_events[node_id] = Event(ctx.sim, name=f"bar.node{node_id}")
        return ev


class BarrierManager:
    """Cluster-wide hierarchical barrier service."""

    def __init__(
        self,
        ctx: ProtocolContext,
        counters: ProtocolCounters,
        merge_fn: Optional[Callable[[], Tuple[int, ...]]] = None,
        notice_bytes_fn: Optional[Callable[[], int]] = None,
        master_node: int = 0,
    ) -> None:
        self.ctx = ctx
        self.counters = counters
        #: produces the merged vector-clock snapshot at barrier completion
        self.merge_fn = merge_fn or (lambda: ())
        #: sizes the piggybacked write notices on release messages
        self.notice_bytes_fn = notice_bytes_fn or (lambda: 0)
        self.master_node = master_node
        self.collective = make_collective(ctx.collective, self)
        self._episodes: Dict[Tuple[int, int], _Episode] = {}
        self._visits: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    def _episode_for(self, cpu: "Processor", barrier_id: int) -> Tuple[_Episode, int]:
        key = (cpu.global_id, barrier_id)
        visit = self._visits.get(key, 0)
        self._visits[key] = visit + 1
        ep_key = (barrier_id, visit)
        ep = self._episodes.get(ep_key)
        if ep is None:
            ep = self._episodes[ep_key] = _Episode(self.ctx)
        return ep, visit

    def participants_at(self, node_id: int) -> int:
        """Processors of ``node_id`` participating (all of them)."""
        return self.ctx.comm.procs_per_node

    def _mark_phase(self, barrier_id: int, visit: int) -> None:
        """Record a phase boundary (one per global barrier episode).

        Runs where the merged clock is computed (flat: at the master) or
        when the last representative completes (tree/dissemination), i.e.
        exactly once per episode; the cumulative cluster-wide breakdown
        snapshot lets consumers difference adjacent marks into per-epoch
        costs.
        """
        probe = self.ctx.probe
        if probe is not None:
            probe.record(
                self.ctx.sim.now,
                EV_PHASE,
                (f"barrier.{barrier_id}.{visit}", self.ctx.aggregate_time()),
            )

    def _complete(self, ep: _Episode, barrier_id: int, visit: int) -> None:
        """One representative finished the inter-node leg.

        Non-flat collectives have no single point where the episode is
        globally known complete, so the phase boundary is marked when the
        *last* representative finishes — inter-stage hop waits land
        inside the barrier phase, not the next compute epoch.
        """
        ep.reps_done += 1
        if ep.reps_done == self.ctx.n_nodes:
            self._mark_phase(barrier_id, visit)

    # ------------------------------------------------------------------ #
    def barrier(self, cpu: "Processor", barrier_id: int):
        """Run one barrier arrival for ``cpu``.

        Returns the merged vector-clock snapshot so the engine can apply
        post-barrier invalidations.  The engine flushes (release
        semantics) *before* calling this.
        """
        ctx = self.ctx
        node_id = ctx.node_id_of_cpu(cpu)
        ep, visit = self._episode_for(cpu, barrier_id)
        self.counters.bump("barriers")
        cpu.stats.count("barriers")
        probe = ctx.probe
        if probe is not None:
            probe.record(
                ctx.sim.now,
                EV_BARRIER_ARRIVE,
                (cpu.global_id, node_id, barrier_id, visit, self.collective.name),
            )

        # intra-node leg
        yield from cpu.busy(ctx.arch.smp_sync_cycles, "protocol")
        ep.arrived[node_id] = ep.arrived.get(node_id, 0) + 1
        if ep.arrived[node_id] < self.participants_at(node_id):
            yield from cpu.wait_for(ep.node_release(ctx, node_id), "barrier_wait")
            merged = ep.merged_vc
        elif ctx.n_nodes == 1:
            # this processor is the node's (and cluster's) representative
            ep.merged_vc = self.merge_fn()
            self._mark_phase(barrier_id, visit)
            ep.node_release(ctx, node_id).succeed()
            merged = ep.merged_vc
        else:
            merged = yield from self.collective.inter_node(
                cpu, node_id, ep, barrier_id, visit
            )

        if probe is not None:
            probe.record(
                ctx.sim.now,
                EV_BARRIER_RELEASE,
                (cpu.global_id, node_id, barrier_id, visit, self.collective.name),
            )
        return merged
