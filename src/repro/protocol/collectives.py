"""Pluggable inter-node barrier collectives.

The paper's protocol synchronizes representatives through a *flat*
(centralized) barrier: every representative sends its arrival to a
single master, which merges the consistency information and broadcasts
the release.  That is the right shape at 4 nodes, but the
Barchet-Estefanel & Mounié intra-cluster collectives work (PAPERS.md)
shows topology choice dominates synchronization cost at exactly the
cluster sizes the paper sweeps.  This module makes the inter-node leg a
strategy object so the barrier manager can run any of three topologies:

``flat`` (default)
    The existing behavior, moved here verbatim — ``2*(n-1)`` messages
    over 2 serial hops (gather to master, broadcast release).  The
    default path is **bit-identical** to the pre-collectives code: same
    message tags, sizes, ordering and phase marks, so the committed
    golden digests never move.

``tree``
    Binomial-tree gather and broadcast rooted at the master —
    ``2*(n-1)`` messages over ``2*ceil(log2 n)`` serial hops, but each
    non-leaf parent overlaps its subtree's arrivals.  The merged vector
    clock is computed once at the root, after all arrivals; releases
    carry it (plus piggybacked write notices) down the same tree.

``dissemination``
    The classic dissemination barrier — ``ceil(log2 n)`` rounds, every
    node sends to ``(i + 2^k) mod n`` and waits for the symmetric
    arrival.  ``n*ceil(log2 n)`` messages but only ``ceil(log2 n)``
    serial hops and no root bottleneck.  Completion of the final round
    transitively implies every node arrived, at which point the *first*
    completing representative computes the merged clock (all application
    processors are blocked in the barrier, so the clocks are stable) and
    every representative releases its own node with it.

Cost model: every inter-node hop is a real :class:`~repro.net.message
.Message` through the full wire pipeline — host send posting, NI
occupancy, I/O bus, link, receive deposit — with reliable-delivery
retransmission under fault injection, exactly like the flat path.  Each
non-flat hop also bumps the ``collective_hops`` protocol counter, and
waits for hop arrivals are tallied as ``barrier_wait`` so the phase
breakdown attributes inter-stage time to the barrier phase (not
compute).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.protocol.base import GRANT_BASE_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.processor import Processor
    from repro.protocol.barriers import BarrierManager, _Episode

#: valid values for ``ClusterConfig.collective``
COLLECTIVES = ("flat", "tree", "dissemination")


def make_collective(name: str, mgr: "BarrierManager") -> "_Collective":
    """Instantiate the collective strategy ``name`` for ``mgr``."""
    try:
        cls = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown collective {name!r} (valid: {', '.join(COLLECTIVES)})"
        ) from None
    return cls(mgr)


class _Collective:
    """Inter-node leg of a barrier episode, run by node representatives.

    ``inter_node`` is a simulation generator invoked by exactly one
    processor per node (the last to arrive locally).  It must merge the
    vector clocks exactly once per episode, release every node's local
    processors, and return the merged clock.
    """

    name = "abstract"

    def __init__(self, mgr: "BarrierManager") -> None:
        self.mgr = mgr

    def inter_node(
        self,
        cpu: "Processor",
        node_id: int,
        ep: "_Episode",
        barrier_id: int,
        visit: int,
    ):  # pragma: no cover - interface
        raise NotImplementedError


class FlatCollective(_Collective):
    """Centralized gather + broadcast through the master (the paper's
    barrier; the pre-collectives code path, byte-for-byte)."""

    name = "flat"

    def inter_node(self, cpu, node_id, ep, barrier_id, visit):
        mgr = self.mgr
        ctx = mgr.ctx
        arrive_tag = f"bar.{barrier_id}.{visit}.arrive"
        release_tag = f"bar.{barrier_id}.{visit}.release"

        if node_id == mgr.master_node:
            for _ in range(ctx.n_nodes - 1):
                yield from cpu.wait_for(
                    ctx.msg.receive_sync(node_id, arrive_tag), "barrier_wait"
                )
            ep.merged_vc = mgr.merge_fn()
            mgr._mark_phase(barrier_id, visit)
            size = GRANT_BASE_BYTES + mgr.notice_bytes_fn()
            for other in range(ctx.n_nodes):
                if other == node_id:
                    continue
                yield from ctx.msg.send_sync(
                    cpu, node_id, other, release_tag, size, payload=ep.merged_vc
                )
            ep.node_release(ctx, node_id).succeed()
            return ep.merged_vc

        yield from ctx.msg.send_sync(
            cpu, node_id, mgr.master_node, arrive_tag, GRANT_BASE_BYTES
        )
        merged = yield from cpu.wait_for(
            ctx.msg.receive_sync(node_id, release_tag), "barrier_wait"
        )
        ep.merged_vc = merged
        ep.node_release(ctx, node_id).succeed()
        return merged


class TreeCollective(_Collective):
    """Binomial-tree gather/broadcast rooted at the master node."""

    name = "tree"

    def _children(self, rel: int, n: int) -> List[int]:
        """Relative ranks of ``rel``'s children in the binomial tree."""
        children = []
        mask = 1
        while not (rel & mask):
            child = rel + mask
            if child >= n:
                break
            children.append(child)
            mask <<= 1
        return children

    def inter_node(self, cpu, node_id, ep, barrier_id, visit):
        mgr = self.mgr
        ctx = mgr.ctx
        n = ctx.n_nodes
        master = mgr.master_node
        rel = (node_id - master) % n
        children = self._children(rel, n)
        up_tag = f"bar.{barrier_id}.{visit}.up"
        down_tag = f"bar.{barrier_id}.{visit}.down"

        # gather: wait for every child subtree, then report to the parent
        for _ in children:
            yield from cpu.wait_for(
                ctx.msg.receive_sync(node_id, up_tag), "barrier_wait"
            )
        if rel:
            low = rel & -rel
            parent = (rel - low + master) % n
            mgr.counters.bump("collective_hops")
            yield from ctx.msg.send_sync(
                cpu, node_id, parent, up_tag, GRANT_BASE_BYTES
            )
            merged = yield from cpu.wait_for(
                ctx.msg.receive_sync(node_id, down_tag), "barrier_wait"
            )
            ep.merged_vc = merged
        else:
            ep.merged_vc = mgr.merge_fn()

        # broadcast: release children deepest-subtree-first
        size = GRANT_BASE_BYTES + mgr.notice_bytes_fn()
        for child in reversed(children):
            mgr.counters.bump("collective_hops")
            yield from ctx.msg.send_sync(
                cpu,
                node_id,
                (child + master) % n,
                down_tag,
                size,
                payload=ep.merged_vc,
            )

        mgr._complete(ep, barrier_id, visit)
        ep.node_release(ctx, node_id).succeed()
        return ep.merged_vc


class DisseminationCollective(_Collective):
    """Symmetric dissemination barrier: ``ceil(log2 n)`` all-to-partner
    rounds; completion transitively implies global arrival."""

    name = "dissemination"

    def inter_node(self, cpu, node_id, ep, barrier_id, visit):
        mgr = self.mgr
        ctx = mgr.ctx
        n = ctx.n_nodes
        size = GRANT_BASE_BYTES + mgr.notice_bytes_fn()

        k = 0
        dist = 1
        while dist < n:
            tag = f"bar.{barrier_id}.{visit}.dis{k}"
            mgr.counters.bump("collective_hops")
            yield from ctx.msg.send_sync(
                cpu, node_id, (node_id + dist) % n, tag, size
            )
            yield from cpu.wait_for(
                ctx.msg.receive_sync(node_id, tag), "barrier_wait"
            )
            k += 1
            dist <<= 1

        # First representative through the final round merges; every
        # application processor is blocked in the barrier here, so the
        # clocks are stable and all reps observe the same snapshot.
        if ep.merged_vc is None:
            ep.merged_vc = mgr.merge_fn()
        mgr._complete(ep, barrier_id, visit)
        ep.node_release(ctx, node_id).succeed()
        return ep.merged_vc


_BY_NAME = {
    "flat": FlatCollective,
    "tree": TreeCollective,
    "dissemination": DisseminationCollective,
}
