"""Network links and switch fabric.

The paper models contention *everywhere except* the network links and
switches themselves ("Contention is modeled at all levels except in the
network links and switches"), and does not vary link latency because it is
a small, constant part of the end-to-end latency in a system-area network.

Accordingly :class:`Network` is a contention-free fabric with no
queueing against other messages: the sending NI folds serialization at
link bandwidth into its path reservation, and the fabric adds the
constant latency.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.sim.engine import Simulator


class Network:
    """Contention-free system-area interconnect (Myrinet-like).

    Parameters
    ----------
    bytes_per_cycle:
        Link bandwidth (links run at processor speed, 16 bits wide →
        2 bytes per processor cycle).
    latency_cycles:
        Constant per-message link+switch latency.
    """

    def __init__(
        self,
        sim: "Simulator",
        bytes_per_cycle: float,
        latency_cycles: int,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        if latency_cycles < 0:
            raise ValueError("negative link latency")
        self.sim = sim
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        #: the latency as a calendar delay (rounded up, as schedule rounds)
        self._latency = int(math.ceil(latency_cycles))
        #: destination-node id -> callback invoked when bytes arrive
        self._receivers: Dict[int, Callable[["Message", int], None]] = {}
        #: destination-node id -> NI object (for pipelined reservations)
        self._endpoints: Dict[int, object] = {}
        self.messages_carried = 0
        self.bytes_carried = 0
        #: optional metrics registry (None = disabled, single check per message)
        self.metrics = None

    def attach(self, node_id: int, on_arrival: Callable[["Message", int], None]) -> None:
        """Register the receive hook for a node's NI."""
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} already attached")
        self._receivers[node_id] = on_arrival

    def register_endpoint(self, node_id: int, nic) -> None:
        """Expose the NI object itself so the sending side can reserve the
        receiver's resources for the pipelined (cut-through) path model."""
        self._endpoints[node_id] = nic

    def endpoint(self, node_id: int):
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise ValueError(f"no NI endpoint for node {node_id}") from None

    def deliver(self, msg: "Message", wire_bytes: int) -> None:
        """Deliver after the constant link latency only: serialization
        time is already folded into the endpoints' bottleneck-stage
        computation (the pipelined path model)."""
        try:
            receiver = self._receivers[msg.dst_node]
        except KeyError:
            raise ValueError(f"no NI attached for node {msg.dst_node}") from None
        # Simulator.schedule written out: one call per message
        self.messages_carried += 1
        self.bytes_carried += wire_bytes
        metrics = self.metrics
        if metrics is not None:
            kind = msg.kind.name.lower()
            metrics.bump(f"link.msgs.{kind}")
            metrics.bump(f"link.bytes.{kind}", wire_bytes)
        sim = self.sim
        when = sim.now + self._latency
        bucket = sim._buckets.get(when)
        if bucket is None:
            sim._buckets[when] = [receiver, (msg, wire_bytes)]
            heappush(sim._times, when)
        else:
            bucket.append(receiver)
            bucket.append((msg, wire_bytes))
