"""Contended resources: FCFS servers, stores, and fluid queues.

Two families live here:

* **Event-based resources** (:class:`Resource`, :class:`Store`) —
  processes block on an acquire/get event and are woken in order.  Used
  where the *holder* does variable-length work while holding the
  resource (e.g. a CPU running an interrupt handler).

* **Fluid queues** (:class:`FluidQueue`) — an analytic FCFS single-server
  queue.  A request of ``service`` cycles arriving at time ``t`` departs at
  ``max(t, backlog_end) + service``; the caller simply sleeps for the
  returned latency.  Exact for FCFS work-conserving servers, and O(1) per
  request.  Used for buses, NI cores and links, where service time is known
  at arrival.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Resource:
    """A counted FCFS resource.

    ``yield resource.acquire()`` suspends until a slot is free; the caller
    must later call :meth:`release`.  Fairness is strict FIFO.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_queue", "name", "_acquire_name")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        ev = Event(self.sim, name=self._acquire_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        """Free a slot, handing it to the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Slot passes directly to the next waiter; _in_use unchanged.
            self._queue.popleft().succeed(self)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    Message queues and interrupt-dispatch queues are Stores: producers
    :meth:`put` items (never blocking — capacity limits are modelled by the
    NI's own back-pressure logic), consumers ``yield store.get()``.
    """

    __slots__ = ("sim", "_items", "_getters", "name", "_get_name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._get_name = f"{name}.get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def idle(self) -> bool:
        """No queued items and no waiting getters: the store holds no state."""
        return not self._items and not self._getters

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class FluidQueue:
    """Analytic FCFS single-server queue (no events, O(1) per request).

    A request for ``service`` cycles arriving at ``sim.now`` is served
    starting at ``max(now, backlog_end)``; :meth:`latency` returns the
    total sojourn time (queueing + service) and advances the backlog.  The
    caller is expected to ``yield sim.timeout(latency)``.

    The queue also keeps utilization statistics so experiments can report
    bus/NI occupancy.

    Parameters
    ----------
    bytes_per_cycle:
        If given, :meth:`transfer` converts byte counts into service
        cycles at this bandwidth.
    """

    __slots__ = ("sim", "name", "bytes_per_cycle", "_free_at", "busy_cycles", "requests")

    def __init__(
        self,
        sim: "Simulator",
        name: str = "",
        bytes_per_cycle: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self._free_at: int = 0
        self.busy_cycles: int = 0
        self.requests: int = 0

    # ------------------------------------------------------------------ #
    def latency(self, service: float) -> int:
        """Enqueue a request of ``service`` cycles; return its sojourn time."""
        if service < 0:
            raise ValueError(f"negative service time {service!r}")
        if type(service) is int:
            service_i = service
        else:
            service_i = int(-(-service // 1))  # ceil
        now = self.sim.now
        start = now if now > self._free_at else self._free_at
        self._free_at = start + service_i
        self.busy_cycles += service_i
        self.requests += 1
        return self._free_at - now

    def transfer(self, nbytes: int) -> int:
        """Enqueue a transfer of ``nbytes``; return its sojourn time."""
        if self.bytes_per_cycle is None:
            raise RuntimeError(f"fluid queue {self.name!r} has no bandwidth set")
        return self.latency(nbytes / self.bytes_per_cycle)

    def service_cycles(self, nbytes: int) -> int:
        """Pure service time for ``nbytes`` (no queueing, no state change)."""
        if self.bytes_per_cycle is None:
            raise RuntimeError(f"fluid queue {self.name!r} has no bandwidth set")
        return int(-(-nbytes / self.bytes_per_cycle // 1))

    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> int:
        """Cycles of queued work remaining as of ``sim.now``."""
        return max(0, self._free_at - self.sim.now)

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of time busy (vs ``elapsed`` or the whole run)."""
        span = elapsed if elapsed is not None else max(1, self.sim.now)
        return min(1.0, self.busy_cycles / span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FluidQueue({self.name!r}, backlog={self.backlog})"
