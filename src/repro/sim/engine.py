"""The event-calendar scheduler at the heart of the simulator.

The engine keeps a *bucketed calendar*: a dict mapping each pending
timestamp to a flat batch ``[fn, args, fn, args, ...]`` of callbacks
scheduled for that cycle, plus a binary heap of the *distinct*
timestamps.  An insert into a cycle that already has a bucket is a
plain list append; only a new cycle costs a heap push.

The bucket being dispatched stays *live*: it remains in the dict while
it drains and is dropped only once empty, so a callback scheduling into
the current cycle appends to the very batch being swept, behind
everything already queued there.  That is the common case: in one
``paper_cold`` pass (675,654 events) 516,664 of the 581,495 cycles the
old pop-then-drain discipline popped held a single event, and 179,112
of those pops re-popped the cycle just drained, because each insert at
``now`` had opened a fresh bucket and pushed ``now`` back onto the heap.
The live bucket turns every one of those into an append.

Dispatch order is exactly the order a single ``(time, seq)`` heap
produces: within one timestamp, batch order *is* schedule order (there
is no cancellation API, and ``seq`` increased monotonically), and an
insert at ``now`` lands after the rest of the current batch — precisely
where the heap would have placed the higher-``seq`` entry.  Runs are
therefore bit-identical to the heap engine.

:meth:`Simulator.run` has one loop, the live-bucket drain, and every
run takes it.  A cycle's events all sit in its one bucket, so the
livelock guard is a cap on the batch's length, checked only when the
drain re-reads that length; :meth:`Simulator.step` is the per-event
reference the drain is tested against.

Times are integer processor cycles.  Floating-point times are accepted
but rounded up, because every architectural cost in the reproduction is
expressed in whole cycles; rounding up keeps costs conservative and,
more importantly, keeps the calendar deterministic across platforms.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Set


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (negative delays, running backwards)."""


class SimulationStuckError(SimulationError):
    """The simulation can make no further progress.

    Raised by the :class:`Watchdog` in two situations:

    * **deadlock** — the event calendar drained while (non-daemon)
      processes remain blocked on waitables that can never fire;
    * **livelock** — events keep dispatching but simulated time stops
      advancing (e.g. a zero-delay self-rescheduling loop).

    ``blocked`` names the processes that were still alive, so protocol
    bugs surface as "these handlers never completed" instead of a silent
    return or an unbounded spin.
    """

    def __init__(self, message: str, blocked: tuple = ()) -> None:
        super().__init__(message)
        self.blocked = tuple(blocked)


#: default consecutive same-timestamp dispatches before livelock triggers.
#: Real bursts (barrier wakeups, interrupt cascades) are a few hundred
#: events; a million events with zero time progress is a spin.
DEFAULT_LIVELOCK_EVENTS = 1_000_000


@dataclass
class Watchdog:
    """Stuck-simulation detection policy for a :class:`Simulator`.

    Installing one arms deadlock detection (one scan when the calendar
    drains).  ``livelock_events`` bounds the events one cycle may
    dispatch; :meth:`Simulator.run` checks it only when it re-reads a
    batch's length, so arming it leaves the per-event path unchanged.
    """

    #: consecutive events without time progress before raising, or
    #: ``None`` to disable livelock detection.
    livelock_events: Optional[int] = None


class Simulator:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    watchdog:
        Optional :class:`Watchdog` stuck-simulation policy; ``None``
        (bare simulators: tests, partial fixtures) detects nothing.

    Attributes
    ----------
    now:
        Current simulation time in cycles.  Monotonically non-decreasing.
    """

    __slots__ = (
        "now",
        "_buckets",
        "_times",
        "_dispatched",
        "_running",
        "watchdog",
        "_processes",
    )

    def __init__(self, watchdog: Optional[Watchdog] = None) -> None:
        self.now: int = 0
        #: absolute time -> flat batch [fn, args, fn, args, ...]
        self._buckets: dict[int, list] = {}
        #: min-heap of the distinct times present in ``_buckets``
        self._times: list[int] = []
        self._dispatched: int = 0
        self._running = False
        self.watchdog: Optional[Watchdog] = watchdog
        #: live (unfinished) processes, maintained by Process itself
        self._processes: Set["Process"] = set()

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        Integer delays (the overwhelmingly common case — every
        architectural cost is whole cycles) skip the ``math.ceil`` float
        round-trip.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        when = self.now + (delay if type(delay) is int else int(math.ceil(delay)))
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn, args]
            heapq.heappush(self._times, when)
        else:
            bucket.append(fn)
            bucket.append(args)

    def schedule_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        when = self.now
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn, args]
            heapq.heappush(self._times, when)
        else:
            bucket.append(fn)
            bucket.append(args)

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Dispatch events until the calendar drains.

        Returns the number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        wd = self.watchdog
        limit = wd.livelock_events if wd is not None else None
        # A bucket is one cycle, and every event after its first runs
        # without time progress, so the livelock guard is a cap on the
        # batch: at most ``limit + 1`` events (two slots each) per cycle.
        cap = sys.maxsize if limit is None else 2 * (limit + 1)
        # Hot names are bound locally and each iteration drains one whole
        # live bucket — one heap pop and one dict delete per *timestamp*,
        # then a branch-free sweep of the flat [fn, args, ...] batch.  Its
        # length is read only when the sweep reaches the end known so far
        # (every bucket holds at least one event), so same-cycle appends
        # join the sweep, and the cap is checked only there.
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        dispatched = dispatched_before = self._dispatched
        t = i = n = 0
        batch: list = []
        try:
            while times:
                t = pop(times)
                batch = buckets[t]
                self.now = t
                i = 0
                n = 2
                while i < n:
                    while i < n:
                        batch[i](*batch[i + 1])
                        i += 2
                    n = len(batch)
                    if n > cap:
                        if i == cap:
                            # Step back onto the last event that ran, so
                            # the cleanup below counts only what ran and
                            # the event stopped at stays queued.
                            i -= 2
                            blocked = self._live_process_names()
                            raise SimulationStuckError(
                                f"livelock: {limit + 1} events dispatched at "
                                f"t={t} without simulated-time progress; "
                                f"live processes: {blocked or '(none)'}",
                                blocked=blocked,
                            )
                        n = cap
                del buckets[t]
                dispatched += n >> 1
        finally:
            self._running = False
            if buckets.get(t) is batch:
                # Stopped mid-batch: the event at ``i`` was consumed
                # (popped-and-counted, heap semantics); the rest,
                # same-cycle appends included, stays the bucket.
                dispatched += (i >> 1) + 1
                del batch[: i + 2]
                if batch:
                    heapq.heappush(times, t)
                else:
                    del buckets[t]
            self._dispatched = dispatched
        self._check_deadlock()
        return dispatched - dispatched_before

    # ------------------------------------------------------------------ #
    # watchdog support
    # ------------------------------------------------------------------ #
    def _live_process_names(self) -> tuple:
        return tuple(
            sorted(p.name or repr(p) for p in self._processes if not p.daemon)
        )

    def _check_deadlock(self) -> None:
        """Raise if the calendar drained while non-daemon processes remain.

        With no pending events, nothing can ever resume them — that is a
        true deadlock, not a transient.  Only runs when a watchdog is
        installed, so bare simulators (tests, partial fixtures) keep the
        permissive drain-and-return contract.
        """
        if self.watchdog is None:
            return
        blocked = self._live_process_names()
        if blocked:
            raise SimulationStuckError(
                f"deadlock: event calendar drained at t={self.now} with "
                f"{len(blocked)} blocked process(es): {', '.join(blocked)}",
                blocked=blocked,
            )

    def step(self) -> bool:
        """Dispatch a single event.  Returns ``False`` if none is queued.

        The per-event reference :meth:`run` is tested against; it runs
        no watchdog.
        """
        times = self._times
        if not times:
            return False
        t = times[0]
        batch = self._buckets[t]
        fn = batch[0]
        args = batch[1]
        if len(batch) > 2:
            # Later same-cycle arrivals append behind the remainder, so
            # leaving the shortened batch in place preserves order.
            del batch[:2]
        else:
            heapq.heappop(times)
            del self._buckets[t]
        self.now = t
        self._dispatched += 1
        fn(*args)
        return True

    def peek(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if none is queued."""
        return self._times[0] if self._times else None

    @property
    def pending(self) -> int:
        """Number of events currently queued.

        Read between runs: inside a callback, the live bucket still
        holds the events already dispatched from it.
        """
        return sum(len(b) for b in self._buckets.values()) >> 1

    @property
    def dispatched(self) -> int:
        """Total number of events dispatched over the simulator's lifetime."""
        return self._dispatched

    # ------------------------------------------------------------------ #
    # conveniences re-exported from primitives / process
    # ------------------------------------------------------------------ #
    def timeout(self, delay: float) -> "Timeout":
        """A waitable that resumes the yielding process after ``delay``."""
        return Timeout(self, delay)

    def event(self) -> "Event":
        """A fresh one-shot :class:`~repro.sim.primitives.Event`."""
        return Event(self)

    def spawn(self, gen: Iterator, name: str = "", daemon: bool = False) -> "Process":
        """Launch ``gen`` as a simulation process at the current time.

        ``daemon`` processes are excluded from the watchdog's deadlock
        accounting (long-lived service loops that legitimately outlive
        the workload, like a dedicated protocol poller).
        """
        return Process(self, gen, name=name, daemon=daemon)


# Bound at module level (not per call) so the conveniences above resolve
# them with one global lookup on the hot path.
from repro.sim.primitives import Event, Timeout  # noqa: E402
from repro.sim.process import Process  # noqa: E402
