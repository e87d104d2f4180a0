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

Times are integer processor cycles.  Floating-point times are accepted
but rounded up, because every architectural cost in the reproduction is
expressed in whole cycles; rounding up keeps costs conservative and,
more importantly, keeps the calendar deterministic across platforms.
"""

from __future__ import annotations

import heapq
import math
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

    ``deadlock`` checks cost nothing per event (one scan when the
    calendar drains); ``livelock_events`` adds a per-event counter, so it
    forces the general dispatch loop — enable it when the run can
    plausibly spin (fault injection, new protocol code), leave it
    ``None`` for the optimized hot path.
    """

    deadlock: bool = True
    #: consecutive events without time progress before raising, or
    #: ``None`` to disable livelock detection (keeps the fast path).
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
        round-trip; a non-negative delay also cannot schedule into the
        past, so the ``schedule_at`` range check is skipped too.
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

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        when_i = when if type(when) is int else int(math.ceil(when))
        if when_i < self.now:
            raise SimulationError(
                f"cannot schedule at {when_i} < now {self.now} (time runs forward)"
            )
        bucket = self._buckets.get(when_i)
        if bucket is None:
            self._buckets[when_i] = [fn, args]
            heapq.heappush(self._times, when_i)
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
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the calendar drains.

        Parameters
        ----------
        until:
            Stop *before* dispatching any event later than this time; the
            clock is advanced to ``until`` if the simulation outlives it.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            dispatches (catches accidental livelock in protocol code).

        Returns
        -------
        int
            The number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        dispatched_before = self._dispatched
        wd = self.watchdog
        livelock_limit = wd.livelock_events if wd is not None else None

        if until is None and max_events is None and livelock_limit is None:
            # Hot path: drain-the-calendar with no deadline, no event
            # budget and no livelock counter.  Hot names are bound
            # locally and each iteration drains one whole live bucket —
            # one heap pop and one dict delete per *timestamp*, then a
            # branch-free sweep of the flat [fn, args, ...] batch.  Its
            # length is read only when the sweep reaches the end known
            # so far (every bucket holds at least one event), so
            # same-cycle appends join the sweep.
            times = self._times
            buckets = self._buckets
            pop = heapq.heappop
            dispatched = self._dispatched
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
                    del buckets[t]
                    dispatched += n >> 1
            finally:
                self._running = False
                if buckets.get(t) is batch:
                    # A callback raised mid-batch: the failing event was
                    # consumed (popped-and-counted, heap semantics); the
                    # rest, same-cycle appends included, stays the bucket.
                    dispatched += (i >> 1) + 1
                    del batch[: i + 2]
                    if batch:
                        heapq.heappush(times, t)
                    else:
                        del buckets[t]
                self._dispatched = dispatched
            self._check_deadlock()
            return dispatched - dispatched_before

        times = self._times
        buckets = self._buckets
        stalled = 0  # consecutive dispatches without time progress
        t = i = 0
        batch = []
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    self.now = int(until)
                    break
                heapq.heappop(times)
                batch = buckets[t]
                i = 0
                while i < len(batch):
                    # Both guards raise *before* consuming the event, so a
                    # resumed run dispatches it (and each other) once.
                    if livelock_limit is not None:
                        if t > self.now:
                            stalled = 0
                        else:
                            stalled += 1
                            if stalled > livelock_limit:
                                raise SimulationStuckError(
                                    f"livelock: {stalled} events dispatched at "
                                    f"t={self.now} without simulated-time "
                                    f"progress; live processes: "
                                    f"{self._live_process_names() or '(none)'}",
                                    blocked=self._live_process_names(),
                                )
                    if (
                        max_events is not None
                        and self._dispatched - dispatched_before >= max_events
                    ):
                        raise SimulationError(f"exceeded max_events={max_events}")
                    fn = batch[i]
                    args = batch[i + 1]
                    i += 2
                    self.now = t
                    self._dispatched += 1
                    fn(*args)
                del buckets[t]
            else:
                if until is not None and until > self.now:
                    self.now = int(until)
        finally:
            self._running = False
            if buckets.get(t) is batch:
                # stopped mid-batch (max_events / livelock before the
                # event at ``i``, or a callback error after it): the
                # undispatched rest stays the bucket.
                del batch[:i]
                if batch:
                    heapq.heappush(times, t)
                else:
                    del buckets[t]
        if until is None and not times:
            self._check_deadlock()
        return self._dispatched - dispatched_before

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
        true deadlock, not a transient.  Only runs when a watchdog with
        ``deadlock=True`` is installed, so bare simulators (tests,
        partial fixtures) keep the permissive drain-and-return contract.
        """
        wd = self.watchdog
        if wd is None or not wd.deadlock:
            return
        blocked = self._live_process_names()
        if blocked:
            raise SimulationStuckError(
                f"deadlock: event calendar drained at t={self.now} with "
                f"{len(blocked)} blocked process(es): {', '.join(blocked)}",
                blocked=blocked,
            )

    def step(self) -> bool:
        """Dispatch a single event.  Returns ``False`` if none is queued."""
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
