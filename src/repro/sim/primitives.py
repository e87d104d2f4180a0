"""Waitable primitives: timeouts, one-shot events, and the AllOf join.

Anything a process may ``yield`` implements the :class:`Waitable`
protocol — a single ``_wait(process)`` hook that arranges for
``process._resume(value)`` (or ``process._resume_exc(exc)``) to be called
when the condition is satisfied.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.process import Process


class Waitable:
    """Protocol base class for everything a process can ``yield``."""

    __slots__ = ()

    def _wait(self, process: "Process") -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the waiting process after a fixed delay.

    Timeouts are single-use and single-waiter: each ``yield sim.timeout(d)``
    creates a fresh instance.
    """

    __slots__ = ("sim", "delay")

    def __init__(self, sim: "Simulator", delay: float) -> None:
        self.sim = sim
        self.delay = delay

    def _wait(self, process: "Process") -> None:
        self.sim.schedule(self.delay, process._wake, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay})"


class Event(Waitable):
    """A one-shot event with a value (or an exception) and many waiters.

    Lifecycle: *pending* → ``succeed(value)`` or ``fail(exc)`` → *triggered*.
    Processes that wait on an already-triggered event resume immediately
    (at the current simulation time, in FIFO order with other pending
    callbacks).
    """

    __slots__ = ("sim", "_waiters", "_triggered", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self._triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError(f"event {self.name!r} has no value yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``, waking all waiters."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            # the pre-bound _step (not the _resume wrapper), with the
            # calendar insert inlined (same bucket-append semantics as
            # Simulator.schedule_now): saves a call frame and an *args
            # pack per wakeup on the hottest resume path.
            sim = self.sim
            when = sim.now
            args = (value,)
            bucket = sim._buckets.get(when)
            if bucket is None:
                bucket = sim._buckets[when] = []
                heappush(sim._times, when)
            for proc in waiters:
                bucket.append(proc._wake)
                bucket.append(args)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, thrown into all waiters."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule_now(proc._resume_exc, exc)
        return self

    # -- waiting ---------------------------------------------------------
    def _wait(self, process: "Process") -> None:
        if self._triggered:
            if self._exc is not None:
                self.sim.schedule_now(process._resume_exc, self._exc)
            else:
                self.sim.schedule_now(process._wake, self._value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else f"pending({len(self._waiters)})"
        return f"Event({self.name!r}, {state})"


class AllOf(Waitable):
    """Resume when *all* of the given events have succeeded.

    The resume value is the list of the events' values in input order.
    If any constituent fails, the waiter receives that exception (once).
    """

    __slots__ = ("sim", "events")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        self.sim = sim
        self.events = list(events)

    def _wait(self, process: "Process") -> None:
        remaining = sum(1 for e in self.events if not e.triggered)
        state = {"remaining": remaining, "failed": False}

        def finish() -> None:
            try:
                values = [e.value for e in self.events]
            except BaseException as exc:  # constituent failed
                process._resume_exc(exc)
            else:
                process._resume(values)

        if remaining == 0:
            self.sim.schedule_now(finish)
            return

        for ev in self.events:
            if ev.triggered:
                continue

            def on_done(_value: Any, _ev: Event = ev) -> None:
                if state["failed"]:
                    return
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    finish()

            def on_fail(exc: BaseException) -> None:
                if state["failed"]:
                    return
                state["failed"] = True
                process._resume_exc(exc)

            _subscribe(ev, on_done, on_fail)


class _CallbackWaiter:
    """Adapter making a pair of callbacks look like a Process to Event."""

    __slots__ = ("_wake", "_resume_exc")

    def __init__(self, on_value, on_exc) -> None:
        # Event wakeups call ``_wake(value)`` (the Process fast path) and
        # failures ``_resume_exc(exc)``; the callbacks stand in for both.
        self._wake = on_value
        self._resume_exc = on_exc


def _subscribe(event: Event, on_value, on_exc) -> None:
    """Attach plain callbacks to an event (used by :class:`AllOf`)."""
    event._wait(_CallbackWaiter(on_value, on_exc))  # type: ignore[arg-type]
