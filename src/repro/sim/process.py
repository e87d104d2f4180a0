"""Generator-coroutine processes.

A *process* wraps a Python generator.  Each ``yield`` hands the scheduler a
:class:`~repro.sim.primitives.Waitable` — or a bare non-negative ``int``,
shorthand for a timeout of that many cycles; when the waitable fires, the
generator is resumed with the waitable's value.  ``return value`` inside
the generator completes the process and triggers its :attr:`Process.done`
event with that value, so processes compose: one process can ``yield``
another to join it and collect its result.

Exceptions raised inside a process propagate out of :meth:`Simulator.run`
wrapped in :class:`ProcessCrash` — silent death of a protocol handler would
otherwise deadlock the simulated cluster in ways that are miserable to
debug.
"""

from __future__ import annotations

from heapq import heappush
from math import ceil
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.sim.primitives import Event, Timeout, Waitable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: shared argument tuple for plain-resume wakeups (``_step(None)``) —
#: one allocation for the whole run instead of one per suspension.
_RESUME_ARGS = (None,)


class ProcessCrash(RuntimeError):
    """An unhandled exception escaped a simulation process."""

    def __init__(self, process: Any, exc: BaseException) -> None:
        # ``process`` is the Process, or the callback-driven handler
        # (repro.arch.processor.HandlerRun), whose generator raised
        super().__init__(f"process {process.name!r} crashed: {exc!r}")
        self.process = process
        self.exc = exc


class Process(Waitable):
    """A running simulation activity.

    Parameters
    ----------
    sim:
        The owning simulator.
    gen:
        The generator implementing the activity's behaviour.
    name:
        Optional label used in traces and crash reports.
    """

    __slots__ = (
        "sim",
        "gen",
        "name",
        "_done",
        "_finished",
        "_result",
        "daemon",
        "_wake",
    )

    def __init__(
        self, sim: "Simulator", gen: Iterator, name: str = "", daemon: bool = False
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: daemon processes are ignored by the watchdog's deadlock check
        self.daemon = daemon
        # The completion event is materialized lazily: most processes
        # (interrupt handlers) are never joined, and skipping the Event
        # and its f-string name for them is a measurable win.
        self._done: Optional[Event] = None
        self._finished = False
        self._result: Any = None
        #: ``_step`` bound once: every wakeup appends this to the calendar
        #: instead of building a fresh bound method per suspension
        self._wake = step = self._step
        sim._processes.add(self)
        # First step runs at the current time, after already-queued events,
        # with the calendar insert inlined (one call frame fewer per spawn).
        when = sim.now
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [step, _RESUME_ARGS]
            heappush(sim._times, when)
        else:
            bucket.append(step)
            bucket.append(_RESUME_ARGS)

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> Event:
        """Event triggered with the generator's return value on completion."""
        ev = self._done
        if ev is None:
            ev = self._done = Event(self.sim, name=f"{self.name}.done")
            if self._finished:
                ev.succeed(self._result)
        return ev

    @property
    def finished(self) -> bool:
        return self._finished

    def _resume(self, value: Any) -> None:
        self._step(value=value)

    def _resume_exc(self, exc: BaseException) -> None:
        self._step(exc=exc)

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            # drop the self-reference so the finished process is freed
            # by reference counting, not left for the cycle collector
            self._wake = None
            self.sim._processes.discard(self)
            self._finished = True
            self._result = stop.value
            if self._done is not None:
                self._done.succeed(stop.value)
            return
        except ProcessCrash:
            self.sim._processes.discard(self)
            raise
        except BaseException as err:
            self.sim._processes.discard(self)
            raise ProcessCrash(self, err) from err

        cls = target.__class__
        if cls is not int:
            if cls is not Timeout:
                if not isinstance(target, Waitable):
                    raise ProcessCrash(
                        self, TypeError(f"process yielded non-waitable {target!r}")
                    )
                target._wait(self)
                return
            # The hottest object yield, unwrapped to its delay (rounded
            # up as Simulator.schedule rounds; a negative one raises
            # below): skips an isinstance walk and Timeout._wait.
            target = target.delay
            if type(target) is not int and target >= 0:
                target = int(ceil(target))
        # A bare integer yield is a timeout: the hottest suspension sites
        # yield the delay itself, skipping the Timeout allocation and its
        # attribute loads entirely.  The calendar insert is inlined (same
        # bucket-append semantics as Simulator.schedule) to drop the call
        # frame and the *args pack on the single hottest path in the
        # whole simulator.
        sim = self.sim
        if target < 0:
            sim.schedule(target, self._wake, None)  # raises
        when = sim.now + target
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [self._wake, _RESUME_ARGS]
            heappush(sim._times, when)
        else:
            bucket.append(self._wake)
            bucket.append(_RESUME_ARGS)

    # Processes are themselves waitable: ``yield other_process`` joins it.
    def _wait(self, process: "Process") -> None:
        self.done._wait(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"Process({self.name!r}, {state})"
