"""Discrete-event simulation kernel.

This package is the bottom-most substrate of the reproduction: a small,
deterministic discrete-event simulator sized for architectural simulation
in (integer) processor cycles.

Design highlights
-----------------
* **Deterministic scheduling.**  Events fire in ``(time, sequence)`` order,
  so two runs of the same configuration produce bit-identical results.
* **Generator coroutines.**  Simulated activities (processors, protocol
  handlers, NI firmware) are plain Python generators that ``yield``
  *waitables*: :class:`~repro.sim.primitives.Timeout`,
  :class:`~repro.sim.primitives.Event`, resource acquisitions, or other
  processes (join).
* **Fluid queues.**  Buses, network-interface cores and links are modelled
  with :class:`~repro.sim.resources.FluidQueue` — an *analytic* FCFS
  single-server queue that computes queueing delay in O(1) without
  generating per-byte events.  This is what makes a page-grain cluster
  simulation fast enough for full parameter sweeps in pure Python.

Quick example
-------------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("b", 20))
>>> _ = sim.spawn(worker("a", 10))
>>> sim.run()  # events dispatched
4
>>> log
[(10, 'a'), (20, 'b')]
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.primitives import AllOf, Event, Timeout, Waitable
from repro.sim.process import Process, ProcessCrash
from repro.sim.resources import FluidQueue, Resource, Store

__all__ = [
    "AllOf",
    "Event",
    "FluidQueue",
    "Process",
    "ProcessCrash",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "Waitable",
]
