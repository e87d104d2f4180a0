"""Per-layer host-time ledger for the benchmark's traced run.

Two instruments, both installed from the benchmark's own files so the
program under test is unchanged:

* **Spans** wrap the public calls that cross a layer boundary
  (``get_app`` as ``sweeps`` calls it, ``run_simulation``,
  ``runcache.content_key``, ``DiskCache.get``/``put``,
  ``store.ingest_quietly``, ``run_points`` and ``verify.check_log``).
  A span's self time is its duration minus the spans it encloses, and
  everything a span calls -- stdlib and builtins included -- is charged
  to it.  Counts are read off the values the wrapped calls return.
* **A profiler** (``cProfile``) runs only inside ``run_simulation`` and
  splits that span into the simulator's packages.  Builtins are not
  profiled, so their time stays in the Python function that called
  them; self time of stdlib Python functions is charged to the nearest
  calling ``repro`` package (:func:`attribute`).  ``heapq``, ``len`` or
  ``dataclasses`` time thus lands on the protocol or engine code that
  asked for it, not in a ``builtins`` or stdlib bucket.  The profiler's
  shares are scaled to the span's wall time, because profiling itself
  inflates call-heavy code (``trace_overhead`` reports by how much).
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import repro
import repro.verify
from repro.core import executor, runcache, store, sweeps

#: packages the profiler splits ``run_simulation`` into; any other
#: owner (trace objects, the wrappers themselves) stays unattributed
SIM_LAYERS = ("sim", "protocol", "net", "arch", "osys", "core", "verify")

OTHER = "other"

#: cProfile function label: (filename, first line, name)
Func = Tuple[str, int, str]

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_layer(func: Func) -> Optional[str]:
    """The ``repro`` package a profiled function belongs to, or ``None``
    for stdlib, builtins and third-party code."""
    filename = func[0]
    if not filename.startswith(_REPRO_DIR):
        return None
    head, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
    return head if sep else "core"


def attribute(
    stats: Dict[Func, tuple],
    layer_of: Callable[[Func], Optional[str]],
    rounds: int = 200,
) -> Dict[str, float]:
    """Charge every function's self time to a layer.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``func -> (cc, nc, tt, ct, callers)`` with ``callers[caller] =
    (nc, cc, tt, ct)``, where ``tt`` is the callee's self time spent in
    calls made by that caller.  A function with a layer keeps its own
    self time.  Any other function's self time is split over its callers
    in proportion to the self time each caller's calls incurred, and
    passed up until it reaches a function with a layer.  Time that
    reaches a function with no callers, or that circulates in a
    recursion with no layered caller, is charged to ``"other"``.
    """
    owned: Dict[Func, str] = {}
    edges: Dict[Func, list] = {}
    for func, (_, _, _, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            owned[func] = layer
            continue
        total = sum(edge[2] for edge in callers.values())
        if total > 0:
            edges[func] = [(c, edge[2] / total) for c, edge in callers.items()]
        else:
            calls = sum(edge[0] for edge in callers.values())
            edges[func] = [(c, edge[0] / calls) for c, edge in callers.items()] if calls else []
    # share[f][layer]: fraction of f's self time absorbed by that layer
    # within the rounds so far (Jacobi iteration on an absorbing chain,
    # which converges from below).
    share: Dict[Func, Dict[str, float]] = {f: {} for f in edges}
    for _ in range(rounds):
        nxt: Dict[Func, Dict[str, float]] = {}
        for func, out in edges.items():
            acc: Dict[str, float] = defaultdict(float)
            if not out:
                acc[OTHER] = 1.0
            for caller, weight in out:
                if caller in owned:
                    acc[owned[caller]] += weight
                elif caller in share:
                    for layer, frac in share[caller].items():
                        acc[layer] += weight * frac
                else:
                    acc[OTHER] += weight
            nxt[func] = acc
        converged = all(
            abs(sum(nxt[f].values()) - sum(share[f].values())) < 1e-12 for f in edges
        )
        share = nxt
        if converged:
            break
    times: Dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        if func in owned:
            times[owned[func]] += tt
            continue
        absorbed = 0.0
        for layer, frac in share[func].items():
            times[layer] += tt * frac
            absorbed += frac
        times[OTHER] += tt * max(0.0, 1.0 - absorbed)
    return dict(times)


class Ledger:
    """Spans, counts and a ``run_simulation`` profile for traced passes."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.profiler = cProfile.Profile(builtins=False)
        self._stack: list = []

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable, observe=None, profile=False) -> Callable:
        ledger = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            ledger._stack.append(child)
            if profile:
                ledger.profiler.enable()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if profile:
                    ledger.profiler.disable()
                ledger._stack.pop()
                if ledger._stack:
                    ledger._stack[-1][0] += elapsed
                ledger.total[name] += elapsed
                ledger.self_time[name] += elapsed - child[0]
                ledger.calls[name] += 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _on_trace(self, trace) -> None:
        self.counts["apps.trace_events"] += sum(len(evs) for evs in trace.events)

    def _on_result(self, result) -> None:
        meta, counters, c = result.meta, result.counters, self.counts
        c["sim.events"] += meta["sim_events"]
        c["protocol.page_fetches"] += counters.page_fetches
        c["protocol.diffs_created"] += counters.diffs_created
        c["protocol.write_notices"] += counters.write_notices
        c["protocol.updates_sent"] += counters.updates_sent
        c["protocol.remote_lock_acquires"] += counters.remote_lock_acquires
        c["net.messages"] += meta["network_messages"]
        c["net.bytes"] += meta["network_bytes"]
        c["net.retransmits"] += meta.get("retransmits", 0.0)
        c["net.duplicates_suppressed"] += meta.get("duplicates_suppressed", 0.0)
        c["osys.interrupts"] += meta["interrupts"]
        c["verify.events"] += meta.get("verify.events", 0.0)
        c["verify.violations"] += meta.get("verify.violations", 0.0)

    def _on_cache_get(self, result) -> None:
        self.counts["core.cache_hits" if result is not None else "core.cache_misses"] += 1

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Patch the span wrappers in; restore the originals on exit."""
        patches = [
            (executor, "run_points", "run_points", None, False),
            (sweeps, "get_app", "get_app", self._on_trace, False),
            (sweeps, "run_simulation", "run_simulation", self._on_result, True),
            (runcache, "content_key", "content_key", None, False),
            (runcache.DiskCache, "get", "cache_get", self._on_cache_get, False),
            (runcache.DiskCache, "put", "cache_put", None, False),
            (store, "ingest_quietly", "store_ingest", None, False),
            (repro.verify, "check_log", "check_log", None, False),
        ]
        originals = []
        try:
            for owner, attr, name, observe, profile in patches:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe, profile))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def sim_split(self) -> Dict[str, float]:
        """``run_simulation`` wall time split over :data:`SIM_LAYERS` (and
        ``"other"``) by the profiler's caller-attributed shares."""
        self.profiler.create_stats()
        raw = attribute(self.profiler.stats, repro_layer)
        profiled = sum(raw.values())
        wall = self.total["run_simulation"]
        split = {layer: 0.0 for layer in SIM_LAYERS + (OTHER,)}
        if profiled <= 0:
            return split
        for layer, seconds in raw.items():
            key = layer if layer in SIM_LAYERS else OTHER
            split[key] += wall * seconds / profiled
        return split

    def metrics(self, passes: int, wall: float, untraced_wall: float) -> Dict[str, float]:
        """Per-layer metrics, per grid pass.

        ``wall`` is the traced passes' total wall time; ``untraced_wall``
        the median wall time of an untraced pass of the same grid.
        """
        split = self.sim_split()
        c, t = self.counts, self.total
        gets = c["core.cache_hits"] + c["core.cache_misses"]
        carried = c["net.messages"]
        out = {
            "apps.gen_s": t["get_app"],
            "apps.traces": self.calls["get_app"],
            "apps.trace_events": c["apps.trace_events"],
            "sim.self_s": split["sim"],
            "sim.events": c["sim.events"],
            "protocol.self_s": split["protocol"],
            "protocol.page_fetches": c["protocol.page_fetches"],
            "protocol.diffs_created": c["protocol.diffs_created"],
            "protocol.write_notices": c["protocol.write_notices"],
            "protocol.updates_sent": c["protocol.updates_sent"],
            "protocol.remote_lock_acquires": c["protocol.remote_lock_acquires"],
            "net.self_s": split["net"],
            "net.messages": carried,
            "net.bytes": c["net.bytes"],
            "net.retransmits": c["net.retransmits"],
            "net.duplicates_suppressed": c["net.duplicates_suppressed"],
            "arch.self_s": split["arch"],
            "osys.self_s": split["osys"],
            "osys.interrupts": c["osys.interrupts"],
            "core.run_simulation_s": t["run_simulation"],
            "core.sim_self_s": split["core"],
            "core.executor_self_s": self.self_time["run_points"],
            "core.content_key_s": t["content_key"],
            "core.content_key_calls": self.calls["content_key"],
            "core.cache_get_s": t["cache_get"],
            "core.cache_put_s": t["cache_put"],
            "core.store_ingest_s": t["store_ingest"],
            "verify.self_s": split["verify"],
            "verify.check_log_s": t["check_log"],
            "verify.events": c["verify.events"],
            "verify.violations": c["verify.violations"],
        }
        out = {name: value / passes for name, value in out.items()}
        accounted = sum(
            out[name]
            for name in (
                "apps.gen_s",
                "sim.self_s",
                "protocol.self_s",
                "net.self_s",
                "arch.self_s",
                "osys.self_s",
                "core.sim_self_s",
                "verify.self_s",
                "core.executor_self_s",
                "core.content_key_s",
                "core.cache_get_s",
                "core.cache_put_s",
                "core.store_ingest_s",
            )
        )
        out["sim.ns_per_event"] = (
            out["sim.self_s"] / out["sim.events"] * 1e9 if out["sim.events"] else 0.0
        )
        out["net.delivery_frac"] = (
            carried / (carried + c["net.retransmits"]) if carried else 1.0
        )
        out["core.cache_hit_frac"] = c["core.cache_hits"] / gets if gets else 0.0
        out["trace.wall_s"] = wall / passes
        out["other.self_s"] = out["trace.wall_s"] - accounted
        out["trace_overhead"] = out["trace.wall_s"] / untraced_wall
        return out
