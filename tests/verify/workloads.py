"""Synthetic sharing-pattern workloads + Hypothesis strategies.

Small, structurally diverse traces that exercise the protocol state
machines in the ways the paper's applications do: migratory data under a
lock, producer/consumer across barriers, false sharing (many writers to
the same pages), and mixed lock/barrier critical sections.  All builders
are deterministic functions of their arguments — Hypothesis supplies the
arguments, so shrinking works on sizes/rounds rather than raw event
lists.

Every trace ends with a barrier so both protocols flush all dirt before
the run ends (matching the real applications).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import strategies as st

from repro.apps.base import AppTrace
from repro.arch.params import CommParams
from repro.core import ClusterConfig, run_simulation
from repro.net.faults import FaultParams
from repro.verify.events import Probe

N_PROCS = 4


def make_trace(events: List[List[Tuple]], name: str = "synthetic") -> AppTrace:
    trace = AppTrace(
        name=name,
        n_procs=len(events),
        events=[list(evs) for evs in events],
        serial_cycles=100_000,
        shared_bytes=len(events) * 4096,
    )
    trace.validate()
    return trace


def _compute(proc: int, cycles: int) -> Tuple:
    # Stagger per-proc compute so processors hit synchronization at
    # different times (more interesting interleavings than lockstep).
    work = cycles * (1 + proc % 3)
    return ("c", work, work // 10, 64)


def _bar(events: List[List[Tuple]], barrier_id: int) -> None:
    for evs in events:
        evs.append(("b", barrier_id))


def migratory(rounds: int, n_pages: int, words: int, compute: int,
              n_procs: int = N_PROCS) -> AppTrace:
    """A data structure migrates proc-to-proc under one lock."""
    events: List[List[Tuple]] = [[] for _ in range(n_procs)]
    bar = 0
    for _ in range(rounds):
        for p in range(n_procs):
            evs = events[p]
            if compute:
                evs.append(_compute(p, compute))
            evs.append(("a", 0))
            for page in range(n_pages):
                evs.append(("r", page))
                evs.append(("w", page, words, 1))
            evs.append(("l", 0))
        _bar(events, bar)
        bar += 1
    _bar(events, bar)
    return make_trace(events, "migratory")


def producer_consumer(rounds: int, n_pages: int, words: int, compute: int,
                      n_procs: int = N_PROCS) -> AppTrace:
    """A rotating producer writes; everyone else reads after a barrier."""
    events: List[List[Tuple]] = [[] for _ in range(n_procs)]
    bar = 0
    for r in range(rounds):
        producer = r % n_procs
        for p in range(n_procs):
            evs = events[p]
            if compute:
                evs.append(_compute(p, compute))
            if p == producer:
                for page in range(n_pages):
                    evs.append(("w", page, words, 1))
        _bar(events, bar)
        bar += 1
        for p in range(n_procs):
            if p != producer:
                for page in range(n_pages):
                    events[p].append(("r", page))
        _bar(events, bar)
        bar += 1
    return make_trace(events, "producer_consumer")


def false_sharing(rounds: int, n_pages: int, words: int, compute: int,
                  n_procs: int = N_PROCS) -> AppTrace:
    """Every proc writes (notionally disjoint words of) the same pages."""
    events: List[List[Tuple]] = [[] for _ in range(n_procs)]
    bar = 0
    for _ in range(rounds):
        for p in range(n_procs):
            evs = events[p]
            if compute:
                evs.append(_compute(p, compute))
            for page in range(n_pages):
                evs.append(("w", page, words, 1 + p % 2))
        _bar(events, bar)
        bar += 1
        for p in range(n_procs):
            for page in range(n_pages):
                events[p].append(("r", page))
        _bar(events, bar)
        bar += 1
    return make_trace(events, "false_sharing")


def lock_mix(rounds: int, n_pages: int, words: int, compute: int,
             n_procs: int = N_PROCS) -> AppTrace:
    """Critical sections over several locks, barrier every other round."""
    n_locks = max(1, n_pages // 2)
    events: List[List[Tuple]] = [[] for _ in range(n_procs)]
    bar = 0
    for r in range(rounds):
        for p in range(n_procs):
            evs = events[p]
            if compute:
                evs.append(_compute(p, compute))
            page = (r * 7 + p * 3) % n_pages
            lock = page % n_locks
            evs.append(("a", lock))
            evs.append(("r", page))
            evs.append(("w", page, words, 1))
            evs.append(("l", lock))
        if r % 2 == 1:
            _bar(events, bar)
            bar += 1
    _bar(events, bar)
    return make_trace(events, "lock_mix")


PATTERNS = {
    "migratory": migratory,
    "producer_consumer": producer_consumer,
    "false_sharing": false_sharing,
    "lock_mix": lock_mix,
}
#: patterns whose synchronization is barriers only — deterministic event
#: structure under any timing (no lock-arbitration order dependence),
#: which metamorphic monotonicity tests require
BARRIER_ONLY_PATTERNS = ("producer_consumer", "false_sharing")


@st.composite
def trace_strategy(draw, patterns: Tuple[str, ...] = tuple(PATTERNS)) -> AppTrace:
    pattern = draw(st.sampled_from(sorted(patterns)))
    rounds = draw(st.integers(min_value=1, max_value=3))
    n_pages = draw(st.integers(min_value=1, max_value=6))
    words = draw(st.integers(min_value=1, max_value=64))
    compute = draw(st.sampled_from([0, 500, 5000]))
    return PATTERNS[pattern](rounds, n_pages, words, compute)


#: a handful of comm-parameter corners from the paper's sweep axes
comm_point_strategy = st.fixed_dictionaries(
    {
        "host_overhead": st.sampled_from([0, 500, 3000]),
        "ni_occupancy": st.sampled_from([100, 1000]),
        "interrupt_cost": st.sampled_from([100, 2000]),
        "io_bus_mb_per_mhz": st.sampled_from([0.125, 0.5, 2.0]),
    }
)

fault_point_strategy = st.sampled_from(
    [
        FaultParams(),
        FaultParams(drop_prob=0.05, retry_timeout=20_000),
        FaultParams(dup_prob=0.1),
        FaultParams(delay_spike_prob=0.2, delay_spike_cycles=5_000),
        FaultParams(drop_prob=0.03, dup_prob=0.03, retry_timeout=20_000),
    ]
)


def base_config(
    protocol: str,
    ppn: int = 2,
    faults: Optional[FaultParams] = None,
    **comm_kw,
) -> ClusterConfig:
    return ClusterConfig(
        comm=CommParams(procs_per_node=ppn, **comm_kw),
        total_procs=N_PROCS,
        protocol=protocol,
        home_policy="round_robin",
        faults=faults if faults is not None else FaultParams(),
    )


def run_verified(trace: AppTrace, config: ClusterConfig):
    """Run under the oracle with a caller's probe; returns (result, probe)."""
    probe = Probe()
    result = run_simulation(trace, config.replace(verify=True), probe=probe)
    return result, probe


def assert_oracle_clean(result, context: str = "") -> None:
    if result.violations:
        lines = [f"oracle violations ({context}):"]
        lines += [f"  {v}" for v in result.violations[:10]]
        raise AssertionError("\n".join(lines))
