"""End-to-end property tests: random well-formed trace programs must run
to completion with protocol invariants intact, on both protocols."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppTrace
from repro.arch import CommParams
from repro.core import ClusterConfig, run_simulation

N_PROCS = 4


def build_trace(programs):
    """programs: per-proc list of abstract ops -> a valid AppTrace.

    Ops: ("c", cycles), ("r", page), ("w", page, words),
    ("cs", lock, page, words)  — a critical section around a read+write —
    and a trailing barrier for everyone.
    """
    events = []
    for prog in programs:
        evs = []
        for op in prog:
            kind = op[0]
            if kind == "c":
                evs.append(("c", op[1], op[1] // 10, 100))
            elif kind == "r":
                evs.append(("r", op[1]))
            elif kind == "w":
                evs.append(("w", op[1], op[2], 1))
            elif kind == "cs":
                _, lock, page, words = op
                evs.append(("a", lock))
                evs.append(("r", page))
                evs.append(("w", page, words, 1))
                evs.append(("l", lock))
        evs.append(("b", 0))
        events.append(evs)
    trace = AppTrace(
        name="random",
        n_procs=N_PROCS,
        events=events,
        serial_cycles=sum(
            ev[1] + ev[2] for evs in events for ev in evs if ev[0] == "c"
        )
        or 1,
        shared_bytes=0,
    )
    trace.validate()
    return trace


op_strategy = st.one_of(
    st.tuples(st.just("c"), st.integers(100, 20_000)),
    st.tuples(st.just("r"), st.integers(0, 15)),
    st.tuples(st.just("w"), st.integers(0, 15), st.integers(1, 64)),
    st.tuples(
        st.just("cs"), st.integers(0, 5), st.integers(0, 15), st.integers(1, 32)
    ),
)

programs_strategy = st.lists(
    st.lists(op_strategy, max_size=12), min_size=N_PROCS, max_size=N_PROCS
)


@given(programs=programs_strategy, protocol=st.sampled_from(["hlrc", "aurc"]))
@settings(max_examples=30, deadline=None)
def test_random_programs_complete_with_consistent_counters(programs, protocol):
    trace = build_trace(programs)
    config = ClusterConfig(
        comm=CommParams(procs_per_node=2),
        total_procs=N_PROCS,
        protocol=protocol,
        home_policy="round_robin",
    )
    result = run_simulation(trace, config)

    # completion and basic sanity
    assert result.total_cycles >= 0
    c = result.counters
    # fetches never exceed faults (fetch coalescing), and per-CPU counts
    # aggregate to the cluster counters
    assert c.page_fetches <= c.page_faults
    assert sum(s.get_count("page_faults") for s in result.proc_stats) == c.page_faults
    assert (
        sum(s.get_count("local_lock_acquires") for s in result.proc_stats)
        == c.local_lock_acquires
    )
    assert (
        sum(s.get_count("remote_lock_acquires") for s in result.proc_stats)
        == c.remote_lock_acquires
    )
    # every barrier participant arrived exactly once
    assert c.barriers == N_PROCS
    # time categories are non-negative and compute matches the trace
    for proc, stats in enumerate(result.proc_stats):
        assert all(v >= 0 for v in stats.time.values())
    total_compute = sum(s.time["compute"] for s in result.proc_stats)
    expected = sum(ev[1] for evs in trace.events for ev in evs if ev[0] == "c")
    assert total_compute == expected


@given(programs=programs_strategy)
@settings(max_examples=15, deadline=None)
def test_random_programs_deterministic(programs):
    trace = build_trace(programs)
    config = ClusterConfig(
        comm=CommParams(procs_per_node=2),
        total_procs=N_PROCS,
        home_policy="round_robin",
    )
    a = run_simulation(trace, config)
    b = run_simulation(trace, config)
    assert a.total_cycles == b.total_cycles
    assert a.counters.page_fetches == b.counters.page_fetches
    assert a.counters.remote_lock_acquires == b.counters.remote_lock_acquires


@given(programs=programs_strategy)
@settings(max_examples=15, deadline=None)
def test_mutual_exclusion_under_random_programs(programs):
    """Instrument the lock manager: no two holders of one lock overlap."""
    from repro.core import Cluster
    from repro.core.run import _worker

    trace = build_trace(programs)
    config = ClusterConfig(
        comm=CommParams(procs_per_node=2),
        total_procs=N_PROCS,
        home_policy="round_robin",
    )
    cluster = Cluster(config)
    lm = cluster.protocol.locks
    orig_acquire, orig_release = lm.acquire, lm.release
    holders = {}
    violations = []

    def acquire(cpu, lock_id):
        snap = yield from orig_acquire(cpu, lock_id)
        if holders.get(lock_id) is not None:
            violations.append((lock_id, holders[lock_id], cpu.global_id))
        holders[lock_id] = cpu.global_id
        return snap

    def release(cpu, lock_id, vc):
        holders[lock_id] = None
        yield from orig_release(cpu, lock_id, vc)

    lm.acquire, lm.release = acquire, release
    for pid, evs in enumerate(trace.events):
        cluster.sim.spawn(_worker(cluster, cluster.procs[pid], evs))
    cluster.sim.run()
    assert violations == []
    assert all(cpu.finish_time is not None for cpu in cluster.procs)
