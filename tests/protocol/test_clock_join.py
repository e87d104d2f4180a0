"""Property test: the barrier's O(P) clock join equals the O(P^2) one.

A barrier merges every processor's vector clock and sizes the write
notices piggybacked on its release messages.  The engine computes both
from the clock diagonal (component q only advances through q's own
increment) and the interval log's prefix sums.  Random lock and barrier
programs run under HLRC and AURC, every collective topology and 1, 2 and
4 processors per node; at every call the engine's answers must equal
the component-wise join of all clocks and the per-processor
``notice_count_between`` sum kept below as the reference.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppTrace
from repro.arch import CommParams
from repro.core import ClusterConfig, run_simulation
from repro.protocol.collectives import COLLECTIVES
from repro.protocol.hlrc import HLRCProtocol
from repro.protocol.timestamps import VectorClock, notices_wire_bytes


def reference_join(protocol):
    """Component-wise max over every processor's clock."""
    merged = VectorClock(len(protocol.vc))
    for clock in protocol.vc:
        merged.merge(clock)
    return merged.snapshot()


def reference_notice_bytes(protocol):
    """The O(P^2) sizing: each clock's notice delta to the join, averaged."""
    merged = VectorClock.from_snapshot(reference_join(protocol))
    counts = [protocol.log.notice_count_between(clock, merged) for clock in protocol.vc]
    return notices_wire_bytes(sum(counts) // max(1, len(counts)))


@contextmanager
def checked_barriers():
    """Check both barrier payload helpers against the references at every
    call; yields the call counts and the total bytes sized."""
    merge, notice_bytes = HLRCProtocol._merged_snapshot, HLRCProtocol._barrier_notice_bytes
    calls = {"merge": 0, "notice_bytes": 0, "bytes_sized": 0}

    def checked_merge(self):
        calls["merge"] += 1
        got = merge(self)
        assert got == reference_join(self)
        return got

    def checked_notice_bytes(self):
        calls["notice_bytes"] += 1
        got = notice_bytes(self)
        assert got == reference_notice_bytes(self)
        calls["bytes_sized"] += got
        return got

    HLRCProtocol._merged_snapshot = checked_merge
    HLRCProtocol._barrier_notice_bytes = checked_notice_bytes
    try:
        yield calls
    finally:
        HLRCProtocol._merged_snapshot = merge
        HLRCProtocol._barrier_notice_bytes = notice_bytes


op = st.one_of(
    st.tuples(st.just("c"), st.integers(100, 5_000)),
    st.tuples(st.just("r"), st.integers(0, 11)),
    st.tuples(st.just("w"), st.integers(0, 11), st.integers(1, 64)),
    st.tuples(st.just("cs"), st.integers(0, 3), st.integers(0, 11), st.integers(1, 32)),
)


@st.composite
def programs(draw):
    """Per-processor op lists between a random number of global barriers."""
    n_procs = draw(st.sampled_from([4, 8]))
    phases = draw(st.integers(1, 3))
    events = [[] for _ in range(n_procs)]
    for barrier_id in range(phases):
        for evs in events:
            for o in draw(st.lists(op, max_size=5)):
                if o[0] == "c":
                    evs.append(("c", o[1], o[1] // 10, 64))
                elif o[0] == "r":
                    evs.append(("r", o[1]))
                elif o[0] == "w":
                    evs.append(("w", o[1], o[2], 1))
                else:
                    _, lock, page, words = o
                    evs += [("a", lock), ("r", page), ("w", page, words, 1), ("l", lock)]
            evs.append(("b", barrier_id))
    trace = AppTrace(
        name="clock_join", n_procs=n_procs, events=events,
        serial_cycles=100_000, shared_bytes=12 * 4096,
    )
    trace.validate()
    return trace


@given(
    trace=programs(),
    protocol=st.sampled_from(["hlrc", "aurc"]),
    collective=st.sampled_from(COLLECTIVES),
    ppn=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_barrier_clock_join_matches_reference(trace, protocol, collective, ppn):
    config = ClusterConfig(
        comm=CommParams(procs_per_node=ppn),
        total_procs=trace.n_procs,
        protocol=protocol,
        home_policy="round_robin",
        collective=collective,
    )
    with checked_barriers() as calls:
        run_simulation(trace, config)
    assert calls["merge"] > 0
    if config.n_nodes > 1:
        assert calls["notice_bytes"] > 0


def test_unequal_clocks_carry_notices():
    """A fixed program whose barrier meets clocks that have not seen each
    other's intervals: the checked sizing is exercised with notices > 0."""
    n = 4
    events = [[("w", p, 8, 1), ("b", 0), ("r", (p + 1) % n), ("b", 1)] for p in range(n)]
    trace = AppTrace(
        name="unequal", n_procs=n, events=events, serial_cycles=100_000,
        shared_bytes=n * 4096,
    )
    for collective in COLLECTIVES:
        config = ClusterConfig(
            comm=CommParams(procs_per_node=1), total_procs=n,
            home_policy="round_robin", collective=collective,
        )
        with checked_barriers() as calls:
            run_simulation(trace, config)
        assert calls["bytes_sized"] > 0, collective
