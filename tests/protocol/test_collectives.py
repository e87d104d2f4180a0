"""Property tests for the pluggable barrier collectives.

Every topology (flat, binomial tree, dissemination) must implement the
same barrier contract, so each invariant below is checked directly on
the verify-event stream rather than trusting the implementation:

* **safety** — no processor's release event appears before every
  processor's arrival event for that episode (stream order *and*
  simulated time);
* **liveness/exactness** — every episode releases each participant
  exactly once;
* **monotonicity** — each processor's visits to a barrier id carry
  consecutive epoch numbers starting at 0.

The same invariants are replayed under seeded fault injection (drops,
duplicates, delay spikes): a collective that forgets a retransmit or
double-serves a duplicated hop fails here first.  A differential test
then pins the memory-model side: the per-page version history under any
topology equals the zero-cost ideal model's prediction, so collectives
can change *timing* but never *ordering*.

The dissemination phase-attribution regression pins satellite behaviour
of the metrics layer: inter-stage hop waits must land in the barrier
phase (the episode's phase mark fires when the *last* representative
completes), and per-episode hop counts match the textbook message
complexity — ``n·ceil(log2 n)`` for dissemination, ``2(n-1)`` for the
tree's up+down sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import CommParams
from repro.core import ClusterConfig
from repro.net.faults import FaultParams
from repro.protocol.collectives import COLLECTIVES
from repro.verify.events import EV_BARRIER_ARRIVE, EV_BARRIER_RELEASE, Probe
from repro.verify.ideal import ideal_interval_sets, interval_sets_from_log
from tests.verify.workloads import (
    PATTERNS,
    assert_oracle_clean,
    fault_point_strategy,
    make_trace,
    run_verified,
)

#: (total_procs, procs_per_node) corners: pure inter-node (1/node), a
#: non-power-of-two node count (3 nodes), and multi-processor nodes
SHAPES = ((4, 1), (4, 2), (6, 2), (8, 2), (8, 4))


def _config(total, ppn, collective, protocol="hlrc", faults=None):
    return ClusterConfig(
        comm=CommParams(procs_per_node=ppn),
        total_procs=total,
        protocol=protocol,
        home_policy="round_robin",
        collective=collective,
        faults=faults if faults is not None else FaultParams(),
    )


def _single_barrier_trace(n_procs):
    """Each proc dirties its own page, then one global barrier."""
    events = [[("w", p, 4, 1), ("b", 0)] for p in range(n_procs)]
    return make_trace(events, "single_barrier")


def check_barrier_invariants(records, n_procs, collective, context=""):
    """Assert the release contract directly on the verify-event stream."""
    all_procs = frozenset(range(n_procs))
    # episode -> {"arrive": {proc: (stream_pos, time)}, "release": {...}}
    episodes = {}
    pos = 0
    for rec in records:
        if rec.kind not in (EV_BARRIER_ARRIVE, EV_BARRIER_RELEASE):
            continue
        proc, _node, barrier_id, epoch, topology = rec.detail
        assert topology == collective, (
            f"{context}: event tagged {topology!r}, ran {collective!r}"
        )
        side = "arrive" if rec.kind == EV_BARRIER_ARRIVE else "release"
        ep = episodes.setdefault(
            (barrier_id, epoch), {"arrive": {}, "release": {}}
        )
        assert proc not in ep[side], (
            f"{context}: duplicate {side} for proc {proc} in episode "
            f"{(barrier_id, epoch)}"
        )
        ep[side][proc] = (pos, rec.time)
        pos += 1

    assert episodes, f"{context}: no barrier episodes recorded"
    for key, ep in episodes.items():
        assert frozenset(ep["arrive"]) == all_procs, (
            f"{context}: episode {key} arrivals {sorted(ep['arrive'])} "
            f"!= all procs"
        )
        # exactly one release per participant (duplicates caught above)
        assert frozenset(ep["release"]) == all_procs, (
            f"{context}: episode {key} releases {sorted(ep['release'])} "
            f"!= all procs"
        )
        last_arrive_pos = max(p for p, _ in ep["arrive"].values())
        last_arrive_time = max(t for _, t in ep["arrive"].values())
        first_release_pos = min(p for p, _ in ep["release"].values())
        first_release_time = min(t for _, t in ep["release"].values())
        assert first_release_pos > last_arrive_pos, (
            f"{context}: episode {key} released a processor before the "
            f"last arrival was recorded"
        )
        assert first_release_time >= last_arrive_time, (
            f"{context}: episode {key} release at t={first_release_time} "
            f"precedes last arrival at t={last_arrive_time}"
        )

    # each proc's visits to a barrier id carry consecutive epochs from 0
    visits = {}
    for barrier_id, epoch in episodes:
        for proc in range(n_procs):
            visits.setdefault((proc, barrier_id), []).append(epoch)
    for (proc, barrier_id), epochs in visits.items():
        assert sorted(epochs) == list(range(len(epochs))), (
            f"{context}: proc {proc} barrier {barrier_id} epochs "
            f"{sorted(epochs)} are not consecutive from 0"
        )
    return episodes


@given(
    shape=st.sampled_from(SHAPES),
    collective=st.sampled_from(COLLECTIVES),
    protocol=st.sampled_from(["hlrc", "aurc"]),
    pattern=st.sampled_from(sorted(PATTERNS)),
    rounds=st.integers(min_value=1, max_value=2),
    n_pages=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_collective_release_contract(
    shape, collective, protocol, pattern, rounds, n_pages
):
    total, ppn = shape
    trace = PATTERNS[pattern](rounds, n_pages, 16, 500, n_procs=total)
    context = f"{pattern}/{collective}/{protocol}/{total}p{ppn}ppn"
    result, vlog = run_verified(trace, _config(total, ppn, collective, protocol))
    assert_oracle_clean(result, context)
    check_barrier_invariants(vlog.records, total, collective, context)


@given(
    shape=st.sampled_from(((4, 1), (6, 2), (8, 4))),
    collective=st.sampled_from(COLLECTIVES),
    pattern=st.sampled_from(sorted(PATTERNS)),
    faults=fault_point_strategy,
)
@settings(max_examples=25, deadline=None)
def test_collective_release_contract_under_faults(
    shape, collective, pattern, faults
):
    total, ppn = shape
    trace = PATTERNS[pattern](2, 3, 16, 500, n_procs=total)
    context = f"{pattern}/{collective}/faults/{total}p{ppn}ppn"
    result, vlog = run_verified(
        trace, _config(total, ppn, collective, faults=faults)
    )
    assert_oracle_clean(result, context)
    check_barrier_invariants(vlog.records, total, collective, context)


@given(
    shape=st.sampled_from(SHAPES),
    protocol=st.sampled_from(["hlrc", "aurc"]),
    pattern=st.sampled_from(sorted(PATTERNS)),
    rounds=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_topologies_preserve_version_history(shape, protocol, pattern, rounds):
    """Collectives change timing, never ordering: every topology's
    per-page version sets equal the zero-cost ideal model's."""
    total, ppn = shape
    trace = PATTERNS[pattern](rounds, 3, 16, 500, n_procs=total)
    ideal = ideal_interval_sets(trace)
    for collective in COLLECTIVES:
        context = f"{pattern}/{collective}/{protocol}/{total}p{ppn}ppn"
        result, vlog = run_verified(
            trace, _config(total, ppn, collective, protocol)
        )
        assert_oracle_clean(result, context)
        assert interval_sets_from_log(vlog.records) == ideal, context


def test_hop_counts_match_message_complexity():
    """4 nodes, one episode: dissemination sends n*log2(n)=8 hops, the
    binomial tree 2(n-1)=6, flat uses the legacy path (no hop counter)."""
    expected = {"flat": 0, "tree": 6, "dissemination": 8}
    for collective, hops in expected.items():
        result, _ = run_verified(
            _single_barrier_trace(4), _config(4, 1, collective)
        )
        assert result.counters.extra.get("collective_hops", 0) == hops, collective


def test_dissemination_phase_attribution():
    """Inter-stage hop waits belong to the barrier phase: the episode's
    phase mark fires only when the last representative completes, so
    every epoch of a profiled run shows its barrier_wait cost and the
    marks cover each episode exactly once."""
    from repro.core import run_simulation

    trace = PATTERNS["producer_consumer"](2, 2, 16, 500, n_procs=4)
    result = run_simulation(trace, _config(4, 1, "dissemination"), probe=Probe())
    n_episodes = 4  # producer_consumer: two barriers per round, 2 rounds
    barrier_marks = [
        label for _, label, _ in result.phase_marks if label.startswith("barrier.")
    ]
    assert barrier_marks == [
        "barrier.0.0", "barrier.1.0", "barrier.2.0", "barrier.3.0"
    ]
    assert result.counters.extra["collective_hops"] == 8 * n_episodes
    phases = result.phase_breakdown()
    assert phases, "profiled run produced no phase records"
    for phase in phases:
        assert abs(sum(phase["fractions"].values()) - 1.0) < 1e-9
        if str(phase["label"]).startswith("barrier."):
            assert phase["cycles"]["barrier_wait"] > 0, phase["label"]
