"""Unit and property tests for vector clocks and interval logs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocol import IntervalLog, VectorClock, notices_wire_bytes


def test_vector_clock_starts_at_zero():
    vc = VectorClock(4)
    assert vc.snapshot() == (0, 0, 0, 0)


def test_increment_returns_interval_number():
    vc = VectorClock(2)
    assert vc.increment(0) == 1
    assert vc.increment(0) == 2
    assert vc.snapshot() == (2, 0)


def test_merge_is_componentwise_max():
    a = VectorClock(3, [1, 5, 2])
    b = VectorClock(3, [4, 0, 2])
    a.merge(b)
    assert a.snapshot() == (4, 5, 2)


def test_dominates():
    a = VectorClock(2, [2, 3])
    b = VectorClock(2, [1, 3])
    assert a.dominates(b)
    assert not b.dominates(a)
    assert a.dominates(a.copy())


def test_snapshot_round_trip():
    a = VectorClock(3, [1, 2, 3])
    b = VectorClock.from_snapshot(a.snapshot())
    assert a == b
    b.increment(0)
    assert a != b  # snapshot decoupled


def test_clock_validation():
    with pytest.raises(ValueError):
        VectorClock(2, [1])
    with pytest.raises(ValueError):
        VectorClock(2, [1, -1])
    with pytest.raises(ValueError):
        VectorClock(2).merge(VectorClock(3))
    with pytest.raises(ValueError, match="negative"):
        VectorClock.from_snapshot((0, -1))


vc_lists = st.lists(st.integers(0, 20), min_size=3, max_size=3)


@given(a=vc_lists, b=vc_lists, c=vc_lists)
def test_merge_semilattice_properties(a, b, c):
    """merge is commutative, associative, idempotent; result dominates both."""

    def merged(x, y):
        vx = VectorClock(3, x)
        vx.merge(VectorClock(3, y))
        return vx.snapshot()

    assert merged(a, b) == merged(b, a)
    assert merged(list(merged(a, b)), c) == merged(a, list(merged(b, c)))
    assert merged(a, a) == tuple(a)
    m = VectorClock(3, list(merged(a, b)))
    assert m.dominates(VectorClock(3, a))
    assert m.dominates(VectorClock(3, b))


# --------------------------------------------------------------------- #
# IntervalLog
# --------------------------------------------------------------------- #
def test_interval_log_append_and_lookup():
    log = IntervalLog(2)
    assert log.append(0, [10, 11]) == 1
    assert log.append(0, [12]) == 2
    assert log.pages_of(0, 1) == (10, 11)
    assert log.pages_of(0, 2) == (12,)
    assert log.interval_count(0) == 2
    assert log.interval_count(1) == 0


def test_notices_between_simple():
    log = IntervalLog(2)
    log.append(0, [1, 2])
    log.append(0, [3])
    log.append(1, [4])
    old = VectorClock(2, [0, 0])
    new = VectorClock(2, [2, 1])
    assert log.notices_between(old, new) == {1, 2, 3, 4}
    # partial coverage
    assert log.notices_between(VectorClock(2, [1, 0]), new) == {3, 4}
    # already seen everything
    assert log.notices_between(new, new) == set()


def test_notices_between_clamps_to_log_length():
    log = IntervalLog(1)
    log.append(0, [7])
    # clock claims 5 intervals but the log only has 1
    assert log.notices_between(VectorClock(1, [0]), VectorClock(1, [5])) == {7}


def test_notice_count_between():
    log = IntervalLog(2)
    log.append(0, [1, 2, 3])
    log.append(1, [4])
    old = VectorClock(2)
    new = VectorClock(2, [1, 1])
    assert log.notice_count_between(old, new) == 4
    assert notices_wire_bytes(4) == 32


@given(
    intervals=st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.integers(0, 50), max_size=5)),
        max_size=30,
    ),
    cut=st.integers(0, 30),
)
def test_notices_between_monotone(intervals, cut):
    """Property: widening the clock window never loses notices, and the
    full window equals the union of all logged pages."""
    log = IntervalLog(3)
    for proc, pages in intervals:
        log.append(proc, pages)
    full = VectorClock(3, [log.interval_count(p) for p in range(3)])
    zero = VectorClock(3)
    all_pages = log.notices_between(zero, full)
    expected = set()
    for proc, pages in intervals:
        expected.update(pages)
    assert all_pages == expected

    # a mid clock yields a subset
    mid = VectorClock(3, [min(cut, log.interval_count(p)) for p in range(3)])
    some = log.notices_between(zero, mid)
    assert some <= all_pages
    rest = log.notices_between(mid, full)
    assert some | rest == all_pages


@given(
    intervals=st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.integers(0, 50), max_size=5)),
        max_size=30,
    ),
    cuts=st.lists(st.lists(st.integers(0, 30), min_size=3, max_size=3), max_size=4),
)
def test_unseen_notice_count_sums_deltas_to_the_full_log(intervals, cuts):
    """Property: one call equals each clock's notice count against the
    clock that covers the whole log, summed."""
    log = IntervalLog(3)
    for proc, pages in intervals:
        log.append(proc, pages)
    full = VectorClock(3, [log.interval_count(p) for p in range(3)])
    clocks = [
        VectorClock(3, [min(c, log.interval_count(p)) for p, c in enumerate(cut)])
        for cut in cuts
    ]
    expected = sum(log.notice_count_between(clock, full) for clock in clocks)
    assert log.unseen_notice_count(clocks) == expected
