"""Unit and property tests for the page directory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.osys import PageDirectory, pages_in_range


def test_page_of_basic():
    d = PageDirectory(page_size=4096, n_nodes=4, policy="round_robin")
    assert d.page_of(0) == 0
    assert d.page_of(4095) == 0
    assert d.page_of(4096) == 1
    assert d.page_of(10 * 4096 + 17) == 10


def test_pages_in_range():
    assert pages_in_range(0, 4096, 4096) == (0,)
    assert pages_in_range(0, 4097, 4096) == (0, 1)
    assert pages_in_range(4000, 200, 4096) == (0, 1)
    assert pages_in_range(8192, 0, 4096) == ()


def test_pages_in_range_validation():
    with pytest.raises(ValueError):
        pages_in_range(0, -1, 4096)
    with pytest.raises(ValueError):
        pages_in_range(0, 10, 1000)  # non power of two


def test_first_touch_assignment_sticks():
    d = PageDirectory(page_size=4096, n_nodes=4)
    assert d.home(7, toucher_node=2) == 2
    # later touches by other nodes do not move the home
    assert d.home(7, toucher_node=3) == 2


def test_first_touch_requires_toucher():
    d = PageDirectory(page_size=4096, n_nodes=4)
    with pytest.raises(ValueError):
        d.home(7)


def test_round_robin_spreads_pages():
    d = PageDirectory(page_size=4096, n_nodes=4, policy="round_robin")
    homes = [d.home(p) for p in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_block_policy_contiguous():
    d = PageDirectory(page_size=4096, n_nodes=4, policy="block", total_pages_hint=8)
    homes = [d.home(p) for p in range(8)]
    assert homes == [0, 0, 1, 1, 2, 2, 3, 3]


def test_explicit_assignment_and_conflict():
    d = PageDirectory(page_size=4096, n_nodes=4)
    d.assign_home(5, 3)
    assert d.home(5, toucher_node=0) == 3
    with pytest.raises(ValueError):
        d.assign_home(5, 1)
    d.assign_home(5, 3)  # idempotent re-assignment is fine


def test_homes_snapshot_has_no_side_effect():
    d = PageDirectory(page_size=4096, n_nodes=4, policy="round_robin")
    assert d.homes() == {}
    assert d.assigned_pages == 0
    d.home(3)
    snapshot = d.homes()
    assert snapshot == {3: 3}
    snapshot[5] = 0  # a copy: mutating it assigns nothing
    assert d.assigned_pages == 1


def test_directory_validation():
    with pytest.raises(ValueError):
        PageDirectory(page_size=1000, n_nodes=2)
    with pytest.raises(ValueError):
        PageDirectory(page_size=4096, n_nodes=0)
    with pytest.raises(ValueError):
        PageDirectory(page_size=4096, n_nodes=2, policy="nope")


@given(
    start=st.integers(0, 1 << 30),
    nbytes=st.integers(1, 1 << 20),
    shift=st.integers(9, 14),
)
def test_pages_in_range_covers_exactly(start, nbytes, shift):
    """Property: the returned pages tile the byte range exactly."""
    page_size = 1 << shift
    pages = pages_in_range(start, nbytes, page_size)
    assert pages[0] == start // page_size
    assert pages[-1] == (start + nbytes - 1) // page_size
    assert list(pages) == list(range(pages[0], pages[-1] + 1))


@given(addrs=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=50))
def test_home_assignment_deterministic_and_stable(addrs):
    """Property: repeated home() calls agree; round-robin equals page % n."""
    d = PageDirectory(page_size=4096, n_nodes=3, policy="round_robin")
    for addr in addrs:
        page = d.page_of(addr)
        assert d.home(page) == page % 3
        assert d.home(page) == d.home(page)
