"""Unit and property tests for twin/diff machinery and its cost model.

The simulator charges diffs by the cost model alone; the functional diff
below (twin vs current page over numpy arrays) is the reference for the
invariant that makes diff-based propagation sound.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.arch import ArchParams
from repro.protocol import (
    diff_apply_cost,
    diff_create_cost,
    diff_wire_bytes,
    page_words,
    twin_cost,
)


@dataclass(frozen=True)
class Diff:
    """Changed words of a page: positions and new values."""

    indices: np.ndarray  # int32 word offsets within the page
    values: np.ndarray  # uint32 new word values

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")

    @property
    def word_count(self) -> int:
        return int(len(self.indices))

    def wire_bytes(self, word_bytes: int = 4) -> int:
        """Bytes on the wire: per-word (offset, value) pairs."""
        return self.word_count * (4 + word_bytes)


def compute_diff(twin: np.ndarray, current: np.ndarray) -> Diff:
    """Word-compare ``current`` against ``twin`` and extract the changes."""
    if twin.shape != current.shape:
        raise ValueError("twin and current page differ in size")
    changed = np.flatnonzero(twin != current)
    return Diff(indices=changed.astype(np.int32), values=current[changed].copy())


def apply_diff(base: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` to ``base`` in place (the home's master copy)."""
    if diff.word_count and int(diff.indices.max()) >= len(base):
        raise ValueError("diff index beyond page bounds")
    base[diff.indices] = diff.values


def test_compute_diff_finds_changes():
    twin = np.zeros(16, dtype=np.uint32)
    cur = twin.copy()
    cur[3] = 7
    cur[10] = 9
    diff = compute_diff(twin, cur)
    assert list(diff.indices) == [3, 10]
    assert list(diff.values) == [7, 9]
    assert diff.word_count == 2


def test_empty_diff_for_identical_pages():
    twin = np.arange(32, dtype=np.uint32)
    diff = compute_diff(twin, twin.copy())
    assert diff.word_count == 0
    assert diff.wire_bytes() == 0


def test_apply_diff_updates_home_copy():
    twin = np.zeros(8, dtype=np.uint32)
    cur = twin.copy()
    cur[[1, 5]] = [11, 55]
    diff = compute_diff(twin, cur)
    home = np.zeros(8, dtype=np.uint32)
    apply_diff(home, diff)
    assert np.array_equal(home, cur)


def test_apply_diff_bounds_check():
    twin = np.zeros(8, dtype=np.uint32)
    cur = twin.copy()
    cur[7] = 1
    diff = compute_diff(twin, cur)
    small = np.zeros(4, dtype=np.uint32)
    with pytest.raises(ValueError):
        apply_diff(small, diff)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_diff(np.zeros(4, dtype=np.uint32), np.zeros(8, dtype=np.uint32))


@given(
    base=arrays(np.uint32, 64, elements=st.integers(0, 2**32 - 1)),
    cur=arrays(np.uint32, 64, elements=st.integers(0, 2**32 - 1)),
)
def test_diff_round_trip_property(base, cur):
    """Invariant: applying the diff to a copy of the twin reproduces the
    current page exactly — the soundness of diff-based propagation."""
    diff = compute_diff(base, cur)
    home = base.copy()
    apply_diff(home, diff)
    assert np.array_equal(home, cur)
    # diff is minimal: it contains exactly the differing words
    assert diff.word_count == int(np.count_nonzero(base != cur))


# --------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------- #
@pytest.fixture
def arch():
    return ArchParams()


def test_page_words(arch):
    assert page_words(arch, 4096) == 1024


def test_twin_cost_scales_with_page_size(arch):
    assert twin_cost(arch, 8192) == 2 * twin_cost(arch, 4096)
    assert twin_cost(arch, 4096) == 1024 * arch.twin_copy_cycles_per_word


def test_diff_create_cost_has_compare_floor(arch):
    """Even a one-word diff pays the full-page comparison."""
    floor = page_words(arch, 4096) * arch.diff_compare_cycles_per_word
    assert diff_create_cost(arch, 4096, 0) == floor
    assert diff_create_cost(arch, 4096, 1) == floor + arch.diff_include_cycles_per_word


def test_diff_create_cost_monotone_in_words(arch):
    costs = [diff_create_cost(arch, 4096, w) for w in (0, 10, 100, 1024, 5000)]
    assert costs == sorted(costs)
    # included words are clamped to the page
    assert diff_create_cost(arch, 4096, 5000) == diff_create_cost(arch, 4096, 1024)


def test_diff_apply_cost(arch):
    assert diff_apply_cost(arch, 10) == 10 * arch.diff_include_cycles_per_word


def test_diff_wire_bytes(arch):
    assert diff_wire_bytes(arch, 0) == 16
    assert diff_wire_bytes(arch, 10) == 16 + 10 * (4 + arch.word_bytes)
