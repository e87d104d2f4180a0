"""Lazy-release-consistency timestamp machinery.

LRC divides each processor's execution into *intervals* delimited by
release operations.  Vector clocks order intervals; *write notices* record
which pages were modified in each interval.  At an acquire, the acquirer
learns (via the lock grant or barrier release) the releaser's vector
clock, and must invalidate every page with a write notice in an interval
it has not yet seen.

The classes here are pure data structures — no simulation time — which
makes them easy to property-test: :class:`VectorClock` forms a join
semilattice under :meth:`VectorClock.merge`, and
:meth:`IntervalLog.notices_between` is monotone in its clock arguments.
"""

from __future__ import annotations

from operator import ge
from typing import Iterable, List, Sequence, Set, Tuple


class VectorClock:
    """A fixed-width vector clock over processor indices."""

    __slots__ = ("v",)

    def __init__(self, n_procs: int, values: Sequence[int] | None = None) -> None:
        if values is not None:
            if len(values) != n_procs:
                raise ValueError("values length mismatch")
            if min(values, default=0) < 0:
                raise ValueError("negative clock component")
            self.v = list(values)
        else:
            self.v = [0] * n_procs

    # -- basic ops --------------------------------------------------------
    def increment(self, proc: int) -> int:
        """Advance ``proc``'s component; returns the new interval number."""
        self.v[proc] += 1
        return self.v[proc]

    def merge(self, other: "VectorClock") -> None:
        """In-place join (component-wise max)."""
        if len(other.v) != len(self.v):
            raise ValueError("clock width mismatch")
        self.v = list(map(max, self.v, other.v))

    def copy(self) -> "VectorClock":
        return VectorClock(len(self.v), self.v)

    def snapshot(self) -> Tuple[int, ...]:
        """Immutable value for shipping inside messages."""
        return tuple(self.v)

    @classmethod
    def from_snapshot(cls, snap: Sequence[int]) -> "VectorClock":
        if min(snap, default=0) < 0:
            raise ValueError("negative clock component")
        clock = cls.__new__(cls)
        clock.v = list(snap)
        return clock

    # -- ordering ---------------------------------------------------------
    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other component-wise (self has seen other)."""
        return all(map(ge, self.v, other.v))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.v == other.v

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(self.v))

    def __getitem__(self, proc: int) -> int:
        return self.v[proc]

    def __len__(self) -> int:
        return len(self.v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VC{self.v}"


class IntervalLog:
    """Global record of every processor's intervals and their dirty pages.

    The simulated protocol ships only clocks and (size-accounted) write
    notices over the wire; the log itself is the simulator's omniscient
    bookkeeping used to resolve *which* pages a clock delta refers to.
    ``intervals[p][k]`` holds the pages dirtied in processor ``p``'s
    interval ``k+1`` (interval numbers are 1-based, matching
    :meth:`VectorClock.increment`).
    """

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs
        self.intervals: List[List[Tuple[int, ...]]] = [[] for _ in range(n_procs)]
        #: per-proc prefix sums of notice counts: ``_count_prefix[p][k]``
        #: is the total number of write notices in intervals 1..k, so a
        #: clock-delta count is two lookups instead of a scan
        self._count_prefix: List[List[int]] = [[0] for _ in range(n_procs)]

    def append(self, proc: int, pages: Iterable[int]) -> int:
        """Record a new interval for ``proc``; returns its number."""
        pages_t = tuple(pages)
        self.intervals[proc].append(pages_t)
        prefix = self._count_prefix[proc]
        prefix.append(prefix[-1] + len(pages_t))
        return len(self.intervals[proc])

    def interval_count(self, proc: int) -> int:
        return len(self.intervals[proc])

    def pages_of(self, proc: int, interval: int) -> Tuple[int, ...]:
        """Pages dirtied in ``proc``'s 1-based ``interval``."""
        return self.intervals[proc][interval - 1]

    def notices_between(
        self,
        old: VectorClock,
        new: VectorClock,
    ) -> Set[int]:
        """Pages with write notices in intervals covered by ``new`` but not
        by ``old`` — exactly what an acquirer must invalidate."""
        pages: Set[int] = set()
        update = pages.update
        for lo, hi, log in zip(old.v, new.v, self.intervals):
            if hi > lo:
                if hi > len(log):
                    hi = len(log)
                update(*log[lo:hi])
        return pages

    def notice_count_between(self, old: VectorClock, new: VectorClock) -> int:
        """Number of write notices in the delta (sizes the grant message)."""
        count = 0
        for lo, hi, prefix in zip(old.v, new.v, self._count_prefix):
            last = len(prefix) - 1
            if hi > last:
                hi = last
            if hi > lo:
                count += prefix[hi] - prefix[lo]
        return count

    def unseen_notice_count(self, clocks: Iterable[VectorClock]) -> int:
        """Sum over ``clocks`` of the write notices each has not seen —
        :meth:`notice_count_between` against a clock covering the whole
        log, for every clock at once.  Each clock must lie within the log
        (``clock[q] <= interval_count(q)``), as every protocol clock does."""
        prefixes = self._count_prefix
        total = sum([prefix[-1] for prefix in prefixes])
        unseen = 0
        for clock in clocks:
            unseen += total - sum(map(list.__getitem__, prefixes, clock.v))
        return unseen


#: wire size of one write notice (page number + interval id)
WRITE_NOTICE_BYTES = 8


def notices_wire_bytes(n_notices: int) -> int:
    """Bytes a batch of write notices occupies in a grant/release message."""
    return n_notices * WRITE_NOTICE_BYTES
