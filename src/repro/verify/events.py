"""Verify-event vocabulary and the log the protocols emit into.

Each event is a :class:`TraceRecord` whose ``kind`` is one of the
``EV_*`` constants below and whose ``detail`` tuple follows the schema
documented next to each constant.  Emission sites live in
:mod:`repro.protocol.hlrc` / :mod:`repro.protocol.aurc` behind a single
``ctx.verify is not None`` attribute check — the exact pattern used by
:mod:`repro.core.stats` — so disabled runs pay one pointer compare per
protocol operation and enabled runs stay bit-identical in simulated time
(events are pure list appends; no simulation yields).

Ordering guarantees the oracle relies on (all enforced by emission-site
placement, not by timestamps):

* ``EV_FETCH`` is recorded before the fetch's coalesced waiters can record
  their ``EV_READ``.
* ``EV_DIFF_SEND`` is recorded before the home's ``EV_DIFF_APPLY``.
* ``EV_INTERVAL`` is recorded only after every diff of that flush has been
  applied at its home (the flush RPCs complete first).
* ``EV_APPLY`` is recorded at the instant invalidations take effect —
  before the post-invalidation busy time is charged — so a node-mate
  refetching the page cannot be reordered ahead of the invalidation.
"""

from typing import Any, List, NamedTuple

#: (proc, node, page, home) — a completed read of a *non-home* page.
EV_READ = "read"
#: (proc, node, page, home) — a page copy arrived (fault service or free fetch).
EV_FETCH = "fetch"
#: (proc, node, page, home, words) — a write landed in the dirty set.
EV_WRITE = "write"
#: (node, page) — a twin was created for a non-home page.
EV_TWIN = "twin"
#: (node, page) — a twin was discarded at flush.
EV_TWIN_DROP = "twin_drop"
#: (proc, src_node, home_node, entries) — a diff left for its home;
#: ``entries`` is a tuple of (page, words).
EV_DIFF_SEND = "diff_send"
#: (home_node, src_node, entries) — a diff was applied to the home copy.
EV_DIFF_APPLY = "diff_apply"
#: (proc, interval_no, pages, snapshot) — a flush closed an interval and
#: logged its write notices; ``snapshot`` is the proc's clock afterwards.
EV_INTERVAL = "interval"
#: (proc, node, lock_id, incoming) — a lock grant arrived; ``incoming`` is
#: the releaser's clock snapshot carried by the grant (None before the
#: first release).
EV_ACQUIRE = "acquire"
#: (proc, lock_id, snapshot) — a release shipped ``snapshot`` to the lock.
EV_RELEASE = "release"
#: (proc, node, barrier_id, merged) — a barrier released this proc with the
#: episode's merged clock.
EV_BARRIER = "barrier"
#: (proc, node, incoming, post, invalidated) — an incoming clock was merged
#: and ``invalidated`` resident pages were dropped.
EV_APPLY = "apply"
#: (proc, node, barrier_id, epoch, topology) — a processor arrived at a
#: barrier episode (before the intra-node leg).
EV_BARRIER_ARRIVE = "barrier_arrive"
#: (proc, node, barrier_id, epoch, topology) — a processor left a barrier
#: episode (after the collective released it).
EV_BARRIER_RELEASE = "barrier_release"

ALL_KINDS = (
    EV_READ,
    EV_FETCH,
    EV_WRITE,
    EV_TWIN,
    EV_TWIN_DROP,
    EV_DIFF_SEND,
    EV_DIFF_APPLY,
    EV_INTERVAL,
    EV_ACQUIRE,
    EV_RELEASE,
    EV_BARRIER,
    EV_APPLY,
    EV_BARRIER_ARRIVE,
    EV_BARRIER_RELEASE,
)


class TraceRecord(NamedTuple):
    """One protocol event: when it happened, its ``EV_*`` kind, its detail."""

    time: int
    kind: str
    detail: Any


class VerifyLog:
    """The ordered, unbounded list of protocol events the oracle replays."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def record(self, time: int, kind: str, detail: Any) -> None:
        self.records.append(TraceRecord(time, kind, detail))
