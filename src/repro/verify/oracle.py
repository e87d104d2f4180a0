"""Happens-before reference checker for the LRC protocol event stream.

:func:`check_log` replays the protocol events of a run's
:class:`~repro.verify.events.Probe` against an independent model of
home-based lazy release consistency.  The model is deliberately
primitive — shadow clocks are plain ``list[int]``, write notices are
plain lists of page tuples — and shares no code with
:mod:`repro.protocol.timestamps`, so a bug in the protocol's vector-clock
or interval-log machinery corrupts the *subject*, never the *referee*.

Invariants checked
------------------

``stale-read``
    A read of a cached non-home page must not be able to observe a write
    that happens-before it (a covered writer interval newer than the
    cached copy) — the copy should have been invalidated first.
``read-invalid``
    A read of a non-home page completed with no copy on the node (the
    protocol claimed a valid hit the model says was invalidated).
``missing-invalidation`` / ``spurious-invalidation``
    At a clock apply, every resident non-home page with a write notice in
    the clock delta must be invalidated, and nothing outside the delta
    may be.
``diff-double-apply`` / ``diff-lost`` / ``diff-mismatch``
    Diffs sent and diffs applied must match as a multiset keyed by
    (source node, home node, entries): each send applied exactly once.
``twin-double-create`` / ``twin-missing-drop`` / ``twin-leak``
    A twin is created at most once per (node, page) between flushes and
    discarded exactly once.
``vc-regression`` / ``vc-mismatch``
    A proc's own interval numbers advance by exactly one per flush, and
    the clock snapshots the protocol reports must equal the shadow model.
``stale-lock-timestamp``
    A lock grant must carry exactly the clock snapshot of the latest
    release of that lock (None only before the first release).
``barrier-mismatch`` / ``barrier-regression`` / ``barrier-missing``
    All participants of a barrier episode must observe the same merged
    clock; it must dominate each participant's pre-barrier clock and not
    exceed any proc's logged interval count; every episode must release
    exactly ``n_procs`` participants.
``collective-early-release`` / ``collective-release-count`` /
``collective-epoch-regression``
    The collective event stream (``EV_BARRIER_ARRIVE`` /
    ``EV_BARRIER_RELEASE``, emitted by every topology): no processor is
    released from an episode before all ``n_procs`` arrivals were
    recorded; each arriving processor is released exactly once; a
    processor's episode numbers per barrier id advance by exactly one
    per visit.

Soundness notes (why concurrent interleavings cannot produce false
positives) are spelled out in ``docs/verification.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.verify.events import (
    EV_ACQUIRE,
    EV_APPLY,
    EV_BARRIER,
    EV_BARRIER_ARRIVE,
    EV_BARRIER_RELEASE,
    EV_DIFF_APPLY,
    EV_DIFF_SEND,
    EV_FETCH,
    EV_INTERVAL,
    EV_READ,
    EV_RELEASE,
    EV_TWIN,
    EV_TWIN_DROP,
    EV_WRITE,
    TraceRecord,
)

#: default cap on recorded violations — a badly broken protocol (or an
#: injected mutant) floods every later event; the first few are the story.
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class ConsistencyViolation:
    """One broken invariant, with enough context to point at the culprit."""

    kind: str
    message: str
    time: int = 0
    event_index: int = -1
    page: Optional[int] = None
    procs: Tuple[int, ...] = ()
    epochs: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "time": self.time,
            "event_index": self.event_index,
            "page": self.page,
            "procs": list(self.procs),
            "epochs": list(self.epochs),
        }

    def __str__(self) -> str:
        where = f"@{self.time}" if self.time else "@end"
        extra = []
        if self.page is not None:
            extra.append(f"page={self.page}")
        if self.procs:
            extra.append(f"procs={list(self.procs)}")
        if self.epochs:
            extra.append(f"epochs={list(self.epochs)}")
        tail = f" [{', '.join(extra)}]" if extra else ""
        return f"{self.kind} {where}: {self.message}{tail}"


class _Checker:
    """Single pass over the event stream; accumulates violations."""

    def __init__(
        self,
        n_procs: int,
        procs_per_node: int,
        homes: Dict[int, int],
        max_violations: int,
    ) -> None:
        self.n_procs = n_procs
        self.ppn = procs_per_node
        self.homes = dict(homes)
        self.max_violations = max_violations
        self.violations: List[ConsistencyViolation] = []
        # shadow model --------------------------------------------------
        #: per-proc shadow vector clock (plain lists; never protocol code)
        self.shadow: List[List[int]] = [[0] * n_procs for _ in range(n_procs)]
        #: notices[p][k] = pages dirtied in p's interval k+1
        self.notices: List[List[Tuple[int, ...]]] = [[] for _ in range(n_procs)]
        #: per-page ordered writer history: (proc, interval) in log order
        self.writers: Dict[int, List[Tuple[int, int]]] = {}
        #: (node, page) -> index into writers[page] the copy is current to
        self.copy_prefix: Dict[Tuple[int, int], int] = {}
        #: live twins per (node, page)
        self.twins: Set[Tuple[int, int]] = set()
        #: (src_node, home_node, entries) -> outstanding send count
        self.diffs_outstanding: Dict[Tuple[int, int, Tuple], int] = {}
        #: lock_id -> (snapshot, event_index) of the latest release
        self.last_release: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        #: (proc, barrier_id) -> completed visit count (mirrors BarrierManager)
        self.visits: Dict[Tuple[int, int], int] = {}
        #: (barrier_id, visit) -> {"merged": snap, "procs": set, "index": int}
        self.episodes: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: (barrier_id, epoch) -> {"arrivals": set, "releases": {proc: n}}
        #: from the collective arrive/release event stream
        self.coll: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: (proc, barrier_id) -> next expected collective epoch number
        self.arrive_epochs: Dict[Tuple[int, int], int] = {}

    # -- helpers ----------------------------------------------------------
    def _flag(self, kind: str, message: str, rec: Optional[TraceRecord], index: int,
              page: Optional[int] = None, procs: Sequence[int] = (),
              epochs: Sequence[int] = ()) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(
            ConsistencyViolation(
                kind=kind,
                message=message,
                time=rec.time if rec is not None else 0,
                event_index=index,
                page=page,
                procs=tuple(procs),
                epochs=tuple(epochs),
            )
        )

    def _node_of(self, proc: int) -> int:
        return proc // self.ppn

    def _home(self, page: int) -> Optional[int]:
        return self.homes.get(page)

    def _delta_pages(self, old: Sequence[int], new: Sequence[int]) -> Set[int]:
        """Pages with write notices in intervals covered by new but not old."""
        pages: Set[int] = set()
        for p in range(self.n_procs):
            lo, hi = old[p], min(new[p], len(self.notices[p]))
            for k in range(lo, hi):
                pages.update(self.notices[p][k])
        return pages

    # -- event handlers ----------------------------------------------------
    def on_fetch(self, rec: TraceRecord, i: int) -> None:
        proc, node, page, home = rec.detail
        # The flush that produced any applied diff completes before its
        # interval event, so len(writers) at fetch time is a sound lower
        # bound on what the fetched master copy contains.
        self.copy_prefix[(node, page)] = len(self.writers.get(page, ()))

    def on_read(self, rec: TraceRecord, i: int) -> None:
        proc, node, page, home = rec.detail
        if home == node:
            return
        key = (node, page)
        prefix = self.copy_prefix.get(key)
        if prefix is None:
            self._flag(
                "read-invalid",
                f"proc {proc} read page {page} on node {node} but the model "
                "says the node holds no copy (it was invalidated or never "
                "fetched)",
                rec, i, page=page, procs=(proc,),
            )
            return
        hist = self.writers.get(page, ())
        clock = self.shadow[proc]
        for j in range(prefix, len(hist)):
            w_proc, w_int = hist[j]
            if self._node_of(w_proc) == node:
                # node-mates share the physical copy (SMP node): their
                # writes are visible locally without a new fetch.
                continue
            if clock[w_proc] >= w_int:
                self._flag(
                    "stale-read",
                    f"proc {proc} read page {page} from a copy current to "
                    f"writer-index {prefix} but proc {w_proc}'s interval "
                    f"{w_int} (index {j}) happens-before the read",
                    rec, i, page=page, procs=(proc, w_proc), epochs=(w_int,),
                )
                return

    def on_write(self, rec: TraceRecord, i: int) -> None:
        # Writes enter the model via interval events (write notices);
        # nothing to check here — the event exists for artifact context.
        return

    def on_twin(self, rec: TraceRecord, i: int) -> None:
        node, page = rec.detail
        key = (node, page)
        if key in self.twins:
            self._flag(
                "twin-double-create",
                f"node {node} created a second twin for page {page} without "
                "discarding the first",
                rec, i, page=page,
            )
        self.twins.add(key)

    def on_twin_drop(self, rec: TraceRecord, i: int) -> None:
        node, page = rec.detail
        key = (node, page)
        if key not in self.twins:
            self._flag(
                "twin-missing-drop",
                f"node {node} discarded a twin for page {page} that the "
                "model never saw created",
                rec, i, page=page,
            )
        self.twins.discard(key)

    def on_diff_send(self, rec: TraceRecord, i: int) -> None:
        proc, src_node, home_node, entries = rec.detail
        for page, _words in entries:
            if self._home(page) is not None and self._home(page) != home_node:
                self._flag(
                    "diff-mismatch",
                    f"proc {proc} sent a diff for page {page} to node "
                    f"{home_node} but the page's home is {self._home(page)}",
                    rec, i, page=page, procs=(proc,),
                )
        key = (src_node, home_node, tuple(entries))
        self.diffs_outstanding[key] = self.diffs_outstanding.get(key, 0) + 1

    def on_diff_apply(self, rec: TraceRecord, i: int) -> None:
        home_node, src_node, entries = rec.detail
        key = (src_node, home_node, tuple(entries))
        outstanding = self.diffs_outstanding.get(key, 0)
        if outstanding <= 0:
            self._flag(
                "diff-double-apply",
                f"node {home_node} applied a diff from node {src_node} "
                f"({len(entries)} page(s), first="
                f"{entries[0][0] if entries else '-'}) that was never sent "
                "or was already applied",
                rec, i,
                page=entries[0][0] if entries else None,
            )
            return
        self.diffs_outstanding[key] = outstanding - 1

    def on_interval(self, rec: TraceRecord, i: int) -> None:
        proc, interval_no, pages, snapshot = rec.detail
        expected = len(self.notices[proc]) + 1
        if interval_no != expected:
            self._flag(
                "vc-regression",
                f"proc {proc} closed interval {interval_no} but the model "
                f"expected interval {expected} (own clock component did not "
                "advance by exactly one)",
                rec, i, procs=(proc,), epochs=(interval_no, expected),
            )
        self.notices[proc].append(tuple(pages))
        clock = self.shadow[proc]
        clock[proc] = len(self.notices[proc])
        for page in pages:
            self.writers.setdefault(page, []).append((proc, len(self.notices[proc])))
            # The writer's own node copy now reflects its write.
            node = self._node_of(proc)
            if (node, page) in self.copy_prefix:
                self.copy_prefix[(node, page)] = len(self.writers[page])
        if tuple(clock) != tuple(snapshot):
            self._flag(
                "vc-mismatch",
                f"proc {proc}'s clock after interval {interval_no} is "
                f"{tuple(snapshot)} but the shadow model says {tuple(clock)}",
                rec, i, procs=(proc,), epochs=(interval_no,),
            )
            # Trust the protocol's value from here on to avoid cascades.
            self.shadow[proc] = list(snapshot)

    def on_acquire(self, rec: TraceRecord, i: int) -> None:
        proc, node, lock_id, incoming = rec.detail
        last = self.last_release.get(lock_id)
        if last is None:
            if incoming is not None:
                self._flag(
                    "stale-lock-timestamp",
                    f"proc {proc} acquired lock {lock_id} with snapshot "
                    f"{tuple(incoming)} before any release of that lock",
                    rec, i, procs=(proc,),
                )
            return
        snap, rel_index = last
        if incoming is None or tuple(incoming) != tuple(snap):
            self._flag(
                "stale-lock-timestamp",
                f"proc {proc} acquired lock {lock_id} with snapshot "
                f"{None if incoming is None else tuple(incoming)} but the "
                f"latest release (event {rel_index}) shipped {tuple(snap)}",
                rec, i, procs=(proc,),
            )

    def on_release(self, rec: TraceRecord, i: int) -> None:
        proc, lock_id, snapshot = rec.detail
        self.last_release[lock_id] = (tuple(snapshot), i)

    def on_barrier(self, rec: TraceRecord, i: int) -> None:
        proc, node, barrier_id, merged = rec.detail
        visit = self.visits.get((proc, barrier_id), 0)
        self.visits[(proc, barrier_id)] = visit + 1
        ep_key = (barrier_id, visit)
        merged_t = None if merged is None else tuple(merged)
        if merged_t is None:
            self._flag(
                "barrier-mismatch",
                f"proc {proc} left barrier {barrier_id} (episode {visit}) "
                "with no merged clock",
                rec, i, procs=(proc,), epochs=(visit,),
            )
            return
        ep = self.episodes.get(ep_key)
        if ep is None:
            ep = {"merged": merged_t, "procs": set(), "index": i}
            self.episodes[ep_key] = ep
        elif ep["merged"] != merged_t:
            self._flag(
                "barrier-mismatch",
                f"proc {proc} left barrier {barrier_id} (episode {visit}) "
                f"with merged clock {merged_t} but an earlier participant "
                f"(event {ep['index']}) saw {ep['merged']}",
                rec, i, procs=(proc,), epochs=(visit,),
            )
        ep["procs"].add(proc)
        pre = self.shadow[proc]
        if any(merged_t[p] < pre[p] for p in range(self.n_procs)):
            self._flag(
                "barrier-regression",
                f"barrier {barrier_id} (episode {visit}) released proc "
                f"{proc} with merged clock {merged_t} that does not dominate "
                f"its pre-barrier clock {tuple(pre)}",
                rec, i, procs=(proc,), epochs=(visit,),
            )
        for p in range(self.n_procs):
            if merged_t[p] > len(self.notices[p]):
                self._flag(
                    "barrier-mismatch",
                    f"barrier {barrier_id} (episode {visit}) merged clock "
                    f"claims proc {p} reached interval {merged_t[p]} but "
                    f"only {len(self.notices[p])} intervals were logged",
                    rec, i, procs=(proc, p), epochs=(visit,),
                )

    def on_barrier_arrive(self, rec: TraceRecord, i: int) -> None:
        proc, node, barrier_id, epoch, topology = rec.detail
        expected = self.arrive_epochs.get((proc, barrier_id), 0)
        if epoch != expected:
            self._flag(
                "collective-epoch-regression",
                f"proc {proc} arrived at barrier {barrier_id} episode "
                f"{epoch} but its previous arrivals imply episode {expected}",
                rec, i, procs=(proc,), epochs=(epoch, expected),
            )
        self.arrive_epochs[(proc, barrier_id)] = epoch + 1
        ep = self.coll.setdefault(
            (barrier_id, epoch), {"arrivals": set(), "releases": {}}
        )
        ep["arrivals"].add(proc)

    def on_barrier_release(self, rec: TraceRecord, i: int) -> None:
        proc, node, barrier_id, epoch, topology = rec.detail
        ep = self.coll.get((barrier_id, epoch))
        if ep is None or proc not in ep["arrivals"]:
            self._flag(
                "collective-release-count",
                f"{topology} barrier {barrier_id} episode {epoch} released "
                f"proc {proc} which never arrived at that episode",
                rec, i, procs=(proc,), epochs=(epoch,),
            )
            return
        if len(ep["arrivals"]) < self.n_procs:
            self._flag(
                "collective-early-release",
                f"{topology} barrier {barrier_id} episode {epoch} released "
                f"proc {proc} after only {len(ep['arrivals'])} of "
                f"{self.n_procs} arrivals",
                rec, i, procs=(proc,), epochs=(epoch,),
            )
        releases = ep["releases"]
        releases[proc] = releases.get(proc, 0) + 1
        if releases[proc] > 1:
            self._flag(
                "collective-release-count",
                f"{topology} barrier {barrier_id} episode {epoch} released "
                f"proc {proc} {releases[proc]} times",
                rec, i, procs=(proc,), epochs=(epoch,),
            )

    def on_apply(self, rec: TraceRecord, i: int) -> None:
        proc, node, incoming, post, invalidated = rec.detail
        clock = self.shadow[proc]
        incoming_t = tuple(incoming)
        delta = self._delta_pages(clock, incoming_t)
        # Advance the shadow clock: component-wise max.
        merged = [max(a, b) for a, b in zip(clock, incoming_t)]
        self.shadow[proc] = merged
        if tuple(post) != tuple(merged):
            self._flag(
                "vc-mismatch",
                f"proc {proc}'s clock after applying {incoming_t} is "
                f"{tuple(post)} but the shadow model says {tuple(merged)}",
                rec, i, procs=(proc,),
            )
            self.shadow[proc] = list(post)
        invalidated_set = set(invalidated)
        for page in invalidated_set:
            if page not in delta:
                self._flag(
                    "spurious-invalidation",
                    f"proc {proc} (node {node}) invalidated page {page} "
                    "which has no write notice in the applied clock delta",
                    rec, i, page=page, procs=(proc,),
                )
            if self._home(page) == node:
                self._flag(
                    "spurious-invalidation",
                    f"node {node} invalidated page {page} it is home for",
                    rec, i, page=page, procs=(proc,),
                )
            self.copy_prefix.pop((node, page), None)
            self.twins.discard((node, page))
        for page in delta:
            if self._home(page) == node:
                continue
            if page in invalidated_set:
                continue
            if (node, page) in self.copy_prefix:
                self._flag(
                    "missing-invalidation",
                    f"proc {proc} (node {node}) applied a clock delta "
                    f"carrying a write notice for resident page {page} but "
                    "did not invalidate it",
                    rec, i, page=page, procs=(proc,),
                )
                # Mirror what a correct protocol would have done so one
                # miss does not cascade into stale-read noise downstream.
                self.copy_prefix.pop((node, page), None)

    # -- end-of-run checks -------------------------------------------------
    def finish(self, n_events: int) -> None:
        for (src, dst, entries), count in sorted(self.diffs_outstanding.items()):
            if count > 0:
                self._flag(
                    "diff-lost",
                    f"{count} diff(s) from node {src} to node {dst} "
                    f"({len(entries)} page(s), first="
                    f"{entries[0][0] if entries else '-'}) were sent but "
                    "never applied",
                    None, n_events,
                    page=entries[0][0] if entries else None,
                )
        for (barrier_id, visit), ep in sorted(self.episodes.items()):
            if len(ep["procs"]) != self.n_procs:
                self._flag(
                    "barrier-missing",
                    f"barrier {barrier_id} (episode {visit}) released "
                    f"{len(ep['procs'])} of {self.n_procs} procs",
                    None, n_events,
                    procs=tuple(sorted(ep["procs"])), epochs=(visit,),
                )
        for (barrier_id, epoch), ep in sorted(self.coll.items()):
            unreleased = [
                p for p in sorted(ep["arrivals"]) if ep["releases"].get(p, 0) != 1
            ]
            if unreleased:
                self._flag(
                    "collective-release-count",
                    f"barrier {barrier_id} episode {epoch}: procs "
                    f"{unreleased} arrived but were not released exactly "
                    "once",
                    None, n_events,
                    procs=tuple(unreleased), epochs=(epoch,),
                )
        for node, page in sorted(self.twins):
            self._flag(
                "twin-leak",
                f"node {node} still holds a twin for page {page} at end of "
                "run (created but never discarded at a flush)",
                None, n_events, page=page,
            )


_HANDLERS = {
    EV_READ: _Checker.on_read,
    EV_FETCH: _Checker.on_fetch,
    EV_WRITE: _Checker.on_write,
    EV_TWIN: _Checker.on_twin,
    EV_TWIN_DROP: _Checker.on_twin_drop,
    EV_DIFF_SEND: _Checker.on_diff_send,
    EV_DIFF_APPLY: _Checker.on_diff_apply,
    EV_INTERVAL: _Checker.on_interval,
    EV_ACQUIRE: _Checker.on_acquire,
    EV_RELEASE: _Checker.on_release,
    EV_BARRIER: _Checker.on_barrier,
    EV_APPLY: _Checker.on_apply,
    EV_BARRIER_ARRIVE: _Checker.on_barrier_arrive,
    EV_BARRIER_RELEASE: _Checker.on_barrier_release,
}


def check_log(
    records: Sequence[TraceRecord],
    *,
    n_procs: int,
    procs_per_node: int,
    homes: Dict[int, int],
    max_violations: int = MAX_VIOLATIONS,
) -> List[ConsistencyViolation]:
    """Replay a verify-event stream and return every violated invariant.

    ``homes`` maps page number -> home node id (the directory's final
    assignment; homes are assigned once and never move).  An empty return
    value means every checked invariant held.
    """
    checker = _Checker(n_procs, procs_per_node, homes, max_violations)
    for i, rec in enumerate(records):
        handler = _HANDLERS.get(rec.kind)
        if handler is not None:
            handler(checker, rec, i)
        if len(checker.violations) >= max_violations:
            break
    checker.finish(len(records))
    return checker.violations
