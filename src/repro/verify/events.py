"""The probe: one ordered event log every instrumented component appends to.

A :class:`Probe` is a list of :class:`TraceRecord` ``(time, kind,
detail)``.  Each instrumented site (a bus, an NI, a processor's handler
bracket, a protocol engine) holds one ``probe`` attribute that is
``None`` by default and makes one call when it is set::

    if probe is not None:
        probe.record(now, EV_BUS, (name, kind, nbytes, free_at))

Recording is a list append: no event is scheduled and no simulated time
passes, so a probed run is bit-identical to a plain one.  After the run
two readers consume the records: the happens-before oracle
(:func:`repro.verify.check_log`) replays the :data:`ORACLE_KINDS`, and
:func:`repro.core.stats.reduce_profile` folds the profile kinds into the
counters, cycle accumulators, queue-depth statistics and phase marks of
a profiled :class:`~repro.core.metrics.RunResult`.

This module imports nothing from the simulator, so every layer can
import its kinds.  Each ``EV_*`` constant below documents its
``detail`` tuple.

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

# ---------------------------------------------------------------------- #
# oracle kinds: the protocol events the happens-before oracle replays
# ---------------------------------------------------------------------- #
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

#: the kinds the oracle replays (every other kind is a profile event)
ORACLE_KINDS = frozenset(
    (
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
)

# ---------------------------------------------------------------------- #
# profile kinds: resource traffic, handler time and barrier phases
# ---------------------------------------------------------------------- #
# A ``free_at`` is the cycle a queue drains at, as read at the record's
# time: its backlog then is ``max(0, free_at - time)``.
#: (bus_name, bus_class, nbytes, free_at) — a memory-bus transfer, the
#: queue read before its reservation.
EV_BUS = "bus"
#: (iobus_name, nbytes, free_at) — an I/O-bus DMA, read likewise.
EV_DMA = "dma"
#: (wire, then a name and a free_at for each of the sender's memory and
#: I/O buses and the receiver's I/O and memory buses) — an NI reserved a
#: message's whole path; each queue is read before any reservation.
EV_NI_SEND = "ni_send"
#: (node, msg_kind, wire, iobus_name, iobus_backlog_bytes) — an NI finished
#: sending a message (``msg_kind`` is a :class:`~repro.net.message.MessageKind`).
EV_NI_SENT = "ni_sent"
#: (node, msg_kind, rx_gate_free_at) — an NI dispatched an arrival.
EV_NI_RECV = "ni_recv"
#: (msg_kind, wire) — the fabric delivered a message.
EV_LINK = "link"
#: (busy_key, cpu_name) — a handler entered on a CPU; ``busy_key`` names
#: the node-level union interval (sibling CPUs' handlers count once).
EV_HANDLER_ENTER = "handler_enter"
#: busy_key — a handler left its CPU.
EV_HANDLER_EXIT = "handler_exit"
#: (tag, cycles) — a request handler of ``tag`` ran for ``cycles``.
EV_HANDLER_TAG = "handler_tag"
#: (diffs, cycles) — a flush computed ``diffs`` diffs for one home.
EV_DIFF_CREATE = "diff_create"
#: cycles — an AURC release waited for its update traffic to drain.
EV_UPDATE_DRAIN = "update_drain"
#: (label, cumulative) — a barrier episode ended; ``cumulative`` is the
#: cluster-wide per-category cycle breakdown so far.
EV_PHASE = "phase"


class TraceRecord(NamedTuple):
    """One event: when it happened, its ``EV_*`` kind, its detail."""

    time: int
    kind: str
    detail: Any


#: builds a TraceRecord without the namedtuple's Python-level constructor
_new_record = tuple.__new__


class Probe:
    """The ordered, unbounded list of events one run records."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def record(self, time: int, kind: str, detail: Any) -> None:
        self.records.append(_new_record(TraceRecord, (time, kind, detail)))
