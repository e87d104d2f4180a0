"""Home-based Lazy Release Consistency (HLRC) — the paper's base protocol.

Each shared page has a *home* node holding the master copy.  The protocol
actions, and where their costs land:

=================  ====================================================
event              what happens
=================  ====================================================
read/write fault   trap + TLB (``protocol`` time on the faulting CPU);
                   one page fetch **per node** (SMP fetch coalescing):
                   RPC to the home — *interrupt* there, handler sends
                   the page back, requester blocks in ``data_wait``
first write        twin creation (page copy) on the writing CPU, unless
                   the page is home-local (no twin needed — the paper's
                   single-writer observation)
release            for every dirty non-home page: compute diff (word
                   compare + include costs), ship diffs to each home in
                   one batched RPC per home (interrupt + apply + ack);
                   then advance the vector clock and log write notices
acquire            token-based lock acquire (local or remote, see
                   :mod:`repro.protocol.locks`); the grant carries the
                   last releaser's clock — invalidate all pages with
                   unseen write notices (never pages homed locally)
barrier            flush (release semantics), hierarchical barrier,
                   then invalidate against the merged clock
=================  ====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.protocol.barriers import BarrierManager
from repro.protocol.base import (
    ACK_BYTES,
    GRANT_BASE_BYTES,
    REQUEST_HEADER_BYTES,
    TAG_DIFF_APPLY,
    TAG_LOCK_ACQUIRE,
    TAG_LOCK_RECALL,
    TAG_PAGE_FETCH,
    TAG_TOKEN_RETURN,
    NodeMemoryState,
    ProtocolContext,
    ProtocolCounters,
)
from repro.protocol.diffs import (
    diff_apply_cost,
    diff_create_cost,
    diff_wire_bytes,
    page_words,
    twin_cost,
)
from repro.protocol.locks import LockManager
from repro.protocol.timestamps import IntervalLog, VectorClock, notices_wire_bytes
from repro.sim.primitives import Event
from repro.verify.events import (
    EV_ACQUIRE,
    EV_APPLY,
    EV_BARRIER,
    EV_DIFF_APPLY,
    EV_DIFF_SEND,
    EV_FETCH,
    EV_INTERVAL,
    EV_READ,
    EV_RELEASE,
    EV_TWIN,
    EV_TWIN_DROP,
    EV_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.processor import Processor
    from repro.net.message import Message


class HLRCProtocol:
    """The all-software home-based LRC engine."""

    name = "hlrc"

    def __init__(self, ctx: ProtocolContext, counters: Optional[ProtocolCounters] = None):
        self.ctx = ctx
        self.counters = counters if counters is not None else ProtocolCounters()
        n = ctx.n_procs
        self.mem: Dict[int, NodeMemoryState] = {
            node.node_id: NodeMemoryState() for node in ctx.nodes
        }
        self.vc: List[VectorClock] = [VectorClock(n) for _ in range(n)]
        self.log = IntervalLog(n)
        #: per-processor dirty map: page -> words written this interval
        self.dirty: List[Dict[int, int]] = [dict() for _ in range(n)]
        #: words per page, the clamp on every dirty count (fixed for a run)
        self._page_words = page_words(ctx.arch, ctx.comm.page_size)
        self.locks = LockManager(ctx, self.counters, grant_size_fn=self._grant_bytes)
        self.barriers = BarrierManager(
            ctx,
            self.counters,
            merge_fn=self._merged_snapshot,
            notice_bytes_fn=self._barrier_notice_bytes,
        )
        #: request tag -> handler generator function
        self._handlers = {
            TAG_PAGE_FETCH: self._h_page_fetch,
            TAG_DIFF_APPLY: self._h_diff_apply,
            TAG_LOCK_ACQUIRE: self.locks.handle_acquire,
            TAG_LOCK_RECALL: self.locks.handle_recall,
            TAG_TOKEN_RETURN: self.locks.handle_token_return,
        }
        self.install()

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wire every node's NI request hook to this engine's dispatch."""
        for node in self.ctx.nodes:
            node.nic.on_request = self._make_on_request(node)
            node.nic.on_queue_overflow = node.irq.post_null_interrupt

    def _make_on_request(self, node):
        dispatch = getattr(node, "dispatch_request", None)
        if dispatch is None:
            # bare test nodes: fall back to plain interrupt delivery
            def on_request(msg: "Message") -> None:
                node.irq.post_interrupt(
                    lambda cpu: self._dispatch(cpu, msg), name=f"irq.{msg.tag}"
                )

        else:

            def on_request(msg: "Message") -> None:
                dispatch(lambda cpu: self._dispatch(cpu, msg), name=f"req.{msg.tag}")

        return on_request

    def _dispatch(self, cpu: "Processor", msg: "Message"):
        """The handler generator for ``msg``'s tag.

        Returns the handler itself, not a wrapper around it, so an
        interrupt handler runs one generator frame shallower.
        """
        handler = self._handlers.get(msg.tag)
        if handler is None:
            raise RuntimeError(f"unknown request tag {msg.tag!r}")
        if self.ctx.metrics is None:
            return handler(cpu, msg)
        return self._dispatch_metered(handler, cpu, msg)

    def _dispatch_metered(self, handler, cpu: "Processor", msg: "Message"):
        # Hotspot accounting: cycles and invocations per handler tag
        # (the profile CLI's "top-N protocol hotspots" table).
        metrics = self.ctx.metrics
        t0 = self.ctx.sim.now
        yield from handler(cpu, msg)
        metrics.bump(f"handler.{msg.tag}.count")
        metrics.add_cycles(f"handler.{msg.tag}", self.ctx.sim.now - t0)

    # ------------------------------------------------------------------ #
    # trace operations (run in the application process)
    # ------------------------------------------------------------------ #
    def first_touch_now(self, cpu: "Processor", page: int) -> None:
        """Initialization-time touch establishing first-touch placement.

        Touches never cost simulated time, so this is a plain call the
        executor can make without spinning up a generator.
        """
        self.ctx.directory.home(page, self.ctx.node_id_of_cpu(cpu))

    def first_touch(self, cpu: "Processor", page: int):
        """Generator form of :meth:`first_touch_now` (API uniformity)."""
        self.first_touch_now(cpu, page)
        return
        yield  # pragma: no cover — generator marker for API uniformity

    def read_immediate(self, cpu: "Processor", page: int) -> bool:
        """Complete a read that needs no simulated time; ``True`` if done.

        Home copies, already-valid copies, and attribution-mode free
        fetches involve no events, so the executor can skip the
        generator machinery entirely.  A ``False`` return leaves all
        protocol state untouched — the caller falls back to
        :meth:`read_fault`.
        """
        ctx = self.ctx
        # node_id_of_cpu and directory.home, inline for the common case
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes.get(page)
        if home is None:
            home = ctx.directory.home(page, node_id)
        if home == node_id:
            return True  # the home copy is always valid at the home
        mem = self.mem[node_id]
        vlog = ctx.verify
        if page in mem.valid:
            if vlog is not None:
                vlog.record(ctx.sim.now, EV_READ, (cpu.global_id, node_id, page, home))
            return True
        if ctx.free_page_fetches:
            # Section 7 attribution mode: faults appear local and free.
            mem.valid.add(page)
            if vlog is not None:
                vlog.record(ctx.sim.now, EV_FETCH, (cpu.global_id, node_id, page, home))
                vlog.record(ctx.sim.now, EV_READ, (cpu.global_id, node_id, page, home))
            return True
        return False

    def read(self, cpu: "Processor", page: int):
        """Shared read at page granularity; faults and fetches as needed."""
        if not self.read_immediate(cpu, page):
            yield from self.read_fault(cpu, page)

    def read_fault(self, cpu: "Processor", page: int):
        """The slow half of :meth:`read`, for a read :meth:`read_immediate`
        could not complete: page fault, then a fetch (or a wait on a
        node-mate's fetch in flight)."""
        ctx = self.ctx
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes.get(page)
        if home is None:
            home = ctx.directory.home(page, node_id)
        mem = self.mem[node_id]
        vlog = ctx.verify
        # --- page fault ---
        self.counters.page_faults += 1
        cpu_counters = cpu.stats.counters  # ProcessorStats.count, inline
        cpu_counters["page_faults"] = cpu_counters.get("page_faults", 0) + 1
        yield from cpu.busy(
            ctx.arch.tlb_kernel_cycles + ctx.arch.handler_base_cycles, "protocol"
        )
        inflight = mem.fetches.get(page)
        if inflight is not None:
            # another processor of this node already fetches it
            yield from cpu.wait_for(inflight, "data_wait")
            if vlog is not None:
                # The waiter shares the fetched copy: record fetch+read so
                # the oracle's copy tracking matches what it observed.
                vlog.record(ctx.sim.now, EV_FETCH, (cpu.global_id, node_id, page, home))
                vlog.record(ctx.sim.now, EV_READ, (cpu.global_id, node_id, page, home))
            return
        ev = Event(ctx.sim, name=f"fetch.p{page}")
        mem.fetches[page] = ev
        self.counters.page_fetches += 1
        cpu_counters["page_fetches"] = cpu_counters.get("page_fetches", 0) + 1
        if ctx.comm.is_rdma:
            # RDMA regime: the home's NI serves the page as a remote
            # read — no handler, no interrupt, no home host cycles.
            yield from ctx.msg.remote_read(
                cpu,
                node_id,
                home,
                TAG_PAGE_FETCH,
                REQUEST_HEADER_BYTES,
                ctx.comm.page_size,
                payload=page,
                wait_category="data_wait",
            )
            self.mem[home].faults_served += 1
        else:
            yield from ctx.msg.rpc(
                cpu,
                node_id,
                home,
                TAG_PAGE_FETCH,
                REQUEST_HEADER_BYTES,
                payload=page,
                wait_category="data_wait",
            )
        mem.valid.add(page)
        del mem.fetches[page]
        if vlog is not None:
            vlog.record(ctx.sim.now, EV_FETCH, (cpu.global_id, node_id, page, home))
            vlog.record(ctx.sim.now, EV_READ, (cpu.global_id, node_id, page, home))
        ev.succeed()

    def write_immediate(self, cpu: "Processor", page: int, words: int = 1, runs: int = 1) -> bool:
        """Complete a write that needs no simulated time; ``True`` if done.

        Immediate iff the read side is immediate and no twin must be
        created (home page, or twin already present this interval).  A
        ``False`` return leaves all protocol state untouched.
        """
        ctx = self.ctx
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes.get(page)
        if home is None:
            home = ctx.directory.home(page, node_id)
        if home != node_id and page not in self.mem[node_id].twins:
            return False  # twin creation costs simulated time
        if not self.read_immediate(cpu, page):
            return False
        pw = self._page_words
        if words > pw:
            words = pw
        d = self.dirty[cpu.global_id]
        cur = d.get(page, 0) + words
        d[page] = cur if cur < pw else pw
        if ctx.verify is not None:
            ctx.verify.record(
                ctx.sim.now, EV_WRITE, (cpu.global_id, node_id, page, home, words)
            )
        return True

    def write(self, cpu: "Processor", page: int, words: int = 1, runs: int = 1):
        """Shared write: fetch if needed, twin on first write, track dirt."""
        ctx = self.ctx
        if not self.read_immediate(cpu, page):
            yield from self.read_fault(cpu, page)  # write faults fetch too
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes[page]  # read_immediate assigned it
        words = min(words, self._page_words)
        if home != node_id:
            mem = self.mem[node_id]
            if page not in mem.twins:
                mem.twins.add(page)
                if ctx.verify is not None:
                    ctx.verify.record(ctx.sim.now, EV_TWIN, (node_id, page))
                yield from cpu.busy(twin_cost(ctx.arch, ctx.comm.page_size), "protocol")
        d = self.dirty[cpu.global_id]
        d[page] = min(self._page_words, d.get(page, 0) + words)
        if ctx.verify is not None:
            ctx.verify.record(
                ctx.sim.now, EV_WRITE, (cpu.global_id, node_id, page, home, words)
            )

    def acquire(self, cpu: "Processor", lock_id: int):
        snap = yield from self.locks.acquire(cpu, lock_id)
        ctx = self.ctx
        if ctx.verify is not None:
            ctx.verify.record(
                ctx.sim.now,
                EV_ACQUIRE,
                (
                    cpu.global_id,
                    ctx.node_id_of_cpu(cpu),
                    lock_id,
                    None if snap is None else tuple(snap),
                ),
            )
        yield from self._apply_incoming(cpu, snap)

    def release(self, cpu: "Processor", lock_id: int):
        yield from self.flush(cpu, category="lock_wait")
        snap = self.vc[cpu.global_id].snapshot()
        ctx = self.ctx
        if ctx.verify is not None:
            ctx.verify.record(ctx.sim.now, EV_RELEASE, (cpu.global_id, lock_id, snap))
        yield from self.locks.release(cpu, lock_id, snap)

    def barrier(self, cpu: "Processor", barrier_id: int):
        yield from self.flush(cpu, category="barrier_wait")
        merged = yield from self.barriers.barrier(cpu, barrier_id)
        ctx = self.ctx
        if ctx.verify is not None:
            ctx.verify.record(
                ctx.sim.now,
                EV_BARRIER,
                (
                    cpu.global_id,
                    ctx.node_id_of_cpu(cpu),
                    barrier_id,
                    None if merged is None else tuple(merged),
                ),
            )
        yield from self._apply_incoming(cpu, merged)

    # ------------------------------------------------------------------ #
    # release-side machinery
    # ------------------------------------------------------------------ #
    def flush(self, cpu: "Processor", category: str = "lock_wait"):
        """Propagate this processor's writes to the homes (diffs) and open
        a new interval with write notices."""
        ctx = self.ctx
        proc = cpu.global_id
        d = self.dirty[proc]
        if not d:
            return
        node_id = ctx.node_id_of(proc)
        pages = tuple(d)
        by_home: Dict[int, List[Tuple[int, int]]] = {}
        for page, words in d.items():
            home = ctx.directory.home(page, node_id)
            if home != node_id:
                by_home.setdefault(home, []).append((page, words))
        metrics = ctx.metrics
        vlog = ctx.verify
        for home, entries in sorted(by_home.items()):
            create = sum(
                diff_create_cost(ctx.arch, ctx.comm.page_size, w) for _, w in entries
            )
            if metrics is not None:
                metrics.bump("protocol.diff_create.count", len(entries))
                metrics.add_cycles("protocol.diff_create", create)
            yield from cpu.busy(create, "protocol")
            total_words = sum(w for _, w in entries)
            self.counters.bump("diffs_created", len(entries))
            self.counters.bump("diff_words", total_words)
            cpu.stats.count("diffs_created", len(entries))
            size = sum(diff_wire_bytes(ctx.arch, w) for _, w in entries)
            if vlog is not None:
                vlog.record(
                    ctx.sim.now,
                    EV_DIFF_SEND,
                    (proc, node_id, home, tuple((p, w) for p, w in entries)),
                )
            yield from ctx.msg.rpc(
                cpu,
                node_id,
                home,
                TAG_DIFF_APPLY,
                size,
                payload=[(p, w) for p, w in entries],
                wait_category=category,
            )
        # open a new interval carrying this flush's write notices
        self.vc[proc].increment(proc)
        self.log.append(proc, pages)
        if vlog is not None:
            vlog.record(
                ctx.sim.now,
                EV_INTERVAL,
                (proc, self.vc[proc][proc], pages, self.vc[proc].snapshot()),
            )
        self.counters.bump("write_notices", len(pages))
        mem = self.mem[node_id]
        for page in pages:
            if vlog is not None and page in mem.twins:
                vlog.record(ctx.sim.now, EV_TWIN_DROP, (node_id, page))
            mem.twins.discard(page)
        d.clear()

    def _apply_incoming(self, cpu: "Processor", snapshot: Optional[Tuple[int, ...]]):
        """Merge an incoming clock and invalidate unseen-notice pages."""
        if not snapshot:
            return
        ctx = self.ctx
        proc = cpu.global_id
        incoming = VectorClock.from_snapshot(snapshot)
        mine = self.vc[proc]
        if mine.dominates(incoming):
            return
        pages = self.log.notices_between(mine, incoming)
        mine.merge(incoming)
        node_id = ctx.node_id_of(proc)
        homes = ctx.directory._homes
        to_invalidate = [p for p in pages if homes.get(p) != node_id]
        if to_invalidate:
            self.mem[node_id].invalidate(to_invalidate)
        # Record at the instant invalidations take effect (before the busy
        # time is charged) so a node-mate's concurrent refetch cannot be
        # reordered ahead of the invalidation in the verify stream.
        if ctx.verify is not None:
            ctx.verify.record(
                ctx.sim.now,
                EV_APPLY,
                (proc, node_id, tuple(snapshot), mine.snapshot(), tuple(to_invalidate)),
            )
        if to_invalidate:
            yield from cpu.busy(
                len(to_invalidate) * ctx.arch.page_invalidate_cycles, "protocol"
            )

    # ------------------------------------------------------------------ #
    # interrupt handlers (home side)
    # ------------------------------------------------------------------ #
    def _h_page_fetch(self, cpu: "Processor", msg: "Message"):
        ctx = self.ctx
        yield ctx.arch.handler_base_cycles + ctx.arch.tlb_kernel_cycles
        node_id = ctx.node_id_of_cpu(cpu)
        self.mem[node_id].faults_served += 1
        yield from ctx.msg.send_reply(cpu, msg, ctx.comm.page_size)

    def _h_diff_apply(self, cpu: "Processor", msg: "Message"):
        ctx = self.ctx
        entries = msg.payload
        apply_cost = sum(diff_apply_cost(ctx.arch, w) for _, w in entries)
        yield ctx.arch.handler_base_cycles + apply_cost
        if ctx.verify is not None:
            self._emit_diff_apply(cpu, msg)
        yield from ctx.msg.send_reply(cpu, msg, ACK_BYTES)

    def _emit_diff_apply(self, cpu: "Processor", msg: "Message") -> None:
        """Record a diff landing on the home copy (verify runs only)."""
        ctx = self.ctx
        ctx.verify.record(
            ctx.sim.now,
            EV_DIFF_APPLY,
            (
                ctx.node_id_of_cpu(cpu),
                msg.src_node,
                tuple((p, w) for p, w in msg.payload),
            ),
        )

    # ------------------------------------------------------------------ #
    # consistency-payload sizing helpers
    # ------------------------------------------------------------------ #
    def _grant_bytes(self, req_proc: int, snapshot: Optional[Tuple[int, ...]]) -> int:
        if not snapshot:
            return GRANT_BASE_BYTES
        incoming = VectorClock.from_snapshot(snapshot)
        count = self.log.notice_count_between(self.vc[req_proc], incoming)
        return GRANT_BASE_BYTES + notices_wire_bytes(count)

    def _merged_snapshot(self) -> Tuple[int, ...]:
        # The join of every clock is its diagonal: component q advances
        # only through q's own increment (every other clock learns it
        # second-hand, from a snapshot of q's), so max_p vc[p][q] is
        # vc[q][q].  O(P) instead of P clock merges.
        return tuple([clock.v[p] for p, clock in enumerate(self.vc)])

    def _barrier_notice_bytes(self) -> int:
        # Average write notices a processor has not seen, against the
        # merged clock; the diagonal covers every logged interval, so
        # the log's own extent stands in for it (O(P) Python work).
        unseen = self.log.unseen_notice_count(self.vc)
        return notices_wire_bytes(unseen // max(1, len(self.vc)))
