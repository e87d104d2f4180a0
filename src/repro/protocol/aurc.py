"""Automatic Update Release Consistency (AURC).

AURC replaces HLRC's software diffs with *hardware write propagation*: a
snooping device on the memory bus forwards writes to shared, remotely
homed pages directly to the home node through the NI (SHRIMP-style
automatic update).  Consequences, all modelled here:

* **no twins, no diffs** — first writes are cheap, releases do no word
  comparison;
* **update traffic flows during computation** — every write run becomes
  wire traffic immediately (``send_data``: no host overhead, no interrupt
  at the home, deposited straight into the home's memory);
* **fine-grain packets** — updates that are apart in space or time do
  not coalesce, so a write event of ``runs`` disjoint runs emits at
  least ``runs`` packets.  This is why AURC is much more sensitive to NI
  occupancy than HLRC (paper Figure 11);
* **releases wait for outstanding updates to drain** (the home must be
  up to date before the lock can pass), then advance the clock and log
  write notices exactly as in HLRC;
* fetches, locks, barriers, and invalidations are inherited unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.protocol.hlrc import HLRCProtocol
from repro.sim.primitives import AllOf, Event
from repro.verify.events import EV_INTERVAL, EV_UPDATE_DRAIN, EV_WRITE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.processor import Processor


class AURCProtocol(HLRCProtocol):
    """HLRC with hardware automatic-update write propagation."""

    name = "aurc"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: per-processor outstanding update deposit events
        self._outstanding: List[List[Event]] = [[] for _ in range(self.ctx.n_procs)]

    # ------------------------------------------------------------------ #
    def write_immediate(self, cpu: "Processor", page: int, words: int = 1, runs: int = 1) -> bool:
        """AURC home-page writes raise no update traffic and cost nothing."""
        ctx = self.ctx
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes.get(page)
        if home is None:
            home = ctx.directory.home(page, node_id)
        if home != node_id:
            return False  # remote home: the automatic update must ship
        pw = self._page_words
        if words > pw:
            words = pw
        d = self.dirty[cpu.global_id]
        cur = d.get(page, 0) + words
        d[page] = cur if cur < pw else pw
        if ctx.probe is not None:
            ctx.probe.record(
                ctx.sim.now, EV_WRITE, (cpu.global_id, node_id, page, home, words)
            )
        return True

    def write(self, cpu: "Processor", page: int, words: int = 1, runs: int = 1):
        ctx = self.ctx
        if not self.read_immediate(cpu, page):
            yield from self.read_fault(cpu, page)  # write fault still fetches
        node = cpu.node
        node_id = ctx.node_id_of_cpu(cpu) if node is None else node.node_id
        home = ctx.directory._homes[page]  # read_immediate assigned it
        words = min(words, self._page_words)
        d = self.dirty[cpu.global_id]
        d[page] = min(self._page_words, d.get(page, 0) + words)
        if ctx.probe is not None:
            ctx.probe.record(
                ctx.sim.now, EV_WRITE, (cpu.global_id, node_id, page, home, words)
            )
        if home == node_id:
            return
        # hardware forwards the written words to the home as it happens
        self.counters.bump("updates_sent")
        self.counters.bump("update_words", words)
        cpu.stats.count("updates_sent")
        deposit = yield from ctx.msg.send_data(
            cpu,
            node_id,
            home,
            size_bytes=words * ctx.arch.word_bytes,
            min_packets=max(1, runs),
            tag="aurc_update",
        )
        pending = self._outstanding[cpu.global_id]
        pending.append(deposit)
        # bound bookkeeping: drop already-delivered updates
        if len(pending) > 64:
            self._outstanding[cpu.global_id] = [e for e in pending if not e.triggered]

    # ------------------------------------------------------------------ #
    def flush(self, cpu: "Processor", category: str = "lock_wait"):
        """AURC release: wait for update traffic to drain; no diffs."""
        ctx = self.ctx
        proc = cpu.global_id
        pending = [e for e in self._outstanding[proc] if not e.triggered]
        self._outstanding[proc] = []
        if pending:
            t0 = ctx.sim.now
            yield from cpu.wait_for(AllOf(ctx.sim, pending), category)
            if ctx.probe is not None:
                ctx.probe.record(ctx.sim.now, EV_UPDATE_DRAIN, ctx.sim.now - t0)
        d = self.dirty[proc]
        if not d:
            return
        pages = tuple(d)
        self.vc[proc].increment(proc)
        self.log.append(proc, pages)
        if ctx.probe is not None:
            ctx.probe.record(
                ctx.sim.now,
                EV_INTERVAL,
                (proc, self.vc[proc][proc], pages, self.vc[proc].snapshot()),
            )
        self.counters.bump("write_notices", len(pages))
        mem = self.mem[ctx.node_id_of(proc)]
        for page in pages:
            mem.twins.discard(page)
        d.clear()
