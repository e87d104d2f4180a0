"""Trace execution: drive an :class:`~repro.apps.base.AppTrace` through a
simulated cluster and collect a :class:`~repro.core.metrics.RunResult`.

This is the main user-facing entry point::

    result = run_simulation(get_app("fft", scale=0.25), ClusterConfig())
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional

from repro.apps.base import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    READ,
    RELEASE,
    TOUCH,
    WRITE,
    AppTrace,
)
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.metrics import BUSY_CATEGORIES, RunResult
from repro.core.stats import reduce_profile
from repro.verify.events import EV_PHASE, ORACLE_KINDS, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.processor import Processor


def _worker(cluster: Cluster, cpu: "Processor", events: List) -> object:
    """The application thread of one processor."""
    proto = cluster.protocol
    read_immediate = proto.read_immediate
    read_fault = proto.read_fault
    write_immediate = proto.write_immediate
    for ev in events:
        kind = ev[0]
        if kind == COMPUTE:
            yield from cpu.run_block(ev[1], ev[2], ev[3])
        elif kind == READ:
            # Most accesses hit a valid copy and cost no simulated time;
            # the immediate forms skip the generator trampoline for them.
            if not read_immediate(cpu, ev[1]):
                yield from read_fault(cpu, ev[1])
        elif kind == WRITE:
            runs = ev[3] if len(ev) > 3 else 1
            if not write_immediate(cpu, ev[1], ev[2], runs):
                yield from proto.write(cpu, ev[1], ev[2], runs)
        elif kind == ACQUIRE:
            yield from proto.acquire(cpu, ev[1])
        elif kind == RELEASE:
            yield from proto.release(cpu, ev[1])
        elif kind == BARRIER:
            yield from proto.barrier(cpu, ev[1])
        elif kind == TOUCH:
            proto.first_touch_now(cpu, ev[1])
        else:
            raise ValueError(f"unknown trace event kind {kind!r}")
    cpu.finish_time = cluster.sim.now


def _harvest_resource_busy(cluster: Cluster) -> dict:
    """Per-resource busy cycles in one end-of-run walk.

    The fluid-queue servers (buses, NI cores, receive gates) track busy
    cycles unconditionally, and processor stats already split time by
    category — so resource occupancy costs the DES hot loop nothing and
    is populated on *every* run, profiled or not.
    """
    busy = {}
    link_bpc = cluster.network.bytes_per_cycle
    for node in cluster.nodes:
        busy[node.membus.name] = node.membus.queue.busy_cycles
        for iobus in node.iobuses:
            busy[iobus.name] = iobus.queue.busy_cycles
        for nic in getattr(node.nic, "nics", [node.nic]):
            busy[nic.core.name] = nic.core.busy_cycles
            busy[nic.rx_gate.name] = nic.rx_gate.busy_cycles
        # outgoing-link serialization time of this node's wire traffic
        busy[f"link{node.node_id}"] = int(node.nic.wire_bytes_sent / link_bpc)
    for cpu in cluster.procs:
        busy[f"cpu.{cpu.name}"] = sum(cpu.stats.time[cat] for cat in BUSY_CATEGORIES)
    return busy


def run_simulation(
    app: AppTrace,
    config: Optional[ClusterConfig] = None,
    probe: Optional[Probe] = None,
) -> RunResult:
    """Simulate ``app`` on a cluster built from ``config``.

    Parameters
    ----------
    app:
        The workload trace (its ``n_procs`` must equal the config's
        ``total_procs``).
    config:
        Cluster configuration; defaults to the achievable set.
    probe:
        Optional :class:`~repro.verify.events.Probe` for a profiled run:
        every instrumented component appends its events to it, and
        :func:`~repro.core.stats.reduce_profile` folds them into the
        result's per-message-type counts, queue-depth samples, handler
        hotspots and per-barrier-epoch phase marks.  Recording is
        passive, so profiling never changes the simulated outcome.
        Callers that cache results should leave this ``None`` (the
        cache key does not cover profiling state).

    When ``config.verify`` is set (and no probe is given, one is made),
    the happens-before oracle replays the probe's protocol events after
    the run; violations land on ``RunResult.violations`` and in
    ``RunResult.meta``, and a replayable artifact is written under
    ``results/violations/``.  Verification is passive too, and a run
    the caller did not probe carries empty profile fields.
    """
    if config is None:
        config = ClusterConfig()
    if app.n_procs != config.total_procs:
        raise ValueError(
            f"trace built for {app.n_procs} processors but config has "
            f"{config.total_procs}"
        )
    cluster = Cluster(config, probe=probe)
    for proc_id, events in enumerate(app.events):
        cluster.sim.spawn(
            _worker(cluster, cluster.procs[proc_id], events), name=f"app.p{proc_id}"
        )
    cluster.sim.run()

    unfinished = [c.name for c in cluster.procs if c.finish_time is None]
    if unfinished:
        # The engine watchdog normally catches this first (with the
        # blocked process names); this is the belt-and-braces fallback.
        raise RuntimeError(f"deadlock: processors never finished: {unfinished}")

    total = max(c.finish_time for c in cluster.procs)
    meta = {
        "network_messages": float(cluster.network.messages_carried),
        "network_bytes": float(cluster.network.bytes_carried),
        "sim_events": float(cluster.sim.dispatched),
        "interrupts": float(
            sum(node.irq.interrupts_raised for node in cluster.nodes)
        ),
    }
    injector = cluster.fault_injector
    if injector is not None:
        # Reliability accounting (only present when faults are enabled,
        # so fault-free results stay bit-identical to the seed model).
        meta.update({k: float(v) for k, v in injector.stats().items()})
        meta["retransmits"] = float(cluster.msg.retransmits)
        meta["retransmitted_bytes"] = float(cluster.msg.retransmitted_bytes)
        meta["duplicates_suppressed"] = float(
            sum(node.nic.duplicates_suppressed for node in cluster.nodes)
        )
        meta["messages_lost"] = float(
            sum(node.nic.messages_dropped for node in cluster.nodes)
        )
    phase_marks: List = []
    metrics_counters: dict = {}
    metrics_cycles: dict = {}
    queue_stats: dict = {}
    if probe is not None:
        # close the last epoch so phase deltas cover the whole run
        probe.record(total, EV_PHASE, ("run_end", cluster.ctx.aggregate_time()))
        metrics_counters, metrics_cycles, queue_stats, phase_marks = reduce_profile(
            probe.records
        )
    violations: List = []
    if config.verify:
        from repro.verify import check_log
        from repro.verify.artifacts import dump_violation_artifact, replay_command

        assert cluster.probe is not None  # Cluster makes one for a verified run
        records = [rec for rec in cluster.probe.records if rec.kind in ORACLE_KINDS]
        if cluster.probe is not probe:
            # Nothing else reads the probe made for the oracle: free its
            # records now, not when the cyclic collector reaches the
            # cluster (that wait cost verified runs time and memory).
            cluster.probe.records.clear()
        violations = check_log(
            records,
            n_procs=config.total_procs,
            procs_per_node=config.comm.procs_per_node,
            homes=cluster.directory.homes(),
        )
        meta["verify.events"] = float(len(records))
        meta["verify.violations"] = float(len(violations))
        if violations:
            path = dump_violation_artifact(app, config, violations, records)
            if path is not None:
                print(
                    f"repro.verify: {len(violations)} violation(s); "
                    f"replay with: {replay_command(path)}",
                    file=sys.stderr,
                )
    return RunResult(
        app_name=app.name,
        problem=app.problem,
        config=config,
        total_cycles=total,
        serial_cycles=app.serial_cycles,
        proc_stats=[c.stats for c in cluster.procs],
        counters=cluster.protocol.counters,
        uncontended_busy_max=app.max_busy_cycles,
        meta=meta,
        resource_busy=_harvest_resource_busy(cluster),
        phase_marks=phase_marks,
        metrics_counters=metrics_counters,
        metrics_cycles=metrics_cycles,
        queue_stats=queue_stats,
        violations=violations,
    )
