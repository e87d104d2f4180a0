"""Communication microbenchmarks — the simulated cluster's LogP-style card.

Measures the raw costs applications are built from, directly against the
substrate (no application workload):

* **null RPC round trip** — a 64-byte request, empty reply: the cost of
  one remote protocol operation (remote lock acquire floor);
* **page fetch** — request + page-sized reply: the cost of one remote
  read fault;
* **page fetch under interrupt cost / bandwidth** — how the two headline
  parameters move the same operation;
* **streaming bandwidth** — back-to-back page-sized deposits, measuring
  the achieved node-to-node throughput against the configured I/O-bus
  limit.

These numbers calibrate the simulator against the paper's cost model:
e.g. at the achievable set a 4 KB page fetch should cost roughly the
page's I/O-bus crossing (~8.3K cycles) plus a null interrupt plus
handler and messaging overheads.
"""

from __future__ import annotations

from typing import List

from repro.arch.params import INTERRUPT_COST_SWEEP, IO_BANDWIDTH_SWEEP
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results
from repro.protocol.base import REQUEST_HEADER_BYTES


def _measure_fetch(config: ClusterConfig, payload_pages: int = 1) -> int:
    """Cycles for one remote page fetch on an otherwise idle cluster."""
    cluster = Cluster(config)
    done: List[int] = []

    def client():
        cpu = cluster.procs[0]
        page_at_node1 = 10**6  # untouched; first_touch assigns to toucher
        cluster.directory.assign_home(page_at_node1, 1)
        for _ in range(payload_pages):
            yield from cluster.protocol.read(cpu, page_at_node1)
        done.append(cluster.sim.now)

    cluster.sim.spawn(client())
    cluster.sim.run()
    return done[0]


def _measure_null_rpc(config: ClusterConfig) -> int:
    cluster = Cluster(config)
    done: List[int] = []

    # a null service: handler base cost then an empty reply
    def handler_body(cpu, msg):
        yield cluster.sim.timeout(config.arch.handler_base_cycles)
        yield from cluster.msg.send_reply(cpu, msg, 16)

    node1 = cluster.nodes[1]
    node1.nic.on_request = lambda msg: node1.dispatch_request(
        lambda cpu: handler_body(cpu, msg), name="null_rpc"
    )

    def client():
        cpu = cluster.procs[0]
        yield from cluster.msg.rpc(cpu, 0, 1, "null", REQUEST_HEADER_BYTES)
        done.append(cluster.sim.now)

    cluster.sim.spawn(client())
    cluster.sim.run()
    return done[0]


def _measure_stream_bandwidth(config: ClusterConfig, n_pages: int = 64) -> float:
    """Achieved bytes/cycle streaming page-sized deposits node 0 -> 1."""
    cluster = Cluster(config)
    done: List[int] = []
    page = config.comm.page_size

    def sender():
        cpu = cluster.procs[0]
        deposits = []
        for _ in range(n_pages):
            ev = yield from cluster.msg.send_data(cpu, 0, 1, page)
            deposits.append(ev)
        from repro.sim.primitives import AllOf

        yield AllOf(cluster.sim, deposits)
        done.append(cluster.sim.now)

    cluster.sim.spawn(sender())
    cluster.sim.run()
    return n_pages * page / done[0]


def grid(scale: float, apps: Apps) -> Grid:
    """Microbenchmarks have no workload: they read no simulation point."""
    return []


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    """Measures an idle cluster directly; the arguments are unused."""
    base = ClusterConfig()
    rows = []
    data = {}

    null_rpc = _measure_null_rpc(base)
    fetch = _measure_fetch(base)
    stream = _measure_stream_bandwidth(base)
    rows.append(["null RPC (achievable)", null_rpc, "cycles"])
    rows.append(["page fetch (achievable)", fetch, "cycles"])
    rows.append(
        ["stream bandwidth (achievable)", round(stream, 3), "bytes/cycle"]
    )
    data["null_rpc"] = null_rpc
    data["page_fetch"] = fetch
    data["stream_bytes_per_cycle"] = stream

    fetch_vs_intr = {}
    for cost in INTERRUPT_COST_SWEEP:
        t = _measure_fetch(base.with_comm(interrupt_cost=cost))
        fetch_vs_intr[cost] = t
        rows.append([f"page fetch @intr={cost}/side", t, "cycles"])
    data["fetch_vs_interrupt"] = fetch_vs_intr

    fetch_vs_bw = {}
    for bw in IO_BANDWIDTH_SWEEP:
        t = _measure_fetch(base.with_comm(io_bus_mb_per_mhz=bw))
        fetch_vs_bw[bw] = t
        rows.append([f"page fetch @bw={bw} MB/MHz", t, "cycles"])
    data["fetch_vs_bandwidth"] = fetch_vs_bw

    return ExperimentOutput(
        experiment_id="microbench",
        title="Communication microbenchmarks (idle cluster)",
        headers=["operation", "value", "unit"],
        rows=rows,
        data=data,
        notes=(
            "Calibration: fetch latency grows by exactly 2x the per-side "
            "interrupt cost across the interrupt sweep, and by the page's "
            "bottleneck-stage crossing time across the bandwidth sweep; "
            "streaming throughput approaches the configured I/O-bus limit."
        ),
    )
