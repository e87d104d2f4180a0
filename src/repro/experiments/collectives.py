"""Barrier-collective topology sweep (flat vs tree vs dissemination).

The paper's hierarchical barrier gathers every node representative at a
single master — fine at 4 nodes, a bottleneck as clustering drops and
node count grows.  Following the Barchet-Estefanel & Mounié intra-cluster
collectives results (PAPERS.md), this driver sweeps the inter-node
topology against the Figure 13 clustering axis (16 processors total, so
1 processor per node means 16 nodes): flat pays ``2(n-1)`` messages over
2 serial hops, the binomial tree pays the same messages over
``2·ceil(log2 n)`` pipelined hops, and dissemination pays
``n·ceil(log2 n)`` messages over only ``ceil(log2 n)`` hops with no
root.  Reported per cell: speedup and the barrier-wait share of total
time (from the phase-attribution layer, which counts inter-stage hops as
barrier time).
"""

from __future__ import annotations

from repro.arch.params import PROCS_PER_NODE_SWEEP
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid
from repro.protocol.collectives import COLLECTIVES

#: barrier-heavy defaults: enough epochs for topology to matter, small
#: enough that the full topology x clustering grid stays CI-sized
DEFAULT_APPS = ("fft", "radix")


def _config(coll: str, ppn: int) -> ClusterConfig:
    return ClusterConfig(collective=coll).with_comm(procs_per_node=ppn)


def grid(scale: float, apps: Apps) -> Grid:
    configs = [_config(c, ppn) for c in COLLECTIVES for ppn in PROCS_PER_NODE_SWEEP]
    return product_grid(pick_apps(apps, DEFAULT_APPS), scale, configs)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    labels = [f"{ppn}/node" for ppn in PROCS_PER_NODE_SWEEP]
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_APPS):
        per_app = {}
        for coll in COLLECTIVES:
            cells = []
            for ppn in PROCS_PER_NODE_SWEEP:
                r = results[name, scale, _config(coll, ppn)]
                wait = r.breakdown_fractions().get("barrier_wait", 0.0)
                cells.append({"speedup": r.speedup, "barrier_wait": wait})
            per_app[coll] = dict(zip(labels, cells))
            rows.append(
                [name, coll]
                + [
                    f"{c['speedup']:.2f} ({c['barrier_wait'] * 100:.0f}%)"
                    for c in cells
                ]
            )
        data[name] = per_app
    return ExperimentOutput(
        experiment_id="collectives",
        title="Speedup (barrier-wait %) vs collective topology and clustering",
        headers=["application", "collective"] + labels,
        rows=rows,
        data=data,
        notes=(
            "16 processors total; fewer processors per node means more nodes "
            "in the inter-node collective.  Flat is the paper's barrier (and "
            "the golden-pinned default); tree and dissemination trade "
            "messages for serial hops, which pays off as node count grows."
        ),
    )
