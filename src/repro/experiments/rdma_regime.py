"""RDMA regime study — the paper's question re-asked on modern networks.

The SC'97 grid varies host overhead, interrupt cost, NI occupancy and
bandwidth because the base system *has* those costs.  A user-level
RDMA-class network (PAPERS.md: "User-level DSM System for Modern
High-Performance Interconnection Networks") removes the host and
interrupt terms structurally: page fetches become remote reads served by
the home node's NI, sends post a descriptor in tens of cycles, and no
interrupts are ever raised.  This driver runs every application under
both regimes and reports how much of the baseline's host-overhead
sensitivity (the Figure 5 sweep) the RDMA regime makes moot.
"""

from __future__ import annotations

from repro.arch.params import HOST_OVERHEAD_SWEEP
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

WORST_OVERHEAD = HOST_OVERHEAD_SWEEP[-1]
#: baseline, baseline at the worst host overhead, and the RDMA regime
CONFIGS = (
    ClusterConfig(),
    ClusterConfig().with_comm(host_overhead=WORST_OVERHEAD),
    ClusterConfig().with_comm(comm_regime="rdma"),
)


def grid(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, CONFIGS)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        r_base, r_stress, r_rdma = (results[name, scale, cfg] for cfg in CONFIGS)
        gain = (r_rdma.speedup - r_base.speedup) / r_base.speedup
        rows.append(
            [
                name,
                round(r_base.ideal_speedup, 2),
                round(r_base.speedup, 2),
                round(r_stress.speedup, 2),
                round(r_rdma.speedup, 2),
                f"{gain * 100:+.1f}%",
            ]
        )
        data[name] = {
            "ideal": r_base.ideal_speedup,
            "baseline": r_base.speedup,
            f"baseline_o={WORST_OVERHEAD}": r_stress.speedup,
            "rdma": r_rdma.speedup,
            "rdma_gain": gain,
        }
    return ExperimentOutput(
        experiment_id="rdma_regime",
        title="Baseline vs RDMA/user-level communication regime (16 procs)",
        headers=[
            "application",
            "ideal",
            "baseline",
            f"baseline o={WORST_OVERHEAD}",
            "rdma",
            "rdma gain",
        ],
        rows=rows,
        data=data,
        notes=(
            "The RDMA regime serves page fetches as NI remote reads (no home "
            "handler, no interrupts) and posts sends in rdma_post_cycles; it "
            "closes part of the gap to ideal, and the host-overhead sweep "
            "axis collapses — the stressed baseline column shows what the "
            "regime makes irrelevant."
        ),
    )
