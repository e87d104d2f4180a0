"""Section 5 variants of the interrupt study.

The paper supplements Figure 9 with two variants:

* **uniprocessor nodes** — 16 one-processor nodes: interrupt cost is
  important there too, just slightly less sensitive in the mid range;
* **round-robin interrupt delivery** — spreading interrupts over a
  node's processors instead of always hitting processor 0: overall
  performance improves slightly, but degrades just as quickly as the
  interrupt cost grows.
"""

from __future__ import annotations

from repro.arch.params import INTERRUPT_COST_SWEEP
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

#: a representative subset keeps this variant study affordable
DEFAULT_VARIANT_APPS = ("fft", "water-nsq", "raytrace", "barnes-rebuild")

UNINODE = [
    ClusterConfig().with_comm(procs_per_node=1, interrupt_cost=cost)
    for cost in INTERRUPT_COST_SWEEP
]
#: (fixed, round-robin) delivery at each interrupt cost
ROUND_ROBIN = [
    (fixed, fixed.with_comm(interrupt_scheme="round_robin"))
    for fixed in (ClusterConfig().with_comm(interrupt_cost=c) for c in INTERRUPT_COST_SWEEP)
]


def grid_uninode(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps, DEFAULT_VARIANT_APPS), scale, UNINODE)


def render_uninode(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_VARIANT_APPS):
        speedups = [results[name, scale, cfg].speedup for cfg in UNINODE]
        data[name] = dict(zip(INTERRUPT_COST_SWEEP, speedups))
        slow = (speedups[0] - speedups[-1]) / speedups[0]
        rows.append([name] + [round(s, 2) for s in speedups] + [f"{slow*100:+.1f}%"])
    return ExperimentOutput(
        experiment_id="section5-uninode",
        title="Interrupt-cost sweep with uniprocessor nodes (16 nodes)",
        headers=["application"] + [str(c) for c in INTERRUPT_COST_SWEEP] + ["max slowdown"],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: interrupt cost is important for uniprocessor nodes "
            "too; the system is only a little less sensitive in the mid range, "
            "then degrades quickly as in the SMP configuration."
        ),
    )


def grid_round_robin(scale: float, apps: Apps) -> Grid:
    configs = [cfg for pair in ROUND_ROBIN for cfg in pair]
    return product_grid(pick_apps(apps, DEFAULT_VARIANT_APPS), scale, configs)


def render_round_robin(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_VARIANT_APPS):
        fixed = [results[name, scale, f].speedup for f, _rr in ROUND_ROBIN]
        rr = [results[name, scale, r].speedup for _f, r in ROUND_ROBIN]
        data[name] = {"fixed": fixed, "round_robin": rr}
        rows.append(
            [name]
            + [f"{f:.2f}/{r:.2f}" for f, r in zip(fixed, rr)]
        )
    return ExperimentOutput(
        experiment_id="section5-roundrobin",
        title="Fixed vs round-robin interrupt delivery (speedups fixed/rr)",
        headers=["application"] + [str(c) for c in INTERRUPT_COST_SWEEP],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: round-robin delivery looks similar to the static "
            "scheme — overall performance slightly better, but it degrades "
            "just as quickly with interrupt cost."
        ),
    )
