"""Extension study — avoiding interrupts altogether (paper Section 10).

The paper's discussion proposes two ways around the dominant interrupt
cost: *polling* (possibly reserving one processor per SMP node for
protocol processing) and *moving protocol processing onto the
programmable network interface*.  This experiment implements both and
sweeps interrupt cost:

* ``interrupt`` — the base system; degrades with interrupt cost;
* ``polling-dedicated`` — a reserved per-node protocol processor polls
  the NI: immune to interrupt cost, but one CPU per node does no
  application work.  We report both the optimistic variant (16
  application processors plus pollers) and the *equal-CPU-budget*
  variant (12 application processors on 4-way nodes, one CPU of each
  node reserved);
* ``ni-offload`` — handlers run on the (slow) NI assist: immune to
  interrupt cost and steals no host CPU, but pays the assist overhead
  per request.

The literature of the time disagreed on polling vs interrupts (the paper
cites studies both ways); the crossover this experiment exposes —
interrupts win when they are cheap, polling/offload win when they are
not — is exactly why.
"""

from __future__ import annotations

from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

SWEEP = (0, 500, 2000, 10000)
DEFAULT_APPS = ("fft", "water-nsq", "barnes-rebuild")
#: row label -> one configuration per interrupt cost
CONFIGS = {
    mode: [ClusterConfig().with_comm(protocol_processing=mode, interrupt_cost=c) for c in SWEEP]
    for mode in ("interrupt", "polling-dedicated", "ni-offload")
}
# equal-CPU-budget polling: 12 application processors on 4 nodes
CONFIGS["polling-equal-budget"] = [
    ClusterConfig(total_procs=12).with_comm(
        procs_per_node=3, protocol_processing="polling-dedicated", interrupt_cost=c
    )
    for c in SWEEP
]


def grid(scale: float, apps: Apps) -> Grid:
    configs = [cfg for series in CONFIGS.values() for cfg in series]
    return product_grid(pick_apps(apps, DEFAULT_APPS), scale, configs)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_APPS):
        entry = {}
        for mode, configs in CONFIGS.items():
            speedups = [results[name, scale, cfg].speedup for cfg in configs]
            entry[mode] = speedups
            rows.append([name, mode] + [round(s, 2) for s in speedups])
        data[name] = entry
    return ExperimentOutput(
        experiment_id="section10-processing",
        title="Interrupts vs polling vs NI offload (speedup by interrupt cost)",
        headers=["application", "mode"] + [f"intr={c}" for c in SWEEP],
        rows=rows,
        data=data,
        notes=(
            "Extension of the paper's discussion: polling and NI offload are "
            "flat in interrupt cost; the interrupt system crosses below them "
            "once interrupts exceed roughly the achievable value. The "
            "equal-budget rows show polling's true price: one fewer "
            "application processor per node."
        ),
    )
