"""Table 2 — protocol event counts per processor per million cycles.

Page faults, page fetches, local and remote lock acquires, and barriers
for clusterings of 1, 4 and 8 processors per node (16 processors total).
Clustering converts remote events into node-local ones, which is the
mechanism behind Figure 13.
"""

from __future__ import annotations

from repro.arch.params import TABLE2_CLUSTERINGS
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

COUNTERS = (
    "page_faults",
    "page_fetches",
    "local_lock_acquires",
    "remote_lock_acquires",
    "barriers",
)

#: the achievable configuration at each Table 2 clustering (also read by
#: Figures 3 and 4)
CLUSTERED = {
    ppn: ClusterConfig().with_comm(procs_per_node=ppn) for ppn in TABLE2_CLUSTERINGS
}


def grid(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, CLUSTERED.values())


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        data[name] = {}
        for ppn in TABLE2_CLUSTERINGS:
            r = results[name, scale, CLUSTERED[ppn]]
            rates = {c: r.per_proc_per_mcycle(c) for c in COUNTERS}
            data[name][ppn] = rates
            rows.append(
                [name, ppn]
                + [round(rates[c], 2) for c in COUNTERS]
            )
    return ExperimentOutput(
        experiment_id="table02",
        title="Protocol events per processor per 1M compute cycles",
        headers=[
            "application",
            "procs/node",
            "page faults",
            "page fetches",
            "local locks",
            "remote locks",
            "barriers",
        ],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: faults >= fetches (SMP fetch coalescing); higher "
            "clustering turns remote lock acquires into local ones."
        ),
    )
