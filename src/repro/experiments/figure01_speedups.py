"""Figure 1 — ideal vs achievable ("realistic") speedups.

The paper's motivating figure: for each application, the speedup with all
communication and synchronization costs zeroed (*ideal*) against the
speedup under the achievable communication parameters with four
processors per node.  The gap is what the rest of the study explains.
"""

from __future__ import annotations

from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid


def grid(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, [ClusterConfig()])


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        r = results[name, scale, ClusterConfig()]
        rows.append([name, round(r.ideal_speedup, 2), round(r.speedup, 2)])
        data[name] = {"ideal": r.ideal_speedup, "achievable": r.speedup}
    return ExperimentOutput(
        experiment_id="figure01",
        title="Ideal and achievable speedups (16 processors, 4 per node)",
        headers=["application", "ideal speedup", "achievable speedup"],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: achievable is far below ideal for most applications; "
            "protocol and communication overheads are substantial."
        ),
    )
