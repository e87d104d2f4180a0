"""Table 4 — best, achievable and ideal speedups per application.

*Best* sets every communication parameter to its best value in the
studied range (contention still modelled); *achievable* is the Table 1
achievable set; *ideal* zeroes all communication and synchronization."""

from __future__ import annotations

from repro.arch.params import BEST
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

CONFIGS = (ClusterConfig(), ClusterConfig(comm=BEST))


def grid(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, CONFIGS)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        r_ach, r_best = (results[name, scale, cfg] for cfg in CONFIGS)
        data[name] = {
            "best": r_best.speedup,
            "achievable": r_ach.speedup,
            "ideal": r_ach.ideal_speedup,
        }
        rows.append(
            [
                name,
                round(r_best.speedup, 2),
                round(r_ach.speedup, 2),
                round(r_ach.ideal_speedup, 2),
            ]
        )
    return ExperimentOutput(
        experiment_id="table04",
        title="Best / achievable / ideal speedups (16 processors)",
        headers=["application", "best", "achievable", "ideal"],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: achievable is close to best for the low-"
            "communication applications (LU, Ocean, Water-spatial, Volrend); "
            "a gap remains for FFT, Radix and Barnes; best itself sits well "
            "below ideal for applications with faults inside critical "
            "sections or contention."
        ),
    )
