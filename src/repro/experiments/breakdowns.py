"""Execution-time breakdowns per application (paper Section 7's lens).

For each application under the achievable configuration, the share of
aggregate processor time spent in each cost category — the quantities
the paper's per-application analysis reasons about (data wait for FFT,
barrier imbalance for LU, lock wait plus faults-in-critical-sections for
Barnes-rebuild/Raytrace, contention-inflated data wait for Radix, ...).
"""

from __future__ import annotations

from repro.arch.processor import TIME_CATEGORIES
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid


def grid(scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, [ClusterConfig()])


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        r = results[name, scale, ClusterConfig()]
        fractions = r.breakdown_fractions()
        data[name] = fractions
        rows.append(
            [name] + [f"{fractions[cat] * 100:.1f}%" for cat in TIME_CATEGORIES]
        )
    return ExperimentOutput(
        experiment_id="breakdowns",
        title="Time-breakdown shares per application (achievable set)",
        headers=["application"] + list(TIME_CATEGORIES),
        rows=rows,
        data=data,
        notes=(
            "Paper shape: data wait dominates FFT and Radix; barrier time "
            "(imbalance) dominates LU and Ocean; lock wait is significant "
            "only for the lock-heavy applications; handler time stays small "
            "at the achievable interrupt cost."
        ),
    )
