"""Figures 5b, 8 and 10 — slowdown-vs-traffic correlations.

The paper pairs each parameter sweep with a normalized bar chart showing
that the per-application slowdown is predicted by a traffic statistic:

* host-overhead slowdown  <-> messages sent       (its Figure 5b)
* I/O-bandwidth slowdown  <-> bytes sent          (Figure 8)
* interrupt-cost slowdown <-> page fetches + remote lock acquires (Figure 10)

Each figure reports both normalized series (largest value = 1.0) and
their rank correlation, which should be strongly positive.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult
from repro.experiments.common import (
    Apps,
    Experiment,
    ExperimentOutput,
    Grid,
    Results,
    bind,
    pick_apps,
    product_grid,
)


def _normalized(values: Dict[str, float]) -> Dict[str, float]:
    top = max(values.values()) or 1.0
    return {k: v / top for k, v in values.items()}


def rank_correlation(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Spearman rank correlation of two same-keyed series."""
    keys = sorted(a)
    n = len(keys)
    if n < 2:
        return 1.0

    def ranks(series: Dict[str, float]) -> Dict[str, float]:
        ordered = sorted(keys, key=lambda k: series[k])
        return {k: i for i, k in enumerate(ordered)}

    ra, rb = ranks(a), ranks(b)
    d2 = sum((ra[k] - rb[k]) ** 2 for k in keys)
    return 1 - 6 * d2 / (n * (n * n - 1))


class Correlation(NamedTuple):
    id: str
    title: str
    #: the CommParams field swept, from its fast to its slow end
    param: str
    lo: Any
    hi: Any
    #: the traffic statistic, read from the achievable-configuration run
    metric: Callable[[RunResult], float]
    metric_name: str
    notes: str


CORRELATIONS = {
    row.id: row
    for row in (
        Correlation(
            "figure05b",
            "Host-overhead slowdown vs messages sent",
            "host_overhead",
            0,
            6000,
            lambda r: r.messages_per_proc_per_mcycle,
            "messages/proc/Mcycle",
            "Paper shape: applications that send more messages depend more on "
            "host overhead.",
        ),
        Correlation(
            "figure08",
            "I/O-bandwidth slowdown vs bytes sent",
            "io_bus_mb_per_mhz",
            2.0,
            0.25,
            lambda r: r.mbytes_per_proc_per_mcycle,
            "MB/proc/Mcycle",
            "Paper shape: applications that exchange a lot of data — not "
            "necessarily many messages — need higher bandwidth.",
        ),
        # the interrupt-raising events: page fetches + remote lock acquires
        Correlation(
            "figure10",
            "Interrupt-cost slowdown vs page fetches + remote lock acquires",
            "interrupt_cost",
            0,
            10000,
            lambda r: r.per_proc_per_mcycle("page_fetches")
            + r.per_proc_per_mcycle("remote_lock_acquires"),
            "(fetches+remote locks)/proc/Mcycle",
            "Paper shape: interrupt-cost slowdown is closely related to the "
            "number of protocol events that cause interrupts.",
        ),
    )
}


def _configs(c: Correlation):
    """The fast end, the slow end and the achievable baseline."""
    base = ClusterConfig()
    return base.with_comm(**{c.param: c.lo}), base.with_comm(**{c.param: c.hi}), base


def grid(c: Correlation, scale: float, apps: Apps) -> Grid:
    return product_grid(pick_apps(apps), scale, _configs(c))


def render(c: Correlation, scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    slowdowns: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    for name in pick_apps(apps):
        fast, slow, baseline = (results[name, scale, cfg] for cfg in _configs(c))
        slowdowns[name] = max(0.0, (fast.speedup - slow.speedup) / fast.speedup)
        metrics[name] = c.metric(baseline)
    norm_slow = _normalized(slowdowns)
    norm_metric = _normalized(metrics)
    rho = rank_correlation(slowdowns, metrics)
    rows: List[List] = [
        [name, round(norm_slow[name], 3), round(norm_metric[name], 3)]
        for name in sorted(norm_slow, key=norm_slow.get, reverse=True)
    ]
    return ExperimentOutput(
        experiment_id=c.id,
        title=c.title,
        headers=["application", "slowdown (normalized)", f"{c.metric_name} (normalized)"],
        rows=rows,
        data={
            "slowdown": slowdowns,
            "metric": metrics,
            "rank_correlation": rho,
        },
        notes=c.notes + f"\nSpearman rank correlation: {rho:+.2f}",
    )


def experiment(figure_id: str) -> Experiment:
    return bind(CORRELATIONS[figure_id], grid, render)
