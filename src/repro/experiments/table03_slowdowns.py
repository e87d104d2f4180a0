"""Table 3 — maximum slowdown per application per parameter.

For each communication parameter (plus page size and clustering), the
fractional slowdown between the best and worst value in the studied
range, all other parameters held at their achievable values.  Negative
entries mean the nominally "worst" value actually helped (the paper sees
this for Radix's page size and for clustering)."""

from __future__ import annotations

from repro.arch.params import (
    HOST_OVERHEAD_SWEEP,
    INTERRUPT_COST_SWEEP,
    IO_BANDWIDTH_SWEEP,
    NI_OCCUPANCY_SWEEP,
    PAGE_SIZE_SWEEP,
    PROCS_PER_NODE_SWEEP,
)
from repro.core.config import ClusterConfig
from repro.core.reporting import format_percent
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

#: parameter -> (best-end value, worst-end value)
PARAM_ENDPOINTS = {
    "host_overhead": (HOST_OVERHEAD_SWEEP[0], HOST_OVERHEAD_SWEEP[-1]),
    "ni_occupancy": (NI_OCCUPANCY_SWEEP[0], NI_OCCUPANCY_SWEEP[-1]),
    "io_bus_mb_per_mhz": (IO_BANDWIDTH_SWEEP[0], IO_BANDWIDTH_SWEEP[-1]),
    "interrupt_cost": (INTERRUPT_COST_SWEEP[0], INTERRUPT_COST_SWEEP[-1]),
    "page_size": (PAGE_SIZE_SWEEP[1], PAGE_SIZE_SWEEP[-1]),
    "procs_per_node": (PROCS_PER_NODE_SWEEP[0], PROCS_PER_NODE_SWEEP[-1]),
}

COLUMNS = [
    ("host_overhead", "host overhead"),
    ("ni_occupancy", "NI occupancy"),
    ("io_bus_mb_per_mhz", "I/O bandwidth"),
    ("interrupt_cost", "interrupt cost"),
    ("page_size", "page size"),
    ("procs_per_node", "procs/node"),
]


def _endpoints(param: str):
    return [ClusterConfig().with_comm(**{param: v}) for v in PARAM_ENDPOINTS[param]]


def grid(scale: float, apps: Apps) -> Grid:
    configs = [cfg for param, _label in COLUMNS for cfg in _endpoints(param)]
    return product_grid(pick_apps(apps), scale, configs)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        entry = {}
        row = [name]
        for param, _label in COLUMNS:
            r_lo, r_hi = (results[name, scale, cfg] for cfg in _endpoints(param))
            slow = (r_lo.speedup - r_hi.speedup) / r_lo.speedup
            entry[param] = slow
            row.append(format_percent(slow))
        data[name] = entry
        rows.append(row)
    return ExperimentOutput(
        experiment_id="table03",
        title="Maximum slowdowns over each parameter's range",
        headers=["application"] + [label for _p, label in COLUMNS],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: interrupt cost matters for every application; I/O "
            "bandwidth for the data-hungry few; host overhead and NI "
            "occupancy are minor; negative values are speedups (e.g. Radix "
            "prefers the large page size, and most applications prefer more "
            "processors per node)."
        ),
    )
