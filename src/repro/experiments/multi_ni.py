"""Extension study — multiple network interfaces per node.

The paper's discussion: "Multiple network interfaces per node is another
approach that can increase the available bandwidth.  In this case
protocol changes may be necessary to ensure proper event ordering."

This experiment stripes traffic over 1/2/4 NIs per node (each with its
own I/O bus) at the achievable parameters and again at the lowest
bandwidth: the bandwidth-bound applications (FFT, Radix) recover a large
fraction of what a faster single I/O bus would buy, while the
latency-/interrupt-bound applications barely move — confirming that
extra NIs are a *bandwidth* remedy, not a general one.
"""

from __future__ import annotations

from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

NI_COUNTS = (1, 2, 4)
DEFAULT_APPS = ("fft", "radix", "lu", "water-sp", "barnes-rebuild")
#: I/O-bus label -> one configuration per NI count
CONFIGS = {
    label: [ClusterConfig().with_comm(nis_per_node=k, io_bus_mb_per_mhz=bw) for k in NI_COUNTS]
    for bw, label in ((0.5, "achievable bw"), (0.25, "low bw"))
}


def grid(scale: float, apps: Apps) -> Grid:
    configs = [cfg for series in CONFIGS.values() for cfg in series]
    return product_grid(pick_apps(apps, DEFAULT_APPS), scale, configs)


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_APPS):
        entry = {}
        for label, configs in CONFIGS.items():
            series = [results[name, scale, cfg].speedup for cfg in configs]
            entry[label] = series
            rows.append([name, label] + [round(s, 2) for s in series])
        data[name] = entry
    return ExperimentOutput(
        experiment_id="section10-multini",
        title="Speedup vs NIs per node (striped I/O buses)",
        headers=["application", "I/O bus"] + [f"{k} NI(s)" for k in NI_COUNTS],
        rows=rows,
        data=data,
        notes=(
            "Extension of the paper's discussion: extra NIs substitute for "
            "raw per-bus bandwidth for the bandwidth-bound applications, "
            "with diminishing returns once the I/O path stops being the "
            "bottleneck; latency-bound applications are unaffected."
        ),
    )
