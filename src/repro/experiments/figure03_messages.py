"""Figure 3 — messages sent per processor per million compute cycles,
for 1, 4 and 8 processors per node."""

from __future__ import annotations

from repro.arch.params import TABLE2_CLUSTERINGS
from repro.experiments.common import Apps, ExperimentOutput, Results, pick_apps
from repro.experiments.table02_events import CLUSTERED


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps):
        series = {}
        for ppn in TABLE2_CLUSTERINGS:
            series[ppn] = results[name, scale, CLUSTERED[ppn]].messages_per_proc_per_mcycle
        data[name] = series
        rows.append([name] + [round(series[p], 1) for p in TABLE2_CLUSTERINGS])
    return ExperimentOutput(
        experiment_id="figure03",
        title="Messages sent per processor per 1M compute cycles",
        headers=["application"] + [f"{p} procs/node" for p in TABLE2_CLUSTERINGS],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: Barnes-rebuild/Radix(/FFT) send the most messages; "
            "LU/Ocean/Water-spatial/Barnes-space the fewest; clustering "
            "reduces per-processor message counts."
        ),
    )
