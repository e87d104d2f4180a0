"""Reliability study — end performance under an imperfect fabric.

The paper assumes Myrinet's reliable delivery; this extension asks what
the SVM protocols pay when the fabric drops packets and the messaging
layer must recover via timeout/retransmit (see :mod:`repro.net.faults`).
For each application we sweep the per-message drop probability crossed
with the retransmit timeout, and report the achieved speedup, the
degradation relative to the fault-free run, and the recovery traffic
(retransmission count).

The fault-free column uses the *plain* base configuration (no
``FaultParams`` armed at all), so it dedups against every other
experiment's baseline points in the run cache and doubles as a
regression check that the reliability machinery is zero-cost when off.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps, product_grid

#: per-message drop probabilities (0 = the paper's reliable fabric)
DROP_SWEEP: Sequence[float] = (0.0, 0.005, 0.01, 0.02)

#: retransmit timeouts (cycles): an aggressive and a conservative timer
TIMEOUT_SWEEP: Sequence[int] = (50_000, 200_000)


def _cells(drops: Sequence[float], timeouts: Sequence[int]):
    return [
        (drop, timeout)
        for drop in drops
        for timeout in (timeouts if drop else timeouts[:1])
    ]


def _config(drop: float, timeout: int) -> ClusterConfig:
    base = ClusterConfig()
    if drop == 0.0:
        return base  # shared fault-free baseline point
    return base.with_faults(drop_prob=drop, retry_timeout=timeout)


def grid(
    scale: float,
    apps: Apps,
    drops: Sequence[float] = DROP_SWEEP,
    timeouts: Sequence[int] = TIMEOUT_SWEEP,
) -> Grid:
    configs = [_config(*cell) for cell in _cells(drops, timeouts)]
    return product_grid(pick_apps(apps), scale, configs)


def render(
    scale: float,
    apps: Apps,
    results: Results,
    drops: Sequence[float] = DROP_SWEEP,
    timeouts: Sequence[int] = TIMEOUT_SWEEP,
) -> ExperimentOutput:
    cells = _cells(drops, timeouts)
    headers = ["application"] + [
        "baseline" if drop == 0.0 else f"drop={drop:g} to={timeout // 1000}k"
        for (drop, timeout) in cells
    ] + ["worst degradation"]
    rows = []
    data = {}
    for name in pick_apps(apps):
        per_cell = {}
        baseline = None
        cols = []
        for drop, timeout in cells:
            r = results[name, scale, _config(drop, timeout)]
            retx = int(r.meta.get("retransmits", 0.0))
            # string cell keys so ExperimentOutput.data stays JSON-serializable
            per_cell[f"drop={drop:g},timeout={timeout}"] = {
                "speedup": r.speedup,
                "total_cycles": r.total_cycles,
                "retransmits": retx,
                "messages_lost": int(r.meta.get("messages_lost", 0.0)),
            }
            if drop == 0.0:
                baseline = r
                cols.append(f"{r.speedup:.2f}")
            else:
                degr = (baseline.speedup - r.speedup) / baseline.speedup
                cols.append(f"{r.speedup:.2f} ({degr * 100:+.1f}%, {retx} retx)")
        worst = max(
            (baseline.speedup - c["speedup"]) / baseline.speedup
            for c in per_cell.values()
        )
        rows.append([name] + cols + [f"{worst * 100:.1f}%"])
        data[name] = per_cell
    return ExperimentOutput(
        experiment_id="reliability",
        title="Speedup under packet loss (HLRC, "
        "drop probability x retransmit timeout)",
        headers=headers,
        rows=rows,
        data=data,
        notes=(
            "Each faulty cell shows speedup, degradation vs the fault-free "
            "baseline, and the number of NI-driven retransmissions.  Short "
            "timeouts recover faster but risk spurious retransmissions; long "
            "timeouts serialize page fetches behind the full timeout on every "
            "lost packet."
        ),
    )
