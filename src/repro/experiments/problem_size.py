"""Problem-size study.

The paper runs FFT at two dataset sizes (64K and 1M points) and notes
that page-size effects interact with problem size ("larger problems that
run on real systems may benefit from larger pages").  More generally,
SVM speedups improve with problem size because computation grows faster
than page-grain communication.  This experiment sweeps the scale factor
for a few applications and reports speedup and the communication
intensity at each size.
"""

from __future__ import annotations

from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results, pick_apps

SCALES = (0.25, 0.5, 1.0, 2.0)
DEFAULT_APPS = ("fft", "lu", "water-nsq", "radix")


def grid(scale: float, apps: Apps) -> Grid:
    """`scale` acts as a multiplier on the sweep (pass 0.5 to halve every
    point, keeping the study affordable in benchmarks)."""
    return [
        (name, s * scale, ClusterConfig())
        for name in pick_apps(apps, DEFAULT_APPS)
        for s in SCALES
    ]


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for name in pick_apps(apps, DEFAULT_APPS):
        speeds = {}
        for s in SCALES:
            eff = s * scale
            r = results[name, eff, ClusterConfig()]
            speeds[s] = {
                "speedup": r.speedup,
                "mb_per_mc": r.mbytes_per_proc_per_mcycle,
            }
            rows.append(
                [
                    name,
                    f"x{eff:g}",
                    round(r.speedup, 2),
                    round(r.mbytes_per_proc_per_mcycle, 4),
                ]
            )
        data[name] = speeds
    return ExperimentOutput(
        experiment_id="problem-size",
        title="Speedup and traffic intensity vs problem size",
        headers=["application", "size", "speedup", "MB/proc/Mcycle"],
        rows=rows,
        data=data,
        notes=(
            "SVM speedups improve with problem size: computation grows "
            "faster than page-grain communication, so the per-Mcycle byte "
            "intensity falls (the paper's 64K-vs-1M FFT remark, "
            "generalized)."
        ),
    )
