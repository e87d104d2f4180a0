"""Section 7 — guided what-if runs attributing each application's gap.

The paper explains the best-to-achievable gap per application with
targeted experiments; we reproduce the headline ones:

* **FFT**: interrupt cost and I/O bandwidth are jointly responsible —
  zeroing interrupts alone or raising bandwidth alone each recover part
  of the gap; both together reach (almost) the best speedup.
* **Radix**: quadrupling I/O bandwidth alone brings the achievable
  speedup to the best speedup (contention on the I/O path is the story).
* **Barnes-rebuild / Water-nsquared / Volrend**: artificially removing
  remote page fetches shows how much of the synchronization cost is
  really page faults inside critical sections.
"""

from __future__ import annotations

from repro.arch.params import BEST
from repro.core.config import ClusterConfig
from repro.experiments.common import Apps, ExperimentOutput, Grid, Results

_base = ClusterConfig()
#: (application, configuration label, configuration), in table order;
#: the study picks its own applications, so ``apps`` is ignored
RUNS = [
    # FFT: interrupts + bandwidth
    ("fft", "achievable", _base),
    ("fft", "interrupts=0", _base.with_comm(interrupt_cost=0)),
    ("fft", "io bw = membus", _base.with_comm(io_bus_mb_per_mhz=2.0)),
    ("fft", "both", _base.with_comm(interrupt_cost=0, io_bus_mb_per_mhz=2.0)),
    ("fft", "best", ClusterConfig(comm=BEST)),
    # Radix: bandwidth/contention
    ("radix", "achievable", _base),
    ("radix", "4x io bw", _base.with_comm(io_bus_mb_per_mhz=2.0)),
    ("radix", "best", ClusterConfig(comm=BEST)),
] + [
    # faults inside critical sections
    (app, label, cfg)
    for app in ("barnes-rebuild", "water-nsq", "volrend")
    for label, cfg in (
        ("achievable", _base),
        ("no remote fetches", _base.replace(free_page_fetches=True)),
        ("best, no remote fetches", ClusterConfig(comm=BEST, free_page_fetches=True)),
    )
]


def grid(scale: float, apps: Apps) -> Grid:
    return [(app, scale, cfg) for app, _label, cfg in RUNS]


def render(scale: float, apps: Apps, results: Results) -> ExperimentOutput:
    rows = []
    data = {}
    for app, label, cfg in RUNS:
        s = results[app, scale, cfg].speedup
        rows.append([app, label, round(s, 2)])
        data.setdefault(app, {})[label] = s
    return ExperimentOutput(
        experiment_id="section7-attribution",
        title="Guided what-if runs (Section 7 gap attribution)",
        headers=["application", "configuration", "speedup"],
        rows=rows,
        data=data,
        notes=(
            "Paper shape: FFT needs both cheap interrupts and bandwidth to "
            "reach best; Radix needs bandwidth; for the lock-heavy "
            "applications, removing remote fetches collapses lock wait time "
            "— page faults inside critical sections are the real cost."
        ),
    )
