"""The paper's evaluation as one registry of declared grids.

Every table/figure is two halves, an :class:`~repro.experiments.common.
Experiment`: ``grid(scale, apps)`` declares every simulation point the
experiment reads, and ``render(scale, apps, results)`` builds the
paper-shaped table from ``results``, a mapping from those points to
their :class:`~repro.core.metrics.RunResult`.  A render never simulates:
reading a point its grid did not declare raises ``KeyError``.

:data:`EXPERIMENTS` maps each experiment id to its pair, in the paper's
order.  :func:`run` regenerates one experiment;
``scripts/run_all_experiments.py`` simulates the union of every grid in
one pass and then renders them all.  ``apps=None`` means each
experiment's own default applications.  See DESIGN.md's experiment
index for the paper-to-module mapping.

:mod:`repro.experiments.claims` holds the paper's qualitative claims as
one table, checked against the committed full-scale ``results/*.json``.
"""

from typing import Dict, Optional

from repro.core.executor import run_points
from repro.experiments import (
    ablations,
    breakdowns,
    collectives,
    correlations,
    figure01_speedups,
    figure03_messages,
    figure04_bytes,
    interrupt_variants,
    microbench,
    multi_ni,
    problem_size,
    protocol_processing,
    rdma_regime,
    reliability,
    swept_params,
    table02_events,
    table03_slowdowns,
    table04_attribution,
    table04_speedups,
)
from repro.experiments.common import DEFAULT_SCALE, Apps, Experiment, ExperimentOutput


def _of(module) -> Experiment:
    return Experiment(module.grid, module.render)


EXPERIMENTS: Dict[str, Experiment] = {
    "figure01": _of(figure01_speedups),
    "table02": _of(table02_events),
    "figure03": Experiment(table02_events.grid, figure03_messages.render),
    "figure04": Experiment(table02_events.grid, figure04_bytes.render),
    "figure05": swept_params.experiment("figure05"),
    "figure05b": correlations.experiment("figure05b"),
    "figure06": swept_params.experiment("figure06"),
    "figure07": swept_params.experiment("figure07"),
    "figure08": correlations.experiment("figure08"),
    "figure09": swept_params.experiment("figure09"),
    "figure10": correlations.experiment("figure10"),
    "figure11": swept_params.experiment("figure11"),
    "table03": _of(table03_slowdowns),
    "table04": _of(table04_speedups),
    "figure12": swept_params.experiment("figure12"),
    "figure13": swept_params.experiment("figure13"),
    "section5-uninode": Experiment(
        interrupt_variants.grid_uninode, interrupt_variants.render_uninode
    ),
    "section5-roundrobin": Experiment(
        interrupt_variants.grid_round_robin, interrupt_variants.render_round_robin
    ),
    "section7-attribution": _of(table04_attribution),
    "section10-processing": _of(protocol_processing),
    "section10-multini": _of(multi_ni),
    "problem-size": _of(problem_size),
    "reliability": _of(reliability),
    "rdma_regime": _of(rdma_regime),
    "collectives": _of(collectives),
    "ablations": _of(ablations),
    "breakdowns": _of(breakdowns),
    "microbench": _of(microbench),
}


def run(
    experiment_id: str,
    scale: float = DEFAULT_SCALE,
    apps: Apps = None,
    jobs: Optional[int] = None,
) -> ExperimentOutput:
    """Simulate one experiment's grid (cache hits are free), then render it."""
    grid, render = EXPERIMENTS[experiment_id]
    points = grid(scale, apps)
    return render(scale, apps, dict(zip(points, run_points(points, jobs=jobs))))


__all__ = ["DEFAULT_SCALE", "EXPERIMENTS", "Experiment", "ExperimentOutput", "run"]
