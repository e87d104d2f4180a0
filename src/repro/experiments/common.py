"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps import APP_ORDER
from repro.core.config import ClusterConfig
from repro.core.executor import Point
from repro.core.metrics import RunResult
from repro.core.reporting import format_table

#: default problem-size multiplier for experiment drivers; benches use
#: smaller values for speed (paper-scale is 1.0)
DEFAULT_SCALE = 1.0

Apps = Optional[Iterable[str]]
#: the points an experiment reads, as ``(app, scale, config)`` triples
Grid = List[Tuple[str, float, ClusterConfig]]
#: what a render reads: a result for every point its grid declared
Results = Mapping[Point, RunResult]


@dataclass
class ExperimentOutput:
    """The result of one experiment driver: a paper-shaped table plus the
    underlying data for programmatic checks."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    #: free-form structured results keyed however the experiment likes
    data: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def table_str(self) -> str:
        out = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.notes:
            out += f"\n\n{self.notes}"
        return out

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.table_str()


class Experiment(NamedTuple):
    """One table/figure: the points it reads, and how it renders them."""

    #: ``grid(scale, apps) -> Grid``
    grid: Callable[[float, Apps], Grid]
    #: ``render(scale, apps, results) -> ExperimentOutput``
    render: Callable[[float, Apps, Results], ExperimentOutput]


def bind(spec: Any, grid: Callable, render: Callable) -> Experiment:
    """The experiment a table-driven module's ``grid``/``render`` make
    for one row ``spec`` of its table."""
    return Experiment(partial(grid, spec), partial(render, spec))


def pick_apps(apps: Apps, default: Sequence[str] = APP_ORDER) -> List[str]:
    return list(apps) if apps is not None else list(default)


def product_grid(
    names: Iterable[str], scale: float, configs: Iterable[ClusterConfig]
) -> Grid:
    """Every application under every configuration, application-major."""
    configs = list(configs)
    return [(name, scale, cfg) for name in names for cfg in configs]
