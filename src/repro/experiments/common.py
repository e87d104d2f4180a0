"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.apps import APP_ORDER
from repro.core.reporting import format_table

#: default problem-size multiplier for experiment drivers; benches use
#: smaller values for speed (paper-scale is 1.0)
DEFAULT_SCALE = 1.0


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


def pick_apps(apps: Optional[Iterable[str]]) -> List[str]:
    return list(apps) if apps is not None else list(APP_ORDER)


def series_row(name: str, values: Sequence[float]) -> List[Any]:
    return [name, *values]
