"""Plain-text table rendering and structured result export.

The experiment tables print the same rows/series the paper reports;
these helpers keep that output consistent and diff-friendly.  The
observability layer adds machine-readable export: one flat record per
:class:`~repro.core.metrics.RunResult` (speedup, time breakdown,
per-resource utilization, phase marks, protocol counters) written as
JSONL or CSV so the paper's stacked-bar/occupancy figures can be rebuilt
from files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunResult


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table.

    >>> print(format_table(["app", "speedup"], [["fft", 4.5]]))
    app  speedup
    ---  -------
    fft     4.50
    """
    cells: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(items: Sequence[str], pad_left_from: int = 1) -> str:
        parts = []
        for i, item in enumerate(items):
            if i == 0:
                parts.append(item.ljust(widths[i]))
            else:
                parts.append(item.rjust(widths[i]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    lines.append(render_row(list(headers)))
    lines.append("  ".join(("-" * w) for w in widths))
    for row in cells:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """Slowdown formatting matching Table 3 (negative = speedup)."""
    return f"{value * 100:+.1f}%"


# --------------------------------------------------------------------- #
# structured export (observability layer)
# --------------------------------------------------------------------- #
def run_record(result: "RunResult") -> Dict[str, Any]:
    """Flatten one :class:`RunResult` into a JSON-serializable record.

    Everything needed to rebuild the paper's figures offline: identity,
    speedups, the aggregate and per-phase breakdowns, per-resource
    utilization, protocol counters and profile metrics.
    """
    counters = dataclasses.asdict(result.counters)
    extra = counters.pop("extra", {})
    counters.update(extra)
    return {
        "app": result.app_name,
        "problem": result.problem,
        "config": result.config.label(),
        "protocol": result.config.protocol,
        "seed": result.config.seed,
        "n_procs": result.n_procs,
        "total_cycles": result.total_cycles,
        "serial_cycles": result.serial_cycles,
        "speedup": result.speedup,
        "ideal_speedup": result.ideal_speedup,
        "time_breakdown": result.time_breakdown(),
        "breakdown_fractions": result.breakdown_fractions(),
        "utilization": result.utilization(),
        "resource_busy": result.resource_busy,
        "phases": result.phase_breakdown(),
        "hotspots": [
            {"name": name, "cycles": cycles, "count": count}
            for name, cycles, count in result.hotspots()
        ],
        "counters": counters,
        "metrics_counters": result.metrics_counters,
        "queue_stats": result.queue_stats,
        "meta": result.meta,
    }


def write_jsonl(path, results: Iterable["RunResult"]) -> int:
    """Write one JSON line per result; returns the record count."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(run_record(result), sort_keys=True) + "\n")
            n += 1
    return n


#: flat columns emitted by :func:`write_csv` (nested export goes to JSONL)
_CSV_SCALAR_KEYS = (
    "app",
    "problem",
    "config",
    "protocol",
    "seed",
    "n_procs",
    "total_cycles",
    "serial_cycles",
    "speedup",
    "ideal_speedup",
)


def write_csv(path, results: Iterable["RunResult"]) -> int:
    """Write a flat CSV: scalar identity columns plus one column per time
    category and per resource's utilization.  Returns the row count."""
    records = [run_record(r) for r in results]
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cat_keys = sorted({k for r in records for k in r["time_breakdown"]})
    util_keys = sorted({k for r in records for k in r["utilization"]})
    header = (
        list(_CSV_SCALAR_KEYS)
        + [f"cycles.{c}" for c in cat_keys]
        + [f"util.{u}" for u in util_keys]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row: List[Any] = [r[k] for k in _CSV_SCALAR_KEYS]
            row += [r["time_breakdown"].get(c, 0) for c in cat_keys]
            row += [round(r["utilization"].get(u, 0.0), 6) for u in util_keys]
            writer.writerow(row)
    return len(records)
