#!/usr/bin/env python
"""Same-runner performance gate: this checkout against a parent checkout.

For every workload declared in ``BENCHMARK.json`` the gate runs each
checkout's own ``perfbench/run.py --workload W --seconds 5``, parent and
change alternately over ``PAIRS`` pairs, flipping which side goes first
in each pair, so both sides see the same drift of a shared host.  It
adds one ``pool_cold_s`` row: the wall time of a cold
``scripts/run_all_experiments.py --scale 0.05 --jobs 2``, which is the
only measured run that goes through the process pool.  For every cold
workload (a name ending in ``_cold``) it adds one deterministic
``python_calls`` row: ``cProfile``'s total call count over one cold
``harness.run_pass`` of the workload's grid in each checkout, after a
warm-up pass.  It shows an exact count beside the noisy medians; being
a count, not a time, it has no bound, and only a probe that exits
non-zero fails the gate.

Each row shows both medians and their ``change/parent`` ratio, so a
claimed gain can be read straight from the table (above 1 is more of
the metric, whichever direction is better).  The gate fails when a run
exits non-zero, when a change run prints ``"correct"`` other than
``true``, or when the change's median of an ``end_to_end`` metric is
worse than the parent's by more than that metric's ``bound`` in its
``better`` direction.  ``pool_cold_s`` is lower-is-better at the
``points_per_s`` bound.  Names, bounds and directions are read from
this checkout's ``BENCHMARK.json``.

It prints one table and writes ``perf_gate.json`` to the working
directory.  Exit status: 0 pass, 1 fail, 2 bad usage.

Usage::

    git worktree add --detach ../parent <base-sha>
    python scripts/perf_gate.py ../parent
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
PAIRS = 3
SECONDS = 5
POOL_ARGS = ("--scale", "0.05", "--jobs", "2")
REPORT = Path("perf_gate.json")

#: run in a checkout with its ``src`` and ``perfbench`` on the path;
#: prints one integer, the profiled pass's total call count
CALLS_PROBE = """\
import cProfile, pstats, sys, tempfile
from pathlib import Path
import harness, workloads
grid = workloads.build_grid(sys.argv[1], workloads.DEFAULT_SEED)
with tempfile.TemporaryDirectory() as tmp, harness.isolated_env(Path(tmp)):
    harness.run_pass(grid)
    harness.point_state_at(Path(tmp) / "profiled")
    profile = cProfile.Profile()
    profile.runcall(harness.run_pass, grid)
print(pstats.Stats(profile).total_calls)
"""


def run_perfbench(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run: exit status, ``correct`` and metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        result = {}
    return {
        "returncode": proc.returncode,
        "correct": result.get("correct"),
        "metrics": {k: m["value"] for k, m in result.get("metrics", {}).items()},
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }


def run_pool_cold(checkout: Path) -> dict:
    """Wall time of one cold regeneration through the process pool."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        env.update(
            PYTHONPATH=str(checkout / "src"),
            REPRO_CACHE_DIR=os.path.join(tmp, "runcache"),
            REPRO_STORE_PATH=os.path.join(tmp, "store.sqlite"),
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "scripts/run_all_experiments.py", *POOL_ARGS,
             "--out", os.path.join(tmp, "out")],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
    ok = proc.returncode == 0
    return {
        "returncode": proc.returncode,
        "correct": ok,
        "metrics": {"pool_cold_s": elapsed} if ok else {},
        "stderr": "" if ok else proc.stderr[-2000:],
    }


def run_python_calls(checkout: Path, workload: str) -> dict:
    """Python calls in one cold pass of ``workload`` (see ``CALLS_PROBE``)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_PROBE, workload],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.split()
    ok = proc.returncode == 0 and bool(lines) and lines[-1].isdigit()
    return {
        "returncode": proc.returncode,
        "correct": ok,
        "metrics": {"python_calls": int(lines[-1])} if ok else {},
        "stderr": "" if ok else proc.stderr[-2000:],
    }


def measure(
    parent: Path, change: Path, workloads: List[str]
) -> Dict[Tuple[str, str], List[dict]]:
    """Every run, keyed by (workload, side), in alternating pairs."""
    tasks: Dict[str, Callable[[Path], dict]] = {
        w: (lambda checkout, w=w: run_perfbench(checkout, w)) for w in workloads
    }
    tasks["pool_cold"] = run_pool_cold
    sides = [("parent", parent), ("change", change)]
    runs: Dict[Tuple[str, str], List[dict]] = {}
    for name, task in tasks.items():
        for pair in range(PAIRS):
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                run = task(checkout)
                runs.setdefault((name, side), []).append(run)
                print(f"{name} pair {pair + 1} {side}: exit {run['returncode']}, "
                      f"correct {run['correct']}", file=sys.stderr, flush=True)
    return runs


def measure_calls(
    parent: Path, change: Path, workloads: List[str]
) -> Dict[Tuple[str, str], List[dict]]:
    """One deterministic call count per cold workload and side."""
    calls: Dict[Tuple[str, str], List[dict]] = {}
    for workload in workloads:
        if workload.endswith("_cold"):
            for side, checkout in (("parent", parent), ("change", change)):
                run = run_python_calls(checkout, workload)
                calls[workload, side] = [run]
                print(f"{workload} python_calls {side}: exit {run['returncode']}",
                      file=sys.stderr, flush=True)
    return calls


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change from parent to change, positive when worse."""
    worse = change - parent if better == "lower" else parent - change
    if parent:
        return worse / abs(parent)
    return math.copysign(math.inf, worse) if worse else 0.0


def compare(
    runs: Dict[Tuple[str, str], List[dict]],
    declared: dict,
    calls: Dict[Tuple[str, str], List[dict]],
) -> Tuple[List[dict], List[str]]:
    """Table rows and failure messages for the measured runs."""
    failures = []
    for label, measured in (("", runs), (" python_calls", calls)):
        for (name, side), side_runs in measured.items():
            for i, run in enumerate(side_runs, 1):
                if run["returncode"] != 0 or (side == "change" and run["correct"] is not True):
                    failures.append(f"{name}{label}: {side} run {i} exited "
                                    f"{run['returncode']} with correct={run['correct']}")
    metrics = declared["end_to_end"]
    pool = {"name": "pool_cold_s", "better": "lower",
            "bound": next(m["bound"] for m in metrics if m["name"] == "points_per_s")}
    checks = [(w["name"], m, runs) for w in declared["workloads"] for m in metrics]
    checks.append(("pool_cold", pool, runs))
    count = {"name": "python_calls", "better": "lower", "bound": None}
    checks += [(w, count, calls) for w, side in calls if side == "change"]
    rows = []
    for workload, metric, measured in checks:
        name = metric["name"]
        parent = [r["metrics"][name] for r in measured[workload, "parent"] if name in r["metrics"]]
        change = [r["metrics"][name] for r in measured[workload, "change"] if name in r["metrics"]]
        row = {"workload": workload, "metric": name, "better": metric["better"],
               "bound": metric["bound"], "parent": None, "change": None,
               "ratio": None, "worse_by": None, "verdict": "ok"}
        if change:
            row["change"] = statistics.median(change)
        if parent:
            row["parent"] = statistics.median(parent)
        if not change:
            row["verdict"] = "FAIL"
            failures.append(f"{workload}/{name}: the change reported no value")
        elif not parent:
            row["verdict"] = "new"
        else:
            if row["parent"]:
                row["ratio"] = row["change"] / row["parent"]
            row["worse_by"] = worse_by(row["parent"], row["change"], metric["better"])
            if metric["bound"] is not None and row["worse_by"] > metric["bound"]:
                row["verdict"] = "FAIL"
                failures.append(f"{workload}/{name}: {row['worse_by']:+.1%} worse "
                                f"than the parent (bound {metric['bound']:.0%})")
        rows.append(row)
    return rows, failures


def print_table(rows: List[dict]) -> None:
    def fmt(value, spec: str = ".4g") -> str:
        if isinstance(value, int) and spec == ".4g":
            spec = ",d"  # a call count, in full
        return "-" if value is None else format(value, spec)

    header = ("workload", "metric", "better", "bound", "parent", "change",
              "change/parent", "worse by", "verdict")
    lines = [header] + [
        (r["workload"], r["metric"], r["better"], fmt(r["bound"], ".0%"),
         fmt(r["parent"]), fmt(r["change"]), fmt(r["ratio"], ".3f"),
         fmt(r["worse_by"], "+.1%"), r["verdict"])
        for r in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} has no perfbench/run.py")
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    runs = measure(parent, REPO, workloads)
    calls = measure_calls(parent, REPO, workloads)
    rows, failures = compare(runs, declared, calls)
    print_table(rows)
    for failure in failures:
        print(f"FAIL {failure}")
    REPORT.write_text(json.dumps({
        "parent": str(parent), "change": str(REPO), "pairs": PAIRS,
        "seconds": SECONDS, "passed": not failures, "failures": failures,
        "rows": rows, "runs": {f"{w}/{side}": r for (w, side), r in runs.items()},
        "python_calls": {f"{w}/{side}": r for (w, side), (r,) in calls.items()},
    }, indent=1) + "\n")
    print(f"perf gate {'FAILED' if failures else 'passed'}: "
          f"{len(rows)} rows, {PAIRS} pairs per workload -> {REPORT}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
