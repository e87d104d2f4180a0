#!/usr/bin/env python
"""Regenerate every table/figure at a chosen scale and archive the output.

Used to produce the numbers recorded in EXPERIMENTS.md::

    python scripts/run_all_experiments.py --scale 1.0 --out results/ --jobs 0

Every experiment declares its simulation grid (``repro.experiments.
EXPERIMENTS``); the script simulates the union of those grids in one
pass, fanned over ``--jobs N`` worker processes (0 = one per core), and
then renders each table from the results.  A point several experiments
share — e.g. the achievable baseline — is simulated once, and every
point lands in the persistent disk cache (``results/.runcache/``), so a
second regeneration at the same scale simulates nothing.

SIGINT/SIGTERM stop the regeneration with exit code 130 and a one-line
hint: rerun the same command.  Every finished simulation point is
already in the run cache, so the rerun simulates only what was missing
and writes output bit-identical to an uninterrupted run.
"""

import argparse
import json
import pathlib
import shlex
import signal
import sys
import time

from repro.cli import _jobs_type, _scale_type
from repro.core.executor import resolve_jobs, run_points
from repro.experiments import EXPERIMENTS


def run_all(scale: float, out_dir: pathlib.Path, jobs=None, quiet: bool = False) -> None:
    """Simulate every experiment's grid in one pass, then render each.

    The union of all grids, in registry order with duplicates dropped,
    goes to a single ``run_points`` call: a point several experiments
    share is requested once, and the pool never drains between
    experiments.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    points = list(
        dict.fromkeys(p for grid, _render in EXPERIMENTS.values() for p in grid(scale, None))
    )
    results = dict(zip(points, run_points(points, jobs=jobs)))
    if not quiet:
        print(f"[{time.time() - t0:7.1f}s] resolved {len(points)} distinct points", flush=True)
    texts = []
    for name, (_grid, render) in EXPERIMENTS.items():
        out = render(scale, None, results)
        text = out.table_str()
        (out_dir / f"{name}.txt").write_text(text + "\n")
        (out_dir / f"{name}.json").write_text(
            json.dumps(out.data, indent=2, default=str) + "\n"
        )
        # These files are the record of each table; the result store
        # keeps only the runs behind it (run_points appends them).
        texts.append(text)
    (out_dir / "ALL.txt").write_text("\n\n\n".join(texts) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=_scale_type, default=1.0, help="problem-size multiplier"
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("results"), help="output directory"
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=None,
        help="worker processes for the simulation pass (default: REPRO_JOBS or 1; "
        "0 = all cores)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> None:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    t0 = time.time()
    # SIGTERM interrupts like Ctrl-C; restored on return.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        run_all(args.scale, args.out, jobs=jobs)
    except KeyboardInterrupt:
        print(
            "interrupted — finished points are cached; rerun: "
            f"python scripts/run_all_experiments.py {shlex.join(argv)}",
            file=sys.stderr,
        )
        raise SystemExit(130)
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(
        f"all experiments written to {args.out}/ "
        f"({time.time() - t0:.1f}s, jobs={jobs})"
    )


if __name__ == "__main__":
    main()
