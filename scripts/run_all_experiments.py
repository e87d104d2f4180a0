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
second regeneration at the same scale simulates nothing.  The legacy
positional form ``run_all_experiments.py 1.0 results/`` still works.

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
from repro.core.store import ingest_artifact_quietly
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
        # The files are an export format; the columnar store is the
        # durable history (`python -m repro report <name>` re-renders
        # this exact table without re-simulating).
        ingest_artifact_quietly(
            name, text, data=out.data, scale=scale, title=out.title,
            source="run_all",
        )
        texts.append(text)
    (out_dir / "ALL.txt").write_text("\n\n\n".join(texts) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "legacy",
        nargs="*",
        default=[],
        metavar="SCALE [OUT_DIR]",
        help="legacy positional form: scale followed by output directory",
    )
    parser.add_argument(
        "--scale", type=_scale_type, default=None, help="problem-size multiplier"
    )
    parser.add_argument("--out", type=pathlib.Path, default=None, help="output directory")
    parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=None,
        help="worker processes for the simulation pass (default: REPRO_JOBS or 1; "
        "0 = all cores)",
    )
    args = parser.parse_args(argv)
    if len(args.legacy) > 2:
        parser.error(
            f"too many positional arguments {args.legacy[2:]}: "
            "expected SCALE [OUT_DIR]"
        )
    if args.legacy:
        try:
            legacy_scale = _scale_type(args.legacy[0])
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
        if args.scale is None:
            args.scale = legacy_scale
    if args.out is None and len(args.legacy) > 1:
        args.out = pathlib.Path(args.legacy[1])
    if args.scale is None:
        args.scale = 1.0
    if args.out is None:
        args.out = pathlib.Path("results")
    return args


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
