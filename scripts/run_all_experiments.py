#!/usr/bin/env python
"""Regenerate every table/figure at a chosen scale and archive the output.

Used to produce the numbers recorded in EXPERIMENTS.md::

    python scripts/run_all_experiments.py --scale 1.0 --out results/ --jobs 0

``--jobs N`` fans each driver's simulation grid over N worker processes
(0 = one per core); repeated points — e.g. the achievable baseline that
almost every driver needs — are simulated once and then served from the
persistent disk cache (``results/.runcache/``), so a second
regeneration at the same scale is mostly cache hits.  The legacy
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
from repro.core.executor import resolve_jobs, set_default_jobs
from repro.core.store import ingest_artifact_quietly
from repro.experiments import (
    ablations,
    breakdowns,
    collectives,
    correlations,
    figure01_speedups,
    figure03_messages,
    figure04_bytes,
    figure05_host_overhead,
    figure06_ni_occupancy,
    figure07_io_bandwidth,
    figure09_interrupt,
    figure11_aurc_occupancy,
    figure12_page_size,
    figure13_clustering,
    interrupt_variants,
    microbench,
    multi_ni,
    problem_size,
    protocol_processing,
    rdma_regime,
    reliability,
    table02_events,
    table03_slowdowns,
    table04_attribution,
    table04_speedups,
)

DRIVERS = [
    ("figure01", lambda s: figure01_speedups.run(scale=s)),
    ("table02", lambda s: table02_events.run(scale=s)),
    ("figure03", lambda s: figure03_messages.run(scale=s)),
    ("figure04", lambda s: figure04_bytes.run(scale=s)),
    ("figure05", lambda s: figure05_host_overhead.run(scale=s)),
    ("figure05b", lambda s: correlations.run_host_vs_messages(scale=s)),
    ("figure06", lambda s: figure06_ni_occupancy.run(scale=s)),
    ("figure07", lambda s: figure07_io_bandwidth.run(scale=s)),
    ("figure08", lambda s: correlations.run_bandwidth_vs_bytes(scale=s)),
    ("figure09", lambda s: figure09_interrupt.run(scale=s)),
    ("figure10", lambda s: correlations.run_interrupt_vs_fetches(scale=s)),
    ("figure11", lambda s: figure11_aurc_occupancy.run(scale=s)),
    ("table03", lambda s: table03_slowdowns.run(scale=s)),
    ("table04", lambda s: table04_speedups.run(scale=s)),
    ("figure12", lambda s: figure12_page_size.run(scale=s)),
    ("figure13", lambda s: figure13_clustering.run(scale=s)),
    ("section5-uninode", lambda s: interrupt_variants.run_uniprocessor_nodes(scale=s)),
    ("section5-roundrobin", lambda s: interrupt_variants.run_round_robin(scale=s)),
    ("section7-attribution", lambda s: table04_attribution.run(scale=s)),
    ("section10-processing", lambda s: protocol_processing.run(scale=s)),
    ("section10-multini", lambda s: multi_ni.run(scale=s)),
    ("problem-size", lambda s: problem_size.run(scale=s)),
    ("reliability", lambda s: reliability.run(scale=s)),
    ("rdma_regime", lambda s: rdma_regime.run(scale=s)),
    ("collectives", lambda s: collectives.run(scale=s)),
    ("ablations", lambda s: ablations.run(scale=s)),
    ("breakdowns", lambda s: breakdowns.run(scale=s)),
    ("microbench", lambda s: microbench.run()),
]


def run_all(scale: float, out_dir: pathlib.Path, jobs=None, quiet: bool = False):
    """Run every driver; returns ``{driver_name: seconds}`` wall-clock timings.

    ``jobs`` (when given) becomes the process-wide default worker count,
    so every driver's grid fans out without per-driver plumbing.
    """
    if jobs is not None:
        set_default_jobs(jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    combined = {}
    timings = {}
    t_start = time.time()

    for name, driver in DRIVERS:
        t0 = time.time()
        out = driver(scale)
        dt = time.time() - t0
        timings[name] = dt
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
        combined[name] = text
        if not quiet:
            print(
                f"[{time.time() - t_start:7.1f}s] {name:<22} done in {dt:6.1f}s",
                flush=True,
            )
    (out_dir / "ALL.txt").write_text(
        "\n\n\n".join(combined[name] for name, _ in DRIVERS) + "\n"
    )
    return timings


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
        help="worker processes per simulation grid (default: REPRO_JOBS or 1; "
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
