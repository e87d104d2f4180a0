"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available applications and experiments.
``run APP``
    Simulate one application and print the speedup and time breakdown.
``profile APP``
    Simulate with the metrics registry enabled and print per-resource
    utilization, the per-barrier-epoch cost breakdown, and the top-N
    protocol hotspots; ``--export FILE`` writes JSONL (or CSV by
    extension) via :mod:`repro.core.reporting`.
``sweep APP PARAM V1 V2 ...``
    Sweep one communication parameter for one application.
``experiment ID``
    Regenerate one of the paper's tables/figures (or an extension study).
``cache {stats,verify,clear}``
    Inspect, integrity-audit, or purge the persistent run cache
    (``results/.runcache/``).
``report [TARGET]``
    Query the columnar result store (:mod:`repro.core.store`,
    ``results/store.sqlite``): render a stored figure/table without
    re-simulating (``report figure01``), migrate committed outputs and
    cache records in (``report ingest``), compare model versions from
    history rows (``report diff --model-version 3 4``), show bench
    trends (``report trend``), or export tables (``report export``).

``sweep`` and ``experiment`` accept ``--jobs N`` to fan independent
simulation points across a process pool (0 = all cores).  Every finished
point lands in the run cache, so SIGINT/SIGTERM stop a command with exit
code 130 and a one-line hint to rerun it; the rerun serves the finished
points from the cache and prints bit-identical results.
"""

from __future__ import annotations

import argparse
import math
import shlex
import signal
import sys
from typing import Callable, List, Optional

from repro.apps import APP_ORDER, app_names, get_app
from repro.core import ClusterConfig, run_simulation
from repro.core.reporting import format_table


def _jobs_type(text: str) -> int:
    """Parse ``--jobs``: a non-negative integer (0 = all cores)."""
    try:
        jobs = int(text)
        if jobs < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --jobs value {text!r}: expected a non-negative integer "
            "(0 = all cores)"
        ) from None
    return jobs


def _scale_type(text: str) -> float:
    """Parse ``--scale``: a positive, finite problem-size multiplier."""
    try:
        scale = float(text)
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --scale value {text!r}: expected a positive finite number"
        ) from None
    return scale


def _probability(text: str) -> float:
    try:
        p = float(text)
        if not 0.0 <= p <= 1.0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid probability {text!r}: expected a number in [0, 1]"
        ) from None
    return p


def _add_jobs_option(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=None,
        help=f"worker processes for the {what} grid (default: REPRO_JOBS or 1; "
        "0 = all cores)",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group(
        "fault injection", "wire-level faults + reliable-delivery knobs"
    )
    g.add_argument("--drop-prob", type=_probability, default=0.0,
                   help="per-message drop probability")
    g.add_argument("--dup-prob", type=_probability, default=0.0,
                   help="per-message duplication probability")
    g.add_argument("--delay-spike-prob", type=_probability, default=0.0,
                   help="per-message delay-spike probability")
    g.add_argument("--fault-seed", type=int, default=7,
                   help="RNG seed for the fault injector")
    g.add_argument("--retry-timeout", type=int, default=100_000,
                   help="cycles before a missing deposit triggers retransmit")
    g.add_argument("--max-retries", type=int, default=16,
                   help="retransmit budget before the run aborts")


def _add_comm_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=_scale_type, default=0.5, help="problem-size multiplier"
    )
    parser.add_argument("--protocol", choices=("hlrc", "aurc"), default="hlrc")
    parser.add_argument("--procs-per-node", type=int, default=4)
    parser.add_argument("--page-size", type=int, default=4096)
    parser.add_argument("--host-overhead", type=int, default=500)
    parser.add_argument("--io-bw", type=float, default=0.5, help="MB per MHz")
    parser.add_argument("--ni-occupancy", type=int, default=500)
    parser.add_argument("--interrupt-cost", type=int, default=500, help="per side")
    parser.add_argument(
        "--processing",
        choices=("interrupt", "polling-dedicated", "ni-offload"),
        default="interrupt",
    )
    # validated in CommParams/ClusterConfig __post_init__ so unknown
    # values get the one-line `error: unknown ...` convention
    parser.add_argument(
        "--comm-regime",
        default="baseline",
        help="communication regime: baseline | rdma",
    )
    parser.add_argument(
        "--collective",
        default="flat",
        help="inter-node barrier topology: flat | tree | dissemination",
    )
    parser.add_argument("--seed", type=int, default=42)


def _config_from(args: argparse.Namespace) -> ClusterConfig:
    from repro.net.faults import FaultParams

    faults = FaultParams(
        drop_prob=getattr(args, "drop_prob", 0.0),
        dup_prob=getattr(args, "dup_prob", 0.0),
        delay_spike_prob=getattr(args, "delay_spike_prob", 0.0),
        fault_seed=getattr(args, "fault_seed", 7),
        retry_timeout=getattr(args, "retry_timeout", 100_000),
        max_retries=getattr(args, "max_retries", 16),
    )
    return ClusterConfig(
        protocol=args.protocol,
        seed=args.seed,
        faults=faults,
        collective=getattr(args, "collective", "flat"),
    ).with_comm(
        procs_per_node=args.procs_per_node,
        page_size=args.page_size,
        host_overhead=args.host_overhead,
        io_bus_mb_per_mhz=args.io_bw,
        ni_occupancy=args.ni_occupancy,
        interrupt_cost=args.interrupt_cost,
        protocol_processing=args.processing,
        comm_regime=getattr(args, "comm_regime", "baseline"),
    )


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    print("applications:")
    for name in app_names():
        print(f"  {name}")
    print("\nexperiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def _casts(caster: Callable, text: str) -> bool:
    try:
        caster(text)
        return True
    except ValueError:
        return False


def _check_app(app: str) -> Optional[str]:
    """One-line error message for an unknown application, else ``None``."""
    if app in APP_ORDER:
        return None
    return (
        f"unknown application {app!r} "
        f"(valid: {', '.join(app_names())})"
    )


def cmd_run(args: argparse.Namespace) -> int:
    err = _check_app(args.app)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    config = _config_from(args)
    if getattr(args, "verify", False):
        config = config.replace(verify=True)
    app = get_app(
        args.app, page_size=args.page_size, scale=args.scale, seed=args.seed
    )
    result = run_simulation(app, config)
    print(result.summary())
    rows = [
        [cat, cycles, f"{frac:.1%}"]
        for (cat, cycles), frac in zip(
            result.time_breakdown().items(), result.breakdown_fractions().values()
        )
        if cycles
    ]
    print()
    print(format_table(["category", "cycles", "share"], rows, title="Time breakdown"))
    if config.verify:
        print()
        print(_verify_verdict(args.app, result))
        if result.violations:
            return 1
    return 0


def _verify_verdict(label: str, result) -> str:
    """One-line oracle verdict for a verified run."""
    events = int(result.meta.get("verify.events", 0))
    n = len(result.violations)
    if not n:
        return f"verify OK: {label}: {events} protocol events checked, 0 violations"
    lines = [
        f"verify FAILED: {label}: {n} violation(s) in {events} protocol events"
    ]
    lines += [f"  - {v}" for v in result.violations[:10]]
    if n > 10:
        lines.append(f"  … and {n - 10} more")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the happens-before conformance oracle on an app or a replay."""
    if args.replay:
        from repro.verify.artifacts import (
            config_from_dict,
            load_artifact,
            trace_from_artifact,
        )

        payload = load_artifact(args.replay)
        config = config_from_dict(payload["config"]).replace(verify=True)
        app = trace_from_artifact(payload)
        label = f"replay {args.replay}"
    else:
        if not args.app:
            print("error: give an application name or --replay FILE", file=sys.stderr)
            return 2
        err = _check_app(args.app)
        if err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        config = _config_from(args).replace(verify=True)
        app = get_app(
            args.app, page_size=args.page_size, scale=args.scale, seed=args.seed
        )
        label = args.app
    result = run_simulation(app, config)
    verdict = _verify_verdict(label, result)
    if result.violations:
        print(verdict, file=sys.stderr)
        return 1
    print(verdict)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profiled run: bottleneck table, per-epoch breakdown, hotspots."""
    from repro.core import MetricsRegistry
    from repro.core.reporting import write_csv, write_jsonl

    err = _check_app(args.app)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    config = _config_from(args)
    app = get_app(
        args.app, page_size=args.page_size, scale=args.scale, seed=args.seed
    )
    registry = MetricsRegistry()
    result = run_simulation(app, config, metrics=registry)
    print(result.summary())

    util = result.utilization()
    ranked = sorted(util.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [
        [name, result.resource_busy.get(name, 0), f"{frac:.1%}"]
        for name, frac in ranked[: args.resources]
    ]
    print()
    print(
        format_table(
            ["resource", "busy cycles", "occupancy"],
            rows,
            title=f"Resource occupancy (top {min(args.resources, len(ranked))} "
            f"of {len(ranked)})",
        )
    )

    phases = result.phase_breakdown()
    if phases:
        cats = [
            cat
            for cat in result.time_breakdown()
            if any(p["cycles"].get(cat, 0) for p in phases)
        ]
        rows = [
            [p["label"], p["start"], p["end"]]
            + [f"{p['fractions'].get(cat, 0.0):.1%}" for cat in cats]
            for p in phases
        ]
        print()
        print(
            format_table(
                ["phase", "start", "end"] + cats,
                rows,
                title="Per-epoch cost breakdown (fractions of each epoch)",
            )
        )

    hotspots = result.hotspots(args.top)
    if hotspots:
        rows = [
            [name, cycles, count, f"{cycles / max(1, result.total_cycles):.2f}"]
            for name, cycles, count in hotspots
        ]
        print()
        print(
            format_table(
                ["hotspot", "cycles", "events", "cycles/run-cycle"],
                rows,
                title=f"Top {len(hotspots)} protocol hotspots",
            )
        )

    if args.export:
        writer = write_csv if args.export.endswith(".csv") else write_jsonl
        writer(args.export, [result])
        print(f"\nexported 1 record to {args.export}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweeps import sweep_comm_param

    err = _check_app(args.app)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    caster = float if args.param == "io_bus_mb_per_mhz" else int
    try:
        values = [caster(v) for v in args.values]
    except ValueError:
        bad = next(v for v in args.values if not _casts(caster, v))
        print(
            f"error: invalid {args.param} value {bad!r}: "
            f"expected {'a number' if caster is float else 'an integer'}",
            file=sys.stderr,
        )
        return 2
    results = sweep_comm_param(
        args.app,
        args.param,
        values,
        base=_config_from(args),
        scale=args.scale,
        jobs=args.jobs,
    )
    rows = [[v, round(r.speedup, 2)] for v, r in zip(values, results)]
    print(format_table([args.param, "speedup"], rows, title=f"{args.app} sweep"))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.core.store import ingest_artifact_quietly
    from repro.experiments import EXPERIMENTS, run

    if args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; see `repro list`", file=sys.stderr)
        return 2
    out = run(args.id, scale=args.scale, apps=args.apps or None, jobs=args.jobs)
    print(out.table_str())
    ingest_artifact_quietly(
        args.id,
        out.table_str(),
        data=out.data,
        scale=args.scale,
        title=out.title,
        source="cli",
    )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core import runcache
    from repro.core.sweeps import clear_caches

    cache = runcache.disk_cache()
    if args.action == "stats":
        if cache is None:
            print("disk cache disabled (REPRO_DISK_CACHE=0)")
            return 0
        stats = cache.stats()
        print(f"cache root:    {stats['root']}")
        print(f"entries:       {stats['entries']}")
        print(f"size:          {stats['bytes'] / (1 << 20):.2f} MiB")
        print(f"model version: {stats['model_version']}")
        print(f"in quarantine: {stats['in_quarantine']}")
        return 0
    if args.action == "verify":
        if cache is None:
            print("disk cache disabled (REPRO_DISK_CACHE=0); nothing to verify")
            return 0
        report = cache.verify()
        print(f"cache root:  {report['root']}")
        print(f"ok:          {report['ok']}")
        print(f"stale:       {report['stale']} (older model/format; left in place)")
        print(f"quarantined: {report['quarantined']}")
        for name in report["quarantined_files"]:
            print(f"  -> {report['quarantine_dir']}/{name}")
        if report["quarantined"]:
            print(
                "\ncorrupt records were moved aside and will be recomputed "
                "on their next use"
            )
        return 0
    # clear
    if cache is None:
        clear_caches()
        print("disk cache disabled; cleared in-memory caches only")
        return 0
    removed = cache.clear()
    clear_caches()
    print(f"removed {removed} cached run(s) from {cache.root}")
    return 0


#: bench-history keys worth printing per benchmark kind (mirrors the
#: gate/warn tables in scripts/bench_compare.py)
_TREND_KEYS = {
    "sweep": ("serial_cold_s", "parallel_cold_s", "parallel_warm_s"),
    "engine": ("optimized_ns_per_event", "reference_ns_per_event"),
}

#: report actions; any other target is an experiment id to render
_REPORT_ACTIONS = ("list", "stats", "ingest", "diff", "trend", "speedups", "export")


def _report_render(store, args: argparse.Namespace) -> int:
    """Serve one experiment's table from store rows — zero simulation."""
    artifact = store.artifact(args.target, scale=args.scale)
    if artifact is None:
        at = f" at scale {args.scale:g}" if args.scale is not None else ""
        print(
            f"error: no stored render of {args.target!r}{at}; generate one "
            f"with `repro experiment {args.target}` or migrate committed "
            "outputs with `repro report ingest --results results --scale 1`",
            file=sys.stderr,
        )
        return 1
    print(artifact["text"])
    return 0


def _report_ingest(store, args: argparse.Namespace) -> int:
    """Migrate committed results/*.txt|json pairs and/or the run cache."""
    if not args.results and not args.runcache:
        print(
            "error: nothing to ingest — give --results DIR and/or --runcache",
            file=sys.stderr,
        )
        return 2
    ingested = 0
    if args.results:
        import json as _json
        import pathlib

        from repro.experiments import EXPERIMENTS

        results_dir = pathlib.Path(args.results)
        if not results_dir.is_dir():
            print(f"error: no such directory {results_dir}", file=sys.stderr)
            return 2
        for txt_path in sorted(results_dir.glob("*.txt")):
            exp_id = txt_path.stem
            if exp_id not in EXPERIMENTS:
                continue  # ALL.txt, stray notes...
            data = None
            json_path = txt_path.with_suffix(".json")
            if json_path.is_file():
                try:
                    data = _json.loads(json_path.read_text(encoding="utf-8"))
                except ValueError:
                    data = None
            store.ingest_artifact(
                exp_id,
                txt_path.read_text(encoding="utf-8").rstrip("\n"),
                data=data,
                scale=args.scale,
                source=f"migrated:{results_dir}",
            )
            ingested += 1
            print(f"  artifact {exp_id} <- {txt_path}")
    migrated_runs = 0
    if args.runcache:
        from repro.core import runcache

        cache = runcache.disk_cache()
        if cache is None:
            print("error: disk cache disabled (REPRO_DISK_CACHE=0)", file=sys.stderr)
            return 2
        entries = []
        for path in cache.entries():
            status, result = cache._classify(path)
            if status == "ok" and result is not None:
                entries.append((path.stem, result, args.scale))
        migrated_runs = store.ingest_results(entries, sweep="runcache-migration")
        print(
            f"  run cache: {migrated_runs} new run(s) from "
            f"{len(entries)} readable record(s) in {cache.root}"
        )
    print(
        f"ingested {ingested} artifact(s), {migrated_runs} run(s) "
        f"-> {store.path}"
    )
    return 0


def _report_diff(store, args: argparse.Namespace) -> int:
    if not args.model_version:
        print(
            "error: diff needs --model-version OLD NEW", file=sys.stderr
        )
        return 2
    old, new = args.model_version
    report = store.diff_model_versions(old, new)
    if report["golden"]:
        rows = [
            [g["tag"], g["status"], g["old_cycles"] or "-", g["new_cycles"] or "-"]
            for g in report["golden"]
        ]
        print(format_table(
            ["grid point", "digest", f"cycles v{old}", f"cycles v{new}"],
            rows, title=f"Golden digests: model v{old} vs v{new}"))
        changed = sum(1 for g in report["golden"] if g["status"] != "same")
        print(f"\n{changed} of {len(report['golden'])} digest(s) differ")
    else:
        print(f"no golden history for model versions {old}/{new}")
    if report["speedups"]:
        rows = []
        for s in report["speedups"]:
            delta = "-"
            if s["old_mean"] and s["new_mean"]:
                delta = f"{(s['new_mean'] - s['old_mean']) / s['old_mean']:+.1%}"
            rows.append([
                s["app"], s["protocol"] or "-",
                "-" if s["old_mean"] is None else round(s["old_mean"], 2),
                "-" if s["new_mean"] is None else round(s["new_mean"], 2),
                delta, s["old_points"], s["new_points"],
            ])
        print()
        print(format_table(
            ["app", "protocol", f"mean v{old}", f"mean v{new}", "delta",
             f"runs v{old}", f"runs v{new}"],
            rows, title="Mean speedups per (app, protocol)"))
    return 0


def _report_trend(store, args: argparse.Namespace) -> int:
    trend = store.bench_trend(args.kind, last=args.last)
    if not trend:
        print(f"no bench history of kind {args.kind!r} in {store.path}")
        return 0
    keys = [
        k for k in _TREND_KEYS.get(args.kind, ())
        if any(isinstance(r["payload"].get(k), (int, float)) for r in trend)
    ]
    rows = []
    for r in trend:
        import time as _time

        stamp = _time.strftime(
            "%Y-%m-%d %H:%M", _time.gmtime(r["recorded_unix"] or 0)
        )
        rows.append(
            [r["id"], stamp, r["model_version"], r["source"] or "-"]
            + [
                "-" if not isinstance(r["payload"].get(k), (int, float))
                else round(r["payload"][k], 4)
                for k in keys
            ]
        )
    print(format_table(
        ["row", "recorded (UTC)", "model", "source"] + list(keys),
        rows, title=f"Bench history: {args.kind} (last {len(trend)})"))
    return 0


def _report_speedups(store, args: argparse.Namespace) -> int:
    rows_data = store.speedups(
        app=args.app, protocol=args.protocol, scale=args.scale
    )
    if not rows_data:
        print("no matching runs in the store")
        return 0
    rows = [
        [r["app"], r["protocol"], "-" if r["scale"] is None else r["scale"],
         round(r["speedup"], 2), round(r["ideal_speedup"], 2),
         r["fidelity"], r["key"][:12]]
        for r in rows_data
    ]
    print(format_table(
        ["app", "protocol", "scale", "speedup", "ideal", "fidelity", "key"],
        rows, title=f"Stored speedups ({len(rows)} run(s))"))
    return 0


def _report_export(store, args: argparse.Namespace) -> int:
    if not args.out:
        print("error: export needs --out FILE (.csv, .jsonl or .parquet)",
              file=sys.stderr)
        return 2
    if args.out.endswith(".parquet"):
        n = store.export_parquet(args.out, table=args.table)
    elif args.out.endswith(".csv"):
        n = store.export_csv(args.out, table=args.table)
    else:
        n = store.export_jsonl(args.out, table=args.table)
    print(f"exported {n} row(s) from {args.table} to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Query the columnar result store (figures, history, exports)."""
    from repro.core.store import result_store

    store = result_store()
    if store is None:
        print("error: result store disabled (REPRO_RESULT_STORE=0)",
              file=sys.stderr)
        return 2
    target = args.target or "list"
    try:
        if target == "list":
            artifacts = store.artifact_ids()
            if artifacts:
                rows = [
                    [exp_id, "-" if scale is None else scale, n]
                    for exp_id, scale, n in artifacts
                ]
                print(format_table(["experiment", "scale", "renders"], rows,
                                   title="Stored experiment artifacts"))
            else:
                print("no stored experiment artifacts")
            st = store.stats()
            print(
                f"\n{st['runs']} run(s), {st['bench_rows']} bench row(s), "
                f"{st['golden_rows']} golden row(s) in {st['path']} "
                f"(model versions: "
                f"{', '.join(map(str, st['model_versions'])) or 'none'})"
            )
            print("\nrender one with: python -m repro report <experiment>")
            return 0
        if target == "stats":
            for k, v in store.stats().items():
                print(f"{k:>15}: {v}")
            return 0
        if target == "ingest":
            return _report_ingest(store, args)
        if target == "diff":
            return _report_diff(store, args)
        if target == "trend":
            return _report_trend(store, args)
        if target == "speedups":
            return _report_speedups(store, args)
        if target == "export":
            return _report_export(store, args)
        return _report_render(store, args)
    except RuntimeError as exc:  # SchemaMismatchError, missing pyarrow...
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVM cluster simulator (Bilas & Singh SC'97 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and experiments")

    p_run = sub.add_parser("run", help="simulate one application")
    p_run.add_argument("app")
    p_run.add_argument(
        "--verify",
        action="store_true",
        help="run the happens-before conformance oracle (exit 1 on violations)",
    )
    _add_comm_options(p_run)
    _add_fault_options(p_run)

    p_verify = sub.add_parser(
        "verify",
        help="run the conformance oracle on an app or replay a violation artifact",
    )
    p_verify.add_argument("app", nargs="?", default=None)
    p_verify.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a results/violations/ artifact instead of a named app",
    )
    _add_comm_options(p_verify)
    _add_fault_options(p_verify)

    p_prof = sub.add_parser(
        "profile",
        help="profiled run: resource occupancy, per-epoch breakdown, hotspots",
    )
    p_prof.add_argument("app")
    p_prof.add_argument(
        "--top", type=int, default=10, help="protocol hotspots to show"
    )
    p_prof.add_argument(
        "--resources", type=int, default=20, help="resource rows to show"
    )
    p_prof.add_argument(
        "--export",
        default=None,
        metavar="FILE",
        help="write the full record to FILE (.csv for CSV, else JSONL)",
    )
    _add_comm_options(p_prof)
    _add_fault_options(p_prof)

    p_sweep = sub.add_parser("sweep", help="sweep one communication parameter")
    _add_jobs_option(p_sweep, "sweep")
    p_sweep.add_argument("app")
    p_sweep.add_argument(
        "param",
        choices=(
            "host_overhead",
            "io_bus_mb_per_mhz",
            "ni_occupancy",
            "interrupt_cost",
            "page_size",
            "procs_per_node",
        ),
    )
    p_sweep.add_argument("values", nargs="+")
    _add_comm_options(p_sweep)
    _add_fault_options(p_sweep)

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("id")
    p_exp.add_argument("--scale", type=_scale_type, default=0.5)
    p_exp.add_argument("--apps", nargs="*", default=None)
    _add_jobs_option(p_exp, "experiment")

    p_cache = sub.add_parser(
        "cache", help="inspect, integrity-audit, or purge the persistent run cache"
    )
    p_cache.add_argument("action", choices=("stats", "verify", "clear"))

    p_rep = sub.add_parser(
        "report",
        help="query the columnar result store: render stored figures, "
        "diff model versions, bench trends, exports (no simulation)",
    )
    p_rep.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment id to render from store rows (e.g. figure01), or "
        f"an action: {', '.join(_REPORT_ACTIONS)} (default: list)",
    )
    p_rep.add_argument(
        "--scale", type=float, default=None,
        help="problem scale to select / tag (render, ingest, speedups)",
    )
    p_rep.add_argument(
        "--results", default=None, metavar="DIR",
        help="ingest: directory of committed <experiment>.txt/.json outputs",
    )
    p_rep.add_argument(
        "--runcache", action="store_true",
        help="ingest: migrate readable run-cache records into the store",
    )
    p_rep.add_argument(
        "--model-version", nargs=2, type=int, default=None,
        metavar=("OLD", "NEW"), help="diff: the two model versions to compare",
    )
    p_rep.add_argument(
        "--kind", choices=sorted(_TREND_KEYS), default="sweep",
        help="trend: bench history kind (default: sweep)",
    )
    p_rep.add_argument(
        "--last", type=int, default=10, help="trend: rows to show (default 10)"
    )
    p_rep.add_argument("--app", default=None, help="speedups: filter by app")
    p_rep.add_argument(
        "--protocol", choices=("hlrc", "aurc"), default=None,
        help="speedups: filter by protocol",
    )
    p_rep.add_argument(
        "--out", default=None, metavar="FILE",
        help="export: output file (.csv, .jsonl, or .parquet with pyarrow)",
    )
    p_rep.add_argument(
        "--table", default="runs",
        help="export: store table to export (default: runs)",
    )

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "verify": cmd_verify,
        "profile": cmd_profile,
        "sweep": cmd_sweep,
        "experiment": cmd_experiment,
        "cache": cmd_cache,
        "report": cmd_report,
    }
    return handlers[args.command](args)


def main(argv: Optional[List[str]] = None) -> int:
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv_list)
    # SIGTERM interrupts like Ctrl-C; the previous handler comes back on
    # return, since tests call main() in-process.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return _dispatch(args)
    except ValueError as exc:
        # Bad parameter combinations (config validation, sweep values…)
        # are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted — finished points are cached; "
            f"rerun: python -m repro {shlex.join(argv_list)}",
            file=sys.stderr,
        )
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
