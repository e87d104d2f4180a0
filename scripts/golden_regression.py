#!/usr/bin/env python
"""Golden-snapshot regression gate for the simulator.

Simulated behaviour is deterministic: for a pinned seed, every run of the
same configuration must produce bit-identical cycle counts, time
breakdowns and protocol counters.  This script freezes that contract as a
committed snapshot (``scripts/golden_snapshot.json``) of SHA-256 digests
over a small grid — both protocols, two kernels, faults on and off — and
CI replays the grid against the snapshot on every push.

Any model change that shifts even one cycle anywhere in the grid flips a
digest and fails the gate, forcing the change to be *blessed* explicitly
(and the snapshot diff reviewed) instead of drifting in silently.

Usage::

    PYTHONPATH=src python scripts/golden_regression.py --check   # CI gate
    PYTHONPATH=src python scripts/golden_regression.py --bless   # regenerate
    PYTHONPATH=src python scripts/golden_regression.py --check --perturb 1
        # demo: one extra handler cycle must fail the gate

``--bless`` output is deterministic (sorted keys, no timestamps), so
blessing an unchanged tree is a no-op diff.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys

from repro.apps import get_app
from repro.core import ClusterConfig, run_simulation
from repro.core.runcache import MODEL_VERSION
from repro.net.faults import FaultParams

SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "golden_snapshot.json"

#: pinned grid — small enough for CI, wide enough to cover both protocol
#: state machines, two sharing patterns and the reliability path.  radix
#: (fine-grained scattered writes) is the point where hlrc and aurc
#: actually diverge; fft covers the coarse-grained common case.
SCALE = 0.05
APPS = ("fft", "radix")
PROTOCOLS = ("hlrc", "aurc")
FAULTY = FaultParams(drop_prob=0.02, dup_prob=0.01, retry_timeout=50_000)


def grid_points(perturb: int = 0):
    """Yield ``(tag, app, config)`` for every snapshot point."""
    base = ClusterConfig()
    if perturb:
        base = base.replace(
            arch=dataclasses.replace(
                base.arch,
                handler_base_cycles=base.arch.handler_base_cycles + perturb,
            )
        )
    for app in APPS:
        for proto in PROTOCOLS:
            for faults in (FaultParams(), FAULTY):
                cfg = base.replace(protocol=proto, faults=faults)
                tag = f"{app}/{proto}/{'faulty' if faults.enabled else 'clean'}"
                yield tag, app, cfg
    # The collectives subsystem's default must be invisible: an explicit
    # collective="flat" is dataclass-equal to the default config, so this
    # point's digest must be byte-identical to fft/hlrc/clean — check()
    # cross-checks that, proving the default path never moved.
    yield (
        "fft/hlrc/flat-collective",
        "fft",
        base.replace(protocol="hlrc", collective="flat"),
    )


def observe(result) -> dict:
    """The deterministic observable surface of one run.

    Everything here is integer cycle/event counts — no wall-clock, no
    floats derived from host behaviour — so the digest is stable across
    machines and Python builds.
    """
    counters = dataclasses.asdict(result.counters)
    return {
        "total_cycles": result.total_cycles,
        "serial_cycles": result.serial_cycles,
        "time_breakdown": result.time_breakdown(),
        "counters": counters,
        # verify.* keys describe the oracle bookkeeping, not simulated
        # behaviour — excluded so --verify replays the very same digests
        "meta": {
            k: result.meta[k]
            for k in sorted(result.meta)
            if not k.startswith("verify.")
        },
    }


def digest(observable: dict) -> str:
    canonical = json.dumps(observable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_grid(perturb: int = 0, verify: bool = False) -> "tuple[dict, list]":
    """Run the grid; returns (points, oracle_failures).

    With ``verify`` the happens-before oracle rides along on every point:
    digests must still match the snapshot (verification is passive) and
    any :class:`ConsistencyViolation` is collected as a failure.
    """
    points = {}
    oracle_failures = []
    for tag, app, cfg in grid_points(perturb):
        if verify:
            cfg = cfg.replace(verify=True)
        trace = get_app(
            app, page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed
        )
        result = run_simulation(trace, cfg)
        obs = observe(result)
        points[tag] = {
            "digest": digest(obs),
            "total_cycles": obs["total_cycles"],
        }
        suffix = ""
        if verify:
            n_viol = len(result.violations)
            suffix = (
                f"  verify={int(result.meta['verify.events'])}ev/"
                f"{n_viol}viol"
            )
            if n_viol:
                oracle_failures.append((tag, result.violations))
        print(
            f"  {tag:<18} total={obs['total_cycles']:>12}  "
            f"{points[tag]['digest'][:16]}{suffix}"
        )
    return points, oracle_failures


def bless(points: dict) -> None:
    snapshot = {
        "model_version": MODEL_VERSION,
        "scale": SCALE,
        "points": points,
    }
    SNAPSHOT_PATH.write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"blessed {len(points)} points -> {SNAPSHOT_PATH}")


def check(points: dict) -> int:
    if not SNAPSHOT_PATH.exists():
        print(f"FAIL: no snapshot at {SNAPSHOT_PATH}; run --bless first")
        return 1
    snapshot = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    failures = []
    if snapshot.get("model_version") != MODEL_VERSION:
        failures.append(
            f"model_version mismatch: snapshot={snapshot.get('model_version')} "
            f"code={MODEL_VERSION} (re-bless after reviewing the change)"
        )
    golden = snapshot.get("points", {})
    for tag in sorted(set(golden) | set(points)):
        if tag not in golden:
            failures.append(f"{tag}: new grid point not in snapshot")
        elif tag not in points:
            failures.append(f"{tag}: snapshot point missing from grid")
        elif points[tag]["digest"] != golden[tag]["digest"]:
            failures.append(
                f"{tag}: digest changed "
                f"(cycles {golden[tag]['total_cycles']} -> "
                f"{points[tag]['total_cycles']})"
            )
    flat = points.get("fft/hlrc/flat-collective")
    clean = points.get("fft/hlrc/clean")
    if flat and clean and flat["digest"] != clean["digest"]:
        failures.append(
            "fft/hlrc/flat-collective: explicit collective='flat' digest "
            "differs from the default-config digest — the default barrier "
            "path moved"
        )
    if failures:
        print("golden regression FAILED:")
        for f in failures:
            print(f"  - {f}")
        print(
            "If the behaviour change is intentional, regenerate with "
            "--bless and commit the snapshot diff."
        )
        return 1
    print(f"golden regression OK: {len(points)} points match the snapshot")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare against snapshot")
    mode.add_argument("--bless", action="store_true", help="regenerate snapshot")
    parser.add_argument(
        "--perturb",
        type=int,
        default=0,
        metavar="CYCLES",
        help="add CYCLES to handler_base_cycles (sensitivity demo; a "
        "single cycle must fail --check)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also run the happens-before conformance oracle on every "
        "point (digests must be unchanged; any violation fails)",
    )
    args = parser.parse_args(argv)
    points, oracle_failures = run_grid(perturb=args.perturb, verify=args.verify)
    if oracle_failures:
        print("conformance oracle FAILED:")
        for tag, violations in oracle_failures:
            for v in violations[:5]:
                print(f"  - {tag}: {v}")
            if len(violations) > 5:
                print(f"  - {tag}: … and {len(violations) - 5} more")
        return 1
    if args.bless:
        bless(points)
        return 0
    return check(points)


if __name__ == "__main__":
    sys.exit(main())
