"""Seeded grids and result digests for the benchmark's three workloads.

Every workload is a list of ``(point_id, Point)`` pairs built from the
run's ``--seed``: the seed sets the workload RNG seed of every point's
trace (``ClusterConfig.seed``), the fault-stream seed, and the order in
which the closed loop requests the points.  Seed 0 maps to the repo's
default trace seed (42), which is where the reference digests in
``reference_digests.json`` were recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import List, Tuple

from repro.apps import APP_ORDER
from repro.arch.params import (
    BEST,
    HOST_OVERHEAD_SWEEP,
    INTERRUPT_COST_SWEEP,
    IO_BANDWIDTH_SWEEP,
    NI_OCCUPANCY_SWEEP,
)
from repro.core.config import ClusterConfig
from repro.core.executor import Point
from repro.core.metrics import RunResult

#: problem scale of every point (1.0 is the paper's problem size; at
#: 0.25 a point takes 10-200 ms of host time, so a grid pass is seconds)
SCALE = 0.25

#: the benchmark seed whose digests are recorded in reference_digests.json
DEFAULT_SEED = 0

WORKLOADS = ("paper_cold", "scenario_cold", "warm_replay")

Grid = List[Tuple[str, Point]]


def _paper_variants(base: ClusterConfig) -> List[Tuple[str, ClusterConfig]]:
    """The paper's sensitivity grid: the achievable set, the stressed end
    of each swept communication parameter, the best set, and AURC."""
    return [
        ("achievable", base),
        ("host_overhead", base.with_comm(host_overhead=max(HOST_OVERHEAD_SWEEP))),
        ("io_bus", base.with_comm(io_bus_mb_per_mhz=min(IO_BANDWIDTH_SWEEP))),
        ("ni_occupancy", base.with_comm(ni_occupancy=max(NI_OCCUPANCY_SWEEP))),
        ("interrupt_cost", base.with_comm(interrupt_cost=max(INTERRUPT_COST_SWEEP))),
        ("best", base.replace(comm=BEST)),
        ("aurc", base.replace(protocol="aurc")),
    ]


def _scenario_variants(base: ClusterConfig) -> List[Tuple[str, ClusterConfig]]:
    """The scenario axes added after the paper: lossy fabric, RDMA under
    AURC, barrier collectives, large pages on fat nodes, and the oracle."""
    return [
        ("faults", base.with_faults(drop_prob=0.02, dup_prob=0.02)),
        ("rdma_aurc", base.replace(protocol="aurc").with_comm(comm_regime="rdma")),
        ("tree_ppn1", base.replace(collective="tree").with_comm(procs_per_node=1)),
        ("tree_ppn2", base.replace(collective="tree").with_comm(procs_per_node=2)),
        (
            "dissemination_ppn1",
            base.replace(collective="dissemination").with_comm(procs_per_node=1),
        ),
        (
            "dissemination_ppn2",
            base.replace(collective="dissemination").with_comm(procs_per_node=2),
        ),
        ("page16k_ppn8", base.with_comm(page_size=16384, procs_per_node=8)),
        ("verify", base.replace(verify=True)),
    ]


def build_grid(workload: str, seed: int) -> Grid:
    """The workload's points in closed-loop request order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (valid: {', '.join(WORKLOADS)})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = ClusterConfig(seed=42 + seed).with_faults(fault_seed=7 + seed)
    variants = _scenario_variants if workload == "scenario_cold" else _paper_variants
    grid = [
        (f"{app}/{name}", Point(app, SCALE, config))
        for name, config in variants(base)
        for app in APP_ORDER
    ]
    random.Random(seed).shuffle(grid)
    return grid


def digest(result: RunResult) -> str:
    """Content hash of everything a simulation decides: total cycles,
    protocol counters, run metadata and per-resource busy cycles."""
    payload = {
        "total_cycles": result.total_cycles,
        "counters": dataclasses.asdict(result.counters),
        "meta": result.meta,
        "resource_busy": result.resource_busy,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]
