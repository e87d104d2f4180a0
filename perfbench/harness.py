"""Closed-loop measurement, correctness gate and result line.

One process, ``jobs=1``: each grid point is requested through
``repro.core.executor.run_points`` only after the previous one returned.
Passes over the whole grid repeat until ``--seconds`` of CPU time have
been measured (at least two, so a run always checks itself for
determinism).  Cold workloads start every pass from an empty disk cache,
an empty result store and empty in-memory caches; ``warm_replay`` clears
only the in-memory caches, so every pass is served from the disk cache
its set-up filled.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ledger import Ledger
from workloads import DEFAULT_SEED, SCALE, WORKLOADS, Grid, build_grid, digest

from repro.core import executor, runcache, store, sweeps
from repro.core.metrics import RunResult

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference_digests.json"
BENCHMARK_PATH = BENCH_DIR.parent / "BENCHMARK.json"

#: interpreter start-ups sampled per run for ``setup_s`` (median reported)
SETUP_SAMPLES = 5

#: speed-probe kernel steps per sample (~7 ms at reference speed), taken
#: after every PROBE_INTERVAL_S of measured requests (~7% extra run time)
PROBE_STEPS = 8000
PROBE_INTERVAL_S = 0.1
PROBE_TABLE_SIZE = 1 << 15
#: probe kernel steps per CPU second that count as reference speed
#: (about the median, between requests, on a 2-vCPU x86-64 cloud VM
#: under Python 3.11)
REFERENCE_RATE = 0.7e6

MODEL_NOTE = (
    "unvalidated: the model has no hardware reference, so no error figure "
    "is given; correctness means bit-identical simulated results"
)


# ---------------------------------------------------------------------- #
# isolation
# ---------------------------------------------------------------------- #
def point_state_at(path: Path) -> None:
    """Point the run cache, result store and violation dumps at ``path``
    and drop every in-process cache, so the next request starts cold."""
    os.environ["REPRO_CACHE_DIR"] = str(path / "runcache")
    os.environ["REPRO_STORE_PATH"] = str(path / "store.sqlite")
    os.environ["REPRO_VIOLATION_DIR"] = str(path / "violations")
    runcache.reset_disk_cache()
    store.reset_result_store()
    sweeps.clear_caches()


@contextmanager
def isolated_env(workdir: Path) -> Iterator[None]:
    """Run with no inherited ``REPRO_*`` setting and all program state
    under ``workdir``.  The result store stays on: users pay its ingest
    cost by default."""
    saved = dict(os.environ)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    try:
        point_state_at(workdir)
        yield
    finally:
        store.reset_result_store()
        os.environ.clear()
        os.environ.update(saved)
        runcache.reset_disk_cache()
        sweeps.clear_caches()


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #
def _probe_worker(steps: int, seed: int, table: Dict[int, List[int]]) -> Iterator[int]:
    x = seed
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & (PROBE_TABLE_SIZE - 1)][1] += 1
        yield (x >> 8) % 101 + 1


def _probe_kernel(steps: int, table: Dict[int, List[int]]) -> None:
    """Fixed work shaped like the simulator's event loop: eight generator
    processes resumed in time order from a heap, each step updating a
    random entry of a table a few MB large.  It shares no code with the
    simulator, so no change to the program can speed it up."""
    heap = [(0, i, _probe_worker(steps // 8, i + 1, table)) for i in range(8)]
    seq = len(heap)
    while heap:
        now, _, proc = heapq.heappop(heap)
        for delay in proc:
            seq += 1
            heapq.heappush(heap, (now + delay, seq, proc))
            break


class SpeedProbe:
    """The host's speed, sampled between requests.

    On a shared host the speed of one core drifts by 15% or more over
    minutes as neighbours come and go.  The probe runs a fixed kernel
    after every :data:`PROBE_INTERVAL_S` of measured requests (outside
    the measured time).  :meth:`speed` is the kernel's rate in CPU time
    over :data:`REFERENCE_RATE`; multiplying a CPU time by it gives the
    time a host running at reference speed would have taken.
    """

    def __init__(self) -> None:
        self._table = {i: [i, 0] for i in range(PROBE_TABLE_SIZE)}
        self.steps = 0
        self.seconds = 0.0

    def sample(self) -> None:
        start = time.process_time()
        _probe_kernel(PROBE_STEPS, self._table)
        self.seconds += time.process_time() - start
        self.steps += PROBE_STEPS

    def speed(self) -> float:
        """Relative speed over the samples since the last call."""
        speed = self.steps / self.seconds / REFERENCE_RATE
        self.steps, self.seconds = 0, 0.0
        return speed


def run_pass(
    grid: Grid, probe: Optional[SpeedProbe] = None, clock=time.process_time
) -> Tuple[float, list]:
    """Request every point in order (closed loop); returns the ``clock``
    seconds spent in requests and the outcomes.  ``probe`` is sampled
    between requests, at least once per pass."""
    request = executor.run_points  # looked up per pass: the ledger may patch it
    outcomes = []
    busy = since_probe = 0.0
    for _, point in grid:
        start = clock()
        outcomes.append(request([point], jobs=1, strict=False)[0])
        elapsed = clock() - start
        busy += elapsed
        since_probe += elapsed
        if probe is not None and since_probe >= PROBE_INTERVAL_S:
            probe.sample()
            since_probe = 0.0
    if probe is not None and not probe.steps:
        probe.sample()
    return busy, outcomes


def setup_sample(workload: str, seed: int) -> float:
    """CPU seconds a fresh interpreter spends from its start until the
    workload's grid is built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if sys.pycache_prefix:
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    code = (
        "import sys, workloads, repro.core.sweeps, repro.core.store; "
        "workloads.build_grid(sys.argv[1], int(sys.argv[2]))"
    )
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", code, workload, str(seed)],
        check=True,
        env=env,
        cwd=BENCH_DIR,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


class Gate:
    """Counts every checked point and the ones that failed."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(
        self, grid: Grid, outcomes: list, expected: Optional[Dict[str, str]]
    ) -> Dict[str, str]:
        """Check one pass; returns its digests.  ``expected`` are digests
        of an earlier pass that this one must reproduce."""
        digests: Dict[str, str] = {}
        for (pid, _), out in zip(grid, outcomes):
            self.attempted += 1
            if not isinstance(out, RunResult):
                self._fail(f"{pid}: {out.error}")
                continue
            digests[pid] = d = digest(out)
            if out.violations or out.meta.get("verify.violations", 0.0):
                self._fail(f"{pid}: {len(out.violations)} oracle violation(s)")
            elif self.reference is not None and d != self.reference.get(pid):
                self._fail(f"{pid}: digest {d} != reference {self.reference.get(pid)}")
            elif expected is not None and d != expected.get(pid):
                self._fail(f"{pid}: digest {d} differs from an earlier pass")
        return digests

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Recorded digests for this grid, or ``None`` when the seed is not
    the default one or none were recorded for the current model."""
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return None
    recorded = json.loads(REFERENCE_PATH.read_text()).get(str(runcache.MODEL_VERSION))
    if recorded is None or recorded.get("scale") != SCALE:
        return None
    return recorded["paper_cold" if workload == "warm_replay" else workload]


def read_steal_s() -> Optional[float]:
    """Cumulative CPU steal time of the host, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def measure(args: argparse.Namespace, workdir: Path) -> Tuple[Dict[str, float], Gate, dict]:
    cold = args.workload != "warm_replay"
    grid = build_grid(args.workload, args.seed)
    gate = Gate(load_reference(args.workload, args.seed))
    diag: dict = {"reference_digests": gate.reference is not None, "scale": SCALE}

    # set-up times, like pass times, in seconds at reference speed
    probe = SpeedProbe()
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe.sample()
        samples.append(setup_sample(args.workload, args.seed))
    probe.sample()
    setup = statistics.median(samples) * probe.speed()
    # digests every later pass must reproduce: the first cold pass, or
    # the cold fill that warm_replay serves from
    baseline: Optional[Dict[str, str]] = None
    if not cold:
        point_state_at(workdir / "warm")
        fill_s, outcomes = run_pass(grid, probe)
        baseline = gate.check(grid, outcomes, None)
        setup += fill_s * probe.speed()
        diag["fill_s"] = fill_s

    times: List[float] = []
    speeds: List[float] = []  # host speed during each untraced pass

    def timed_pass(ledger: Optional[Ledger] = None) -> list:
        """One pass; CPU time at reference speed, or wall time when
        tracing, since the ledger's spans are wall time."""
        nonlocal baseline
        n = len(times) + 1
        if cold:
            point_state_at(workdir / f"pass{n}")
            shutil.rmtree(workdir / f"pass{n - 1}", ignore_errors=True)
        else:
            sweeps.clear_caches()
        if args.trace:
            with ledger.installed() if ledger else nullcontext():
                elapsed, outcomes = run_pass(grid, clock=time.perf_counter)
        else:
            elapsed, outcomes = run_pass(grid, probe)
            speeds.append(probe.speed())
        times.append(elapsed)
        digests = gate.check(grid, outcomes, baseline)
        baseline = baseline or digests
        return outcomes

    if args.trace:
        # untraced reference passes for trace_overhead, then traced ones
        while not times or sum(times) < args.seconds / 4:
            timed_pass()
        untraced, n = statistics.median(times), len(times)
        ledger = Ledger()
        while len(times) == n or sum(times[n:]) < args.seconds:
            timed_pass(ledger)
        metrics = ledger.metrics(len(times) - n, sum(times[n:]), untraced)
    else:
        while len(times) < 2 or sum(times) < args.seconds:
            outcomes = timed_pass()
        # every pass simulates the same events (the gate checked that)
        events = sum(o.meta["sim_events"] for o in outcomes if isinstance(o, RunResult))
        # pass times in seconds of a host running at reference speed
        ref_times = [t * speed for t, speed in zip(times, speeds)]
        metrics = {
            "setup_s": setup,
            "points_per_s": statistics.median(len(grid) / t for t in ref_times),
            "sim_events_per_s": statistics.median(events / t for t in ref_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        diag["raw_points_per_s"] = statistics.median(len(grid) / t for t in times)
        diag["speed"] = statistics.median(speeds)
    if cold:
        # warm == cold: serve the last pass again from its disk cache
        sweeps.clear_caches()
        _, outcomes = run_pass(grid)
        gate.check(grid, outcomes, baseline)
    diag["passes"] = len(times)
    diag["pass_s_min_median_max"] = [min(times), statistics.median(times), max(times)]
    if not args.trace:
        metrics["ok_frac"] = (gate.attempted - gate.failed) / gate.attempted
    return metrics, gate, diag


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
def record_reference() -> None:
    """Record the default seed's digests for the current model version."""
    recorded = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    entry: Dict[str, object] = {"scale": SCALE}
    workdir = Path(tempfile.mkdtemp(prefix=".record-", dir=BENCH_DIR))
    try:
        with isolated_env(workdir):
            for workload in ("paper_cold", "scenario_cold"):
                grid = build_grid(workload, DEFAULT_SEED)
                point_state_at(workdir / workload)
                _, outcomes = run_pass(grid)
                gate = Gate(None)
                entry[workload] = dict(sorted(gate.check(grid, outcomes, None).items()))
                if gate.failed:
                    raise SystemExit(f"not recorded: {gate.problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorded[str(runcache.MODEL_VERSION)] = entry
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="record the default seed's digests for the current MODEL_VERSION",
    )
    args = parser.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    steal_start = read_steal_s()
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH_DIR))
    try:
        with isolated_env(workdir):
            metrics, gate, diag = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_end = read_steal_s()
    diag.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "model": MODEL_NOTE,
            "model_version": runcache.MODEL_VERSION,
            "steal_s": None if steal_start is None else round(steal_end - steal_start, 3),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "problems": gate.problems,
        }
    )
    print(json.dumps({"diagnostics": diag}))
    declared = json.loads(BENCHMARK_PATH.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
