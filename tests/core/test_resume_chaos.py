"""Kill-and-rerun chaos tests: the acceptance gate for restartable sweeps.

A sweep subprocess is killed mid-run (SIGKILL — no cleanup of any
kind), then the same command is simply run again: the finished points
come back from the run cache, and the results must be *byte-identical*
to an uninterrupted run.  A second case sends SIGTERM to ``repro sweep``
and checks the interrupt path: exit code 130, a one-line rerun hint, no
traceback, and the finished points cached.

Progress is the number of records in the run cache.
``REPRO_CHAOS_POINT_DELAY_S`` stretches every computed point so the kill
reliably lands mid-sweep; the delay changes nothing about the results.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: driver executed as the sweep subprocess: runs a 6-point grid and
#: writes a canonical JSON serialization of every result field.
CHILD = """
import dataclasses, json, pathlib, sys

from repro.core.config import ClusterConfig
from repro.core.executor import run_points

out_path = pathlib.Path(sys.argv[1])
base = ClusterConfig()
grid = [
    ("lu", 0.05, base.with_comm(interrupt_cost=c))
    for c in (0, 200, 400, 600, 800, 1000)
]
results = run_points(grid, jobs=2)
canon = json.dumps(
    [
        {
            "app": r.app_name,
            "config": dataclasses.asdict(r.config),
            "total_cycles": r.total_cycles,
            "serial_cycles": r.serial_cycles,
            "proc_stats": [
                {"time": s.time, "counters": sorted(s.counters.items())}
                for s in r.proc_stats
            ],
            "counters": dataclasses.asdict(r.counters),
            "meta": sorted(r.meta.items()),
        }
        for r in results
    ],
    sort_keys=True,
    default=repr,
)
out_path.write_text(canon)
"""

TOTAL_POINTS = 6


def _env(tmp: pathlib.Path, delay: str = "0") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["REPRO_CHAOS_POINT_DELAY_S"] = delay
    env.pop("REPRO_JOBS", None)
    return env


def _cached(tmp: pathlib.Path) -> int:
    """Points the sweep has finished: records in its run cache."""
    return len(list((tmp / "cache").glob("*.pkl")))


def _wait_for_partial_progress(proc, tmp, timeout=120.0):
    """Block until ≥1 point is cached but the sweep is still incomplete."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(
                "sweep subprocess finished before the kill landed "
                f"(rc={proc.returncode}); raise REPRO_CHAOS_POINT_DELAY_S"
            )
        done = _cached(tmp)
        if 1 <= done < TOTAL_POINTS:
            return done
        time.sleep(0.05)
    pytest.fail("no cached progress within timeout")


def _live_session_members(sid: int) -> list:
    """PIDs of processes in session ``sid`` that have not exited."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = pathlib.Path("/proc", entry, "stat").read_bytes()
        except OSError:
            continue  # exited while we looked
        # fields after the comm: [0] is stat field 3 (state), [3] field 6
        # (session id); a zombie has exited and only awaits its reaper
        fields = raw[raw.rindex(b")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def _wait_for_empty_session(sid: int, timeout: float = 15.0) -> list:
    """Live members of session ``sid`` left after up to ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while (members := _live_session_members(sid)) and time.monotonic() < deadline:
        time.sleep(0.1)
    return members


def _run_child(script: pathlib.Path, out: pathlib.Path, env: dict) -> None:
    subprocess.run(
        [sys.executable, str(script), str(out)],
        env=env,
        check=True,
        timeout=600,
        cwd=REPO_ROOT,
    )


def test_sigkill_then_resume_is_bit_identical(tmp_path):
    script = tmp_path / "chaos_child.py"
    script.write_text(CHILD)

    # --- reference: one uninterrupted run in its own cache dir
    ref_dir = tmp_path / "ref"
    ref_out = tmp_path / "ref.json"
    _run_child(script, ref_out, _env(ref_dir))

    # --- chaos: SIGKILL the sweep mid-run, then rerun it
    chaos_dir = tmp_path / "chaos"
    chaos_out = tmp_path / "chaos.json"
    # its own session, so every process it forks can be found and reaped
    proc = subprocess.Popen(
        [sys.executable, str(script), str(chaos_out)],
        env=_env(chaos_dir, delay="1.0"),
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        done_at_kill = _wait_for_partial_progress(proc, chaos_dir)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        leftovers = _wait_for_empty_session(proc.pid)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the session is already empty
    assert proc.returncode == -signal.SIGKILL
    # the killed sweep's pool workers must not outlive it
    assert leftovers == [], f"orphaned sweep processes still running: {leftovers}"
    assert not chaos_out.exists(), "killed run must not have produced output"
    # the cache survived the kill with the pre-kill progress intact
    assert _cached(chaos_dir) >= done_at_kill

    # --- rerun: same command, no chaos delay needed the second time
    _run_child(script, chaos_out, _env(chaos_dir))
    assert _cached(chaos_dir) == TOTAL_POINTS
    assert chaos_out.read_bytes() == ref_out.read_bytes()


def test_sigterm_drains_and_prints_resume_hint(tmp_path):
    """SIGTERM through the CLI: exit 130 + one rerun hint, no traceback;
    rerunning the command prints what an uninterrupted run prints."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "lu",
        "host_overhead",
        *[str(v) for v in (0, 300, 600, 900, 1200, 1500)],
        "--scale",
        "0.05",
        "--jobs",
        "2",
    ]
    term_dir = tmp_path / "term"
    proc = subprocess.Popen(
        argv,
        env=_env(term_dir, delay="1.0"),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _wait_for_partial_progress(proc, term_dir)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        leftovers = _wait_for_empty_session(proc.pid)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the session is already empty
    assert proc.returncode == 130, f"stdout:\n{stdout}\nstderr:\n{stderr}"
    hints = [line for line in stderr.splitlines() if "rerun:" in line]
    assert len(hints) == 1, stderr
    assert "python -m repro sweep lu host_overhead" in hints[0]
    assert "Traceback" not in stderr
    assert leftovers == [], f"sweep processes still running: {leftovers}"
    # every point finished before or during the drain is cached
    assert 1 <= _cached(term_dir) <= TOTAL_POINTS

    rerun = subprocess.run(
        argv, env=_env(term_dir), cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=600, check=True,
    )
    reference = subprocess.run(
        argv, env=_env(tmp_path / "ref"), cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=600, check=True,
    )
    assert rerun.stdout == reference.stdout
