"""Concurrent multi-writer checkpoint appends: no torn lines, union on load.

Two separate processes journaling into the *same* sweep directory under
contention must never interleave bytes within a record or lose each
other's appends — the advisory lock + read-modify-rename append in
:meth:`repro.core.checkpoint.SweepCheckpoint.record` serializes them.
Two sweeps on one machine pointed at the same checkpoint name rely on it.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.checkpoint import SweepCheckpoint

WRITERS = 2
RECORDS_PER_WRITER = 40

# Each writer process appends its own batch of records as fast as it can;
# a barrier file keeps them from starting until both are ready, so the
# appends genuinely contend.
CHILD = r"""
import os, sys, time
from repro.core.checkpoint import SweepCheckpoint

writer, n = sys.argv[1], int(sys.argv[2])
cp = SweepCheckpoint("concurrent/journal").open()
barrier = os.path.join(os.environ["REPRO_CHECKPOINT_DIR"], "go")
while not os.path.exists(barrier):
    time.sleep(0.001)
for i in range(n):
    cp.record(f"{writer}-{i:03d}", "done", writer=writer, payload="x" * 64)
"""


@pytest.fixture
def ckpt_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    return tmp_path


def test_two_processes_append_without_tearing(ckpt_dir):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, f"w{i}", str(RECORDS_PER_WRITER)],
            env=dict(os.environ, REPRO_CHECKPOINT_DIR=str(ckpt_dir)),
        )
        for i in range(WRITERS)
    ]
    (ckpt_dir / "go").write_text("")
    for p in procs:
        assert p.wait(timeout=120) == 0

    cp = SweepCheckpoint("concurrent/journal")

    # Byte-level: every line is a complete, parseable JSON record — no
    # interleaved or truncated appends anywhere (not just at the tail).
    raw = cp.journal_path.read_bytes()
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    parsed = [json.loads(line) for line in lines]
    assert len(parsed) == WRITERS * RECORDS_PER_WRITER

    # Record-level: load() sees the union of both writers' appends, each
    # exactly once, with its payload intact.
    cp.load()
    assert cp.corrupt_lines == 0
    expected = {
        f"w{i}-{j:03d}"
        for i in range(WRITERS)
        for j in range(RECORDS_PER_WRITER)
    }
    keys = [rec["key"] for rec in parsed]
    assert set(keys) == expected
    assert len(keys) == len(set(keys)), "a concurrent append was duplicated"
    assert cp.completed_keys() == expected
    for rec in parsed:
        assert rec["writer"] == rec["key"].split("-")[0]
        assert rec["payload"] == "x" * 64

    # Each writer's own records appear in its program order (the lock
    # serializes appends; it must not reorder a single writer's stream).
    for i in range(WRITERS):
        mine = [k for k in keys if k.startswith(f"w{i}-")]
        assert mine == sorted(mine)
