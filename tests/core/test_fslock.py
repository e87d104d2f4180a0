"""fslock: cross-process mutual exclusion with a bounded wait."""

import os
import subprocess
import sys

from repro.core import fslock

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_file_lock_mutual_exclusion_still_works(tmp_path):
    """A lock held here makes another *process* time out naming the path
    (in one process flock is re-entrant per fd, so probe via a child)."""
    path = tmp_path / ".lock"
    code = (
        "import sys; sys.path.insert(0, sys.argv[2])\n"
        "from repro.core.fslock import file_lock\n"
        "with file_lock(sys.argv[1], timeout=0.2):\n"
        "    pass\n"
    )
    with fslock.file_lock(path):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path), "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
    assert proc.returncode != 0, "subprocess acquired a held lock"
    assert "LockTimeout" in proc.stderr
    assert f"could not lock {path}" in proc.stderr
