"""Advisory file locking for on-disk state shared between processes.

Two sweeps running on one machine share the run cache and (if pointed at
the same name) a checkpoint journal.  Individual record writes are
already atomic (temp file + ``os.replace``), but read-modify-write
sequences — journal appends, quarantine moves — need mutual exclusion.
:func:`file_lock` provides it with BSD ``flock``:

* the lock dies with its holder, so a SIGKILLed sweep can never leave
  the directory permanently locked — a leftover lock *file* is inert
  metadata, not a held lock (stale-lock recovery is automatic);
* the holder's ``(pid, process start time)`` pair is recorded in the
  lock file for diagnostics and staleness checks.  The start time is
  what makes the check immune to PID reuse: a recycled PID is a
  *different* process with a different start time, so
  :func:`lock_holder` reports it as stale instead of treating it as a
  live holder forever;
* on platforms without ``fcntl`` (Windows) the lock degrades to a no-op
  rather than blocking the harness — single-machine POSIX clusters are
  the deployment target.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, Optional, Tuple

try:  # POSIX only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: procfs mount point; tests monkeypatch this to simulate hosts without
#: /proc (macOS, slim containers) where start-time identity degrades to
#: a plain existence check (never "holder assumed dead").
PROC_ROOT = "/proc"


def has_procfs() -> bool:
    """Whether this host can resolve ``(pid, start time)`` identity."""
    return process_start_time(os.getpid()) is not None


class LockTimeout(TimeoutError):
    """The lock stayed held by a *live* process for the whole timeout."""

    def __init__(self, path: str, timeout: float, holder: Optional[int]) -> None:
        self.path = path
        self.holder = holder
        who = f"pid {holder}" if holder else "an unknown process"
        super().__init__(
            f"could not lock {path} within {timeout:.1f}s (held by {who}); "
            "another sweep is writing here — wait for it or use a separate "
            "REPRO_CACHE_DIR/REPRO_CHECKPOINT_DIR"
        )


def process_start_time(pid: int) -> Optional[int]:
    """Kernel start time (clock ticks since boot) of ``pid``, or ``None``.

    Read from field 22 of ``/proc/<pid>/stat``.  The comm field (2) can
    itself contain spaces and parentheses, so parsing anchors on the
    *last* ``')'``.  ``None`` means "no such process" or "no /proc here"
    (macOS, containers without procfs) — callers must then fall back to
    a plain liveness check.
    """
    try:
        with open(f"{PROC_ROOT}/{pid}/stat", "rb") as fh:
            raw = fh.read()
        fields = raw[raw.rindex(b")") + 2:].split()
        # fields[0] is stat field 3 (state); start time is field 22
        return int(fields[19])
    except (OSError, ValueError, IndexError):
        return None


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists (any owner)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False


def process_identity(pid: Optional[int] = None) -> Tuple[int, Optional[int]]:
    """``(pid, start time)`` identity of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    return pid, process_start_time(pid)


def is_process_alive(pid: int, start_time: Optional[int] = None) -> bool:
    """Liveness check immune to PID reuse.

    With a recorded ``start_time``, a live process whose start time does
    not match is a *recycled PID* — some unrelated process — and counts
    as dead.  Without one (legacy lock files, no procfs) this degrades
    to the plain existence check.
    """
    if not pid_alive(pid):
        return False
    if start_time is None:
        return True
    current = process_start_time(pid)
    if current is None:
        # No procfs to compare against: existence is all we know.
        return True
    return current == start_time


def lock_holder(path: os.PathLike) -> Optional[int]:
    """PID of the *live* process that last acquired the lock, else ``None``.

    The lock file records ``pid start_time``; the holder counts only if
    a process with that pid is alive *and* (when a start time was
    recorded) its start time matches — a recycled PID can never
    impersonate a dead holder and wedge a sweep forever.  Note this is
    still advisory diagnostics: with ``flock`` a dead process's lock is
    already released regardless of what the file says.
    """
    try:
        with open(path, "r") as fh:
            parts = fh.read().split()
    except OSError:
        return None
    try:
        pid = int(parts[0])
    except (IndexError, ValueError):
        return None
    start: Optional[int] = None
    if len(parts) > 1:
        try:
            start = int(parts[1])
        except ValueError:
            start = None
    if pid and is_process_alive(pid, start):
        return pid
    return None


@contextlib.contextmanager
def file_lock(path: os.PathLike, timeout: float = 30.0) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` for the ``with`` body.

    Non-blocking acquisition retried until ``timeout`` (seconds), then
    :class:`LockTimeout`.  The lock file itself is left in place after
    release — it is a rendezvous point, not a token, so its existence
    means nothing (see module docstring on stale locks).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        deadline = time.monotonic() + timeout
        delay = 0.005
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        os.fspath(path), timeout, lock_holder(path)
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.1)
        try:
            pid, start = process_identity()
            stamp = f"{pid} {start}\n" if start is not None else f"{pid}\n"
            os.ftruncate(fd, 0)
            os.write(fd, stamp.encode("ascii"))
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
