"""Advisory file locking for on-disk state shared between processes.

Two sweeps running on one machine share the run cache and the result
store.  Individual record writes are already atomic (temp file +
``os.replace``), but read-modify-write sequences — quarantine moves,
store ingests — need mutual exclusion.  :func:`file_lock` provides it
with BSD ``flock``:

* the kernel releases the lock when its holder dies, so a SIGKILLed
  sweep can never leave the directory locked — a leftover lock *file*
  is inert, not a held lock;
* on platforms without ``fcntl`` (Windows) the lock degrades to a no-op
  rather than blocking the harness — single-machine POSIX clusters are
  the deployment target.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator

try:  # POSIX only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(TimeoutError):
    """The lock stayed held by another process for the whole timeout."""

    def __init__(self, path: str, timeout: float) -> None:
        self.path = path
        super().__init__(
            f"could not lock {path} within {timeout:.1f}s; another sweep is "
            "writing here — wait for it or use a separate REPRO_CACHE_DIR"
        )


@contextlib.contextmanager
def file_lock(path: os.PathLike, timeout: float = 30.0) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` for the ``with`` body.

    Non-blocking acquisition retried with backoff until ``timeout``
    (seconds), then :class:`LockTimeout`.  The lock file itself is left
    in place after release — it is a rendezvous point, not a token.
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
                    raise LockTimeout(os.fspath(path), timeout) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.1)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
