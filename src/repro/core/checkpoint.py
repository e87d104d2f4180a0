"""Sweep checkpoint journal: crash-safe progress for long grid runs.

A full-figure regeneration is hours of simulation; a SIGKILL, OOM, or
power cut must cost at most the points in flight.  Each named sweep owns
a directory under ``results/.checkpoints/<sweep>/`` (override the root
with ``REPRO_CHECKPOINT_DIR``) holding two files:

``meta.json``
    Written once per sweep via atomic write+rename: the sweep's name,
    the CLI argv that created it (so ``python -m repro resume <sweep>``
    can replay it verbatim), the run-cache ``MODEL_VERSION`` it ran
    under, and a coarse status.

``journal.jsonl``
    Append-only, one JSON record per *completed* point: the point's
    run-cache content key and outcome (``done`` / ``failed``).  Every
    append rewrites the file through a temp file + ``os.replace`` under
    an advisory lock (:mod:`repro.core.fslock`), so a kill at any
    instant leaves either the old journal or the new one — never a torn
    line.  Loading still tolerates a corrupt tail defensively (a record
    that does not parse is skipped and counted, never fatal).

The journal records *bookkeeping*; the point results themselves live in
the run cache (:mod:`repro.core.runcache`).  Resume therefore composes:
a journaled-done point is normally a disk-cache hit, and if its cache
record was lost or quarantined the executor simply recomputes it — the
journal can say "done" but never lies about the data, because it does
not carry the data.  Merged results after kill+resume are bit-identical
to an uninterrupted run by construction: every point is produced by the
same deterministic simulation or by the cache record that simulation
wrote.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Set

from repro.core.fslock import file_lock

DEFAULT_CHECKPOINT_DIR = os.path.join("results", ".checkpoints")

#: sweep names become directories: path-safe segments only, "/" allowed
#: as a grouping separator (``run-all-s1.0/figure01``)
_NAME_SEGMENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class SweepInterrupted(RuntimeError):
    """A checkpointed sweep was stopped by SIGINT/SIGTERM after draining.

    Raised *instead of* ``KeyboardInterrupt`` once in-flight points have
    been collected and journaled; carries the one-line resume hint the
    CLI prints in place of a traceback.
    """

    def __init__(self, sweep: str, hint: str, done: int, total: int) -> None:
        self.sweep = sweep
        self.hint = hint
        self.done = done
        self.total = total
        super().__init__(
            f"sweep '{sweep}' interrupted ({done}/{total} points journaled); "
            f"resume with: {hint}"
        )


def checkpoint_root(root: Optional[os.PathLike] = None) -> pathlib.Path:
    """Resolve the checkpoint root (arg > ``REPRO_CHECKPOINT_DIR`` > default)."""
    if root is not None:
        return pathlib.Path(root)
    return pathlib.Path(os.environ.get("REPRO_CHECKPOINT_DIR", DEFAULT_CHECKPOINT_DIR))


def validate_sweep_name(name: str) -> str:
    """Reject names that would escape or mangle the checkpoint tree."""
    segments = name.split("/")
    if not segments or not all(_NAME_SEGMENT.match(s) for s in segments):
        raise ValueError(
            f"invalid sweep name {name!r}: use letters, digits, '.', '_', '-' "
            "(with '/' to group related sweeps)"
        )
    return name


class SweepCheckpoint:
    """One named sweep's journal + metadata (see module docstring)."""

    def __init__(self, name: str, root: Optional[os.PathLike] = None) -> None:
        self.name = validate_sweep_name(name)
        self.root = checkpoint_root(root)
        self.dir = self.root / pathlib.PurePosixPath(name)
        self.journal_path = self.dir / "journal.jsonl"
        self.meta_path = self.dir / "meta.json"
        self._lock_path = self.dir / ".lock"
        #: keys already journaled, per status — refreshed from disk on open
        self._recorded: Dict[str, str] = {}
        #: journal lines that failed to parse on the last load
        self.corrupt_lines = 0
        #: points served from the cache because the journal marked them done
        self.resumed_points = 0
        #: journaled-done points whose cache record was gone (recomputed)
        self.recomputed_points = 0
        self._opened = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def exists(self) -> bool:
        return self.meta_path.is_file() or self.journal_path.is_file()

    def open(self, meta: Optional[dict] = None) -> "SweepCheckpoint":
        """Create the sweep directory (first run) or reload it (resume).

        Idempotent: an experiment that calls :func:`~repro.core.executor.
        run_points` several times journals into one open sweep.
        """
        if self._opened:
            return self
        self.dir.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.is_file():
            from repro.core.runcache import MODEL_VERSION

            record = {
                "sweep": self.name,
                "model_version": MODEL_VERSION,
                "status": "running",
                "created_unix": time.time(),
            }
            record.update(meta or {})
            self._write_meta(record)
        self._reload_journal()
        self._opened = True
        return self

    def finalize(self, status: str = "complete") -> None:
        """Stamp the sweep's coarse status into ``meta.json``."""
        meta = self.meta()
        meta["status"] = status
        meta["finished_unix"] = time.time()
        self._write_meta(meta)

    def delete(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    def meta(self) -> dict:
        try:
            with open(self.meta_path, "r") as fh:
                loaded = json.load(fh)
            return loaded if isinstance(loaded, dict) else {}
        except (OSError, ValueError):
            return {}

    def _write_meta(self, meta: dict) -> None:
        self._atomic_write(self.meta_path, (json.dumps(meta, indent=2) + "\n").encode())

    def resume_hint(self) -> str:
        """The one-line command that continues this sweep."""
        hint = self.meta().get("resume_cmd")
        if isinstance(hint, str) and hint:
            return hint
        return f"python -m repro resume {self.name}"

    # ------------------------------------------------------------------ #
    # journal
    # ------------------------------------------------------------------ #
    def record(self, key: str, status: str, **extra: object) -> None:
        """Journal one point outcome (idempotent per ``(key, status)``)."""
        if self._recorded.get(key) == status:
            return
        rec = {"key": key, "status": status}
        rec.update(extra)
        line = (json.dumps(rec, sort_keys=True, default=repr) + "\n").encode("utf-8")
        with file_lock(self._lock_path):
            try:
                existing = self.journal_path.read_bytes()
            except OSError:
                existing = b""
            self._atomic_write(self.journal_path, existing + line)
        self._recorded[key] = status

    def load(self) -> List[dict]:
        """Parse the journal, skipping (and counting) corrupt lines."""
        try:
            raw = self.journal_path.read_bytes()
        except OSError:
            return []
        records: List[dict] = []
        self.corrupt_lines = 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or "key" not in rec:
                    raise ValueError("not a journal record")
            except ValueError:
                self.corrupt_lines += 1
                continue
            records.append(rec)
        return records

    def _reload_journal(self) -> None:
        self._recorded = {
            str(rec["key"]): str(rec.get("status", ""))
            for rec in self.load()
        }

    def completed_keys(self) -> Set[str]:
        """Content keys of points the journal marks successfully done."""
        if not self._opened:
            self._reload_journal()
        return {k for k, s in self._recorded.items() if s == "done"}

    def failed_keys(self) -> Set[str]:
        if not self._opened:
            self._reload_journal()
        return {k for k, s in self._recorded.items() if s == "failed"}

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def progress(self) -> Dict[str, object]:
        done = sum(1 for s in self._recorded.values() if s == "done")
        failed = sum(1 for s in self._recorded.values() if s == "failed")
        return {
            "sweep": self.name,
            "done": done,
            "failed": failed,
            "resumed_points": self.resumed_points,
            "recomputed_points": self.recomputed_points,
            "corrupt_lines": self.corrupt_lines,
            "status": self.meta().get("status", "unknown"),
        }

    def provenance_note(self) -> str:
        """Human-readable resume provenance for experiment output notes."""
        prog = self.progress()
        note = (
            f"checkpoint '{self.name}': {prog['done']} point(s) journaled"
        )
        if self.resumed_points:
            note += f", {self.resumed_points} resumed from a previous run"
        if self.recomputed_points:
            note += (
                f", {self.recomputed_points} recomputed (journaled done but "
                "missing from the run cache)"
            )
        if prog["failed"]:
            note += f", {prog['failed']} failed"
        return note

    # ------------------------------------------------------------------ #
    @staticmethod
    def _atomic_write(path: pathlib.Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def list_checkpoints(root: Optional[os.PathLike] = None) -> List[SweepCheckpoint]:
    """Every sweep under the checkpoint root (sorted by name)."""
    base = checkpoint_root(root)
    if not base.is_dir():
        return []
    found: List[SweepCheckpoint] = []
    for meta_path in sorted(base.rglob("meta.json")):
        name = meta_path.parent.relative_to(base).as_posix()
        try:
            cp = SweepCheckpoint(name, root=base)
        except ValueError:
            continue
        cp._reload_journal()
        found.append(cp)
    return found
