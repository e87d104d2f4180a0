"""Persistent on-disk run cache.

Every (application, scale, configuration) point is deterministic, so its
:class:`~repro.core.metrics.RunResult` can be memoized *across* processes
and invocations — the expensive full-grid regenerations share one cache
on disk, layered *under* the in-memory dicts in :mod:`repro.core.sweeps`.

Keys are a SHA-256 content hash over the application name, the problem
scale, the RNG seed, the full :class:`~repro.core.config.ClusterConfig`
(architecture *and* communication parameters), and :data:`MODEL_VERSION`.
Records are single pickle files under the cache root (default
``results/.runcache/``; override with ``REPRO_CACHE_DIR``; disable the
whole layer with ``REPRO_DISK_CACHE=0``).  A record (format 3) holds the
result without its config, which :meth:`DiskCache.get` takes from the
caller: the key already hashes that config.

Integrity
---------
A record is an *envelope*: the pickled result payload plus a SHA-256
checksum over those exact bytes.  Every load verifies the checksum, so a
half-written, bit-rotted, or truncated file can never hand back a wrong
result — it is **quarantined** (moved to ``<root>/quarantine/``, logged,
counted) and treated as a cache miss, never a crash.  Records written
under an older :data:`MODEL_VERSION` or envelope format are *stale*, not
corrupt: they miss silently and are left in place.  Writes are atomic
(temp file + ``os.replace``) and serialized by an advisory lock
(:mod:`repro.core.fslock`) so concurrent sweeps on one machine do not
interleave; ``python -m repro cache verify`` audits the whole directory.

**Cache-coherence rule:** the cache cannot observe changes to the
simulator's cost model, only to the configuration.  Whenever a change
alters what a simulation *returns* for the same configuration — a cost
constant, a protocol fix, a new time category — bump :data:`MODEL_VERSION`
so every stale entry misses.  ``python -m repro cache clear`` purges the
directory outright.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import pickle
import tempfile
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.fslock import file_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ClusterConfig
    from repro.core.metrics import RunResult

logger = logging.getLogger("repro.runcache")

#: bump on ANY change that alters simulation results for a fixed config
#: (cost-model constants, protocol behaviour, metrics definitions).
#: 2: fault injection / reliable delivery (FaultParams on ClusterConfig).
#: 3: observability layer — RunResult grows resource_busy/phase_marks/
#:    metrics_* fields, so pre-3 pickles lack attributes new code reads.
#: 4: decorrelated jitter on the retransmit backoff (FaultParams.
#:    retry_jitter, default 0.5) — retransmit timing under injected
#:    faults changes for the same seed.
MODEL_VERSION = 4

#: on-disk record layout version (the pickle envelope, not the model).
#: 2: checksummed envelope — the result is pickled separately into a
#:    ``payload`` bytes field guarded by a ``sha256`` over those bytes.
#: 3: the payload's result has ``config=None``; ``get`` re-attaches the
#:    caller's config.  Format-2 records are stale misses.
_FORMAT_VERSION = 3

_MAGIC = "repro-runcache"

DEFAULT_CACHE_DIR = os.path.join("results", ".runcache")

QUARANTINE_DIRNAME = "quarantine"

_LOCK_FILENAME = ".lock"


def _encode(obj: object) -> object:
    """``json.dumps`` fallback: a dataclass instance as its field dict
    (what ``dataclasses.asdict`` gave, without its deep copy), anything
    else as its ``repr``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return repr(obj)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_encode)
#: each config's canonical JSON, so a pass encodes it once (dropped by
#: :func:`repro.core.sweeps.clear_caches`)
CONFIG_JSON: Dict["ClusterConfig", str] = {}


def content_key(app: str, scale: float, config: "ClusterConfig") -> str:
    """Stable content hash identifying one simulation point.

    The hash covers everything that determines the result — app name,
    scale, seed, and every field of the config (nested ``ArchParams`` and
    ``CommParams`` included) — plus :data:`MODEL_VERSION`.  It is stable
    across processes and Python invocations (no reliance on ``hash()``),
    and its bytes must never change without a :data:`MODEL_VERSION`
    bump: every record on disk is filed under one.  They are the
    ``sort_keys`` compact JSON of ``{"app", "config", "model_version",
    "scale", "seed"}``, spliced around the config's memoized encoding.
    """
    fragment = CONFIG_JSON.get(config)
    if fragment is None:
        fragment = CONFIG_JSON[config] = _ENCODER.encode(config)
    enc = _ENCODER.encode
    blob = '{"app":%s,"config":%s,"model_version":%s,"scale":%s,"seed":%s}' % (
        enc(app), fragment, enc(MODEL_VERSION), enc(repr(float(scale))), enc(config.seed)
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory of pickled :class:`RunResult` records keyed by content hash.

    Writes are atomic (temp file + ``os.replace``) under an advisory
    directory lock; loads verify a per-record checksum and quarantine
    anything unreadable (see the module docstring's integrity contract).
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        #: corrupt records moved aside by this process
        self.quarantined = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / QUARANTINE_DIRNAME

    @property
    def _lock_path(self) -> pathlib.Path:
        return self.root / _LOCK_FILENAME

    # ------------------------------------------------------------------ #
    # record I/O
    # ------------------------------------------------------------------ #
    @staticmethod
    def _classify(path: pathlib.Path) -> Tuple[str, Optional["RunResult"]]:
        """Load one record file: ``("ok", result)``, ``("stale", None)``,
        ``("corrupt", None)`` or ``("missing", None)``.

        *Stale* means a well-formed envelope from another model/format
        version — valid history, not damage.  Everything else unreadable
        is *corrupt*.
        """
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except OSError:
            return "missing", None
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, AttributeError,
            # ImportError...).
            return "corrupt", None
        if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
            return "corrupt", None
        if (
            envelope.get("format") != _FORMAT_VERSION
            or envelope.get("model_version") != MODEL_VERSION
        ):
            return "stale", None
        payload = envelope.get("payload")
        if not isinstance(payload, bytes):
            return "corrupt", None
        if hashlib.sha256(payload).hexdigest() != envelope.get("sha256"):
            return "corrupt", None
        try:
            result = pickle.loads(payload)
        except Exception:
            return "corrupt", None
        return "ok", result

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt record aside so it can never poison a run again."""
        dest = self.quarantine_dir / path.name
        try:
            with file_lock(self._lock_path):
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
        except OSError:
            # Racing quarantiners/cleaners: losing the race is fine, the
            # record is gone either way.
            return
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt run-cache record %s -> %s "
            "(checksum/unpickle failure; treated as a cache miss)",
            path.name,
            dest,
        )

    def get(self, key: str, config: "ClusterConfig") -> Optional["RunResult"]:
        """The result filed under ``key``, with ``config`` re-attached, or ``None``."""
        path = self._path(key)
        status, result = self._classify(path)
        if result is not None:
            self.hits += 1
            result.config = config
            return result
        if status == "corrupt":
            self._quarantine(path)
        self.misses += 1
        return None

    def put(self, key: str, result: "RunResult") -> None:
        bare = dataclasses.replace(result, config=None)  # type: ignore[arg-type]
        payload = pickle.dumps(bare, protocol=pickle.HIGHEST_PROTOCOL)
        record = {
            "magic": _MAGIC,
            "format": _FORMAT_VERSION,
            "model_version": MODEL_VERSION,
            "app": result.app_name,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with file_lock(self._lock_path):
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # ------------------------------------------------------------------ #
    def entries(self) -> list:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def verify(self) -> Dict[str, object]:
        """Audit every record: checksum-verify, quarantine the corrupt.

        Returns counts per disposition plus the quarantined file names;
        used by ``python -m repro cache verify``.
        """
        ok = stale = 0
        quarantined: List[str] = []
        for path in self.entries():
            status, _ = self._classify(path)
            if status == "ok":
                ok += 1
            elif status == "stale":
                stale += 1
            elif status == "corrupt":
                self._quarantine(path)
                quarantined.append(path.name)
        return {
            "root": str(self.root),
            "ok": ok,
            "stale": stale,
            "quarantined": len(quarantined),
            "quarantined_files": quarantined,
            "quarantine_dir": str(self.quarantine_dir),
        }

    def stats(self) -> Dict[str, object]:
        files = self.entries()
        in_quarantine = (
            len(list(self.quarantine_dir.glob("*.pkl")))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "entries": len(files),
            "bytes": sum(p.stat().st_size for p in files),
            "model_version": MODEL_VERSION,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_quarantined": self.quarantined,
            "in_quarantine": in_quarantine,
        }

    def clear(self) -> int:
        """Delete every record (incl. quarantine and stray temp files);
        returns the count of cache records removed."""
        removed = 0
        if self.root.is_dir():
            for p in list(self.root.glob("*.pkl")) + list(self.root.glob("*.tmp")):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
        if self.quarantine_dir.is_dir():
            for p in self.quarantine_dir.glob("*.pkl"):
                try:
                    p.unlink()
                except OSError:
                    pass
        return removed


# --------------------------------------------------------------------- #
# process-wide default cache, configured from the environment
# --------------------------------------------------------------------- #
_disk_cache: Optional[DiskCache] = None
_configured = False


def disk_cache() -> Optional[DiskCache]:
    """The process-wide cache, or ``None`` when ``REPRO_DISK_CACHE=0``."""
    global _disk_cache, _configured
    if not _configured:
        if os.environ.get("REPRO_DISK_CACHE", "1") not in ("0", "false", "no"):
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
            _disk_cache = DiskCache(root)
        else:
            _disk_cache = None
        _configured = True
    return _disk_cache


def reset_disk_cache() -> None:
    """Forget the configured cache so the next use re-reads the environment
    (tests point ``REPRO_CACHE_DIR`` at a temp dir and call this)."""
    global _disk_cache, _configured
    _disk_cache = None
    _configured = False
