"""Replayable failure artifacts for oracle violations.

When a verified run breaks an invariant, the run's workload trace and
full configuration are dumped as one JSON file under
``results/violations/`` (override with ``REPRO_VIOLATION_DIR``; set it to
``0``/``off`` to disable dumping).  The file is self-contained: a single
``repro verify --replay <file>`` rebuilds the exact config and trace and
re-runs the oracle — which is what makes Hypothesis-shrunk failures
actionable long after the generating seed is gone.

Filenames are content-hashed, so re-running the same failure overwrites
the same artifact instead of littering the directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.apps.base import AppTrace
from repro.verify.events import VerifyLog

#: environment override for the artifact directory ("0"/"off" disables)
VIOLATION_DIR_ENV = "REPRO_VIOLATION_DIR"
DEFAULT_VIOLATION_DIR = os.path.join("results", "violations")
#: artifacts above this many trace events drop the inline trace (the
#: config + violation summary is still written; replay needs the app)
MAX_INLINE_EVENTS = 250_000
#: verify-event records kept as context around the failure
CONTEXT_TAIL = 200

ARTIFACT_SCHEMA = 1


def violations_dir() -> Optional[Path]:
    """Resolved artifact directory, or ``None`` when dumping is disabled."""
    raw = os.environ.get(VIOLATION_DIR_ENV)
    if raw is None:
        return Path(DEFAULT_VIOLATION_DIR)
    raw = raw.strip()
    if raw.lower() in ("", "0", "off", "none", "disabled"):
        return None
    return Path(raw)


def _jsonify(value: Any) -> Any:
    """Tuples -> lists, recursively (JSON round-trip normalization)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def replay_command(path: "Path | str") -> str:
    """The one-liner that re-runs an artifact through the oracle."""
    return f"PYTHONPATH=src python -m repro verify --replay {path}"


def dump_violation_artifact(
    app: AppTrace,
    config: Any,
    violations: Sequence[Any],
    log: VerifyLog,
    out_dir: Optional[Path] = None,
) -> Optional[Path]:
    """Write a replayable JSON repro for a violated run.

    Returns the artifact path, or ``None`` when dumping is disabled via
    ``REPRO_VIOLATION_DIR=0``.
    """
    target = out_dir if out_dir is not None else violations_dir()
    if target is None:
        return None
    n_events = sum(len(evs) for evs in app.events)
    payload: Dict[str, Any] = {
        "schema": ARTIFACT_SCHEMA,
        "app": {
            "name": app.name,
            "problem": app.problem,
            "n_procs": app.n_procs,
            "serial_cycles": app.serial_cycles,
            "shared_bytes": app.shared_bytes,
        },
        "config": _jsonify(dataclasses.asdict(config)),
        "violations": [_jsonify(v.to_dict()) for v in violations],
        "verify_event_tail": [
            [rec.time, rec.kind, _jsonify(rec.detail)]
            for rec in log.records[-CONTEXT_TAIL:]
        ],
    }
    if n_events <= MAX_INLINE_EVENTS:
        payload["events"] = [_jsonify(evs) for evs in app.events]
    else:
        payload["events_omitted"] = n_events
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    payload["replay"] = None  # placeholder, filled below with the path
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"{app.name or 'trace'}-{config.protocol}-{digest}.json"
    payload["replay"] = replay_command(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


# --------------------------------------------------------------------- #
# loading / replay
# --------------------------------------------------------------------- #
def load_artifact(path: "Path | str") -> Dict[str, Any]:
    p = Path(path)
    try:
        payload = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read violation artifact {p}: {exc}") from exc
    if not isinstance(payload, dict) or "config" not in payload:
        raise ValueError(f"{p} is not a violation artifact (no config)")
    return payload


def config_from_dict(d: Dict[str, Any]) -> Any:
    """Rebuild a :class:`ClusterConfig` from its ``dataclasses.asdict``."""
    from repro.arch.params import ArchParams, CommParams
    from repro.core.config import ClusterConfig
    from repro.net.faults import FaultParams

    d = dict(d)
    arch = ArchParams(**d.pop("arch"))
    comm = CommParams(**d.pop("comm"))
    faults_d = dict(d.pop("faults"))
    faults_d["degraded_links"] = tuple(
        tuple(link) for link in faults_d.get("degraded_links", ())
    )
    faults = FaultParams(**faults_d)
    return ClusterConfig(arch=arch, comm=comm, faults=faults, **d)


def trace_from_artifact(payload: Dict[str, Any]) -> AppTrace:
    """Rebuild the workload trace inlined in an artifact."""
    if "events" not in payload:
        n = payload.get("events_omitted", "?")
        raise ValueError(
            f"artifact has no inline trace ({n} events were above the "
            f"{MAX_INLINE_EVENTS}-event cap); re-run the named app with "
            "--verify instead"
        )
    app_meta = payload.get("app", {})
    events: List[List[tuple]] = [
        [tuple(ev) for ev in proc_events] for proc_events in payload["events"]
    ]
    return AppTrace(
        name=app_meta.get("name", "replay"),
        n_procs=app_meta.get("n_procs", len(events)),
        events=events,
        serial_cycles=app_meta.get("serial_cycles", 0),
        shared_bytes=app_meta.get("shared_bytes", 0),
        problem=app_meta.get("problem", ""),
    )
