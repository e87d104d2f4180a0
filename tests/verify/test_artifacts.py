"""Failure artifacts: dump on violation, config round-trip, CLI replay."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.protocol.base import NodeMemoryState
from repro.verify.artifacts import (
    config_from_dict,
    dump_violation_artifact,
    load_artifact,
    replay_command,
    trace_from_artifact,
    violations_dir,
)
from tests.verify.workloads import base_config, migratory, run_verified


def _broken_run(monkeypatch, protocol="hlrc"):
    """A run guaranteed to violate: invalidations silently skipped."""
    monkeypatch.setattr(NodeMemoryState, "invalidate", lambda self, pages: 0)
    trace = migratory(2, 3, 16, 500)
    return run_verified(trace, base_config(protocol, ppn=1)), trace


def test_violation_dumps_replayable_artifact(monkeypatch, tmp_path):
    out = tmp_path / "violations"
    monkeypatch.setenv("REPRO_VIOLATION_DIR", str(out))
    (result, _vlog), _trace = _broken_run(monkeypatch)
    assert result.violations
    artifacts = list(out.glob("*.json"))
    assert len(artifacts) == 1
    payload = load_artifact(artifacts[0])
    assert payload["schema"] == 1
    assert payload["app"]["name"] == "migratory"
    assert payload["violations"], "artifact lost the violations"
    assert payload["verify_event_tail"], "artifact lost the event context"
    assert payload["replay"] == replay_command(artifacts[0])
    assert "--replay" in payload["replay"]


def test_artifact_replay_detects_and_clears(monkeypatch, tmp_path):
    out = tmp_path / "violations"
    monkeypatch.setenv("REPRO_VIOLATION_DIR", str(out))
    _ = _broken_run(monkeypatch)
    path = str(next(out.glob("*.json")))
    # mutant still active -> replay re-detects the violation
    assert main(["verify", "--replay", path]) == 1
    # mutant removed -> the same artifact replays clean
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_VIOLATION_DIR", str(out))
    assert main(["verify", "--replay", path]) == 0


def test_config_round_trips_through_artifact_dict(monkeypatch, tmp_path):
    from repro.net.faults import FaultParams

    config = base_config(
        "aurc",
        ppn=2,
        host_overhead=500,
        faults=FaultParams(drop_prob=0.05, retry_timeout=20_000),
    ).replace(verify=True)
    assert config_from_dict(dataclasses.asdict(config)) == config
    # and through actual JSON (tuples become lists on the way)
    round_tripped = config_from_dict(
        json.loads(json.dumps(dataclasses.asdict(config)))
    )
    assert round_tripped == config


def test_violation_dir_env_disables_dumping(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_VIOLATION_DIR", "0")
    assert violations_dir() is None
    (result, vlog), trace = _broken_run(monkeypatch)
    assert result.violations
    assert (
        dump_violation_artifact(trace, base_config("hlrc"), result.violations, vlog.records)
        is None
    )


def test_trace_from_artifact_requires_inline_events(tmp_path):
    with pytest.raises(ValueError, match="no inline trace"):
        trace_from_artifact({"app": {"name": "x"}, "events_omitted": 10**6})


def test_load_artifact_rejects_non_artifacts(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="not a violation artifact"):
        load_artifact(bogus)
    with pytest.raises(ValueError, match="cannot read"):
        load_artifact(tmp_path / "missing.json")
