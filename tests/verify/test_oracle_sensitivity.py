"""Non-vacuousness proof: deliberately broken protocols must be flagged.

Each test monkeypatches one classic LRC bug into the engine — a dropped
write notice, a double-applied diff, a stale lock timestamp, a skipped
invalidation, a frozen vector clock — runs a small directed workload,
and asserts the oracle reports the matching violation kind.  The same
workload runs clean without the mutation (checked in
``test_baseline_is_clean``), so any flag is the mutant's doing.
"""

import pytest

from repro.protocol.base import NodeMemoryState
from repro.protocol.hlrc import HLRCProtocol
from repro.protocol.locks import LockManager
from repro.protocol.timestamps import IntervalLog, VectorClock
from tests.verify.workloads import base_config, make_trace, run_verified

N = 4


def _sensitivity_trace():
    """4 procs, 1 per node, round-robin homes (page p lives on node p%4).

    Page 0 is cached by P2, then written remotely by P1 (twin + diff +
    write notice), then re-read by P2 after a barrier — exercising fetch,
    diff, notice and invalidation paths.  A lock leg (P1, P2 through
    lock 0 on page 1) exercises the grant-timestamp path.
    """
    evs = [[] for _ in range(N)]
    for p in range(N):
        evs[p].append(("b", 0))
    evs[2].append(("r", 0))
    for p in range(N):
        evs[p].append(("b", 1))
    evs[1].append(("w", 0, 16, 1))
    for p in range(N):
        evs[p].append(("b", 2))
    evs[2].append(("r", 0))
    for p in (1, 2):
        evs[p].extend([("a", 0), ("r", 1), ("w", 1, 8, 1), ("l", 0)])
    for p in range(N):
        evs[p].append(("b", 3))
    return make_trace(evs, "sensitivity")


def _run(protocol="hlrc", tmp_path=None, monkeypatch=None):
    if monkeypatch is not None and tmp_path is not None:
        monkeypatch.setenv("REPRO_VIOLATION_DIR", str(tmp_path / "violations"))
    config = base_config(protocol, ppn=1)
    return run_verified(_sensitivity_trace(), config)


def _kinds(result):
    return {v.kind for v in result.violations}


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_baseline_is_clean(protocol):
    result, vlog = _run(protocol)
    assert result.violations == [], [str(v) for v in result.violations]
    assert len(vlog.records) > 0


def test_skipped_write_notice_is_flagged(monkeypatch, tmp_path):
    orig = IntervalLog.append

    def drop_page0_notice(self, proc, pages):
        return orig(self, proc, tuple(p for p in pages if p != 0))

    monkeypatch.setattr(IntervalLog, "append", drop_page0_notice)
    result, _ = _run(monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert _kinds(result) & {"missing-invalidation", "stale-read"}, _kinds(result)


def test_double_applied_diff_is_flagged(monkeypatch, tmp_path):
    orig = HLRCProtocol._h_diff_apply

    def apply_twice(self, cpu, msg):
        if self.ctx.probe is not None:
            self._emit_diff_apply(cpu, msg)  # the double application
        yield from orig(self, cpu, msg)

    monkeypatch.setattr(HLRCProtocol, "_h_diff_apply", apply_twice)
    result, _ = _run(monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert "diff-double-apply" in _kinds(result), _kinds(result)


def test_lost_diff_is_flagged(monkeypatch, tmp_path):
    def swallow(self, cpu, msg):
        if False:  # pragma: no cover - generator marker
            yield None
        # ack without ever applying: the diff is lost at the home
        yield from self.ctx.msg.send_reply(cpu, msg, 16)

    monkeypatch.setattr(HLRCProtocol, "_h_diff_apply", swallow)
    result, _ = _run(monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert "diff-lost" in _kinds(result), _kinds(result)


def test_stale_lock_timestamp_is_flagged(monkeypatch, tmp_path):
    orig = LockManager.release

    def zeroed_snapshot(self, cpu, lock_id, vc_snapshot):
        return orig(self, cpu, lock_id, tuple(0 for _ in vc_snapshot))

    monkeypatch.setattr(LockManager, "release", zeroed_snapshot)
    result, _ = _run(monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert "stale-lock-timestamp" in _kinds(result), _kinds(result)


def test_skipped_invalidation_is_flagged(monkeypatch, tmp_path):
    monkeypatch.setattr(NodeMemoryState, "invalidate", lambda self, pages: 0)
    result, _ = _run(monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert _kinds(result) & {"read-invalid", "stale-read"}, _kinds(result)


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_frozen_vector_clock_is_flagged(protocol, monkeypatch, tmp_path):
    monkeypatch.setattr(VectorClock, "increment", lambda self, proc: self.v[proc])
    result, _ = _run(protocol, monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert "vc-regression" in _kinds(result), _kinds(result)
