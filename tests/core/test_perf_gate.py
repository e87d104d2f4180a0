"""The same-runner perf gate, driven over two stub checkouts."""

import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "perf_gate.py"
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

BASE = {
    "points_per_s": 10.0,
    "sim_events_per_s": 100000.0,
    "peak_rss_mb": 50.0,
    "ok_frac": 1.0,
    "setup_s": 4.0,
}

RUN_PY = """\
import json
print(json.dumps({"diagnostics": {"stub": True}}))
print(%r)
"""

# the two modules the python_calls probe imports: each cold pass makes
# CALLS calls to one function, so a checkout's count is CALLS plus the
# probe's own constant overhead
HARNESS_PY = """\
from contextlib import contextmanager
CALLS = %d
def _tick():
    pass
def run_pass(grid):
    for _ in range(CALLS):
        _tick()
@contextmanager
def isolated_env(workdir):
    yield
def point_state_at(path):
    pass
"""

WORKLOADS_PY = """\
DEFAULT_SEED = 0
def build_grid(workload, seed):
    return []
"""

# the stub regeneration the real run_pool_cold times
RUN_ALL_SLEEP_S = 0.1
RUN_ALL_PY = """\
import time
time.sleep(%r)
""" % RUN_ALL_SLEEP_S


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_gate", module)
    spec.loader.exec_module(module)
    return module


def _checkout(root, correct=True, calls=1000, **overrides):
    """A fake checkout whose perfbench prints fixed metrics and whose
    cold pass makes ``calls`` calls (``None``: no probe modules)."""
    (root / "perfbench").mkdir(parents=True)
    if calls is not None:
        (root / "perfbench" / "harness.py").write_text(HARNESS_PY % calls)
        (root / "perfbench" / "workloads.py").write_text(WORKLOADS_PY)
    (root / "scripts").mkdir()
    metrics = {name: {"value": value, "unit": "-"}
               for name, value in dict(BASE, **overrides).items()}
    line = json.dumps({"correct": correct, "attempted": 70,
                       "failed": 0 if correct else 1, "metrics": metrics})
    (root / "perfbench" / "run.py").write_text(RUN_PY % line)
    (root / "scripts" / "run_all_experiments.py").write_text(RUN_ALL_PY)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _fixed_pool_cold(checkout):
    """A timed pool_cold row with the same value on both sides: two real
    stub regenerations differ by host load, not by the checkout."""
    return {"returncode": 0, "correct": True,
            "metrics": {"pool_cold_s": 1.0}, "stderr": ""}


def _run(gate, tmp_path, monkeypatch, **change):
    monkeypatch.setattr(gate, "run_pool_cold", _fixed_pool_cold)
    parent = _checkout(tmp_path / "parent")
    monkeypatch.setattr(gate, "REPO", _checkout(tmp_path / "change", **change))
    monkeypatch.chdir(tmp_path)
    rc = gate.main([str(parent)])
    return rc, json.loads((tmp_path / "perf_gate.json").read_text())


def _verdicts(report):
    return {(r["workload"], r["metric"]): r["verdict"] for r in report["rows"]}


def _calls_rows(report):
    return {r["workload"]: r for r in report["rows"] if r["metric"] == "python_calls"}


COLD = [w["name"] for w in DECLARED["workloads"] if w["name"].endswith("_cold")]


def test_equal_sides_pass(gate, tmp_path, monkeypatch, capsys):
    rc, report = _run(gate, tmp_path, monkeypatch)
    assert rc == 0
    assert report["passed"] and report["failures"] == []
    assert set(_verdicts(report).values()) == {"ok"}
    pool = next(r for r in report["rows"] if r["metric"] == "pool_cold_s")
    throughput = next(m for m in DECLARED["end_to_end"] if m["name"] == "points_per_s")
    assert (pool["workload"], pool["better"], pool["bound"]) == (
        "pool_cold", "lower", throughput["bound"])
    # every workload ran PAIRS times on each side
    assert all(len(runs) == gate.PAIRS for runs in report["runs"].values())
    assert "perf gate passed" in capsys.readouterr().out


def test_lower_is_better_metric_30pct_worse_fails(gate, tmp_path, monkeypatch):
    rc, report = _run(gate, tmp_path, monkeypatch, setup_s=BASE["setup_s"] * 1.3)
    assert rc == 1
    verdicts = _verdicts(report)
    for workload in DECLARED["workloads"]:
        assert verdicts[workload["name"], "setup_s"] == "FAIL"
        assert verdicts[workload["name"], "points_per_s"] == "ok"


def test_higher_is_better_metric_20pct_worse_passes(gate, tmp_path, monkeypatch):
    rc, report = _run(gate, tmp_path, monkeypatch,
                      points_per_s=BASE["points_per_s"] * 0.8)
    assert rc == 0, report["failures"]
    row = next(r for r in report["rows"] if r["metric"] == "points_per_s")
    assert row["worse_by"] == pytest.approx(0.2)
    assert row["ratio"] == pytest.approx(0.8)


def test_ratio_column_shows_a_gain(gate, tmp_path, monkeypatch, capsys):
    rc, report = _run(gate, tmp_path, monkeypatch,
                      points_per_s=BASE["points_per_s"] * 2.5)
    assert rc == 0, report["failures"]
    header, *lines = capsys.readouterr().out.splitlines()
    assert "change/parent" in header
    gains = [line for line in lines if " points_per_s " in line]
    assert len(gains) == len(DECLARED["workloads"])
    assert all(" 2.500 " in line for line in gains)
    for row in report["rows"]:
        if row["metric"] == "points_per_s":
            assert row["ratio"] == pytest.approx(2.5)
        else:
            assert row["ratio"] == pytest.approx(1.0)


def test_run_pool_cold_times_a_stub_checkout(gate, tmp_path):
    run = gate.run_pool_cold(_checkout(tmp_path / "ok"))
    assert (run["returncode"], run["correct"], run["stderr"]) == (0, True, "")
    assert run["metrics"]["pool_cold_s"] >= RUN_ALL_SLEEP_S

    broken = _checkout(tmp_path / "broken")
    (broken / "scripts" / "run_all_experiments.py").write_text(
        "import sys\nsys.exit('regeneration failed')\n")
    run = gate.run_pool_cold(broken)
    assert (run["returncode"], run["correct"], run["metrics"]) == (1, False, {})
    assert "regeneration failed" in run["stderr"]


def test_incorrect_change_fails(gate, tmp_path, monkeypatch):
    rc, report = _run(gate, tmp_path, monkeypatch, correct=False)
    assert rc == 1
    assert any("change run" in f and "correct=False" in f for f in report["failures"])


def test_every_declared_metric_is_reported(gate, tmp_path, monkeypatch, capsys):
    _, report = _run(gate, tmp_path, monkeypatch)
    table = capsys.readouterr().out
    reported = {r["metric"] for r in report["rows"]}
    for metric in DECLARED["end_to_end"]:
        assert metric["name"] in reported
        assert metric["name"] in table


def test_python_calls_row_per_cold_workload(gate, tmp_path, monkeypatch, capsys):
    rc, report = _run(gate, tmp_path, monkeypatch, calls=600)
    assert rc == 0, report["failures"]
    rows = _calls_rows(report)
    assert sorted(rows) == sorted(COLD) and COLD
    overhead = rows[COLD[0]]["parent"] - 1000  # the probe's own calls
    for row in rows.values():
        assert isinstance(row["parent"], int) and isinstance(row["change"], int)
        assert (row["parent"], row["change"]) == (1000 + overhead, 600 + overhead)
        assert row["ratio"] == pytest.approx((600 + overhead) / (1000 + overhead))
        assert (row["better"], row["bound"], row["verdict"]) == ("lower", None, "ok")
    assert sorted(report["python_calls"]) == sorted(
        f"{w}/{side}" for w in COLD for side in ("parent", "change"))
    # printed in full, not rounded to four digits
    table = capsys.readouterr().out
    assert f"{1000 + overhead:,d}" in table and f"{600 + overhead:,d}" in table


def test_more_python_calls_do_not_fail_the_gate(gate, tmp_path, monkeypatch):
    rc, report = _run(gate, tmp_path, monkeypatch, calls=5000)
    assert rc == 0, report["failures"]
    assert all(r["worse_by"] > 1 for r in _calls_rows(report).values())


def test_python_calls_probe_failure_fails(gate, tmp_path, monkeypatch):
    rc, report = _run(gate, tmp_path, monkeypatch, calls=None)
    assert rc == 1
    assert {r["verdict"] for r in _calls_rows(report).values()} == {"FAIL"}
    assert any("python_calls: change run 1 exited 1" in f for f in report["failures"])
