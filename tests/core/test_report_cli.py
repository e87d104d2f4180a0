"""``repro report``: paper artifacts served from store rows, zero simulation.

The acceptance contract of the columnar store is that a committed paper
figure can be re-rendered *entirely* from ingested rows.  The main test
here poisons every simulation entry point — ``run_simulation``, the
memoizing ``cached_run``, the parallel executor and its per-point
worker — then migrates the committed ``results/`` outputs and asserts
``repro report figure01`` reproduces ``results/figure01.txt``
byte-identically with all of them booby-trapped.
"""

import pathlib

import pytest

from repro import cli
from repro.core.store import reset_result_store

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
RESULTS = REPO / "results"


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the process-wide store at a private temp database."""
    monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "store.sqlite"))
    reset_result_store()
    yield
    reset_result_store()


@pytest.fixture
def poisoned_simulator(monkeypatch):
    """Make every route into the simulator explode on contact."""
    # `report ingest` imports repro.experiments, which binds run_points at
    # import: import it first so it keeps the real one for later tests.
    import repro.experiments  # noqa: F401

    def boom(*a, **kw):
        raise AssertionError("report path must not simulate")

    monkeypatch.setattr("repro.core.run.run_simulation", boom)
    monkeypatch.setattr("repro.core.run_simulation", boom)
    monkeypatch.setattr("repro.core.sweeps.cached_run", boom)
    monkeypatch.setattr("repro.core.executor.run_points", boom)
    monkeypatch.setattr("repro.core.executor._compute_or_capture", boom)


def _ingest_committed_results(capsys):
    rc = cli.main(["report", "ingest", "--results", str(RESULTS), "--scale", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "artifact figure01" in out
    return out


@pytest.mark.skipif(
    not (RESULTS / "figure01.txt").is_file(),
    reason="committed results/figure01.txt missing",
)
def test_figure01_byte_identical_without_simulation(
    isolated_store, poisoned_simulator, capsys
):
    _ingest_committed_results(capsys)
    rc = cli.main(["report", "figure01", "--scale", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    committed = (RESULTS / "figure01.txt").read_text(encoding="utf-8")
    assert captured.out == committed  # byte-identical, not merely similar


def test_every_committed_table_round_trips(
    isolated_store, poisoned_simulator, capsys
):
    _ingest_committed_results(capsys)
    for txt_path in sorted(RESULTS.glob("*.txt")):
        if txt_path.stem == "ALL":
            continue
        rc = cli.main(["report", txt_path.stem, "--scale", "1"])
        captured = capsys.readouterr()
        assert rc == 0, f"{txt_path.stem} not served from the store"
        assert captured.out == txt_path.read_text(encoding="utf-8"), txt_path.stem


def test_missing_artifact_is_a_clean_error(isolated_store, capsys):
    rc = cli.main(["report", "figure01"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no stored render" in captured.err
    assert "repro report ingest" in captured.err


def test_unknown_target_names_actions_and_experiments(isolated_store, capsys):
    from repro.experiments import EXPERIMENTS

    rc = cli.main(["report", "trend"])
    captured = capsys.readouterr()
    assert rc == 2
    (line,) = captured.err.splitlines()
    assert "unknown report target 'trend'" in line
    assert "speedups" in line and "figure01" in line
    assert all(exp_id in line for exp_id in EXPERIMENTS)
    assert "repro experiment" not in line


def test_report_list_and_stats(isolated_store, capsys):
    rc = cli.main(["report"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no stored experiment artifacts" in out

    _ingest_committed_results(capsys)
    rc = cli.main(["report", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "figure01" in out

    rc = cli.main(["report", "stats"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "schema_version" in out


def test_report_export_csv(isolated_store, tmp_path, capsys):
    _ingest_committed_results(capsys)
    out_file = tmp_path / "artifacts.csv"
    rc = cli.main([
        "report", "export", "--table", "artifacts", "--out", str(out_file),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exported" in out
    assert out_file.read_text().splitlines()[0].startswith("id,experiment_id")


def test_report_disabled_store(isolated_store, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULT_STORE", "0")
    reset_result_store()
    rc = cli.main(["report", "stats"])
    assert rc == 2
    assert "disabled" in capsys.readouterr().err


def test_report_ingest_runcache(isolated_store, tmp_path, monkeypatch, capsys):
    """Existing .runcache records migrate into the runs table."""
    from repro.core import runcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runcache.reset_disk_cache()
    try:
        from repro.apps import get_app
        from repro.core import ClusterConfig, run_simulation
        from repro.core.sweeps import cache_store

        cfg = ClusterConfig()
        trace = get_app(
            "fft", page_size=cfg.comm.page_size, scale=0.02, seed=cfg.seed
        )
        cache_store("fft", 0.02, cfg, run_simulation(trace, cfg))

        rc = cli.main(["report", "ingest", "--runcache", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 new run(s)" in out

        from repro.core.store import result_store

        rows = result_store().speedups(app="fft")
        assert len(rows) == 1
        assert rows[0]["scale"] == 0.02
    finally:
        runcache.reset_disk_cache()
