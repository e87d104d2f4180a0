"""scripts/run_all_experiments.py: argument checks and the --resume pass."""

import importlib.util
import pathlib
import sys

import pytest

from repro.experiments.common import ExperimentOutput

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "run_all_experiments.py"


@pytest.fixture(scope="module")
def run_all_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("run_all_experiments", module)
    spec.loader.exec_module(module)
    return module


def test_negative_jobs_rejected(run_all_script, capsys):
    with pytest.raises(SystemExit) as exc:
        run_all_script.parse_args(["--jobs", "-1"])
    assert exc.value.code == 2
    assert "invalid --jobs value '-1'" in capsys.readouterr().err


def test_resume_skips_journaled_driver_and_reruns_missing_export(
    run_all_script, tmp_path, monkeypatch
):
    calls = []

    def driver(name):
        def run(scale):
            calls.append(name)
            return ExperimentOutput(name, "stub", ["x"], [[scale]])

        return run

    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setattr(
        run_all_script, "DRIVERS", [("first", driver("first")), ("second", driver("second"))]
    )
    monkeypatch.setattr(run_all_script, "ingest_artifact_quietly", lambda *a, **k: None)
    out = tmp_path / "out"

    run_all_script.run_all(0.5, out, quiet=True)
    assert calls == ["first", "second"]
    all_txt = (out / "ALL.txt").read_text()

    (out / "second.json").unlink()
    timings = run_all_script.run_all(0.5, out, quiet=True, resume=True)
    assert calls == ["first", "second", "second"]
    assert timings["first"] == 0.0
    assert (out / "second.json").is_file()
    assert (out / "ALL.txt").read_text() == all_txt
