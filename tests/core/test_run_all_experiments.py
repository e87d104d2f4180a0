"""scripts/run_all_experiments.py: argument checks and the rerun pass."""

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


@pytest.mark.parametrize(
    "argv",
    [
        ["--scale", "0"],
        ["--scale", "-1"],
        ["--scale", "nan"],
        ["--scale", "inf"],
        ["0"],
        ["-1", "out"],
        ["nan"],
        ["--scale", "0.5", "0"],
    ],
)
def test_bad_scale_rejected(run_all_script, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_all_script.parse_args(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "invalid --scale value" in errors[0]


def test_third_legacy_positional_rejected(run_all_script, capsys):
    with pytest.raises(SystemExit) as exc:
        run_all_script.parse_args(["0.5", "out", "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "too many positional arguments ['extra']" in err


def test_legacy_positionals_still_parse(run_all_script):
    args = run_all_script.parse_args(["0.25", "out"])
    assert args.scale == 0.25
    assert args.out == pathlib.Path("out")


def test_rerun_rewrites_a_deleted_export(run_all_script, tmp_path, monkeypatch):
    """A rerun after deleting one export rewrites it, and ``ALL.txt`` is
    byte-identical."""
    calls = []

    def driver(name):
        def run(scale):
            calls.append(name)
            return ExperimentOutput(name, "stub", ["x"], [[scale]])

        return run

    monkeypatch.setattr(
        run_all_script, "DRIVERS", [("first", driver("first")), ("second", driver("second"))]
    )
    monkeypatch.setattr(run_all_script, "ingest_artifact_quietly", lambda *a, **k: None)
    out = tmp_path / "out"

    run_all_script.run_all(0.5, out, quiet=True)
    assert calls == ["first", "second"]
    all_txt = (out / "ALL.txt").read_bytes()
    second_json = (out / "second.json").read_bytes()

    (out / "second.json").unlink()
    run_all_script.run_all(0.5, out, quiet=True)
    assert calls == ["first", "second", "first", "second"]
    assert (out / "second.json").read_bytes() == second_json
    assert (out / "ALL.txt").read_bytes() == all_txt


def test_interrupt_exits_130_with_rerun_hint(run_all_script, tmp_path, monkeypatch, capsys):
    import signal

    def interrupted(scale):
        raise KeyboardInterrupt

    monkeypatch.setattr(run_all_script, "DRIVERS", [("first", interrupted)])
    before = signal.getsignal(signal.SIGTERM)
    argv = ["--scale", "0.5", "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        run_all_script.main(argv)
    assert exc.value.code == 130
    assert signal.getsignal(signal.SIGTERM) is before
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "interrupted — finished points are cached; rerun: "
        f"python scripts/run_all_experiments.py --scale 0.5 --out {tmp_path / 'out'}"
    ]
