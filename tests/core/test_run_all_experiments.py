"""scripts/run_all_experiments.py: argument checks, the one simulation
pass, and the rerun pass."""

import importlib.util
import pathlib
import sys

import pytest

from repro.core import runcache, sweeps
from repro.core.sweeps import clear_caches
from repro.experiments import EXPERIMENTS
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

    def experiment(name):
        def render(scale, apps, results):
            calls.append(name)
            return ExperimentOutput(name, "stub", ["x"], [[scale]])

        return (lambda scale, apps: [], render)

    monkeypatch.setattr(
        run_all_script,
        "EXPERIMENTS",
        {"first": experiment("first"), "second": experiment("second")},
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

    def interrupted(scale, apps):
        raise KeyboardInterrupt

    monkeypatch.setattr(run_all_script, "EXPERIMENTS", {"first": (interrupted, None)})
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


#: a registry subset that shares points (figure01 and table04 both read
#: the achievable baseline) and includes the 12-processor
#: equal-budget rows of section10-processing
SUBSET = ("figure01", "table04", "section10-processing")


@pytest.fixture
def subset(run_all_script, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runcache.reset_disk_cache()
    clear_caches()
    monkeypatch.setattr(
        run_all_script, "EXPERIMENTS", {name: EXPERIMENTS[name] for name in SUBSET}
    )
    monkeypatch.setattr(run_all_script, "ingest_artifact_quietly", lambda *a, **k: None)
    yield run_all_script
    runcache.reset_disk_cache()
    clear_caches()


def test_one_run_points_call_over_the_union_of_grids(subset, tmp_path, monkeypatch):
    calls = []
    real = subset.run_points

    def spy(points, **kw):
        calls.append(list(points))
        return real(calls[-1], **kw)

    monkeypatch.setattr(subset, "run_points", spy)
    subset.run_all(0.02, tmp_path / "out", jobs=1, quiet=True)
    union = list(
        dict.fromkeys(p for name in SUBSET for p in EXPERIMENTS[name].grid(0.02, None))
    )
    assert len(calls) == 1
    assert calls[0] == union
    assert len(union) < sum(len(EXPERIMENTS[n].grid(0.02, None)) for n in SUBSET)


def test_warm_rerun_simulates_nothing(subset, tmp_path, monkeypatch):
    subset.run_all(0.02, tmp_path / "cold", jobs=1, quiet=True)
    clear_caches()  # only the disk layer stays warm, as in a new process
    simulated = []
    real = sweeps.run_simulation

    def counting(trace, config):
        simulated.append(config)
        return real(trace, config)

    monkeypatch.setattr(sweeps, "run_simulation", counting)
    subset.run_all(0.02, tmp_path / "warm", jobs=1, quiet=True)
    assert simulated == []
    for name in SUBSET:
        cold = (tmp_path / "cold" / f"{name}.txt").read_bytes()
        assert (tmp_path / "warm" / f"{name}.txt").read_bytes() == cold
