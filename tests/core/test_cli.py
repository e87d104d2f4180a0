"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_shows_apps_and_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fft" in out
    assert "barnes-rebuild" in out
    assert "figure09" in out
    assert "section10-processing" in out


def test_run_prints_summary_and_breakdown(capsys):
    assert main(["run", "lu", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "Time breakdown" in out
    assert "compute" in out


def test_run_unknown_app_fails(capsys):
    assert main(["run", "doom", "--scale", "0.2"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_run_with_comm_overrides(capsys):
    rc = main(
        [
            "run",
            "water-sp",
            "--scale",
            "0.2",
            "--interrupt-cost",
            "0",
            "--procs-per-node",
            "8",
            "--protocol",
            "aurc",
            "--processing",
            "ni-offload",
        ]
    )
    assert rc == 0
    assert "water-sp" in capsys.readouterr().out


def test_sweep_prints_table(capsys):
    rc = main(
        ["sweep", "lu", "interrupt_cost", "0", "10000", "--scale", "0.2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "interrupt_cost" in out
    assert "speedup" in out


def test_sweep_float_param(capsys):
    rc = main(
        ["sweep", "lu", "io_bus_mb_per_mhz", "0.25", "2.0", "--scale", "0.2"]
    )
    assert rc == 0
    assert "0.25" in capsys.readouterr().out


def test_experiment_driver(capsys):
    rc = main(["experiment", "figure01", "--scale", "0.2", "--apps", "lu"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "figure01" in out
    assert "lu" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "figure99", "--scale", "0.2"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_unknown_app_lists_valid_choices(capsys):
    assert main(["run", "doom"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one-line error
    assert "valid:" in err and "fft" in err


def test_sweep_unknown_app_fails(capsys):
    assert main(["sweep", "doom", "host_overhead", "0", "500"]) == 2
    err = capsys.readouterr().err
    assert "unknown application" in err and "valid:" in err


def test_sweep_malformed_value_one_line_error(capsys):
    assert main(["sweep", "lu", "host_overhead", "0", "banana"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "invalid host_overhead value 'banana'" in err
    assert "expected an integer" in err


def test_malformed_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "lots", "lu", "host_overhead", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid --jobs value 'lots'" in err
    assert "0 = all cores" in err


def test_negative_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "figure01", "--jobs", "-2"])
    assert "invalid --jobs value '-2'" in capsys.readouterr().err


def test_invalid_fault_probability_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "lu", "--drop-prob", "1.5"])
    assert "invalid probability '1.5'" in capsys.readouterr().err


def test_invalid_config_value_friendly_error(capsys):
    # passes argparse, rejected by FaultParams validation -> error:, rc 2
    assert main(["run", "lu", "--scale", "0.05", "--retry-timeout", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "retry_timeout" in err


def test_unknown_comm_regime_one_line_error(capsys):
    # no argparse choices=: rejected by CommParams validation -> error:, rc 2
    assert main(["run", "fft", "--scale", "0.05", "--comm-regime", "verbs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown comm_regime 'verbs'" in err
    assert "baseline" in err and "rdma" in err


def test_unknown_collective_one_line_error(capsys):
    assert main(["run", "fft", "--scale", "0.05", "--collective", "star"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown collective 'star'" in err
    assert "flat" in err and "dissemination" in err


def test_run_with_rdma_regime_and_collective(capsys):
    rc = main(
        [
            "run",
            "fft",
            "--scale",
            "0.05",
            "--comm-regime",
            "rdma",
            "--collective",
            "dissemination",
        ]
    )
    assert rc == 0
    assert "fft" in capsys.readouterr().out


def test_list_includes_new_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rdma_regime" in out
    assert "collectives" in out


def test_run_with_faults_enabled(capsys):
    rc = main(["run", "fft", "--scale", "0.05", "--drop-prob", "0.02"])
    assert rc == 0
    assert "fft" in capsys.readouterr().out


def test_list_includes_reliability(capsys):
    assert main(["list"]) == 0
    assert "reliability" in capsys.readouterr().out


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf", "big"])
@pytest.mark.parametrize("command", ["run", "verify", "profile", "sweep", "experiment"])
def test_bad_scale_rejected_with_one_line_error(command, scale, capsys):
    argv = {
        "run": ["run", "lu"],
        "verify": ["verify", "lu"],
        "profile": ["profile", "lu"],
        "sweep": ["sweep", "lu", "host_overhead", "0"],
        "experiment": ["experiment", "figure01"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--scale={scale}"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"invalid --scale value '{scale}'" in errors[0]
    assert "positive finite number" in errors[0]


def test_main_restores_the_sigterm_handler(capsys):
    import signal

    before = signal.getsignal(signal.SIGTERM)
    assert main(["list"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_interrupt_exits_130_with_rerun_hint(monkeypatch, capsys):
    import repro.cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.cli, "cmd_sweep", interrupted)
    argv = ["sweep", "lu", "host_overhead", "0", "500", "--scale", "0.05"]
    assert main(argv) == 130
    assert capsys.readouterr().err.splitlines() == [
        "interrupted — finished points are cached; rerun: "
        "python -m repro sweep lu host_overhead 0 500 --scale 0.05"
    ]
