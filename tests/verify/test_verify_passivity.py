"""Verification must be passive: a verified run is bit-identical in
simulated time, breakdowns and protocol counters to an unverified run
(same pattern as the observability passivity test)."""

import pytest

from repro.apps import get_app
from repro.core import ClusterConfig, Probe, run_simulation
from tests.verify.workloads import base_config, lock_mix, migratory

SCALE = 0.05


def _assert_identical(plain, checked):
    assert checked.total_cycles == plain.total_cycles
    assert checked.time_breakdown() == plain.time_breakdown()
    assert checked.counters == plain.counters
    for key, value in plain.meta.items():
        assert checked.meta[key] == value
    assert checked.resource_busy == plain.resource_busy


#: the oracle's event count per verified run, recorded when the oracle
#: had a log of its own: a probe that also carries profile events must
#: hand the oracle exactly these
VERIFY_EVENTS = {
    ("fft", "hlrc"): 1152,
    ("fft", "aurc"): 1152,
    ("radix", "hlrc"): 2256,
    ("radix", "aurc"): 1872,
}


@pytest.mark.parametrize(
    "app_name,protocol",
    [("fft", "hlrc"), ("fft", "aurc"), ("radix", "hlrc"), ("radix", "aurc")],
)
def test_verify_does_not_perturb_real_apps(app_name, protocol):
    cfg = ClusterConfig(protocol=protocol)
    trace = get_app(app_name, page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    plain = run_simulation(trace, cfg)
    checked = run_simulation(trace, cfg.replace(verify=True))
    # verified and profiled at once: one probe feeds both readers
    probed = run_simulation(trace, cfg.replace(verify=True), probe=Probe())
    _assert_identical(plain, checked)
    _assert_identical(plain, probed)
    assert "verify.events" not in plain.meta
    assert checked.meta["verify.events"] == VERIFY_EVENTS[(app_name, protocol)]
    assert checked.meta["verify.violations"] == 0
    assert probed.meta == checked.meta
    assert probed.violations == []
    assert probed.metrics_counters and not checked.metrics_counters


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_verify_does_not_perturb_synthetic_lock_workloads(protocol):
    trace = lock_mix(4, 4, 8, 500)
    cfg = base_config(protocol, ppn=2)
    plain = run_simulation(trace, cfg)
    checked = run_simulation(trace, cfg.replace(verify=True))
    _assert_identical(plain, checked)


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_verify_does_not_perturb_faulty_runs(protocol):
    from repro.net.faults import FaultParams

    trace = migratory(2, 3, 16, 500)
    cfg = base_config(
        protocol, ppn=2, faults=FaultParams(drop_prob=0.05, retry_timeout=20_000)
    )
    plain = run_simulation(trace, cfg)
    checked = run_simulation(trace, cfg.replace(verify=True))
    _assert_identical(plain, checked)


def test_env_var_does_not_enable_verification(tmp_path, monkeypatch):
    """The oracle is part of the config (and so of the run-cache key):
    an environment variable must not slip verify meta into a record
    stored under the unverified config's key."""
    from repro.core import runcache
    from repro.core.executor import run_points
    from repro.core.sweeps import clear_caches

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_VERIFY", "1")
    runcache.reset_disk_cache()
    clear_caches()
    try:
        (result,) = run_points([("fft", SCALE, ClusterConfig())], jobs=1)
    finally:
        runcache.reset_disk_cache()
        clear_caches()
    assert not [key for key in result.meta if key.startswith("verify.")]
    assert result.violations == []
