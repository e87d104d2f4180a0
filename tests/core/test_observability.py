"""End-to-end observability: profiled runs, invariants, export, caching."""

import hashlib
import json

import pytest

from repro.apps import get_app
from repro.arch.params import CommParams
from repro.core import ClusterConfig, Probe, run_simulation
from repro.core import runcache
from repro.core.metrics import TIME_CATEGORIES
from repro.core.reporting import run_record, write_csv, write_jsonl
from repro.core.sweeps import cache_store, cached_lookup, clear_caches

SCALE = 0.05


@pytest.fixture(scope="module")
def profiled():
    """One small profiled fft run shared by the invariant tests."""
    cfg = ClusterConfig()
    trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    return run_simulation(trace, cfg, probe=Probe())


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runcache.reset_disk_cache()
    clear_caches()
    yield tmp_path
    runcache.reset_disk_cache()
    clear_caches()


# --------------------------------------------------------------------- #
# passivity: metrics collection must not change simulated behaviour
# --------------------------------------------------------------------- #
def test_metrics_do_not_perturb_results(profiled):
    cfg = ClusterConfig()
    trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    plain = run_simulation(trace, cfg)
    assert plain.total_cycles == profiled.total_cycles
    assert plain.time_breakdown() == profiled.time_breakdown()
    assert plain.counters == profiled.counters


#: sha256 of the JSON of (metrics_counters, metrics_cycles, queue_stats,
#: phase_marks, hotspots()), key order included, recorded from the metrics
#: registry the probe replaced; the reduction must reproduce it exactly
PINNED_PROFILES = {
    "fft-hlrc-ppn4": "d37655d71b738aebd6d19f4d8b192014bcaa2ed33f0abc042e2a6ad7766e6006",
    "radix-aurc-tree-drop": "c7cf4649aceaf65931e8a56d95246d608ce850b93e3dd55077ff295151996fe2",
}


@pytest.mark.parametrize(
    "label,app_name,cfg",
    [
        (
            "fft-hlrc-ppn4",
            "fft",
            ClusterConfig(protocol="hlrc", comm=CommParams(procs_per_node=4)),
        ),
        (
            "radix-aurc-tree-drop",
            "radix",
            ClusterConfig(protocol="aurc", collective="tree").with_faults(drop_prob=0.02),
        ),
    ],
)
def test_profile_fields_are_pinned(label, app_name, cfg):
    trace = get_app(app_name, page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    r = run_simulation(trace, cfg, probe=Probe())
    blob = json.dumps(
        [r.metrics_counters, r.metrics_cycles, r.queue_stats, r.phase_marks, r.hotspots()]
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_PROFILES[label]


# --------------------------------------------------------------------- #
# utilization
# --------------------------------------------------------------------- #
def test_utilization_present_even_without_registry():
    """Busy harvesting rides on FluidQueue's unconditional counters."""
    cfg = ClusterConfig()
    trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    result = run_simulation(trace, cfg)
    util = result.utilization()
    assert util, "resource_busy should be harvested on every run"
    assert any(name.startswith("membus") for name in util)
    assert any(name.startswith("cpu.") for name in util)


def test_utilization_values_are_fractions(profiled):
    for name, u in profiled.utilization().items():
        assert 0.0 <= u <= 1.0, f"{name}: utilization {u} outside [0, 1]"
    busiest = max(profiled.utilization().values())
    assert busiest > 0.05, "some resource must be measurably busy"


# --------------------------------------------------------------------- #
# phase breakdown
# --------------------------------------------------------------------- #
def test_phase_fractions_sum_to_one(profiled):
    phases = profiled.phase_breakdown()
    assert phases, "profiled run must produce phase marks"
    for phase in phases:
        total = sum(phase["fractions"].values())
        assert total == pytest.approx(1.0, abs=1e-6), (
            f"{phase['label']}: fractions sum to {total}"
        )
        assert set(phase["fractions"]) <= set(TIME_CATEGORIES)


def test_phases_are_contiguous_and_ordered(profiled):
    phases = profiled.phase_breakdown()
    for prev, cur in zip(phases, phases[1:]):
        # epochs are ordered; zero-cost epochs may be dropped, leaving gaps
        assert cur["start"] >= prev["end"]
        assert cur["end"] > cur["start"]
    assert phases[-1]["label"] == "run_end"
    assert phases[-1]["end"] == profiled.total_cycles


def test_phase_cycles_match_aggregate(profiled):
    """Per-phase deltas must sum back to the whole-run breakdown."""
    phases = profiled.phase_breakdown()
    summed = {}
    for phase in phases:
        for cat, cyc in phase["cycles"].items():
            summed[cat] = summed.get(cat, 0) + cyc
    aggregate = {k: v for k, v in profiled.time_breakdown().items() if v}
    assert {k: v for k, v in summed.items() if v} == aggregate


def test_hotspots_ranked_desc(profiled):
    spots = profiled.hotspots(top=5)
    assert spots, "profiled run must record protocol hotspots"
    cycles = [c for _, c, _ in spots]
    assert cycles == sorted(cycles, reverse=True)
    names = [n for n, _, _ in spots]
    assert any("handler" in n or "protocol" in n for n in names)


def test_unprofiled_run_has_no_phases():
    cfg = ClusterConfig()
    trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    result = run_simulation(trace, cfg)
    assert result.phase_marks == []
    assert result.phase_breakdown() == []
    assert result.metrics_counters == {}


def test_verified_run_has_no_profile_fields():
    """Only a caller's probe fills the profile fields: the probe a
    verified run makes for the oracle leaves them (and so the run's cache
    record) as they are on a plain run."""
    cfg = ClusterConfig(verify=True)
    trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
    result = run_simulation(trace, cfg)
    assert result.meta["verify.events"] > 0
    assert result.phase_marks == []
    assert result.metrics_counters == {}
    assert result.metrics_cycles == {}
    assert result.queue_stats == {}


# --------------------------------------------------------------------- #
# runcache round-trip of the new fields
# --------------------------------------------------------------------- #
def test_runcache_roundtrip_preserves_observability_fields(cache_dir, profiled):
    cfg = ClusterConfig()
    cache_store("fft", SCALE, cfg, profiled)
    clear_caches()  # drop memory; force the disk layer
    from_disk = cached_lookup("fft", SCALE, cfg)
    assert from_disk is not None
    assert from_disk.resource_busy == profiled.resource_busy
    assert from_disk.phase_marks == profiled.phase_marks
    assert from_disk.metrics_counters == profiled.metrics_counters
    assert from_disk.metrics_cycles == profiled.metrics_cycles
    assert from_disk.queue_stats == profiled.queue_stats
    assert from_disk.phase_breakdown() == profiled.phase_breakdown()


# --------------------------------------------------------------------- #
# structured export
# --------------------------------------------------------------------- #
def test_run_record_is_json_serializable(profiled):
    record = run_record(profiled)
    blob = json.dumps(record, sort_keys=True)
    back = json.loads(blob)
    assert back["app"] == "fft"
    assert back["utilization"]
    assert back["phases"]
    assert back["hotspots"]


def test_write_jsonl_and_csv(tmp_path, profiled):
    jsonl = tmp_path / "runs.jsonl"
    assert write_jsonl(jsonl, [profiled, profiled]) == 2
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["total_cycles"] == profiled.total_cycles

    csv_path = tmp_path / "runs.csv"
    assert write_csv(csv_path, [profiled]) == 1
    header, row = csv_path.read_text().splitlines()
    assert "total_cycles" in header.split(",")
    assert any(col.startswith("util.") for col in header.split(","))
