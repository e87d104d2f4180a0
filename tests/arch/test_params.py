"""Unit tests for architecture/communication parameter handling."""

import dataclasses

import pytest

from repro.arch import (
    ACHIEVABLE,
    BEST,
    HOST_OVERHEAD_SWEEP,
    INTERRUPT_COST_SWEEP,
    IO_BANDWIDTH_SWEEP,
    NI_OCCUPANCY_SWEEP,
    PAGE_SIZE_SWEEP,
    PARAMETER_RANGES,
    PROCS_PER_NODE_SWEEP,
    TOTAL_PROCESSORS,
    ArchParams,
    CommParams,
    CommRegime,
)


def test_achievable_defaults_match_table1():
    assert ACHIEVABLE.host_overhead == 500
    assert ACHIEVABLE.io_bus_mb_per_mhz == 0.5
    assert ACHIEVABLE.ni_occupancy == 500
    assert ACHIEVABLE.interrupt_cost == 500
    assert ACHIEVABLE.page_size == 4096
    assert ACHIEVABLE.procs_per_node == 4


def test_best_values_are_extremes_of_ranges():
    assert BEST.host_overhead == 0
    assert BEST.ni_occupancy == 0
    assert BEST.interrupt_cost == 0
    # best I/O bandwidth equals the memory bus bandwidth
    assert BEST.io_bus_mb_per_mhz == pytest.approx(ArchParams().membus_bytes_per_cycle)


def test_io_bytes_per_cycle_equals_mb_per_mhz():
    cp = CommParams(io_bus_mb_per_mhz=0.5)
    assert cp.io_bytes_per_cycle == 0.5
    cp = CommParams(io_bus_mb_per_mhz=2.0)
    assert cp.io_bytes_per_cycle == 2.0


def test_null_interrupt_is_twice_per_side_cost():
    assert CommParams(interrupt_cost=500).null_interrupt_cycles == 1000
    assert CommParams(interrupt_cost=0).null_interrupt_cycles == 0


def test_sweep_points_lie_within_ranges():
    lo, hi = PARAMETER_RANGES["host_overhead"]
    assert all(lo <= v <= hi for v in HOST_OVERHEAD_SWEEP)
    lo, hi = PARAMETER_RANGES["ni_occupancy"]
    assert all(lo <= v <= hi for v in NI_OCCUPANCY_SWEEP)
    lo, hi = PARAMETER_RANGES["io_bus_mb_per_mhz"]
    assert all(lo <= v <= hi for v in IO_BANDWIDTH_SWEEP)
    lo, hi = PARAMETER_RANGES["interrupt_cost"]
    assert all(lo <= v <= hi for v in INTERRUPT_COST_SWEEP)
    lo, hi = PARAMETER_RANGES["page_size"]
    assert all(lo <= v <= hi for v in PAGE_SIZE_SWEEP)


def test_sweep_counts_match_figure_captions():
    assert len(HOST_OVERHEAD_SWEEP) == 5  # Figure 5: five points
    assert len(NI_OCCUPANCY_SWEEP) == 6  # Figure 6: six points
    assert len(IO_BANDWIDTH_SWEEP) == 4  # Figure 7: four points
    assert len(INTERRUPT_COST_SWEEP) == 7  # Figure 9: seven bars
    assert len(PAGE_SIZE_SWEEP) == 5  # Figure 12: five points
    assert len(PROCS_PER_NODE_SWEEP) == 4  # Figure 13: four clusterings


def test_clusterings_divide_total_processors():
    assert all(TOTAL_PROCESSORS % c == 0 for c in PROCS_PER_NODE_SWEEP)


def test_comm_params_validation():
    with pytest.raises(ValueError):
        CommParams(host_overhead=-1)
    with pytest.raises(ValueError):
        CommParams(io_bus_mb_per_mhz=0)
    with pytest.raises(ValueError):
        CommParams(page_size=3000)  # not a power of two
    with pytest.raises(ValueError):
        CommParams(procs_per_node=0)
    with pytest.raises(ValueError):
        CommParams(interrupt_scheme="bogus")


def test_comm_regime_validation_names_field_and_choices():
    with pytest.raises(ValueError, match=r"unknown comm_regime 'verbs'.*baseline.*rdma"):
        CommParams(comm_regime="verbs")
    with pytest.raises(ValueError):
        CommParams(rdma_post_cycles=-1)


def test_comm_regime_enum_normalizes_to_string():
    cp = CommParams(comm_regime=CommRegime.RDMA)
    assert cp.comm_regime == "rdma"
    assert cp.is_rdma


def test_rdma_regime_collapses_host_terms():
    base = CommParams(host_overhead=500, interrupt_cost=500)
    assert not base.is_rdma
    assert base.send_post_cycles == 500
    assert base.effective_interrupt_cost == 500
    rdma = base.replace(comm_regime="rdma", rdma_post_cycles=50)
    assert rdma.is_rdma
    assert rdma.send_post_cycles == 50
    assert rdma.effective_interrupt_cost == 0


def test_replace_returns_new_frozen_instance():
    cp = ACHIEVABLE.replace(interrupt_cost=2000)
    assert cp.interrupt_cost == 2000
    assert ACHIEVABLE.interrupt_cost == 500
    with pytest.raises(dataclasses.FrozenInstanceError):
        cp.interrupt_cost = 1  # type: ignore[misc]
