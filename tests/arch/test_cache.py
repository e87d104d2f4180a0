"""Unit tests for the analytic cache and write-buffer models."""

import pytest

from repro.arch import ArchParams, BlockAccessProfile, CacheModel, WriteBufferModel, WriteBurst


@pytest.fixture
def model():
    return CacheModel(ArchParams())


def test_all_hits_cost_nothing(model):
    profile = BlockAccessProfile(reads=1000, writes=0, l1_miss_rate=0.0, l2_miss_rate=0.0)
    costs = model.block_costs(profile)
    assert costs.stall_cycles == 0
    assert costs.bus_bytes == 0
    assert costs.bus_transactions == 0


def test_l2_hits_charge_l2_latency_only(model):
    arch = ArchParams()
    profile = BlockAccessProfile(reads=100, writes=0, l1_miss_rate=1.0, l2_miss_rate=0.0)
    costs = model.block_costs(profile)
    assert costs.stall_cycles == 100 * (arch.l2_hit_cycles - arch.l1_hit_cycles)
    assert costs.bus_bytes == 0


def test_l2_misses_generate_bus_traffic(model):
    profile = BlockAccessProfile(reads=100, writes=0, l1_miss_rate=1.0, l2_miss_rate=1.0)
    costs = model.block_costs(profile)
    arch = ArchParams()
    assert costs.stall_cycles >= 100 * arch.mem_latency_cycles
    # fills + 25% writebacks, one line each
    assert costs.bus_transactions == 125
    assert costs.bus_bytes == 125 * arch.line_bytes


def test_stall_monotone_in_miss_rates(model):
    base = BlockAccessProfile(reads=1000, writes=200, l1_miss_rate=0.05, l2_miss_rate=0.2)
    worse_l1 = BlockAccessProfile(reads=1000, writes=200, l1_miss_rate=0.10, l2_miss_rate=0.2)
    worse_l2 = BlockAccessProfile(reads=1000, writes=200, l1_miss_rate=0.05, l2_miss_rate=0.4)
    c0 = model.block_costs(base).stall_cycles
    assert model.block_costs(worse_l1).stall_cycles > c0
    assert model.block_costs(worse_l2).stall_cycles > c0


def test_writes_add_write_buffer_pressure(model):
    no_writes = BlockAccessProfile(reads=100, writes=0, l1_miss_rate=0.0, l2_miss_rate=0.0)
    writes = BlockAccessProfile(reads=100, writes=1000, l1_miss_rate=0.0, l2_miss_rate=0.0)
    assert model.block_costs(writes).stall_cycles > model.block_costs(no_writes).stall_cycles


def test_line_fill_cycles_is_positive_and_sane(model):
    arch = ArchParams()
    fill = model.line_fill_cycles()
    assert fill > arch.mem_latency_cycles
    assert fill < 10 * arch.mem_latency_cycles


def test_profile_validation():
    with pytest.raises(ValueError):
        BlockAccessProfile(reads=-1, writes=0, l1_miss_rate=0.0, l2_miss_rate=0.0)
    with pytest.raises(ValueError):
        BlockAccessProfile(reads=0, writes=0, l1_miss_rate=1.5, l2_miss_rate=0.0)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        CacheModel(ArchParams(), writeback_fraction=2.0)
    with pytest.raises(ValueError):
        CacheModel(ArchParams(), wb_stall_fraction=-0.1)


def test_working_set_heuristic_monotone(model):
    arch = ArchParams()
    small = model.miss_rates_for_working_set(arch.l1_bytes // 2)
    medium = model.miss_rates_for_working_set(arch.l2_bytes // 2)
    large = model.miss_rates_for_working_set(4 * arch.l2_bytes)
    assert small[0] <= medium[0] <= large[0]
    assert small[1] <= medium[1] <= large[1]
    # the serial-Ocean effect: a working set beyond L2 misses hard
    assert large[1] > 0.5


# --------------------------------------------------------------------- #
# write buffer
# --------------------------------------------------------------------- #
def test_write_buffer_no_stall_when_drain_keeps_up():
    wb = WriteBufferModel(ArchParams())
    # one write per 20 cycles drains easily at one per 10
    burst = WriteBurst(writes=50, duration=1000)
    assert wb.stall_cycles(burst) == 0


def test_write_buffer_stalls_when_saturated():
    wb = WriteBufferModel(ArchParams())
    # one write per cycle cannot drain at one per 10 cycles
    burst = WriteBurst(writes=1000, duration=1000)
    assert wb.stall_cycles(burst) > 0


def test_write_buffer_headroom_absorbs_small_bursts():
    wb = WriteBufferModel(ArchParams())
    headroom = wb.headroom()
    assert headroom == ArchParams().wb_entries - ArchParams().wb_retire_at
    # a burst whose backlog stays within headroom does not stall
    burst = WriteBurst(writes=headroom, duration=1)
    assert wb.stall_cycles(burst) == 0


def test_write_burst_validation():
    with pytest.raises(ValueError):
        WriteBurst(writes=-1, duration=10)
    with pytest.raises(ValueError):
        WriteBurst(writes=1, duration=0)
