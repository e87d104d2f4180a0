"""Metrics registry unit tests: counters, interval bookkeeping, exports."""

import pytest

from repro.core.stats import BusyTracker, MetricsRegistry, QueueDepthStat


# --------------------------------------------------------------------- #
# BusyTracker
# --------------------------------------------------------------------- #
def test_busy_tracker_simple_interval():
    bt = BusyTracker()
    bt.begin(10)
    bt.end(25)
    assert bt.busy_cycles == 15
    assert bt.intervals == 1
    assert not bt.active


def test_busy_tracker_counts_overlap_once():
    """Simultaneous/nested busy intervals must not double-count."""
    bt = BusyTracker()
    bt.begin(10)  # handler A
    bt.begin(12)  # handler B interrupts on the same resource
    assert bt.active
    bt.end(20)  # A finishes; B still running
    assert bt.busy_cycles == 0  # interval still open
    bt.end(30)
    assert bt.busy_cycles == 20  # union [10, 30), not 18 + 10
    assert bt.intervals == 1


def test_busy_tracker_simultaneous_begin_end_at_same_time():
    bt = BusyTracker()
    bt.begin(5)
    bt.begin(5)
    bt.end(5)
    bt.end(9)
    assert bt.busy_cycles == 4


def test_busy_tracker_unmatched_end_raises():
    bt = BusyTracker()
    with pytest.raises(RuntimeError):
        bt.end(10)


def test_busy_tracker_time_backwards_raises():
    bt = BusyTracker()
    bt.begin(10)
    with pytest.raises(ValueError):
        bt.end(5)


def test_busy_as_of_includes_open_interval():
    bt = BusyTracker()
    bt.begin(0)
    bt.end(10)
    bt.begin(50)
    assert bt.busy_cycles == 10
    assert bt.busy_as_of(60) == 20


# --------------------------------------------------------------------- #
# QueueDepthStat
# --------------------------------------------------------------------- #
def test_queue_depth_stat_mean_max():
    q = QueueDepthStat()
    assert q.mean == 0.0
    for d in (1, 5, 3):
        q.sample(d)
    assert q.samples == 3
    assert q.max == 5
    assert q.mean == pytest.approx(3.0)


# --------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------- #
def test_registry_counters_and_cycles():
    reg = MetricsRegistry()
    reg.bump("nic.sent")
    reg.bump("nic.sent", 2)
    reg.add_cycles("handler.page_fetch", 750)
    reg.add_cycles("handler.page_fetch", 250)
    assert reg.counters == {"nic.sent": 3}
    assert reg.cycles == {"handler.page_fetch": 1000}


def test_registry_busy_export_closes_open_intervals():
    reg = MetricsRegistry()
    reg.begin_busy("cpu", 0)
    reg.end_busy("cpu", 40)
    reg.begin_busy("ni", 10)
    assert reg.busy_cycles() == {"cpu": 40, "ni": 0}
    assert reg.busy_cycles(as_of=30) == {"cpu": 40, "ni": 20}


def test_registry_phase_marks_snapshot_copies():
    """phase_mark stores a copy; later mutation must not alias."""
    reg = MetricsRegistry()
    cum = {"compute": 10}
    reg.phase_mark(5, "barrier.0.0", cum)
    cum["compute"] = 99
    assert reg.phase_marks == [(5, "barrier.0.0", {"compute": 10})]


def test_registry_queue_summary():
    reg = MetricsRegistry()
    reg.sample_queue("membus0.backlog", 2.0)
    reg.sample_queue("membus0.backlog", 4.0)
    summary = reg.queue_summary()
    assert summary["membus0.backlog"]["max"] == 4.0
    assert summary["membus0.backlog"]["mean"] == pytest.approx(3.0)
    assert summary["membus0.backlog"]["samples"] == 2.0
