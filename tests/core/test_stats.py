"""Profile reduction unit tests: handler busy unions, queue depths,
counters, cycle accumulators and phase marks folded from probe records."""

import pytest

from repro.core.stats import reduce_profile
from repro.net.message import MessageKind
from repro.verify.events import (
    EV_DMA,
    EV_HANDLER_ENTER,
    EV_HANDLER_EXIT,
    EV_HANDLER_TAG,
    EV_NI_RECV,
    EV_NI_SEND,
    EV_PHASE,
    EV_READ,
    Probe,
)

KEY = "n0.handler"


def _reduce(*records):
    probe = Probe()
    for record in records:
        probe.record(*record)
    return reduce_profile(probe.records)


def _busy(*records):
    return _reduce(*records)[1][f"busy.{KEY}"]


# --------------------------------------------------------------------- #
# handler busy intervals
# --------------------------------------------------------------------- #
def test_busy_tracker_simple_interval():
    counters, cycles, _, _ = _reduce(
        (10, EV_HANDLER_ENTER, (KEY, "n0c0")), (25, EV_HANDLER_EXIT, KEY)
    )
    assert cycles == {f"busy.{KEY}": 15}
    assert counters == {"n0c0.handlers": 1}


def test_busy_tracker_counts_overlap_once():
    """Simultaneous/nested busy intervals must not double-count."""
    records = [
        (10, EV_HANDLER_ENTER, (KEY, "n0c0")),  # handler A
        (12, EV_HANDLER_ENTER, (KEY, "n0c1")),  # handler B on a sibling CPU
        (20, EV_HANDLER_EXIT, KEY),  # A finishes; B still running
    ]
    assert _busy(*records) == 0  # interval still open
    records.append((30, EV_HANDLER_EXIT, KEY))
    assert _busy(*records) == 20  # union [10, 30), not 10 + 18


def test_busy_tracker_simultaneous_begin_end_at_same_time():
    assert _busy(
        (5, EV_HANDLER_ENTER, (KEY, "n0c0")),
        (5, EV_HANDLER_ENTER, (KEY, "n0c1")),
        (5, EV_HANDLER_EXIT, KEY),
        (9, EV_HANDLER_EXIT, KEY),
    ) == 4


def test_busy_tracker_unmatched_end_raises():
    with pytest.raises(RuntimeError):
        _reduce((10, EV_HANDLER_EXIT, KEY))


def test_busy_tracker_time_backwards_raises():
    with pytest.raises(ValueError):
        _reduce((10, EV_HANDLER_ENTER, (KEY, "n0c0")), (5, EV_HANDLER_EXIT, KEY))


def test_open_interval_exports_zero():
    """A handler still inside its bracket when the records end adds
    nothing, but its node still gets a busy entry."""
    _, cycles, _, _ = _reduce(
        (0, EV_HANDLER_ENTER, (KEY, "n0c0")),
        (40, EV_HANDLER_EXIT, KEY),
        (10, EV_HANDLER_ENTER, ("n1.handler", "n1c0")),
    )
    assert cycles == {f"busy.{KEY}": 40, "busy.n1.handler": 0}


# --------------------------------------------------------------------- #
# queue depths
# --------------------------------------------------------------------- #
def test_queue_depth_stat_mean_max():
    _, _, queues, _ = _reduce(*[(0, EV_DMA, ("iobus0", 64, d)) for d in (1, 5, 3)])
    stat = queues["iobus0.backlog"]
    assert stat == {"mean": pytest.approx(3.0), "max": 5, "samples": 3.0}
    assert type(stat["max"]) is int  # the sampled value, as exported


def test_registry_queue_summary():
    """A record carries the queue's free-at time; the sampled backlog is
    what remains of it at the record's time, never negative."""
    _, _, queues, _ = _reduce(
        (0, EV_NI_RECV, (0, MessageKind.REPLY, 2.0)),
        (1, EV_NI_RECV, (0, MessageKind.REPLY, 5.0)),
        (9, EV_NI_RECV, (0, MessageKind.REPLY, 6.0)),
    )
    summary = queues["ni0.rx_gate.backlog"]
    assert summary["max"] == 4.0
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["samples"] == 3.0


# --------------------------------------------------------------------- #
# counters, cycles, phase marks
# --------------------------------------------------------------------- #
def test_registry_counters_and_cycles():
    counters, cycles, _, _ = _reduce(
        (0, EV_NI_RECV, (3, MessageKind.DATA, 0)),
        (750, EV_HANDLER_TAG, ("page_fetch", 750)),
        (900, EV_HANDLER_TAG, ("page_fetch", 250)),
    )
    assert counters == {"ni3.recv.data": 1, "handler.page_fetch.count": 2}
    assert cycles == {"handler.page_fetch": 1000}


def test_empty_send_skips_both_io_buses():
    counters, _, queues, _ = _reduce(
        (0, EV_NI_SEND, (0, "membus0", 7, "iobus0", 0, "iobus1", 3, "membus1", 0)),
    )
    assert counters == {
        "membus0.ni_out.transfers": 1,
        "membus0.ni_out.bytes": 0,
        "membus1.ni_in.transfers": 1,
        "membus1.ni_in.bytes": 0,
    }
    assert list(queues) == ["membus0.backlog", "membus1.backlog"]


def test_oracle_records_are_skipped():
    assert _reduce((5, EV_READ, (0, 0, 1, 1))) == ({}, {}, {}, [])


def test_registry_phase_marks_snapshot_copies():
    """A phase mark holds a copy; later mutation must not alias."""
    cum = {"compute": 10}
    _, _, _, marks = _reduce((5, EV_PHASE, ("barrier.0.0", cum)))
    cum["compute"] = 99
    assert marks == [(5, "barrier.0.0", {"compute": 10})]
