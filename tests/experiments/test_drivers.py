"""Tests for the per-figure/table experiment drivers that a read of the
committed tables cannot replace: every driver still renders from a fresh
simulation, and two trends hold at reduced scale.

The paper's shapes are checked at paper scale, against the committed
``results/*.json``, by the claims ledger (``repro.experiments.claims``,
``tests/experiments/test_claims.py``)."""

import pytest

from repro.arch.params import HOST_OVERHEAD_SWEEP, NI_OCCUPANCY_SWEEP
from repro.core.executor import run_points
from repro.core.sweeps import sweep_comm_param
from repro.experiments import reliability, run

RENDERED = (
    "figure01",
    "table02",
    "figure03",
    "figure04",
    "figure05",
    "figure05b",
    "figure06",
    "figure07",
    "figure09",
    "figure10",
    "figure11",
    "table03",
    "table04",
    "figure12",
    "figure13",
    "section5-uninode",
    "section5-roundrobin",
    "section7-attribution",
)


@pytest.mark.parametrize("experiment_id", RENDERED)
def test_driver_renders(experiment_id):
    out = run(experiment_id, scale=0.05, apps=["fft", "lu"])
    assert out.rows and out.data
    assert experiment_id in out.table_str()


@pytest.mark.parametrize(
    "app,param,values",
    [
        ("fft", "host_overhead", HOST_OVERHEAD_SWEEP),
        ("radix", "ni_occupancy", NI_OCCUPANCY_SWEEP),
    ],
    ids=["fft-host_overhead", "radix-ni_occupancy"],
)
def test_overhead_sweep_preserves_paper_trend(app, param, values):
    """Speedup falls as the swept overhead grows (paper Figures 5/6
    shape): each point at most 2% above its predecessor, and the most
    expensive setting strictly below the cheapest."""
    speedups = [r.speedup for r in sweep_comm_param(app, param, values, scale=0.05)]
    for earlier, later in zip(speedups, speedups[1:]):
        assert later <= earlier * 1.02, f"{app}/{param}: {speedups} not monotone"
    assert speedups[-1] < speedups[0]


def test_reliability_degrades_with_drop_rate():
    kw = dict(drops=(0.0, 0.01), timeouts=(50_000,))
    points = reliability.grid(0.05, ["lu"], **kw)
    results = dict(zip(points, run_points(points)))
    out = reliability.render(0.05, ["lu"], results, **kw)
    cells = out.data["lu"]
    clean = cells["drop=0,timeout=50000"]
    faulty = cells["drop=0.01,timeout=50000"]
    assert clean["retransmits"] == 0 and clean["messages_lost"] == 0
    assert faulty["retransmits"] > 0 and faulty["messages_lost"] > 0
    assert faulty["speedup"] < clean["speedup"]
    assert "reliability" in out.table_str()
