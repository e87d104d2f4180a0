"""Pins for the handler-delivery modes the golden grid does not run.

The golden snapshot and the benchmark digests cover interrupt-mode
delivery at the default scheme only.  These points pin the simulated
event count, the interrupt count and a content digest of every other
way a protocol handler reaches a CPU: a dedicated polling processor,
NI offload (single- and dual-NI), round-robin interrupt targets, the
RDMA regime, zero-cost interrupts, NI queue-overflow null interrupts,
and a metrics-on run whose registry contents are digested too.  A
refactor of the interrupt or NI paths must leave every value here
unchanged.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.apps import get_app
from repro.core import ClusterConfig, Probe, run_simulation

BASE = ClusterConfig()

#: name -> (app, config, sim_events, interrupts, digest)
PINS = {
    "polling": (
        "water-nsq",
        BASE.with_comm(protocol_processing="polling-dedicated"),
        15945, 0, "dd3461421e9179b52c47",
    ),
    "offload": (
        "water-nsq",
        BASE.with_comm(protocol_processing="ni-offload"),
        16208, 0, "0fee3928ef7f4a90b3e5",
    ),
    "offload_aurc_2ni": (
        "ocean",
        BASE.replace(protocol="aurc").with_comm(
            protocol_processing="ni-offload", nis_per_node=2
        ),
        3302, 0, "a8604b666a73e4f7303d",
    ),
    "polling_2ni": (
        "fft",
        BASE.with_comm(protocol_processing="polling-dedicated", nis_per_node=2),
        4044, 0, "37424e992ffa92e38314",
    ),
    "round_robin": (
        "radix",
        BASE.with_comm(interrupt_scheme="round_robin"),
        5899, 324, "c9fd58aa888dcd320217",
    ),
    "rdma": (
        "fft",
        BASE.replace(protocol="aurc").with_comm(comm_regime="rdma"),
        3324, 0, "9bdae2fd38a0529bf7d8",
    ),
    # a 2 KB outgoing queue overflows: 111 of the 255 interrupts are
    # the NI's null interrupts (144 at the default 1 MB queue)
    "queue_overflow": (
        "fft",
        BASE.replace(arch=dataclasses.replace(BASE.arch, ni_queue_bytes=2048)),
        4743, 255, "567249c339801c593d20",
    ),
    "zero_cost": (
        "lu",
        BASE.with_comm(interrupt_cost=0),
        11666, 784, "c2aeffc068eda2be05fd",
    ),
    "metrics": ("lu", BASE, 13713, 784, "f4e5d1fa31b9de5f7a8c"),
}


def _digest(result, with_metrics: bool) -> str:
    # the benchmark's point digest, plus the profile fields when probed
    payload = {
        "total_cycles": result.total_cycles,
        "counters": dataclasses.asdict(result.counters),
        "meta": result.meta,
        "resource_busy": result.resource_busy,
    }
    if with_metrics:
        payload["metrics"] = [
            result.metrics_counters,
            result.metrics_cycles,
            result.queue_stats,
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


@pytest.mark.parametrize("name", sorted(PINS))
def test_handler_mode_pinned(name):
    app_name, config, events, interrupts, digest = PINS[name]
    metered = name == "metrics"
    app = get_app(app_name, page_size=config.comm.page_size, scale=0.1, seed=config.seed)
    result = run_simulation(app, config, probe=Probe() if metered else None)
    assert result.meta["sim_events"] == events
    assert result.meta["interrupts"] == interrupts
    assert _digest(result, metered) == digest
