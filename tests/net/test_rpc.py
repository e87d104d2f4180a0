"""Integration tests: RPC over NI + interrupt controller (the page-fetch path)."""

import pytest

from repro.arch import CommParams
from repro.sim import Simulator

from tests.net.conftest import make_cluster


def wire_rpc_service(sim, cluster, service_node, service_cycles=100, reply_bytes=4096):
    """Install a request handler on `service_node` that runs a body of
    `service_cycles` on the interrupted CPU and replies."""
    node = cluster.nodes[service_node]

    def handler_body(msg):
        yield sim.timeout(service_cycles)
        yield from cluster.msg.send_reply(
            node.irq.target_cpu(), msg, reply_bytes, payload=("served", msg.payload)
        )

    node.nic.on_request = lambda msg: node.irq.raise_interrupt(handler_body(msg))
    return node


def test_rpc_round_trip_returns_payload():
    sim = Simulator()
    cluster = make_cluster(sim)
    wire_rpc_service(sim, cluster, service_node=1)
    results = []

    def client():
        cpu = cluster.nodes[0].cpus[0]
        reply = yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64, payload=7)
        results.append((sim.now, reply))

    sim.spawn(client())
    sim.run()
    assert results[0][1] == ("served", 7)
    assert results[0][0] > 0


def test_rpc_blocking_time_charged_to_category():
    sim = Simulator()
    cluster = make_cluster(sim)
    wire_rpc_service(sim, cluster, 1)
    cpu = cluster.nodes[0].cpus[0]

    def client():
        yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64, wait_category="lock_wait")

    sim.spawn(client())
    sim.run()
    assert cpu.stats.time["lock_wait"] > 0
    assert cpu.stats.time["data_wait"] == 0


def test_rpc_latency_grows_with_interrupt_cost():
    def round_trip(interrupt_cost):
        sim = Simulator()
        comm = CommParams(interrupt_cost=interrupt_cost)
        cluster = make_cluster(sim, comm=comm)
        wire_rpc_service(sim, cluster, 1)
        finish = []

        def client():
            cpu = cluster.nodes[0].cpus[0]
            yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64)
            finish.append(sim.now)

        sim.spawn(client())
        sim.run()
        return finish[0]

    t_free = round_trip(0)
    t_mid = round_trip(1000)
    t_slow = round_trip(10000)
    assert t_free < t_mid < t_slow
    # the null-interrupt cost (2x per-side) separates the runs exactly once
    assert t_mid - t_free == pytest.approx(2 * 1000, rel=0.05)
    assert t_slow - t_free == pytest.approx(2 * 10000, rel=0.05)


def test_interrupt_handler_steals_from_service_node_app():
    """An application computing on the service node's CPU0 is delayed by
    exactly the handler duration."""
    sim = Simulator()
    comm = CommParams(interrupt_cost=500)
    cluster = make_cluster(sim, comm=comm)
    wire_rpc_service(sim, cluster, 1, service_cycles=2000)
    victim = cluster.nodes[1].cpus[0]
    finish = []

    def victim_app():
        yield from victim.busy(50_000, "compute")
        finish.append(sim.now)

    def client():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64)

    sim.spawn(victim_app())
    sim.spawn(client())
    sim.run()
    stolen = victim.stats.time["handler"]
    assert stolen > 2000  # service body + delivery + reply send overhead
    assert finish[0] == 50_000 + stolen


def test_round_robin_delivery_spreads_interrupts():
    sim = Simulator()
    comm = CommParams(interrupt_scheme="round_robin")
    cluster = make_cluster(sim, comm=comm, n_cpus=4)
    node = cluster.nodes[1]

    def handler_body(msg):
        yield sim.timeout(10)
        cpu = node.cpus[0]  # reply from any cpu; use cpu0's stats
        yield from cluster.msg.send_reply(cpu, msg, 64)

    node.nic.on_request = lambda msg: node.irq.raise_interrupt(handler_body(msg))

    def client():
        cpu = cluster.nodes[0].cpus[0]
        for _ in range(8):
            yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64)

    sim.spawn(client())
    sim.run()
    counts = [c.stats.get_count("interrupts") for c in node.cpus]
    assert counts == [2, 2, 2, 2]


def test_fixed_delivery_targets_cpu0():
    sim = Simulator()
    cluster = make_cluster(sim, n_cpus=4)
    wire_rpc_service(sim, cluster, 1)

    def client():
        cpu = cluster.nodes[0].cpus[0]
        for _ in range(5):
            yield from cluster.msg.rpc(cpu, 0, 1, "fetch", 64)

    sim.spawn(client())
    sim.run()
    counts = [c.stats.get_count("interrupts") for c in cluster.nodes[1].cpus]
    assert counts == [5, 0, 0, 0]


def test_null_interrupt_cost():
    sim = Simulator()
    comm = CommParams(interrupt_cost=500)
    cluster = make_cluster(sim, comm=comm)
    node = cluster.nodes[1]
    done_times = []

    def probe():
        ev = node.irq.null_interrupt()
        yield ev
        done_times.append(sim.now)

    sim.spawn(probe())
    sim.run()
    assert done_times == [comm.null_interrupt_cycles]


def test_concurrent_rpcs_serialize_on_handler_cpu():
    """Two clients hitting the same service node: handlers serialize, so
    the second reply comes later than the first by at least the service."""
    sim = Simulator()
    cluster = make_cluster(sim, n_nodes=3)
    wire_rpc_service(sim, cluster, 2, service_cycles=5000)
    finish = {}

    def client(node_id):
        cpu = cluster.nodes[node_id].cpus[0]
        yield from cluster.msg.rpc(cpu, node_id, 2, "fetch", 64)
        finish[node_id] = sim.now

    sim.spawn(client(0))
    sim.spawn(client(1))
    sim.run()
    assert abs(finish[1] - finish[0]) >= 5000
