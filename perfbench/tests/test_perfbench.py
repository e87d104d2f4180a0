"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import cProfile
import dataclasses
import json
import os

from harness import isolated_env, run_pass
from ledger import OTHER, attribute
from workloads import build_grid, digest

from repro.core import executor
from repro.core.config import ClusterConfig
from repro.core.executor import Point

SMALL = Point("fft", 0.05, ClusterConfig())


def _simulate(point, tmp_path):
    with isolated_env(tmp_path):
        return executor.run_points([point], jobs=1)[0]


# ---------------------------------------------------------------------- #
# digests
# ---------------------------------------------------------------------- #
def test_digest_repeats_across_cold_runs(tmp_path):
    first = _simulate(SMALL, tmp_path / "a")
    second = _simulate(SMALL, tmp_path / "b")
    assert first is not second
    assert digest(first) == digest(second)


def test_digest_ignores_dict_order_but_not_values(tmp_path):
    result = _simulate(SMALL, tmp_path)
    reordered = dataclasses.replace(result, meta=dict(reversed(list(result.meta.items()))))
    assert digest(reordered) == digest(result)
    bumped = dataclasses.replace(result, total_cycles=result.total_cycles + 1)
    assert digest(bumped) != digest(result)
    other = _simulate(SMALL._replace(config=ClusterConfig().with_comm(host_overhead=6000)),
                      tmp_path / "o")
    assert digest(other) != digest(result)


def test_grid_is_a_function_of_the_seed():
    assert build_grid("scenario_cold", 3) == build_grid("scenario_cold", 3)
    assert build_grid("scenario_cold", 3) != build_grid("scenario_cold", 4)
    ids = [pid for pid, _ in build_grid("paper_cold", 0)]
    assert len(ids) == len(set(ids)) == 70


# ---------------------------------------------------------------------- #
# caller attribution
# ---------------------------------------------------------------------- #
def _f(name):
    return ("/lib/" + name + ".py", 1, name)


def test_stdlib_time_goes_to_nearest_repro_caller():
    proto, net, helper, leaf, root = (_f(n) for n in ("proto", "net", "helper", "leaf", "root"))
    layers = {proto: "protocol", net: "net"}
    stats = {
        # root (no layer, no caller) calls proto and net
        root: (1, 1, 0.5, 10.0, {}),
        proto: (1, 1, 1.0, 5.0, {root: (1, 1, 1.0, 5.0)}),
        net: (1, 1, 2.0, 3.0, {root: (1, 1, 2.0, 3.0)}),
        # stdlib helper: 3 s of its self time was spent on proto's calls,
        # 1 s on net's
        helper: (4, 4, 4.0, 5.0, {proto: (3, 3, 3.0, 3.5), net: (1, 1, 1.0, 1.5)}),
        # a stdlib function called only by the helper inherits its split
        leaf: (4, 4, 0.8, 0.8, {helper: (4, 4, 0.8, 0.8)}),
    }
    times = attribute(stats, layers.get)
    assert abs(times["protocol"] - (1.0 + 3.0 + 0.6)) < 1e-9
    assert abs(times["net"] - (2.0 + 1.0 + 0.2)) < 1e-9
    assert abs(times[OTHER] - 0.5) < 1e-9
    assert abs(sum(times.values()) - sum(s[2] for s in stats.values())) < 1e-9


def test_recursive_stdlib_reaches_its_caller():
    proto, deep = _f("proto"), _f("deepcopy")
    stats = {
        proto: (1, 1, 1.0, 3.0, {}),
        # deepcopy calls itself; only the outer call came from proto
        deep: (5, 1, 2.0, 2.0, {proto: (1, 1, 0.5, 2.0), deep: (4, 4, 1.5, 1.5)}),
    }
    times = attribute(stats, {proto: "protocol"}.get)
    assert abs(times["protocol"] - 3.0) < 1e-6
    assert times.get(OTHER, 0.0) < 1e-6


def test_profiled_json_time_is_charged_to_the_calling_layer():
    def proto_encode(n):
        for i in range(n):
            json.dumps({"page": i, "words": list(range(20))})

    def net_pack(n):
        for i in range(n):
            json.loads(json.dumps([i, i + 1]))

    def layer_of(func):
        return {"proto_encode": "protocol", "net_pack": "net"}.get(func[2])

    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    proto_encode(3000)
    net_pack(100)
    profiler.disable()
    profiler.create_stats()
    times = attribute(profiler.stats, layer_of)
    total = sum(times.values())
    # json's own Python functions are ~all the work, yet none of it is
    # left in a stdlib bucket
    assert times["protocol"] > 0.8 * total
    assert times["net"] > 0
    assert times.get(OTHER, 0.0) < 0.05 * total


# ---------------------------------------------------------------------- #
# environment isolation
# ---------------------------------------------------------------------- #
def test_isolated_run_leaves_the_checkout_alone(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    monkeypatch.chdir(checkout)
    monkeypatch.setenv("REPRO_RESULT_STORE", "0")
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setenv("REPRO_JOBS", "4")
    monkeypatch.setenv("REPRO_FIDELITY", "analytic")
    work = tmp_path / "work"
    with isolated_env(work):
        for name in ("REPRO_RESULT_STORE", "REPRO_DISK_CACHE", "REPRO_JOBS", "REPRO_FIDELITY"):
            assert name not in os.environ
        _, outcomes = run_pass([("fft/small", SMALL)])
        assert outcomes[0].meta.get("fidelity", "des") == "des"
    # the store stayed on and, like the run cache, wrote under the work dir
    assert (work / "store.sqlite").is_file()
    assert list((work / "runcache").glob("*.pkl"))
    assert list(checkout.iterdir()) == []
    assert os.environ["REPRO_RESULT_STORE"] == "0"
