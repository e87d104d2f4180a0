"""Property-based oracle tests: random sharing patterns, both protocols,
random comm-parameter points — the oracle must stay silent on the real
(unmutated) protocol engines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.events import ORACLE_KINDS
from tests.verify.workloads import (
    assert_oracle_clean,
    base_config,
    comm_point_strategy,
    run_verified,
    trace_strategy,
)


@given(
    trace=trace_strategy(),
    protocol=st.sampled_from(["hlrc", "aurc"]),
    ppn=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=30)
def test_oracle_clean_on_random_sharing_patterns(trace, protocol, ppn):
    config = base_config(protocol, ppn=ppn)
    result, vlog = run_verified(trace, config)
    assert_oracle_clean(result, f"{trace.name}/{protocol}/ppn={ppn}")
    oracle_events = sum(rec.kind in ORACLE_KINDS for rec in vlog.records)
    assert result.meta["verify.events"] == oracle_events > 0


@given(
    trace=trace_strategy(),
    protocol=st.sampled_from(["hlrc", "aurc"]),
    point=comm_point_strategy,
)
@settings(max_examples=20)
def test_oracle_clean_across_comm_parameter_points(trace, protocol, point):
    config = base_config(protocol, ppn=2, **point)
    result, _ = run_verified(trace, config)
    assert_oracle_clean(result, f"{trace.name}/{protocol}/{point}")


@given(trace=trace_strategy(), ppn=st.sampled_from([2, 4]))
@settings(max_examples=10)
def test_oracle_clean_with_first_touch_homes(trace, ppn):
    config = base_config("hlrc", ppn=ppn).replace(home_policy="first_touch")
    result, _ = run_verified(trace, config)
    assert_oracle_clean(result, f"{trace.name}/first_touch/ppn={ppn}")
