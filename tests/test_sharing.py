import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emrcache.scenario import reference_scenario
from emrcache.sharing import (
    MAX_SWEEP_POINTS,
    SharingPolicy,
    capacity_sweep,
    patients_served,
    scenario_capacity,
)


def test_patients_served_reported_counts():
    policy = SharingPolicy()
    assert patients_served(500.0, policy) == 132
    assert patients_served(150.0, policy) == 15
    assert patients_served(100.0, policy) == 0
    assert patients_served(50.0, policy) == 0
    assert patients_served(10.0, policy) == 0


def test_patients_served_boundaries():
    policy = SharingPolicy()
    assert patients_served(policy.host_requirement_gb, policy) == 1
    assert patients_served(policy.host_requirement_gb - 0.01, policy) == 0
    assert patients_served(policy.host_requirement_gb + policy.guest_requirement_gb,
                           policy) == 2


def test_a_capacity_that_passes_the_host_check_serves_the_host():
    policy = SharingPolicy(host_requirement_gb=10.0, guest_requirement_gb=0.1)
    assert patients_served(10.0 - 5e-10, policy) == 1


def test_scenario_capacity_totals():
    scenario = reference_scenario()
    assert scenario_capacity(scenario.devices, scenario.policy) == 147
    assert scenario_capacity(scenario.devices, scenario.policy, count_hosts=True) == 150
    assert scenario_capacity((), scenario.policy) == 0


def test_one_device_exactly_at_host_requirement():
    policy = SharingPolicy()
    device = reference_scenario().devices[0]
    exact = type(device)("only", policy.host_requirement_gb, device.location)
    assert scenario_capacity((exact,), policy) == 1


def test_sweep_hits_reported_value_and_is_monotone():
    policy = SharingPolicy()
    series = capacity_sweep(100.0, 600.0, 1.0, policy)
    by_capacity = dict(series)
    assert by_capacity[500.0] == 132
    counts = [count for _, count in series]
    assert counts == sorted(counts)


def test_sweep_below_host_requirement_is_all_zero():
    policy = SharingPolicy()
    series = capacity_sweep(0.0, 100.0, 5.0, policy)
    assert all(count == 0 for _, count in series)


def test_sweep_unit_steps_every_guest_slice():
    policy = SharingPolicy()
    host, guest = policy.host_requirement_gb, policy.guest_requirement_gb
    for capacity in [host + i * 0.5 for i in range(0, 40)]:
        assert patients_served(capacity + guest, policy) == (
            patients_served(capacity, policy) + 1)


def test_sweep_validation():
    policy = SharingPolicy()
    with pytest.raises(ValueError):
        capacity_sweep(10.0, 5.0, 1.0, policy)
    with pytest.raises(ValueError):
        capacity_sweep(0.0, 10.0, 0.0, policy)
    for bounds in ((0.0, math.inf, 1.0), (math.nan, 10.0, 1.0), (0.0, 10.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            capacity_sweep(*bounds, policy)


def test_sweep_grid_above_the_limit_is_rejected_before_it_is_built():
    policy = SharingPolicy()
    # 0, 1, ..., MAX_SWEEP_POINTS is one point more than the limit allows,
    # and the second grid's span overflows a float.
    tracemalloc.start()
    try:
        for bounds in ((0.0, float(MAX_SWEEP_POINTS), 1.0), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValueError, match="MAX_SWEEP_POINTS"):
                capacity_sweep(*bounds, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("min_gb,max_gb,step_gb", [
    (1e16, 1.000000000000001e16, 1.0),  # the step rounds away at 1e16: identical points
    (1e300, 1e300, 1.0),  # half a step rounds away past max_gb: no point
    (1e16, 1e16, 2.0),
], ids=["step-vanishes", "half-step-vanishes", "half-step-ties-to-max"])
def test_sweep_grid_that_does_not_advance_is_rejected(min_gb, max_gb, step_gb):
    with pytest.raises(ValueError, match="does not advance"):
        capacity_sweep(min_gb, max_gb, step_gb, SharingPolicy())


def _assert_matches_arange(min_gb, max_gb, step_gb, policy):
    series = capacity_sweep(min_gb, max_gb, step_gb, policy)
    capacities = [capacity for capacity, _ in series]
    assert capacities == np.arange(min_gb, max_gb + step_gb / 2, step_gb).tolist()
    assert [count for _, count in series] == [patients_served(c, policy) for c in capacities]
    return series


@settings(max_examples=300, deadline=None)
@given(min_gb=st.floats(-1e9, 1e9) | st.floats(-1.0, 1.0),
       step_gb=st.floats(1e-6, 1e6, exclude_min=True),
       points=st.floats(0.0, 2000.0),
       host_gb=st.floats(0.5, 500.0),
       guest_share=st.floats(0.001, 1.0))
def test_sweep_grid_is_numpys_arange_and_counts_each_point(min_gb, step_gb, points,
                                                          host_gb, guest_share):
    policy = SharingPolicy(host_gb, host_gb * guest_share)
    _assert_matches_arange(min_gb, min_gb + points * step_gb, step_gb, policy)


@pytest.mark.parametrize("min_gb,max_gb,step_gb,length", [
    (106.66, 600.0, 1.0, 494),  # the CLI's default grid
    (106.66, 600.0, 0.001, 493_341),
    (-37.5, 212.25, 0.75, 334),
    (-1.0, -0.1, 0.1, 10),
])
def test_sweep_pinned_grids_match_numpys_arange(min_gb, max_gb, step_gb, length):
    series = _assert_matches_arange(min_gb, max_gb, step_gb, SharingPolicy())
    assert len(series) == length


def test_sweep_grid_at_the_limit_is_built():
    # 0, 1, ..., MAX_SWEEP_POINTS - 1 is exactly the limit; the grid one
    # point longer is rejected in the test of the limit above.
    series = capacity_sweep(0.0, float(MAX_SWEEP_POINTS - 1), 1.0, SharingPolicy())
    assert len(series) == MAX_SWEEP_POINTS
    assert series[-1][0] == MAX_SWEEP_POINTS - 1


def test_policy_validation():
    with pytest.raises(ValueError):
        SharingPolicy(host_requirement_gb=0.0)
    with pytest.raises(ValueError):
        SharingPolicy(host_requirement_gb=2.0, guest_requirement_gb=3.0)
