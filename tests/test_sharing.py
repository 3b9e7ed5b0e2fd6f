import math
import tracemalloc

import pytest

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


def test_policy_validation():
    with pytest.raises(ValueError):
        SharingPolicy(host_requirement_gb=0.0)
    with pytest.raises(ValueError):
        SharingPolicy(host_requirement_gb=2.0, guest_requirement_gb=3.0)
