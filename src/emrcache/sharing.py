"""Shared-capacity head-count: how many patients an edge device can host."""

from __future__ import annotations

import math

from .records import value_class

_EPS = 1e-9
# Largest capacity grid a sweep builds; each point is one output row.
MAX_SWEEP_POINTS = 1_000_000
SWEEP_END_GB = 600.0  # where a sweep ends by default, unless the host requirement lies beyond


@value_class
class SharingPolicy:
    """Space the owner needs before guests fit, and the per-guest slice.

    Defaults: the owner caches a complete record set (106.66 GB) and each
    guest caches only the smallest useful tier, text (3 GB).
    """

    host_requirement_gb: float = 106.66
    guest_requirement_gb: float = 3.0

    def __post_init__(self):
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise ValueError(f"policy.{name} must be positive")
        if self.host_requirement_gb < self.guest_requirement_gb:
            raise ValueError("policy.host_requirement_gb cannot be below guest_requirement_gb")


def patients_served(capacity_gb: float, policy: SharingPolicy) -> int:
    """Patients one device serves: the host plus one guest per leftover slice.

    A device too small for the host's complete record set serves nobody
    here; partial service for the owner does not count toward shared
    capacity.
    """
    if capacity_gb + _EPS < policy.host_requirement_gb:
        return 0
    # A capacity within _EPS below the host passes the check; it serves the host alone.
    leftover = max(0.0, capacity_gb - policy.host_requirement_gb)
    slices = leftover / policy.guest_requirement_gb + _EPS
    if not math.isfinite(slices):
        raise ValueError(f"the guest count at {capacity_gb:g} GB overflows the float range")
    return 1 + math.floor(slices)


def scenario_capacity(devices, policy: SharingPolicy, count_hosts: bool = False) -> int:
    """Total patients across devices.

    With `count_hosts`, owners of devices too small to share still count as
    one patient each, for the alternative tally.
    """
    total = 0
    for device in devices:
        served = patients_served(device.capacity_gb, policy)
        if count_hosts and served == 0:
            served = 1
        total += served
    return total


def capacity_sweep(min_gb: float, max_gb: float, step_gb: float,
                   policy: SharingPolicy) -> list:
    """(capacity, patients) along an inclusive grid, for plotting growth."""
    if not all(math.isfinite(x) for x in (min_gb, max_gb, step_gb)):
        raise ValueError("sweep bounds and step must be finite")
    if step_gb <= 0:
        raise ValueError("sweep step must be positive")
    if min_gb > max_gb:
        raise ValueError("sweep min exceeds max")
    # The grid runs to half a step past max_gb, so max_gb itself is on it
    # despite rounding. It has ceil(span) points; check that before building.
    span = (max_gb + step_gb * 0.5 - min_gb) / step_gb
    if span > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid exceeds the limit of {MAX_SWEEP_POINTS} points "
                         f"(MAX_SWEEP_POINTS); use a larger step")
    # Point i is min_gb + i * delta, where delta is the step as it rounds at
    # min_gb; the tests pin these floats to an arange over the same bounds.
    delta = (min_gb + step_gb) - min_gb
    if delta == 0 or span == 0:  # the step vanishes at this magnitude
        raise ValueError(f"sweep step {step_gb:g} does not advance a grid at {min_gb:g} GB")
    return [(capacity, patients_served(capacity, policy))
            for capacity in (min_gb + i * delta for i in range(math.ceil(span)))]


def sharing_summary(scenario) -> dict:
    """Patients served per device and in total, as a JSON dict."""
    return {
        "per_device": [{"device": d.id, "capacity_gb": d.capacity_gb,
                        "patients": patients_served(d.capacity_gb, scenario.policy)}
                       for d in scenario.devices],
        "total": scenario_capacity(scenario.devices, scenario.policy),
        "total_with_hosts": scenario_capacity(scenario.devices, scenario.policy,
                                              count_hosts=True),
    }
