"""Scenario definitions: loading, validation, defaults, and the built-in setup.

A scenario file is a single JSON document with top-level keys `records`,
`video_mode`, `locations`, `devices`, `rates`, `tables`, `demand`, `policy`
and `timeline`. Omitted keys keep the built-in reference scenario's section;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import cached_property, lru_cache

from .delay import DEFAULT_RATES, DemandProfile, LinkRates, baseline_delay, femtocache_delay
from .delay import transfer_minutes
from .dvs import ActivityTimeline, sleep_night_timeline
from .placement import (
    REFERENCE_ALLOCATION,
    REFERENCE_DEVICES,
    REFERENCE_RECORDS,
    EdgeDevice,
    LocationProfile,
    PenaltyTables,
    is_reference_device,
)
from .records import (
    ALL_CLASSES,
    CLASS_ORDER,
    RecordSet,
    VideoMode,
    full_emr_size,
    parse_subset,
    replace,
    subset_label,
    value_class,
)
from .sharing import SWEEP_END_GB, SharingPolicy, patients_served

DWELL_SUM_EPS = 1e-9


class ScenarioError(ValueError):
    """A scenario file failed to parse or violated an invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@value_class
class EdgeScenario:
    """One complete simulation setup consumed by every other module. What no placement
    mode changes is computed on first use and kept; a `replace` copy starts without it."""

    records: RecordSet
    video_mode: VideoMode
    locations: tuple
    devices: tuple
    rates: LinkRates
    tables: PenaltyTables
    demand: DemandProfile
    policy: SharingPolicy
    timeline: ActivityTimeline

    def with_video_mode(self, mode: VideoMode) -> "EdgeScenario":
        return replace(self, video_mode=mode)

    @cached_property
    def digest(self) -> str:
        return scenario_digest(self)

    @cached_property
    def femtocache_report(self):
        return femtocache_delay(self)

    @cached_property
    def baseline_report(self):
        return baseline_delay(self.demand, self.records, self.locations, self.rates)

    @cached_property
    def sharing(self) -> dict:
        from .report import sharing_summary  # report imports this module

        return sharing_summary(self)


# Required subset per reference location for the no-edge comparison: the published one.
_REFERENCE_DEMAND = {d.location.name: REFERENCE_ALLOCATION[d.id] for d in REFERENCE_DEVICES}


@lru_cache(maxsize=1)  # every section is read-only, so every caller can share one
def reference_scenario() -> EdgeScenario:
    """The built-in five-location scenario with calibrated link rates."""
    return EdgeScenario(
        records=REFERENCE_RECORDS,
        video_mode=VideoMode.DVS,
        locations=tuple(d.location for d in REFERENCE_DEVICES),
        devices=REFERENCE_DEVICES,
        rates=DEFAULT_RATES,
        tables=PenaltyTables.default(),
        demand=DemandProfile(_REFERENCE_DEMAND),
        policy=SharingPolicy(),
        timeline=sleep_night_timeline(),
    )


def matches_reference_layout(scenario: EdgeScenario) -> bool:
    """True when records, devices and locations equal the built-in scenario."""
    return (len(scenario.devices) == len(REFERENCE_DEVICES)
            and all(is_reference_device(d, scenario.records, scenario.video_mode)
                    for d in scenario.devices))


def validate(scenario: EdgeScenario) -> list:
    """Every violated invariant, as human-readable strings; empty when valid."""
    violations = []
    names = [loc.name for loc in scenario.locations]
    if not names:
        violations.append("locations: at least one location is required")
    if len(set(names)) != len(names):
        violations.append("locations: names must be unique")
    for loc in scenario.locations:
        if not 1 <= loc.dwell_hours <= 24:
            violations.append(
                f"locations[{loc.name}].dwell_hours: {loc.dwell_hours} outside [1, 24]")
        if loc.dwell_hours not in scenario.tables.staying:
            violations.append(f"locations[{loc.name}].dwell_hours: no staying coefficient "
                              f"for dwell time {loc.dwell_hours}")
    total = sum(loc.dwell_hours for loc in scenario.locations)
    if abs(total - 24.0) > DWELL_SUM_EPS:
        violations.append(f"locations: dwell_hours sum to {total}, expected 24")

    ids = [d.id for d in scenario.devices]
    if len(set(ids)) != len(ids):
        violations.append("devices: ids must be unique")
    for device in scenario.devices:
        if device.capacity_gb < 0:
            violations.append(f"devices[{device.id}].capacity_gb: must be >= 0")
        if device.location.name not in names:
            violations.append(
                f"devices[{device.id}].location: {device.location.name!r} is not a scenario location")
    covered = [d.location.name for d in scenario.devices]
    if sorted(covered) != sorted(names):
        violations.append("devices: must map one device to each location (bijection)")

    for name in names:
        if name not in scenario.demand.requirements:
            violations.append(f"demand[{name}]: missing required subset")
    for name in scenario.demand.requirements:
        if name not in names:
            violations.append(f"demand[{name}]: references an unknown location")
    # No delay term exceeds the minutes to move the full conventional set at the slower rate.
    full_gb = full_emr_size(scenario.records, VideoMode.CONVENTIONAL)
    for key, rate in _flat_dict(scenario.rates).items():
        if not math.isfinite(transfer_minutes(full_gb, rate)):
            violations.append(f"rates.{key}: moving {full_gb} GB at {rate} GB/s overflows")
    # A default run counts guests up to the largest device, or to the default sweep's
    # end plus half its 1 GB step.
    try:
        patients_served(max([SWEEP_END_GB + 0.5] + [d.capacity_gb for d in scenario.devices]),
                        scenario.policy)
    except ValueError as exc:
        violations.append(f"policy.guest_requirement_gb: {exc}")
    return violations


def _check_keys(section: str, data, allowed=None) -> dict:
    """`data`, once it is a JSON object with no keys outside `allowed` (None allows any)."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{section}: must be a JSON object")
    unknown = [] if allowed is None else sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(f"{section}: unknown keys {unknown}")
    return data


def _as_float(field: str, value) -> float:
    """float(value), with an int beyond the float range rejected naming the field."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def _flat_section(section: str, data, cls):
    """`cls` built from `data`, a JSON object keyed by `cls`'s fields. Its int values
    (bool aside) become floats, so an int beyond the float range fails at load,
    naming the field, and not later in arithmetic."""
    _check_keys(section, data, cls._fields)
    return cls(**{key: _as_float(f"{section}.{key}", value)
                  if isinstance(value, int) and not isinstance(value, bool) else value
                  for key, value in data.items()})


def _flat_dict(obj) -> dict:
    """The JSON form of a `_flat_section` value: each field as a float."""
    return {name: float(getattr(obj, name)) for name in obj._fields}


def scenario_from_dict(data: dict) -> EdgeScenario:
    """Build and validate a scenario; omitted sections keep the reference scenario's."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys("scenario", data, EdgeScenario._fields)
    ref = reference_scenario()
    given = {}
    try:
        if "records" in data:
            given["records"] = _flat_section("records", data["records"], RecordSet)
        if "video_mode" in data:
            given["video_mode"] = VideoMode(data["video_mode"])
        if "locations" in data:
            locations = []
            for row in data["locations"]:
                _check_keys("locations[]", row, ("name", "dwell_hours"))
                locations.append(LocationProfile(str(row["name"]), _as_float(
                    f"locations[{row['name']}].dwell_hours", row["dwell_hours"])))
            given["locations"] = tuple(locations)
        if "devices" in data:
            by_name = {loc.name: loc for loc in given.get("locations", ref.locations)}
            devices = []
            for row in data["devices"]:
                _check_keys("devices[]", row, ("id", "capacity_gb", "location"))
                loc_name = str(row["location"])
                if loc_name not in by_name:
                    raise ScenarioError(
                        f"devices[{row.get('id')}].location: unknown location {loc_name!r}")
                devices.append(EdgeDevice(str(row["id"]), _as_float(
                    f"devices[{row['id']}].capacity_gb", row["capacity_gb"]), by_name[loc_name]))
            given["devices"] = tuple(devices)
        elif "locations" in data:
            raise ScenarioError("devices: required when locations are customized")
        if "rates" in data:
            given["rates"] = _flat_section("rates", data["rates"], LinkRates)
        if "tables" in data:
            names = PenaltyTables._fields
            raw = _check_keys("tables", data["tables"], names)
            given["tables"] = replace(ref.tables, **{
                key: _check_keys(f"tables.{key}", raw[key])
                for key in names if raw.get(key) is not None})
        if "demand" in data:
            given["demand"] = DemandProfile({
                str(k): parse_subset(v) for k, v in _check_keys("demand", data["demand"]).items()})
        elif "locations" in data:
            given["demand"] = DemandProfile({loc.name: _REFERENCE_DEMAND.get(loc.name, ALL_CLASSES)
                                             for loc in given["locations"]})
        if "policy" in data:
            given["policy"] = _flat_section("policy", data["policy"], SharingPolicy)
        if "timeline" in data:
            given["timeline"] = ActivityTimeline(tuple(
                (_as_float(f"timeline[{i}]", d), lv) for i, (d, lv) in enumerate(data["timeline"])))
    except ScenarioError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from exc

    scenario = replace(ref, **given)
    violations = validate(scenario)
    if violations:
        raise ScenarioError(violations)
    return scenario


def scenario_to_dict(scenario: EdgeScenario) -> dict:
    """Canonical JSON-ready form; load(save(s)) is the identity."""
    return {
        "records": _flat_dict(scenario.records),
        "video_mode": scenario.video_mode.value,
        "locations": [{"name": loc.name, "dwell_hours": float(loc.dwell_hours)}
                      for loc in scenario.locations],
        "devices": [{"id": d.id, "capacity_gb": float(d.capacity_gb),
                     "location": d.location.name}
                    for d in scenario.devices],
        "rates": _flat_dict(scenario.rates),
        "tables": {
            "staying": {str(h): c for h, c in sorted(scenario.tables.staying.items())},
            "value": {c.value: scenario.tables.value[c] for c in CLASS_ORDER},
            "combo": (None if scenario.tables.combo is None else
                      {subset_label(s): v for s, v in sorted(
                          scenario.tables.combo.items(), key=lambda kv: subset_label(kv[0]))}),
        },
        "demand": {name: sorted(c.value for c in subset)
                   for name, subset in sorted(scenario.demand.requirements.items())},
        "policy": _flat_dict(scenario.policy),
        "timeline": [[duration, level.name.lower()]
                     for duration, level in scenario.timeline.segments],
    }


def _finite_float(token: str) -> float:
    """JSON number hook: reject NaN, Infinity and literals beyond the float range."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} is not a finite float")
    return value


def _finite_int(token: str) -> int:
    _finite_float(token)
    return int(token)


def load_scenario(path_or_name) -> EdgeScenario:
    """Load a scenario file; the name 'paper' selects the built-in scenario."""
    if path_or_name == "paper":
        return reference_scenario()
    with open(path_or_name) as fh:
        try:
            data = json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                             parse_constant=_finite_float)
        except ValueError as exc:
            raise ScenarioError(f"parse error in {path_or_name}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_digest(scenario: EdgeScenario) -> str:
    """Content digest of the canonical form, for reproducibility stamps."""
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
