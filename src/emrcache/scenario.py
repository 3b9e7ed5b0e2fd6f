"""Scenario definitions: the document schema, loading, validation, and the built-in setup.

A scenario file is a single JSON document with top-level keys `records`,
`video_mode`, `locations`, `devices`, `rates`, `tables`, `demand`, `policy`
and `timeline`. Omitted keys keep the built-in reference scenario's section;
unknown keys are rejected so typos fail loudly. `SECTIONS` is the schema: each
field's type rule, how a section is read, and its canonical JSON form.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import attrgetter

from .delay import DEFAULT_RATES, DemandProfile, LinkRates, baseline_delay, femtocache_delay
from .delay import transfer_minutes
from .dvs import ActivityTimeline, MotionLevel, sleep_night_timeline
from .placement import (
    REFERENCE_ALLOCATION,
    REFERENCE_DEVICES,
    REFERENCE_RECORDS,
    EdgeDevice,
    LocationProfile,
    PenaltyTables,
    is_reference_device,
    subset_table,
)
from .records import (
    ALL_CLASSES,
    ALL_SUBSETS,
    RecordSet,
    VideoMode,
    parse_subset,
    replace,
    subset_label,
    value_class,
)
from .sharing import SWEEP_END_GB, SharingPolicy, patients_served, sharing_summary

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
    known = set(names)
    if not names:
        violations.append("locations: at least one location is required")
    if len(known) != len(names):
        violations.append("locations: names must be unique")
    staying = scenario.tables.staying
    for loc in scenario.locations:
        if not 1 <= loc.dwell_hours <= 24:
            violations.append(
                f"locations[{loc.name}].dwell_hours: {loc.dwell_hours} outside [1, 24]")
        if loc.dwell_hours not in staying:
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
        if device.location.name not in known:
            violations.append(
                f"devices[{device.id}].location: {device.location.name!r} is not a scenario location")
    covered = [d.location.name for d in scenario.devices]
    if sorted(covered) != sorted(names):
        violations.append("devices: must map one device to each location (bijection)")

    requirements = scenario.demand.requirements
    for name in names:
        if name not in requirements:
            violations.append(f"demand[{name}]: missing required subset")
    for name in requirements:
        if name not in known:
            violations.append(f"demand[{name}]: references an unknown location")
    # No delay term exceeds the minutes to move the full conventional set at the slower rate.
    # A subnormal rate would magnify the rounding of a dwell-weighted size (up to 2**-1075
    # GB) into whole minutes, so a calibration row would not price out to its report.
    full_gb = subset_table(scenario.records, VideoMode.CONVENTIONAL)[ALL_CLASSES][0]
    for key in scenario.rates._fields:
        rate = float(getattr(scenario.rates, key))
        if rate < sys.float_info.min:
            violations.append(f"rates.{key}: {rate} GB/s is subnormal, below {sys.float_info.min}")
        elif not math.isfinite(transfer_minutes(full_gb, rate)):
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
    unknown = None if allowed is None else data.keys() - allowed
    if unknown:
        raise ScenarioError(f"{section}: unknown keys {sorted(unknown)}")
    return data


# A type rule: the words that name it, the types it takes, and how such a value becomes
# the loaded one (None keeps it); a conversion rejects a value with ValueError or KeyError.
Rule = namedtuple("Rule", "words types convert")
NUMBER = Rule("a number", frozenset({int, float}), float)  # true and false are not numbers
STRING = Rule("a string", frozenset({str}), None)
VIDEO_MODE = Rule("'dvs' or 'conventional'", frozenset({str, VideoMode}), VideoMode)
SUBSET = Rule("a list of class names or a subset label", frozenset({str, list, tuple, dict}),
              parse_subset)
LEVEL = Rule("a motion level: none, slow or fast", frozenset({str, MotionLevel}),
             MotionLevel.parse)


def _read(rule: Rule, values: list, name) -> list:
    """`values`, each read by `rule`; the first one rejected, the i-th, is named `name(i)`."""
    try:
        if set(map(type, values)) <= rule.types:
            return values if rule.convert is None else list(map(rule.convert, values))
    except (ValueError, KeyError, OverflowError):
        pass
    for i, value in enumerate(values):  # one by one, to name the rejection
        try:
            if type(value) in rule.types:
                if rule.convert is not None:
                    rule.convert(value)
                continue
        except OverflowError as exc:  # an int beyond the float range
            raise ScenarioError(f"{name(i)}: {exc}") from exc
        except (ValueError, KeyError):
            pass
        raise ScenarioError(f"{name(i)}: {value!r} is not {rule.words}")


def _items(key: str, data) -> list:
    """The items of a JSON array. Like the tuple a caller in code may pass, any iterable
    gives its items; a JSON object gives its keys and a string its characters."""
    try:
        return list(data)
    except TypeError:
        raise ScenarioError(f"{key}: must be a JSON array") from None


def _fields(key: str, rule: Rule, data, loaded):
    """The section's class from a JSON object of its fields, each read by `rule`; a field
    left out takes the class default, the reference scenario's value, if there is one."""
    cls = type(getattr(reference_scenario(), key))
    _check_keys(key, data, cls._fields)
    missing = [field for field in cls._fields if field not in data and not hasattr(cls, field)]
    if missing:
        raise ScenarioError(f"{key}.{missing[0]}: required")
    return cls(*_read(rule, [data[f] if f in data else getattr(cls, f) for f in cls._fields],
                      lambda i: f"{key}.{cls._fields[i]}"))


def _rows(key: str, rules: dict, data) -> list:
    """An array of objects with the keys of `rules`, as one list per key of the values read
    by its rule. A row is named by its first field, or else by its position."""
    rows, keys, first = _items(key, data), rules.keys(), next(iter(rules))

    def label(i):
        return rows[i][first] if type(rows[i].get(first)) is str else i

    for i, row in enumerate(rows):
        if not isinstance(row, dict) or row.keys() != keys:
            _check_keys(f"{key}[]", row, rules)
            missing = next(field for field in rules if field not in row)
            raise ScenarioError(f"{key}[{label(i)}].{missing}: required")
    return [_read(rule, [row[field] for row in rows], lambda i: f"{key}[{label(i)}].{field}")
            for field, rule in rules.items()]


def _locations(key: str, rules: dict, data, loaded) -> tuple:
    return tuple(map(LocationProfile, *_rows(key, rules, data)))


def _devices(key: str, rules: dict, data, loaded) -> tuple:
    ids, capacities, names = _rows(key, rules, data)
    by_name = {loc.name: loc for loc in loaded["locations"]}
    for device_id, name in zip(ids, names):
        if name not in by_name:
            raise ScenarioError(f"{key}[{device_id}].location: unknown location {name!r}")
    return tuple(map(EdgeDevice, ids, capacities, map(by_name.get, names)))


def _tables(key: str, rules: dict, data, loaded) -> PenaltyTables:
    return PenaltyTables(**_check_keys(key, data, rules))


def _demand(key: str, rule: Rule, data, loaded) -> DemandProfile:
    names = list(map(str, _check_keys(key, data)))
    subsets = _read(rule, list(data.values()), lambda i: f"{key}[{names[i]}]")
    return DemandProfile(dict(zip(names, subsets)))


def _timeline(key: str, rules: tuple, data, loaded) -> ActivityTimeline:
    entries = _items(key, data)
    for i, entry in enumerate(entries):
        if type(entry) not in (list, tuple) or len(entry) != len(rules):
            raise ScenarioError(f"{key}[{i}]: {entry!r} is not a [duration_seconds, level] pair")
    return ActivityTimeline(tuple(zip(*[
        _read(rule, [entry[n] for entry in entries], lambda i: f"{key}[{i}]")
        for n, rule in enumerate(rules)])))


def _flat_form(obj) -> dict:
    return {name: float(getattr(obj, name)) for name in obj._fields}


def _tables_form(tables) -> dict:
    return {"staying": dict(zip(map(str, tables.staying), tables.staying.values())),
            "value": {c.value: n for c, n in tables.value.items()},
            "combo": None if tables.combo is None else {subset_label(s): n
                                                        for s, n in tables.combo.items()}}


_CLASS_NAMES = {s: tuple(sorted(c.value for c in s)) for s in ALL_SUBSETS}

# The scenario document, in `EdgeScenario` field order, so a device finds its location.
# Per section: its type rules (one for every field or entry, one per key, or one per
# element of a pair), its reader `read(key, rules, data, sections read before it)`, and
# its canonical JSON form, which the digest hashes with sorted keys. A `tables` family
# is read by `placement.coefficients`; `validate` holds the rules that join sections.
Section = namedtuple("Section", "rules read form")
SECTIONS = {
    "records": Section(NUMBER, _fields, _flat_form),
    "video_mode": Section(VIDEO_MODE, lambda key, rule, data, loaded: _read(
        rule, [data], lambda i: key)[0], attrgetter("value")),
    "locations": Section({"name": STRING, "dwell_hours": NUMBER}, _locations, lambda locations: [
        {"name": loc.name, "dwell_hours": float(loc.dwell_hours)} for loc in locations]),
    "devices": Section({"id": STRING, "capacity_gb": NUMBER, "location": STRING}, _devices,
                       lambda devices: [{"id": d.id, "capacity_gb": float(d.capacity_gb),
                                         "location": d.location.name} for d in devices]),
    "rates": Section(NUMBER, _fields, _flat_form),
    "tables": Section(dict.fromkeys(PenaltyTables._fields), _tables, _tables_form),
    "demand": Section(SUBSET, _demand, lambda demand: {
        name: _CLASS_NAMES[subset] for name, subset in demand.requirements.items()}),
    "policy": Section(NUMBER, _fields, _flat_form),
    "timeline": Section((NUMBER, LEVEL), _timeline, lambda timeline: [
        [duration, level.name.lower()] for duration, level in timeline.segments]),
}


def scenario_from_dict(data: dict) -> EdgeScenario:
    """Build and validate a scenario; omitted sections keep the reference scenario's."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys("scenario", data, SECTIONS)
    ref, loaded = reference_scenario(), {}
    try:
        for key, section in SECTIONS.items():
            if key in data:
                loaded[key] = section.read(key, section.rules, data[key], loaded)
            elif key == "devices" and "locations" in data:
                raise ScenarioError("devices: required when locations are customized")
            elif key == "demand" and "locations" in data:
                loaded[key] = DemandProfile({loc.name: _REFERENCE_DEMAND.get(loc.name, ALL_CLASSES)
                                             for loc in loaded["locations"]})
            else:
                loaded[key] = getattr(ref, key)
    except ScenarioError:
        raise
    except ValueError as exc:  # a value class's own invariant; each message names its field
        raise ScenarioError(str(exc)) from exc
    scenario = EdgeScenario(*loaded.values())
    violations = validate(scenario)
    if violations:
        raise ScenarioError(violations)
    return scenario


def scenario_to_dict(scenario: EdgeScenario) -> dict:
    """Canonical JSON-ready form; load(save(s)) is the identity."""
    return {key: section.form(getattr(scenario, key)) for key, section in SECTIONS.items()}


@lru_cache(maxsize=None)
def _reference_form(key: str):
    return SECTIONS[key].form(getattr(reference_scenario(), key))


def _finite_float(token: str) -> float:
    """JSON number hook: reject NaN, Infinity and literals beyond the float range."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} is not a finite float")
    return value


def _finite_int(token: str) -> int:
    if len(token) > 308:  # a shorter integer is below the float maximum
        _finite_float(token)
    return int(token)


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_int=_finite_int,
                            parse_constant=_finite_float)


def load_scenario(path_or_name) -> EdgeScenario:
    """Load a scenario file; the name 'paper' selects the built-in scenario."""
    if path_or_name == "paper":
        return reference_scenario()
    with open(path_or_name, "rb") as fh:  # JSON text is UTF-8, whatever the locale
        text = fh.read()
    try:  # `json.loads` rejects a byte-order mark; one decoder reads every other file
        text = text.decode()
        data = json.loads(text) if text.startswith("\ufeff") else _DECODER.decode(text)
    except ValueError as exc:
        raise ScenarioError(f"parse error in {path_or_name}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_digest(scenario: EdgeScenario) -> str:
    """Content digest of the canonical form, for reproducibility stamps. A section shared
    with the reference scenario takes a form built once per process."""
    ref = reference_scenario()
    canonical = {key: _reference_form(key) if getattr(scenario, key) is getattr(ref, key)
                 else section.form(getattr(scenario, key)) for key, section in SECTIONS.items()}
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
