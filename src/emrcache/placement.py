"""Penalty tables and the per-device file-placement optimizer.

Each edge device caches one subset of the three file classes, limited by its
storage capacity. Candidate subsets are scored from three penalty families:
a staying-time coefficient for the device's location, a per-class value
coefficient, and a rank coefficient over the cached combination (bigger
combinations rank better because they save more transfer time). The search
is exhaustive over the 8 subsets, which is exact at this problem size.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType

from .records import (
    ALL_CLASSES,
    ALL_SUBSETS,
    CLASS_ORDER,
    FileClass,
    RecordSet,
    VideoMode,
    parse_subset,
    subset_size,
    value_class,
)

# Slack for capacity and size comparisons on float GB values.
SIZE_EPS = 1e-9

EMPTY_COMBO_PENALTY = 16

DEFAULT_VALUE_PENALTIES = {FileClass.IMAGE: 1, FileClass.TEXT: 2, FileClass.VIDEO: 3}


@value_class
class LocationProfile:
    """A place the patient spends part of the day.

    `dwell_hours` is the average daily time spent there; the fraction of the
    day it represents weights that location's delay term.
    """

    name: str
    dwell_hours: float

    @property
    def probability(self) -> float:
        return self.dwell_hours / 24.0


@value_class
class EdgeDevice:
    """A cache node pinned to one location."""

    id: str
    capacity_gb: float
    location: LocationProfile


def staying_penalty(hours) -> int:
    """Default staying coefficient for a location occupied `hours` per day.

    Only whole hours in 1..24 are defined; anything else is rejected.
    """
    return PenaltyTables.default().staying_for(hours)


def value_penalty(file_class: FileClass) -> int:
    """Default clinical-value coefficient: images 1, text 2, video 3."""
    return DEFAULT_VALUE_PENALTIES[file_class]


@lru_cache(maxsize=4096)
def subset_table(records: RecordSet, video_mode: VideoMode):
    """Each subset, in ALL_SUBSETS order, mapped to (size GB, default combo coefficient).

    The coefficient is 2 x position in the size-descending order of the 7
    non-empty subsets, and 16 for the empty set. Equal sizes rank fewer
    classes first, then canonical class order: ALL_SUBSETS already lists
    each cardinality in that order and the sort is stable.
    """
    sizes = {s: subset_size(s, records, video_mode) for s in ALL_SUBSETS}
    ranked = sorted((s for s in ALL_SUBSETS if s), key=lambda s: (-sizes[s], len(s)))
    combo = {s: 2 * (i + 1) for i, s in enumerate(ranked)}
    return MappingProxyType({s: (sizes[s], combo.get(s, EMPTY_COMBO_PENALTY))
                             for s in ALL_SUBSETS})


def combo_penalty(subset, records: RecordSet, mode: VideoMode) -> int:
    """Rank coefficient: 2 x position in the size-descending order; empty set 16.

    Equal-size ties rank the subset with fewer classes first.
    """
    return subset_table(records, mode)[frozenset(subset)][1]


# Per coefficient family: what a key must be, how one is read, and the keys it must cover.
_CLASS_KEYS = {**{c.value: c for c in CLASS_ORDER}, **{c: c for c in CLASS_ORDER}}
_FAMILIES = {"staying": ("a whole hour", int, "hour", range(1, 25)),
             "value": ("a file class name", _CLASS_KEYS.__getitem__, "file class", CLASS_ORDER),
             "combo": ("a subset label", parse_subset, None, ())}


def coefficients(table: str, raw) -> dict:
    """`raw`, one `PenaltyTables` family keyed as in a scenario file or as the tables hold
    it, as a plain dict of read keys and coefficients. A coefficient is an int or an
    integral float within 2**53, so it is exact as a float and no custom-mode score
    overflows; bools and strings are rejected."""
    words, read_key, noun, needed = _FAMILIES[table]
    out = {}
    for key, value in raw.items():
        try:
            if read_key is int and type(key) not in (int, str):  # int() reads 3.5 and True
                raise ValueError
            read = read_key(key)
        except (KeyError, ValueError):
            raise ValueError(f"tables.{table}[{key}]: {key!r} is not {words}") from None
        if read in out:
            earlier = next(k for k in raw if read_key(k) == read)
            raise ValueError(f"tables.{table}[{key}]: {key!r} repeats {earlier!r}")
        if not (type(value) in (int, float) and abs(value) <= 2**53 and value == int(value)):
            raise ValueError(
                f"tables.{table}[{key}]: {value!r} is not a whole number within 2**53")
        out[read] = int(value)
    for need in needed:
        if need not in out:
            raise ValueError(f"tables.{table} must cover {noun} {need}")
    return out


@value_class
class PenaltyTables:
    """The three coefficient families used by the placement score.

    `staying` maps whole hours, `value` file classes and `combo` subsets to
    coefficients, keyed by int, FileClass and frozenset or as in a scenario file.
    `combo` pins only the subsets it lists; when it is None the size-rank rule
    supplies every combination coefficient for any record sizes. The mappings
    are read-only, so the tables can key the cached score rows.
    """

    staying: dict
    value: dict
    combo: dict | None = None

    def __post_init__(self):
        self._hold(coefficients("staying", self.staying), coefficients("value", self.value),
                   None if self.combo is None else coefficients("combo", self.combo))

    @classmethod
    def checked(cls, staying, value, combo=None) -> "PenaltyTables":
        """Tables from families that `coefficients` has read, or that other tables hold;
        nothing is read again."""
        tables = object.__new__(cls)
        tables._hold(staying, value, combo)
        return tables

    def _hold(self, staying, value, combo):
        proxy = lambda m: m if m is None or type(m) is MappingProxyType else MappingProxyType(m)
        self.__dict__.update(staying=proxy(staying), value=proxy(value), combo=proxy(combo))
        # Hashed once: the tables key the score-row cache on every plan.
        self.__dict__["_hash"] = hash((frozenset(staying.items()), frozenset(value.items()),
                                       None if combo is None else frozenset(combo.items())))

    def __hash__(self):
        return self._hash

    @classmethod
    @lru_cache(maxsize=1)  # read-only, so every caller can share one
    def default(cls) -> "PenaltyTables":
        return cls({h: 25 - h for h in range(1, 25)}, dict(DEFAULT_VALUE_PENALTIES))

    def staying_for(self, dwell_hours) -> int:
        h = float(dwell_hours)
        if h != int(h) or int(h) not in self.staying:
            raise ValueError(f"no staying coefficient for dwell time {dwell_hours!r}")
        return self.staying[int(h)]

    def combo_for(self, subset, records: RecordSet, mode: VideoMode) -> int:
        if self.combo is not None and frozenset(subset) in self.combo:
            return self.combo[frozenset(subset)]
        return combo_penalty(subset, records, mode)


@lru_cache(maxsize=4096)
def score_rows(tables: PenaltyTables, records: RecordSet, video_mode: VideoMode) -> tuple:
    """Per subset, in ALL_SUBSETS order: (subset, size GB, classes left out, value of
    the classes left out, combination coefficient with the pins applied)."""
    return tuple((s, size, len(ALL_CLASSES - s), sum(tables.value[c] for c in ALL_CLASSES - s),
                  tables.combo_for(s, records, video_mode))
                 for s, (size, _) in subset_table(records, video_mode).items())


class PlacementMode(Enum):
    OMISSION = "omission"  # charge staying+value for classes left out, plus the combo rank
    MIN_COMBO = "min-combo"  # best combo rank that fits
    REFERENCE = "paper"  # the published allocation for the built-in scenario, verbatim
    CUSTOM = "custom"  # user-weighted blend of the three penalty terms


# Published allocation for the built-in scenario, by device id.
REFERENCE_ALLOCATION = {
    "EA": frozenset({FileClass.TEXT, FileClass.IMAGE}),
    "EB": ALL_CLASSES,
    "EC": ALL_CLASSES,
    "ED": frozenset({FileClass.TEXT}),
    "EE": frozenset({FileClass.TEXT}),
}

# Built-in scenario layout: one device per location, in the published order.
REFERENCE_DEVICES = (
    EdgeDevice("EA", 100.0, LocationProfile("home", 10)),
    EdgeDevice("EB", 500.0, LocationProfile("work", 8)),
    EdgeDevice("EC", 150.0, LocationProfile("family", 3)),
    EdgeDevice("ED", 50.0, LocationProfile("friend", 2)),
    EdgeDevice("EE", 10.0, LocationProfile("other", 1)),
)

# Built-in record sizes: the defaults.
REFERENCE_RECORDS = RecordSet()


def is_reference_device(device: EdgeDevice, records: RecordSet, mode: VideoMode) -> bool:
    """True when the device, the record sizes and the video mode are the built-in ones.

    Device equality compares id, capacity, location name and dwell hours."""
    return device in REFERENCE_DEVICES and records == REFERENCE_RECORDS and mode is VideoMode.DVS


# (staying, value, combo) weights of the fixed modes; ints keep their scores exact.
_MODE_WEIGHTS = {PlacementMode.OMISSION: (1, 1, 1), PlacementMode.MIN_COMBO: (0, 0, 1)}


def optimize_device(device: EdgeDevice, records: RecordSet, tables: PenaltyTables,
                    mode: PlacementMode, *, video_mode: VideoMode = VideoMode.DVS,
                    weights=None) -> frozenset:
    """Pick the cached subset for one device.

    Exhaustive search over the feasible subsets. Each is scored as
    w_stay * (staying x classes left out) + w_value * (value of the classes
    left out) + w_combo * (combination coefficient), with the mode's weights;
    ties break toward the better combination rank, then ALL_SUBSETS order, so
    the result is deterministic. REFERENCE mode returns the published
    allocation and only accepts the built-in layout.
    """
    return _chooser(records, tables, mode, video_mode, weights)(device)


def _chooser(records: RecordSet, tables: PenaltyTables, mode: PlacementMode,
             video_mode: VideoMode, weights):
    """optimize_device for one (tables, records, mode), fetching the score rows once."""
    if mode is PlacementMode.CUSTOM:
        if weights is None or len(weights) != 3 or not all(map(math.isfinite, weights)):
            raise ValueError("custom mode needs three finite weights (staying, value, combo)")
        # Each coefficient is within 2**53, so a score is below 2**56 x the largest weight.
        # Scaling the weights by 2**-k keeps every score finite and, being exact, changes
        # no comparison; k is 0 unless a score could overflow. A weight that turns
        # subnormal after scaling loses precision.
        k = max(0, math.frexp(max(map(abs, weights)))[1] - 967)
        if k:
            weights = tuple(math.ldexp(w, -k) for w in weights)
    elif weights is not None:
        raise ValueError("weights apply only to custom mode")
    elif mode is not PlacementMode.REFERENCE:
        weights = _MODE_WEIGHTS[mode]
    rows = score_rows(tables, records, video_mode)

    def choose(device):
        if mode is PlacementMode.REFERENCE:
            if not is_reference_device(device, records, video_mode):
                raise ValueError(f"mode 'paper' only applies to the built-in scenario; "
                                 f"device {device.id!r} differs")
            return REFERENCE_ALLOCATION[device.id]
        w_stay, w_value, w_combo = weights
        staying = tables.staying_for(device.location.dwell_hours)
        limit = device.capacity_gb + SIZE_EPS
        best = best_key = None
        for subset, size, left_out, value, combo in rows:
            if size <= limit:
                key = (w_stay * (staying * left_out) + w_value * value + w_combo * combo, combo)
                if best_key is None or key < best_key:
                    best, best_key = subset, key
        if best is None:
            raise ValueError(f"{device.id}: no subset fits capacity {device.capacity_gb}")
        return best
    return choose


# One device's slice of an allocation.
PlanEntry = namedtuple("PlanEntry", "device_id location subset cached_gb residual_gb")


@value_class
class AllocationPlan:
    """Cached subset per device plus what stays at the registered hospital."""

    mode: PlacementMode
    video_mode: VideoMode
    entries: tuple

    @cached_property
    def _by_location(self) -> dict:
        return {entry.location: entry for entry in reversed(self.entries)}  # first one wins

    def entry_for(self, location_name: str) -> PlanEntry:
        try:
            return self._by_location[location_name]
        except KeyError:
            raise ValueError(f"plan has no device for location {location_name!r}") from None


def plan_scenario(scenario, mode: PlacementMode, weights=None) -> AllocationPlan:
    """Optimize every device in the scenario and assemble the allocation."""
    table = subset_table(scenario.records, scenario.video_mode)
    full = table[ALL_CLASSES][0]
    choose = _chooser(scenario.records, scenario.tables, mode, scenario.video_mode, weights)
    entries = []
    for device in scenario.devices:
        subset = choose(device)
        cached = table[subset][0]
        entries.append(PlanEntry(device.id, device.location.name, subset, cached, full - cached))
    return AllocationPlan(mode, scenario.video_mode, tuple(entries))

