"""Value semantics of the validated and stateful classes.

Each is read-only, equals only an instance of its own class with equal
fields, hashes consistently with that equality where it is hashable, and
validates again when `replace` copies it with changes.
"""

import pytest

from emrcache.delay import DemandProfile, LinkRates, MonteCarloConfig
from emrcache.dvs import ActivityTimeline, MotionLevel, SensorModel
from emrcache.placement import (
    EdgeDevice,
    LocationProfile,
    PenaltyTables,
    PlacementMode,
    plan_scenario,
)
from emrcache.records import FileClass, RecordSet, VideoMode, replace
from emrcache.report import build_report
from emrcache.scenario import reference_scenario, scenario_from_dict, scenario_to_dict
from emrcache.sharing import SharingPolicy

_REF = reference_scenario()
_HOME = LocationProfile("home", 10)

# (instance, an equal instance built apart, an instance one field apart, hashable)
_CASES = {
    "RecordSet": (RecordSet(), RecordSet(3.0, 87.0, 200.0, 16.66), RecordSet(text_gb=4.0), True),
    "LocationProfile": (_HOME, LocationProfile("home", 10.0), LocationProfile("home", 9), True),
    "EdgeDevice": (EdgeDevice("EA", 100.0, _HOME),
                   EdgeDevice("EA", 100, LocationProfile("home", 10)),
                   EdgeDevice("EA", 99.0, _HOME), True),
    "PenaltyTables": (PenaltyTables.default(),
                      PenaltyTables({h: 25 - h for h in range(1, 25)},
                                    {"image": 1, "text": 2, "video": 3}),
                      PenaltyTables({h: 25 - h for h in range(1, 25)},
                                    {"image": 1, "text": 2, "video": 3}, {"text": 1}), True),
    "LinkRates": (LinkRates(1.0, 2.0), LinkRates(edge_rate=1.0, macro_rate=2.0),
                  LinkRates(1.0, 3.0), True),
    "DemandProfile": (DemandProfile({"home": {FileClass.TEXT}}),
                      DemandProfile({"home": frozenset({FileClass.TEXT})}),
                      DemandProfile({"home": {FileClass.IMAGE}}), False),
    "MonteCarloConfig": (MonteCarloConfig(samples=10), MonteCarloConfig(10, 0, 1),
                         MonteCarloConfig(samples=10, seed=1), True),
    "SharingPolicy": (SharingPolicy(), SharingPolicy(106.66, 3.0), SharingPolicy(106.66, 4.0),
                      True),
    "ActivityTimeline": (ActivityTimeline(((1, "fast"),)),
                         ActivityTimeline(((1.0, MotionLevel.FAST),)),
                         ActivityTimeline(((1, "slow"),)), True),
    "SensorModel": (SensorModel.event_based(), SensorModel({0: 0.0, 1: 64e3, 2: 256e3}),
                    SensorModel.event_based(fast_bps=300e3), False),
    "EdgeScenario": (_REF, scenario_from_dict(scenario_to_dict(_REF)),
                     _REF.with_video_mode(VideoMode.CONVENTIONAL), False),
    "AllocationPlan": (plan_scenario(_REF, PlacementMode.OMISSION),
                       plan_scenario(_REF, PlacementMode.OMISSION),
                       plan_scenario(_REF, PlacementMode.MIN_COMBO), True),
    "RunReport": (build_report(_REF, PlacementMode.OMISSION),
                  build_report(_REF, PlacementMode.OMISSION),
                  build_report(_REF, PlacementMode.MIN_COMBO), False),
}


@pytest.mark.parametrize("name", _CASES)
def test_fields_are_read_only(name):
    value = _CASES[name][0]
    for field in type(value).__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)


@pytest.mark.parametrize("name", _CASES)
def test_equality_goes_by_class_and_field_values(name):
    value, same, other, _ = _CASES[name]
    assert type(value).__name__ == name
    assert value is not same and value == same and not value != same
    assert value != other
    fields = tuple(getattr(value, field) for field in type(value).__annotations__)
    assert value != fields
    for foreign, _, _, _ in _CASES.values():
        assert (value == foreign) is (foreign is value)


def test_equal_fields_in_another_class_are_not_equal():
    assert LinkRates(3.0, 3.0) != SharingPolicy(3.0, 3.0)


@pytest.mark.parametrize("name", _CASES)
def test_the_hash_agrees_with_equality_where_hashable(name):
    value, same, other, hashable = _CASES[name]
    if hashable:
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("name", _CASES)
def test_replace_without_changes_gives_an_equal_value(name):
    value = _CASES[name][0]
    copy = replace(value)
    assert copy == value and copy is not value


@pytest.mark.parametrize("value,changes", [
    (LinkRates(1.0, 2.0), {"edge_rate": 0}),
    (MonteCarloConfig(samples=10), {"samples": 0}),
    (SharingPolicy(), {"guest_requirement_gb": 200.0}),
    (RecordSet(), {"text_gb": -1.0}),
], ids=["LinkRates", "MonteCarloConfig", "SharingPolicy", "RecordSet"])
def test_replace_validates_again(value, changes):
    with pytest.raises(ValueError):
        replace(value, **changes)
