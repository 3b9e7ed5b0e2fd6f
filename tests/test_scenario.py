import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from collections import OrderedDict

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from emrcache.cli import main
from emrcache.delay import DemandProfile, LinkRates
from emrcache.placement import LocationProfile
from emrcache.records import ALL_CLASSES, CLASS_ORDER, FileClass, RecordSet, replace, subset_label
from emrcache.scenario import (
    ScenarioError,
    load_scenario,
    matches_reference_layout,
    reference_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)


def test_reference_scenario_is_clean():
    scenario = reference_scenario()
    assert validate(scenario) == []
    assert matches_reference_layout(scenario)
    assert [loc.dwell_hours for loc in scenario.locations] == [10, 8, 3, 2, 1]
    assert sum(loc.probability for loc in scenario.locations) == pytest.approx(1.0)


def test_load_paper_name_gives_reference():
    assert load_scenario("paper") == reference_scenario()


def test_reference_scenario_is_one_shared_read_only_value():
    scenario = load_scenario("paper")
    assert scenario is reference_scenario()
    with pytest.raises(TypeError):
        scenario.demand.requirements["home"] = ALL_CLASSES
    assert DemandProfile({"a": [FileClass.TEXT]}).requirements["a"] == {FileClass.TEXT}
    with pytest.raises(ValueError, match=r"^demand\[a\]: "):
        DemandProfile({"a": ["text"]})


def _save(scenario, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))


def test_round_trip_save_load_identity(tmp_path):
    scenario = reference_scenario()
    path = tmp_path / "scenario.json"
    _save(scenario, path)
    assert load_scenario(path) == scenario
    assert scenario_digest(load_scenario(path)) == scenario_digest(scenario)


def test_partial_file_fills_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"records": {"text_gb": 5.0}}))
    scenario = load_scenario(path)
    assert scenario.records.text_gb == 5.0
    assert scenario.records.image_gb == 87.0
    assert len(scenario.devices) == 5
    assert not matches_reference_layout(scenario)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"recordz": {}}))
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="unknown keys"):
        scenario_from_dict({"records": {"text_size": 1.0}})


def test_malformed_json_is_a_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)
    # A file is UTF-8 JSON text: a byte-order mark or an invalid byte is a parse error too.
    for content, reason in ((b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM"),
                            (b"\xff{}", "'utf-8' codec can't decode byte 0xff")):
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match=f"^parse error in .*: {reason}"):
            load_scenario(path)


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        load_scenario("/nonexistent/scenario.json")


def _layout(dwell_hours):
    locations = [{"name": f"loc{i}", "dwell_hours": h} for i, h in enumerate(dwell_hours)]
    devices = [{"id": f"dev{i}", "capacity_gb": 100.0, "location": f"loc{i}"}
               for i in range(len(dwell_hours))]
    return {"locations": locations, "devices": devices}


def test_dwell_sum_violation_names_the_constraint():
    with pytest.raises(ScenarioError, match="dwell_hours sum"):
        scenario_from_dict(_layout([10, 8, 3, 2, 2]))


def test_negative_capacity_is_one_violation():
    data = _layout([10, 8, 3, 2, 1])
    data["devices"][0]["capacity_gb"] = -5.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert len(err.value.violations) == 1
    assert "capacity_gb" in err.value.violations[0]


def test_validate_collects_violations_without_raising():
    scenario = reference_scenario()
    bad_device = type(scenario.devices[0])("EA", -1.0, scenario.devices[0].location)
    broken = type(scenario)(
        scenario.records, scenario.video_mode, scenario.locations,
        (bad_device,) + scenario.devices[1:], scenario.rates, scenario.tables,
        scenario.demand, scenario.policy, scenario.timeline)
    violations = validate(broken)
    assert len(violations) == 1
    assert "capacity_gb" in violations[0]


def _two_locations(devices=("A", "B"), names=("a", "b")) -> dict:
    return {"locations": [{"name": name, "dwell_hours": 12} for name in names],
            "devices": [{"id": d, "capacity_gb": 100, "location": name}
                        for d, name in zip(devices, names)]}


def _device_at_nowhere():
    scenario = reference_scenario()
    device = replace(scenario.devices[0], location=LocationProfile("nowhere", 10))
    return replace(scenario, devices=(device,) + scenario.devices[1:])


@pytest.mark.parametrize("build,message", [
    (lambda: {"locations": [], "devices": []}, "locations: at least one location is required"),
    (lambda: _two_locations(names=("a", "a")), "locations: names must be unique"),
    (lambda: {"locations": [{"name": "x", "dwell_hours": 25.0}],
              "devices": [{"id": "A", "capacity_gb": 100, "location": "x"}]},
     "locations[x].dwell_hours: 25.0 outside [1, 24]"),
    (lambda: _two_locations(devices=("A", "A")), "devices: ids must be unique"),
    (_device_at_nowhere, "devices[EA].location: 'nowhere' is not a scenario location"),
    (lambda: dict(_two_locations(), demand={"a": ["text"], "b": ["text"], "x": ["text"]}),
     "demand[x]: references an unknown location"),
], ids=["no-locations", "duplicate-names", "dwell-above-24", "duplicate-ids",
        "device-at-unknown-location", "demand-at-unknown-location"])
def test_each_cross_section_rule_names_its_field(build, message):
    built = build()
    if isinstance(built, dict):  # a document: loading runs validate
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(built)
        violations = err.value.violations
    else:  # a scenario built in code, past the loader's own location check
        violations = validate(built)
    assert message in violations


def test_demand_must_cover_every_location():
    data = _layout([12, 12])
    data["demand"] = {"loc0": ["text"]}
    with pytest.raises(ScenarioError, match="demand"):
        scenario_from_dict(data)


def test_default_demand_for_custom_locations_is_everything():
    scenario = scenario_from_dict(_layout([12, 12]))
    assert scenario.demand.requirements["loc0"] == ALL_CLASSES


def test_bijection_violation_detected():
    data = _layout([12, 12])
    data["devices"][1]["location"] = "loc0"
    with pytest.raises(ScenarioError, match="bijection"):
        scenario_from_dict(data)


def test_invalid_rates_rejected():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"rates": {"edge_rate": 0.0, "macro_rate": 0.1}})


@pytest.mark.parametrize("section,key", [
    ("records", "text_gb"), ("records", "image_gb"), ("records", "video_conventional_gb"),
    ("records", "video_dvs_gb"), ("rates", "edge_rate"), ("rates", "macro_rate"),
    ("policy", "host_requirement_gb"), ("policy", "guest_requirement_gb"),
])
def test_integers_beyond_the_float_range_are_rejected_naming_the_field(section, key):
    document = {section: dict(scenario_to_dict(reference_scenario())[section], **{key: 10**400})}
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key}: "):
        scenario_from_dict(document)


@pytest.mark.parametrize("document,field", [
    ({"locations": [{"name": "a", "dwell_hours": 2**1024}],
      "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]}, "locations[a].dwell_hours"),
    ({"locations": [{"name": "a", "dwell_hours": 24}],
      "devices": [{"id": "x", "capacity_gb": 10**400, "location": "a"}]}, "devices[x].capacity_gb"),
    ({"timeline": [[10**400, "fast"]]}, "timeline[0]"),
])
def test_integers_beyond_the_float_range_in_rows_name_the_field(document, field):
    with pytest.raises(ScenarioError, match="^" + re.escape(f"{field}: int too large")):
        scenario_from_dict(document)


def test_custom_video_mode_and_demand_parse():
    scenario = scenario_from_dict({
        "video_mode": "conventional",
        "demand": {"home": ["text"], "work": ["text", "image", "video"],
                   "family": [], "friend": ["text"], "other": ["text"]},
    })
    assert scenario.video_mode.value == "conventional"
    assert scenario.demand.requirements["work"] == ALL_CLASSES
    assert scenario.demand.requirements["family"] == frozenset()
    assert not matches_reference_layout(scenario)


def test_digest_tracks_content():
    scenario = reference_scenario()
    tweaked = scenario_from_dict({"records": {"text_gb": 4.0}})
    assert scenario_digest(scenario) != scenario_digest(tweaked)
    assert scenario_digest(scenario) == scenario_digest(reference_scenario())


def test_tables_combo_override_round_trips(tmp_path):
    data = {"tables": {"combo": {"text": 99, "text+image": 1}}}
    scenario = scenario_from_dict(data)
    assert scenario.tables.combo[frozenset({FileClass.TEXT})] == 99
    path = tmp_path / "combo.json"
    _save(scenario, path)
    assert load_scenario(path) == scenario


@pytest.mark.parametrize("coefficient", [2.7, "3", True, 1e308, 2**53 + 2])
def test_penalty_coefficients_are_whole_numbers_within_2_53(tmp_path, coefficient):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"tables": {"value": {"text": coefficient, "image": 1,
                                                     "video": 3}}}))
    message = f"tables.value[text]: {coefficient!r} is not a whole number within 2**53"
    with pytest.raises(ScenarioError, match="^" + re.escape(message) + "$"):
        load_scenario(path)


@pytest.mark.parametrize("tables,message", [
    ({"combo": {"text+image": 1, "image+text": 99}},
     "tables.combo[image+text]: 'image+text' repeats 'text+image'"),
    ({"combo": {"text": 1, "Text ": 99}}, "tables.combo[Text ]: 'Text ' repeats 'text'"),
    ({"staying": {**{str(h): 25 - h for h in range(1, 25)}, "03": 7}},
     "tables.staying[03]: '03' repeats '3'"),
], ids=["combo-order", "combo-spelling", "staying-leading-zero"])
def test_tables_keys_that_read_as_one_are_rejected(tmp_path, tables, message):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"tables": tables}))
    with pytest.raises(ScenarioError, match="^" + re.escape(message) + "$"):
        load_scenario(path)


_SECTION_KEYS = {
    "records": ("text_gb", "image_gb", "video_conventional_gb", "video_dvs_gb"),
    "rates": ("edge_rate", "macro_rate"),
    "tables": ("staying", "value", "combo"),
    "policy": ("host_requirement_gb", "guest_requirement_gb"),
    "demand": ("home", "work", "family", "friend", "other"),
}
_ROW_KEYS = {"locations": ("name", "dwell_hours"), "devices": ("id", "capacity_gb", "location")}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
    | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8)


def _section_values(key):
    """Any JSON value, or one shaped by the section's real keys when it has them."""
    if key in _SECTION_KEYS:
        return _json_values | st.dictionaries(st.sampled_from(_SECTION_KEYS[key]),
                                              _json_values, max_size=4)
    if key in _ROW_KEYS:
        return _json_values | st.lists(st.dictionaries(st.sampled_from(_ROW_KEYS[key]),
                                                       _json_values, max_size=3), max_size=3)
    return _json_values


_documents = st.fixed_dictionaries({}, optional={
    key: _section_values(key) for key in ("records", "video_mode", "locations", "devices",
                                          "rates", "tables", "demand", "policy", "timeline")})


@settings(max_examples=150, deadline=None)
@given(_documents)
@example({"locations": [{"name": "a", "dwell_hours": 2**1024}]})
def test_scenario_from_dict_raises_only_scenario_errors(document):
    try:
        scenario_from_dict(document)
    except ScenarioError:
        pass


_ONE_LOCATION = [{"name": "a", "dwell_hours": 24}]
_VIOLATION_START = re.compile(r"(scenario|records|video_mode|locations|devices|rates|tables"
                              r"|demand|policy|timeline)[.\[: ]")


@settings(max_examples=150, deadline=None)
@given(_documents)
@example({"locations": [{"name": "a"}],
          "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]})
@example({"locations": _ONE_LOCATION, "devices": [{"id": "x", "location": "a"}]})
@example({"locations": [{"name": "a", "dwell": 24}], "devices": []})
@example({"records": {"text_gb": "3"}})
@example({"demand": {"home": 5, "work": ["text"], "family": ["text"], "friend": ["text"],
                     "other": ["text"]}})
@example({"timeline": "abc"})
@example({"video_mode": "x"})
@example({"rates": {"edge_rate": 1}})
@example({"policy": {"host_requirement_gb": 1, "guest_requirement_gb": 2}})
@example({"tables": {"combo": {"sound": 1}}})
def test_every_load_rejection_starts_with_its_section(document):
    try:
        scenario_from_dict(document)
    except ScenarioError as err:
        for violation in err.violations:
            assert _VIOLATION_START.match(violation), violation


@pytest.mark.parametrize("document,field", [
    ({"locations": [{"name": "a", "dwell_hours": "24"}],
      "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]}, "locations[a].dwell_hours"),
    ({"locations": _ONE_LOCATION, "devices": [{"id": "x", "capacity_gb": "1", "location": "a"}]},
     "devices[x].capacity_gb"),
    ({"records": {"text_gb": "3"}}, "records.text_gb"),
    ({"rates": {"edge_rate": "1", "macro_rate": 1}}, "rates.edge_rate"),
    ({"policy": {"guest_requirement_gb": "3"}}, "policy.guest_requirement_gb"),
    ({"tables": {"staying": {str(h): "1" for h in range(1, 25)}}}, "tables.staying[1]"),
    ({"timeline": [["10", "fast"]]}, "timeline[0]"),
    ({"records": {"text_gb": True}}, "records.text_gb"),
    ({"locations": [{"name": [1], "dwell_hours": 24}],
      "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]}, "locations[0].name"),
    ({"locations": _ONE_LOCATION, "devices": [{"id": 7, "capacity_gb": 1, "location": "a"}]},
     "devices[0].id"),
    ({"locations": _ONE_LOCATION, "devices": [{"id": "x", "capacity_gb": 1, "location": ["a"]}]},
     "devices[x].location"),
], ids=["dwell-string", "capacity-string", "records-string", "rates-string", "policy-string",
        "tables-string", "timeline-string", "records-bool", "name-list", "id-number",
        "location-list"])
def test_each_field_has_one_type_rule(document, field):
    with pytest.raises(ScenarioError, match="^" + re.escape(field + ": ")):
        scenario_from_dict(document)


_ONE_DEVICE = [{"id": "x", "capacity_gb": 1, "location": "a"}]


@pytest.mark.parametrize("document,expected", [
    ({"timeline": {}}, {"timeline": []}),
    ({"timeline": ""}, {"timeline": []}),
    ({"timeline": ((10, "fast"),)}, {"timeline": [[10, "fast"]]}),
    ({"locations": (dict(_ONE_LOCATION[0]),), "devices": tuple(_ONE_DEVICE)},
     {"locations": _ONE_LOCATION, "devices": _ONE_DEVICE}),
    ({"locations": [OrderedDict(name="a", dwell_hours=24)],
      "devices": [OrderedDict(_ONE_DEVICE[0])]},
     {"locations": _ONE_LOCATION, "devices": _ONE_DEVICE}),
    ({"locations": _ONE_LOCATION, "devices": _ONE_DEVICE, "demand": {"a": {"text": 1}}},
     {"locations": _ONE_LOCATION, "devices": _ONE_DEVICE, "demand": {"a": ["text"]}}),
], ids=["timeline-empty-object", "timeline-empty-string", "timeline-tuple", "rows-tuple",
        "rows-ordered-dict", "demand-object"])
def test_other_containers_load_as_their_items(document, expected):
    """A tuple, a dict subclass, or a JSON object read for its keys loads as the plain
    JSON it stands for, and an empty object or string is an empty array."""
    assert scenario_from_dict(document) == scenario_from_dict(expected)


_CLASS_NAMES = ("text", "image", "video")
_LABELS = ("(none)", "text", "image", "video", "text+image", "text+video", "image+video",
           "text+image+video")
_gb = st.floats(min_value=0, max_value=1e4, allow_nan=False) | st.integers(0, 10**4)
# Divisors from the smallest subnormal up, and from an ordinary range.
_rate = st.floats(min_value=5e-324, max_value=1e4) | st.floats(1e-3, 10)


@st.composite
def _valid_documents(draw):
    """Scenario documents that load: a location layout with whole dwell hours summing
    to 24, one device per location, and optional tables, demand, policy and timeline.
    Link rates and the guest requirement reach subnormals, so the drawn documents
    that break a load rule are filtered out here."""
    count = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(1, 23), min_size=count - 1, max_size=count - 1,
                                unique=True)))
    dwell = [b - a for a, b in zip([0] + cuts, cuts + [24])]
    names = draw(st.lists(st.text(max_size=6), min_size=count, max_size=count, unique=True))
    ids = draw(st.lists(st.text(max_size=4), min_size=count, max_size=count, unique=True))
    conventional = draw(_gb)
    document = {
        "records": {"text_gb": draw(_gb), "image_gb": draw(_gb),
                    "video_conventional_gb": conventional,
                    "video_dvs_gb": draw(st.floats(0, 1)) * conventional},
        "video_mode": draw(st.sampled_from(["dvs", "conventional"])),
        "locations": [{"name": n, "dwell_hours": h} for n, h in zip(names, dwell)],
        "devices": [{"id": i, "capacity_gb": draw(_gb), "location": n}
                    for i, n in zip(ids, draw(st.permutations(names)))],
        "rates": {"edge_rate": draw(_rate), "macro_rate": draw(_rate)},
    }
    # Whole coefficients, as ints or integral floats, up to the 2**53 load limit.
    coefficient = (st.integers(-100, 100) | st.integers(-2**53, 2**53)
                   | st.integers(-2**53, 2**53).map(float))
    if draw(st.booleans()):
        document["tables"] = {
            "staying": {str(h): draw(coefficient) for h in range(0, 26)},
            "value": {c: draw(coefficient) for c in _CLASS_NAMES},
            "combo": draw(st.none() | st.dictionaries(st.sampled_from(_LABELS), coefficient)),
        }
    if draw(st.booleans()):
        document["demand"] = {n: draw(st.lists(st.sampled_from(_CLASS_NAMES), unique=True))
                              for n in names}
    guest = draw(st.floats(min_value=5e-324, max_value=50) | st.floats(0.1, 50))
    document["policy"] = {"guest_requirement_gb": guest,
                          "host_requirement_gb": guest + draw(st.floats(0, 500))}
    document["timeline"] = draw(st.lists(st.tuples(
        st.floats(0, 1e5), st.sampled_from(["none", "slow", "fast"])).map(list), max_size=4))
    try:
        scenario_from_dict(document)
    except ScenarioError:
        assume(False)
    return document


@settings(max_examples=150, deadline=None)
@given(_valid_documents())
def test_save_then_load_is_the_identity(document):
    scenario = scenario_from_dict(document)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        _save(scenario, path)
        loaded = load_scenario(path)
    assert loaded == scenario
    assert scenario_digest(loaded) == scenario_digest(scenario)


def _flat(obj) -> dict:
    return {name: float(getattr(obj, name)) for name in obj._fields}


def _canonical(scenario) -> dict:
    """The canonical form the digest hashes, built apart from the digest's own text
    writer, field by field from the scenario's values."""
    tables = scenario.tables
    return {
        "records": _flat(scenario.records),
        "video_mode": scenario.video_mode.value,
        "locations": [{"name": loc.name, "dwell_hours": float(loc.dwell_hours)}
                      for loc in scenario.locations],
        "devices": [{"id": d.id, "capacity_gb": float(d.capacity_gb), "location": d.location.name}
                    for d in scenario.devices],
        "rates": _flat(scenario.rates),
        "tables": {
            "staying": {str(h): c for h, c in sorted(tables.staying.items())},
            "value": {c.value: tables.value[c] for c in CLASS_ORDER},
            "combo": (None if tables.combo is None else
                      {subset_label(s): v for s, v in sorted(
                          tables.combo.items(), key=lambda kv: subset_label(kv[0]))}),
        },
        "demand": {name: sorted(c.value for c in subset)
                   for name, subset in sorted(scenario.demand.requirements.items())},
        "policy": _flat(scenario.policy),
        "timeline": [[duration, level.name.lower()]
                     for duration, level in scenario.timeline.segments],
    }


# Every section given, with names that JSON escapes; each example below leaves out one
# optional section (locations with devices' names kept valid, devices with locations).
_FULL_DOCUMENT = {
    "records": {"text_gb": 4, "image_gb": 80.5, "video_conventional_gb": 100,
                "video_dvs_gb": 9.25},
    "video_mode": "conventional",
    "locations": [{"name": n, "dwell_hours": h}
                  for n, h in (("home", 12), ("work", 6), ("family", 3), ("friend", 2),
                               ("other", 1))],
    "devices": [{"id": i, "capacity_gb": c, "location": n}
                for i, c, n in (("Eé", 50, "home"), ("E\"B", 7.5, "work"),
                                ("EC", 0, "family"), ("ED", 1e3, "friend"),
                                ("EE", 90, "other"))],
    "rates": {"edge_rate": 0.5, "macro_rate": 1e-3},
    "tables": {"staying": {str(h): 30 - h for h in range(1, 25)},
               "value": {"text": 1, "image": 2.0, "video": 3},
               "combo": {"text+image": 7, "video": -1}},
    "demand": {"home": ["video", "text"], "work": "image", "family": [], "friend": ["text"],
               "other": "text+image+video"},
    "policy": {"host_requirement_gb": 50, "guest_requirement_gb": 2.5},
    "timeline": [[10, "fast"], [0.5, "none"]],
}
_OMITTED = [("locations",), ("locations", "devices"), ("records",), ("video_mode",),
            ("rates",), ("tables",), ("demand",), ("policy",), ("timeline",)]


def _without(*keys) -> dict:
    return {key: value for key, value in _FULL_DOCUMENT.items() if key not in keys}


@settings(max_examples=100, deadline=None)
@given(_valid_documents())
@example({})
@example(_FULL_DOCUMENT)
@example({"tables": {"combo": {"image": 3}}})
@example({"tables": {"value": {"text": 5, "image": 1, "video": 3}, "combo": None}})
@example(_without(*_OMITTED[0]))
@example(_without(*_OMITTED[1]))
@example(_without(*_OMITTED[2]))
@example(_without(*_OMITTED[3]))
@example(_without(*_OMITTED[4]))
@example(_without(*_OMITTED[5]))
@example(_without(*_OMITTED[6]))
@example(_without(*_OMITTED[7]))
@example(_without(*_OMITTED[8]))
def test_digest_hashes_the_sorted_canonical_form(document):
    scenario = scenario_from_dict(document)
    canonical = json.dumps(_canonical(scenario), sort_keys=True)
    assert scenario_digest(scenario) == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("section,value", [
    ("rates", LinkRates(math.inf, 1.0)), ("records", RecordSet(text_gb=math.nan)),
    ("locations", (LocationProfile("home", -math.inf),)),
], ids=["infinite-rate", "nan-size", "infinite-dwell"])
def test_digest_and_canonical_form_of_a_built_scenario_with_non_finite_numbers(section, value):
    """No file loads with such a number, but a scenario built in code can hold one."""
    scenario = replace(reference_scenario(), **{section: value})
    canonical = json.dumps(_canonical(scenario), sort_keys=True)
    assert scenario_digest(scenario) == hashlib.sha256(canonical.encode()).hexdigest()
    assert json.dumps(scenario_to_dict(scenario), sort_keys=True) == canonical


# Every subcommand at its defaults, the Monte Carlo estimate for both plan-based
# schemes, and custom mode with ordinary and huge weights; each runs with JSON and
# with CSV output.
_MONTE_CARLO = ["--monte-carlo", "--samples", "1000"]
_SUBCOMMANDS = (["allocate"], ["delay", "--scheme", "edge"], ["delay", "--scheme", "femtocache"],
                ["delay", "--scheme", "baseline"], ["delay", "--scheme", "edge"] + _MONTE_CARLO,
                ["delay", "--scheme", "femtocache"] + _MONTE_CARLO, ["compare"], ["share"],
                ["sweep"], ["dvs-size"], ["calibrate"], ["report"],
                ["allocate", "--mode", "custom", "--weights", "0.5,2,3"],
                ["report", "--mode", "custom", "--weights", "1e300,1,1"])
# CSV columns that hold names: a location may be called "inf".
_NAME_COLUMNS = {"device", "location", "cached", "scheme", "case", "camera"}
# Default observations that cannot fix both link rates, or that solve to a rate
# of 0 or infinity: calibrate's documented limits.
_CALIBRATE_LIMITS = re.compile(r"observations (leave the \w+ rate unconstrained|do not separate)"
                               r"|calibration produced a non-positive rate")


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(_valid_documents())
@example({})
@example({"records": {"text_gb": 0, "image_gb": 0, "video_conventional_gb": 0,
                      "video_dvs_gb": 0}})
@example({"locations": [{"name": "a", "dwell_hours": 24}],
          "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]})
@example({"policy": {"host_requirement_gb": 700, "guest_requirement_gb": 3}})
@example({"records": {"text_gb": 0, "image_gb": 5e-324, "video_conventional_gb": 0,
                      "video_dvs_gb": 0},
          "locations": [{"name": "a", "dwell_hours": 24}],
          "devices": [{"id": "x", "capacity_gb": 0, "location": "a"}]})
@example({"records": {"text_gb": 1e-320, "image_gb": 0, "video_conventional_gb": 10000,
                      "video_dvs_gb": 1000},
          "locations": [{"name": "a", "dwell_hours": 24}],
          "devices": [{"id": "x", "capacity_gb": 5000, "location": "a"}]})
# Delay terms near 1e300 minutes: the Monte Carlo variance must not overflow.
@example({"rates": {"edge_rate": 1e-300, "macro_rate": 1e-300}})
def test_every_subcommand_runs_on_every_valid_scenario(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        for argv in _SUBCOMMANDS:
            for fmt in ("json", "csv"):
                code, out, err = _run_cli(argv + ["--scenario", path, "--format", fmt])
                if argv == ["calibrate"] and code == 2 and _CALIBRATE_LIMITS.search(err):
                    continue
                assert code == 0, (argv, err)
                if fmt == "json":
                    assert _all_finite(json.loads(out)), argv
                    continue
                header, *rows = csv.reader(io.StringIO(out))
                for column, name in enumerate(header):
                    if name not in _NAME_COLUMNS:
                        assert all(math.isfinite(float(row[column])) for row in rows), (argv, name)


@pytest.mark.parametrize("document,field", [
    ({"rates": {"edge_rate": 1e-310, "macro_rate": 1}}, "rates.edge_rate"),
    ({"records": {"text_gb": 0, "image_gb": 0, "video_conventional_gb": 0, "video_dvs_gb": 0},
      "locations": [{"name": "a", "dwell_hours": 24}],
      "devices": [{"id": "x", "capacity_gb": 0, "location": "a"}],
      "policy": {"host_requirement_gb": 5e-324, "guest_requirement_gb": 5e-324}},
     "policy.guest_requirement_gb"),
    # The guest count is finite at 600 GB but not at 600.3 GB, the default sweep's
    # last point for this host requirement.
    ({"policy": {"host_requirement_gb": 100.3, "guest_requirement_gb": 2.78133e-306}},
     "policy.guest_requirement_gb"),
], ids=["edge-rate", "guest-with-a-0-gb-device", "guest-at-the-sweep-end"])
def test_divisors_too_small_for_a_default_run_exit_2_at_load(tmp_path, document, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    for argv in _SUBCOMMANDS:
        code, out, err = _run_cli(argv + ["--scenario", str(path)])
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {field}: "), (argv, err)
