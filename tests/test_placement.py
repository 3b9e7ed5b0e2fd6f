import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from emrcache.placement import (
    REFERENCE_ALLOCATION,
    EdgeDevice,
    LocationProfile,
    PenaltyTables,
    PlacementMode,
    combo_penalty,
    optimize_device,
    plan_scenario,
    staying_penalty,
    value_penalty,
)
from emrcache.records import ALL_CLASSES, ALL_SUBSETS, FileClass, RecordSet, VideoMode, replace
from emrcache.report import plan_divergences
from emrcache.scenario import reference_scenario, scenario_from_dict

from _oracles import naive_combo, naive_optimize, naive_size, naive_subsets, random_scenario
from test_scenario import _valid_documents

TEXT, IMAGE, VIDEO = FileClass.TEXT, FileClass.IMAGE, FileClass.VIDEO


def test_staying_penalty_full_table():
    for hours in range(1, 25):
        assert staying_penalty(hours) == 25 - hours
    assert staying_penalty(1) == 24
    assert staying_penalty(24) == 1
    assert staying_penalty(10) == 15
    assert staying_penalty(3.0) == 22 and staying_penalty(True) == 24
    for bad in (0, 25, 10.5, -3, math.inf, math.nan, None, "3"):
        with pytest.raises(ValueError, match="^no staying coefficient for dwell time "):
            staying_penalty(bad)


def test_value_penalty_defaults():
    assert value_penalty(IMAGE) == 1
    assert value_penalty(TEXT) == 2
    assert value_penalty(VIDEO) == 3


COMBO_TABLE = [
    ({TEXT, IMAGE, VIDEO}, 2),
    ({IMAGE, VIDEO}, 4),
    ({TEXT, IMAGE}, 6),
    ({IMAGE}, 8),
    ({TEXT, VIDEO}, 10),
    ({VIDEO}, 12),
    ({TEXT}, 14),
    (set(), 16),
]


@pytest.mark.parametrize("subset,expected", COMBO_TABLE)
def test_combo_penalty_default_table(subset, expected):
    assert combo_penalty(frozenset(subset), RecordSet(), VideoMode.DVS) == expected


def test_combo_penalty_reranks_for_conventional_video():
    records = RecordSet()
    assert combo_penalty(ALL_CLASSES, records, VideoMode.CONVENTIONAL) == 2
    assert combo_penalty(frozenset({TEXT, VIDEO}), records, VideoMode.CONVENTIONAL) == 6
    assert combo_penalty(frozenset({TEXT, IMAGE}), records, VideoMode.CONVENTIONAL) == 10


def test_combo_penalty_ties_prefer_fewer_classes():
    # text alone and image+video tie at 10 GB; the singleton ranks first
    records = RecordSet(text_gb=10.0, image_gb=4.0, video_conventional_gb=6.0,
                        video_dvs_gb=6.0)
    assert combo_penalty(frozenset({TEXT}), records, VideoMode.DVS) < combo_penalty(
        frozenset({IMAGE, VIDEO}), records, VideoMode.DVS)


def _device(capacity, dwell=10, name="loc"):
    return EdgeDevice("dev", capacity, LocationProfile(name, dwell))


def test_optimize_device_reference_rows():
    scenario = reference_scenario()
    tables = scenario.tables
    by_id = {d.id: d for d in scenario.devices}
    records = scenario.records
    assert optimize_device(by_id["EE"], records, tables, PlacementMode.OMISSION) == frozenset({TEXT})
    assert optimize_device(by_id["EB"], records, tables, PlacementMode.OMISSION) == ALL_CLASSES
    assert optimize_device(by_id["EA"], records, tables, PlacementMode.OMISSION) == frozenset({TEXT, IMAGE})
    assert optimize_device(by_id["EC"], records, tables, PlacementMode.OMISSION) == ALL_CLASSES
    # the published row for ED is text-only; exhaustive scoring prefers text+video
    assert optimize_device(by_id["ED"], records, tables, PlacementMode.OMISSION) == frozenset({TEXT, VIDEO})
    assert optimize_device(by_id["ED"], records, tables, PlacementMode.REFERENCE) == frozenset({TEXT})


def test_plan_scenario_reference_fixture():
    scenario = reference_scenario()
    plan = plan_scenario(scenario, PlacementMode.REFERENCE)
    subsets = {e.device_id: e.subset for e in plan.entries}
    assert subsets == REFERENCE_ALLOCATION
    cached = [e.cached_gb for e in plan.entries]
    residual = [e.residual_gb for e in plan.entries]
    assert cached == pytest.approx([90.0, 106.66, 106.66, 3.0, 3.0])
    assert residual == pytest.approx([16.66, 0.0, 0.0, 103.66, 103.66])


@pytest.mark.parametrize("mode", [PlacementMode.OMISSION, PlacementMode.MIN_COMBO])
def test_optimized_modes_diverge_only_at_ed(mode):
    scenario = reference_scenario()
    plan = plan_scenario(scenario, mode)
    subsets = {e.device_id: e.subset for e in plan.entries}
    expected = dict(REFERENCE_ALLOCATION)
    expected["ED"] = frozenset({TEXT, VIDEO})
    assert subsets == expected
    assert plan.entry_for("friend").cached_gb == pytest.approx(19.66)
    divergent = plan_divergences(scenario, mode, plan)
    assert [d["device"] for d in divergent] == ["ED"]


def test_plan_scenario_zero_capacity_caches_nothing():
    scenario = reference_scenario()
    devices = tuple(EdgeDevice(d.id, 0.0, d.location) for d in scenario.devices)
    bare = type(scenario)(scenario.records, scenario.video_mode, scenario.locations,
                          devices, scenario.rates, scenario.tables, scenario.demand,
                          scenario.policy, scenario.timeline)
    plan = plan_scenario(bare, PlacementMode.OMISSION)
    assert all(e.subset == frozenset() for e in plan.entries)


def test_reference_mode_rejects_other_scenarios():
    scenario = reference_scenario()
    device = EdgeDevice("EA", 123.0, LocationProfile("home", 10))
    with pytest.raises(ValueError):
        optimize_device(device, scenario.records, scenario.tables, PlacementMode.REFERENCE)
    with pytest.raises(ValueError):
        optimize_device(scenario.devices[0], RecordSet(text_gb=4.0), scenario.tables,
                        PlacementMode.REFERENCE)


def test_custom_weights_match_omission_when_uniform():
    rng = random.Random(21)
    for _ in range(100):
        scenario = random_scenario(rng)
        for device in scenario.devices:
            uniform = optimize_device(device, scenario.records, scenario.tables,
                                      PlacementMode.CUSTOM, video_mode=scenario.video_mode,
                                      weights=(1.0, 1.0, 1.0))
            omission = optimize_device(device, scenario.records, scenario.tables,
                                       PlacementMode.OMISSION, video_mode=scenario.video_mode)
            assert uniform == omission


def test_custom_mode_requires_weights():
    scenario = reference_scenario()
    with pytest.raises(ValueError):
        optimize_device(scenario.devices[0], scenario.records, scenario.tables,
                        PlacementMode.CUSTOM)


def test_optimizer_matches_brute_force_oracle():
    rng = random.Random(1234)
    modes = [PlacementMode.OMISSION, PlacementMode.MIN_COMBO, PlacementMode.CUSTOM]
    for _ in range(300):
        scenario = random_scenario(rng)
        for mode in modes:
            weights = (rng.choice([0.0, 0.5, 1.0, 2.0]), rng.choice([0.0, 0.5, 1.0, 2.0]),
                       rng.choice([0.0, 0.5, 1.0, 2.0])) if mode is PlacementMode.CUSTOM else None
            for device in scenario.devices:
                got = optimize_device(device, scenario.records, scenario.tables, mode,
                                      video_mode=scenario.video_mode, weights=weights)
                want = naive_optimize(device, scenario.records, scenario.video_mode,
                                      scenario.tables, mode, weights)
                assert got == want, (mode, device, scenario.records)


def test_plans_always_fit_capacity():
    rng = random.Random(99)
    for _ in range(200):
        scenario = random_scenario(rng)
        for mode in (PlacementMode.OMISSION, PlacementMode.MIN_COMBO):
            plan = plan_scenario(scenario, mode)
            for entry, device in zip(plan.entries, scenario.devices):
                assert entry.cached_gb <= device.capacity_gb + 1e-9
                full = entry.cached_gb + entry.residual_gb
                assert full == pytest.approx(
                    plan.entries[0].cached_gb + plan.entries[0].residual_gb)


def test_min_combo_capacity_monotonicity():
    rng = random.Random(31)
    for _ in range(100):
        scenario = random_scenario(rng)
        records, video_mode, tables = scenario.records, scenario.video_mode, scenario.tables
        location = scenario.locations[0]
        previous_combo = None
        previous_cached = None
        for capacity in (0.0, 5.0, 20.0, 90.0, 106.66, 200.0, 500.0):
            device = EdgeDevice("dev", capacity, location)
            subset = optimize_device(device, records, tables, PlacementMode.MIN_COMBO,
                                     video_mode=video_mode)
            combo = tables.combo_for(subset, records, video_mode)
            cached = sum(records.class_gb(c, video_mode) for c in subset)
            if previous_combo is not None:
                assert combo <= previous_combo
                assert cached >= previous_cached - 1e-9
            previous_combo, previous_cached = combo, cached


def test_penalty_tables_validation():
    with pytest.raises(ValueError):
        PenaltyTables({1: 24}, {TEXT: 2, IMAGE: 1, VIDEO: 3})
    with pytest.raises(ValueError):
        PenaltyTables({h: 25 - h for h in range(1, 25)}, {TEXT: 2})
    with pytest.raises(ValueError, match=r"^tables\.staying: must be a JSON object$"):
        PenaltyTables([1, 2])
    with pytest.raises(ValueError, match=r"^tables\.value: must be a JSON object$"):
        PenaltyTables(None, 5)
    tables = PenaltyTables.default()
    with pytest.raises(ValueError):
        tables.staying_for(2.5)


_HOURS = {h: 25 - h for h in range(1, 25)}


@pytest.mark.parametrize("staying,message", [
    ({**{h: c for h, c in _HOURS.items() if h != 3}, 3.5: 7},
     "tables.staying[3.5]: 3.5 is not a whole hour"),
    ({**{h: c for h, c in _HOURS.items() if h != 1}, True: 24},
     "tables.staying[True]: True is not a whole hour"),
    ({**_HOURS, "3": 22}, "tables.staying[3]: '3' repeats 3"),
], ids=["fraction", "bool", "int-and-str"])
def test_penalty_tables_read_each_hour_key_as_one_whole_hour(staying, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        PenaltyTables(staying, {TEXT: 2, IMAGE: 1, VIDEO: 3})


def _brute_force_with_pins(device, records, video_mode, tables, mode, weights):
    def combo(subset):
        if subset in tables.combo:
            return tables.combo[subset]
        return naive_combo(subset, records, video_mode)

    alpha = tables.staying[int(device.location.dwell_hours)]
    best, best_key = None, None
    for subset in naive_subsets():
        if naive_size(subset, records, video_mode) > device.capacity_gb + 1e-9:
            continue
        excluded = [c for c in (TEXT, IMAGE, VIDEO) if c not in subset]
        stay = alpha * len(excluded)
        val = sum(tables.value[c] for c in excluded)
        if mode is PlacementMode.OMISSION:
            score = stay + val + combo(subset)
        elif mode is PlacementMode.MIN_COMBO:
            score = combo(subset)
        else:
            w_stay, w_value, w_combo = weights
            score = w_stay * stay + w_value * val + w_combo * combo(subset)
        key = (score, combo(subset))
        if best_key is None or key < best_key:
            best, best_key = subset, key
    return best


def test_pinned_combo_coefficients_drive_the_planner():
    # Odd pins never equal each other or an (even) default coefficient, so
    # every candidate's combination term is distinct and the winner unique.
    rng = random.Random(2024)
    modes = [PlacementMode.OMISSION, PlacementMode.MIN_COMBO, PlacementMode.CUSTOM]
    for _ in range(300):
        scenario = random_scenario(rng)
        pinned = rng.sample(ALL_SUBSETS, rng.randint(1, len(ALL_SUBSETS)))
        pins = dict(zip(pinned, rng.sample(range(1, 40, 2), len(pinned))))
        tables = PenaltyTables(scenario.tables.staying, scenario.tables.value, pins)
        for mode in modes:
            weights = (tuple(rng.choice([0.0, 0.1, 0.3, 0.7, 1.0, 2.0]) for _ in range(3))
                       if mode is PlacementMode.CUSTOM else None)
            for device in scenario.devices:
                got = optimize_device(device, scenario.records, tables, mode,
                                      video_mode=scenario.video_mode, weights=weights)
                want = _brute_force_with_pins(device, scenario.records, scenario.video_mode,
                                              tables, mode, weights)
                assert got == want, (mode, weights, pins, device, scenario.records)


def test_penalty_tables_hash_as_they_compare_and_cannot_be_mutated():
    staying = {h: 25 - h for h in range(1, 25)}
    pinned = PenaltyTables(staying, {TEXT: 2, IMAGE: 1, VIDEO: 3}, {frozenset({TEXT}): 5})
    same = PenaltyTables({str(h): c for h, c in staying.items()},
                         {"text": 2, "image": 1, "video": 3}, {frozenset({TEXT}): 5})
    assert pinned == same and hash(pinned) == hash(same)
    default = PenaltyTables(staying, {TEXT: 2, IMAGE: 1, VIDEO: 3})
    assert default == PenaltyTables.default() and hash(default) == hash(PenaltyTables.default())
    # A family left out or None is the built-in one, as it is: it is not read again.
    assert PenaltyTables() == PenaltyTables.default()
    assert (PenaltyTables(None, {"text": 2, "image": 1, "video": 3}).staying
            is PenaltyTables.default().staying)
    combo_only = scenario_from_dict({"tables": {"combo": {"text": 1}}})
    assert combo_only.tables.staying is PenaltyTables.default().staying
    # The hash covers all three fields: tables one entry apart hash apart.
    variants = _table_variants(default, 5)
    assert len({hash(t) for t in variants}) == len(variants)
    assert all(t != variants[0] for t in variants[1:])
    for mapping, key in ((pinned.staying, 1), (pinned.value, TEXT),
                         (pinned.combo, frozenset({TEXT}))):
        with pytest.raises(TypeError):
            mapping[key] = 0


def _table_variants(tables, hour):
    """The tables, then copies that differ in one staying entry, one value entry, one pin."""
    staying, value = dict(tables.staying), dict(tables.value)
    staying[hour] -= 30
    value[VIDEO] -= 33
    return [tables,
            PenaltyTables(staying, tables.value),
            PenaltyTables(tables.staying, value),
            PenaltyTables(tables.staying, tables.value, {frozenset({TEXT, VIDEO}): 41})]


def test_plans_track_tables_that_differ_in_one_entry():
    # Alternating plans share the score-row cache; each must match the brute force
    # for its own tables, never rows cached for a neighbour.
    scenario = reference_scenario()
    variants = _table_variants(scenario.tables, 2)  # device ED's dwell hours
    rng = random.Random(77)
    cases = [(scenario, variants)] + [
        (s, _table_variants(s.tables, int(s.locations[0].dwell_hours)))
        for s in (random_scenario(rng) for _ in range(40))]
    plans = {}
    for _ in range(2):
        for base, tables_list in cases:
            for tables in tables_list:
                scenario_t = replace(base, tables=tables)
                for mode in (PlacementMode.OMISSION, PlacementMode.CUSTOM):
                    weights = (0.1, 0.3, 0.7) if mode is PlacementMode.CUSTOM else None
                    plan = plan_scenario(scenario_t, mode, weights)
                    for entry, device in zip(plan.entries, base.devices):
                        if tables.combo is None:
                            want = naive_optimize(device, base.records, base.video_mode,
                                                  tables, mode, weights)
                        else:
                            want = _brute_force_with_pins(device, base.records,
                                                          base.video_mode, tables, mode,
                                                          weights)
                        assert entry.subset == want, (mode, tables, device)
                    if base is scenario and mode is PlacementMode.OMISSION:
                        plans[tables] = tuple(e.subset for e in plan.entries)
    # On the built-in scenario every variant changes the plan, so a stale row shows.
    assert all(plans[tables] != plans[variants[0]] for tables in variants[1:])


def _custom_terms(device, scenario) -> dict:
    """(staying x classes left out, value of those classes, combination coefficient) for
    each subset that fits the device, in ALL_SUBSETS order."""
    tables, records, video_mode = scenario.tables, scenario.records, scenario.video_mode
    alpha = tables.staying[int(device.location.dwell_hours)]
    pins = tables.combo or {}
    terms = {}
    for subset in naive_subsets():
        if naive_size(subset, records, video_mode) <= device.capacity_gb + 1e-9:
            excluded = [c for c in (TEXT, IMAGE, VIDEO) if c not in subset]
            terms[subset] = (alpha * len(excluded), sum(tables.value[c] for c in excluded),
                             pins.get(subset, naive_combo(subset, records, video_mode)))
    return terms


# Every staying coefficient 2**53 and every value coefficient -2**53: at weights
# 1e300,1e300,1 the unscaled products overflow, and each score would be inf + -inf.
_OVERFLOW_DOCUMENT = {"tables": {"staying": {str(h): 2**53 for h in range(1, 25)},
                                 "value": {"text": -2**53, "image": -2**53, "video": -2**53}}}
# A rounding near-tie at ordinary weights: the 0.125-weighted staying term separates
# the two best subsets exactly, but is below the rounding of the other two terms.
_NEAR_TIE_DOCUMENT = {
    "records": {"text_gb": 0.0, "image_gb": 1.0, "video_conventional_gb": 0.0,
                "video_dvs_gb": 0.0},
    "locations": [{"name": n, "dwell_hours": h} for n, h in (("a", 1), ("b", 1), ("c", 1),
                                                              ("d", 21))],
    "devices": [{"id": n, "capacity_gb": float(n == "d"), "location": n} for n in "abcd"],
}
_weight = st.floats(-1e308, 1e308) | st.floats(-10, 10)


@settings(max_examples=100, deadline=None)
@given(_valid_documents(), st.tuples(_weight, _weight, _weight))
@example(_OVERFLOW_DOCUMENT, (1e300, 1e300, 1.0))
@example(_NEAR_TIE_DOCUMENT, (0.125, 1832008094753981.0, 1832008094753981.0))
def test_custom_mode_is_exact_up_to_float_rounding(document, weights):
    scenario = scenario_from_dict(document)
    plan = plan_scenario(scenario, PlacementMode.CUSTOM, weights)
    # The planner scores with the weights scaled by one power of two, 2**-k.
    k = max(0, math.frexp(max(map(abs, weights)))[1] - 967)
    scaled = [math.ldexp(w, -k) for w in weights]
    for entry, device in zip(plan.entries, scenario.devices):
        terms = _custom_terms(device, scenario)
        exact = {s: sum(Fraction(w) * n for w, n in zip(weights, t)) for s, t in terms.items()}
        want = min(terms, key=lambda s: (exact[s], terms[s][2]))  # first minimum wins
        got = entry.subset
        if got == want:
            continue
        # A disagreement is a rounding tie: the planner's subset has the least float
        # score, computed in the planner's order...
        floats = {s: (scaled[0] * terms[s][0] + scaled[1] * terms[s][1]
                      + scaled[2] * terms[s][2], terms[s][2]) for s in (got, want)}
        assert floats[got] <= floats[want], (device, got, want, floats)
        # ...and the exact scores differ by no more than the float scores' rounding
        # error, plus the precision a weight loses when scaling makes it subnormal.
        bound = sum(Fraction(2) ** -50 * sum(abs(Fraction(w) * n) for w, n in zip(weights, t))
                    + Fraction(2) ** (k - 1072) * (sum(map(abs, t)) + 3)
                    for t in (terms[got], terms[want]))
        assert exact[got] - exact[want] <= bound, (device, got, want)
