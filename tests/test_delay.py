import random

import pytest
from hypothesis import given, settings

from emrcache.delay import (
    DEFAULT_RATES,
    DelayCase,
    DemandProfile,
    LinkRates,
    MonteCarloConfig,
    baseline_delay,
    baseline_observation,
    calibrate_rates,
    expected_delay,
    femtocache_delay,
    femtocache_plan,
    improvement_pct,
    monte_carlo_delay,
    plan_observation,
    transfer_minutes,
)
from emrcache.placement import AllocationPlan, PlacementMode, PlanEntry, plan_scenario
from emrcache.records import ALL_SUBSETS, RecordSet, full_emr_size, subset_size
from emrcache.scenario import reference_scenario, scenario_from_dict

from _oracles import random_scenario
from test_scenario import _valid_documents


def _fixture_plan(scenario):
    return plan_scenario(scenario, PlacementMode.REFERENCE)


def _manual_plan(scenario, subset_by_location):
    full = full_emr_size(scenario.records, scenario.video_mode)
    entries = []
    for device in scenario.devices:
        subset = subset_by_location[device.location.name]
        cached = subset_size(subset, scenario.records, scenario.video_mode)
        entries.append(PlanEntry(device.id, device.location.name, subset, cached, full - cached))
    return AllocationPlan(PlacementMode.CUSTOM, scenario.video_mode, tuple(entries))


def test_transfer_minutes_examples():
    assert transfer_minutes(290.0, 0.01953125) == pytest.approx(247.467, abs=0.001)
    assert transfer_minutes(0.0, 0.5) == 0.0
    assert transfer_minutes(86.7608, 0.146484375) == pytest.approx(9.871, abs=0.001)
    with pytest.raises(ValueError):
        transfer_minutes(1.0, 0.0)
    with pytest.raises(ValueError):
        transfer_minutes(-1.0, 1.0)


def test_expected_delay_reproduces_reported_numbers():
    scenario = reference_scenario()
    report = expected_delay(_fixture_plan(scenario), scenario.locations, scenario.rates)
    assert report.best_minutes == pytest.approx(9.872, abs=0.01)
    assert report.worst_minutes == pytest.approx(26.855, abs=0.02)


def test_expected_delay_empty_plan_best_is_zero():
    scenario = reference_scenario()
    plan = _manual_plan(scenario, {loc.name: frozenset() for loc in scenario.locations})
    report = expected_delay(plan, scenario.locations, scenario.rates)
    assert report.best_minutes == 0.0
    assert report.worst_minutes > 0.0


def test_expected_delay_validates_inputs():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    with pytest.raises(ValueError):
        expected_delay(plan, scenario.locations[:-1], scenario.rates)
    short_plan = AllocationPlan(plan.mode, plan.video_mode, plan.entries[:-1])
    with pytest.raises(ValueError):
        expected_delay(short_plan, scenario.locations, scenario.rates)


def test_location_lookup_ignores_entry_order_and_names_a_missing_location():
    scenario = reference_scenario()
    plan = plan_scenario(scenario, PlacementMode.OMISSION)
    flipped = AllocationPlan(plan.mode, plan.video_mode, plan.entries[::-1])
    locations = scenario.locations
    assert expected_delay(flipped, locations, scenario.rates) == expected_delay(
        plan, locations, scenario.rates)
    for case in DelayCase:
        assert plan_observation(flipped, locations, case, 1.0) == plan_observation(
            plan, locations, case, 1.0)
    missing = AllocationPlan(plan.mode, plan.video_mode,
                             tuple(e for e in plan.entries if e.location != "friend"))
    message = r"^plan has no device for location 'friend'$"
    with pytest.raises(ValueError, match=message):
        expected_delay(missing, locations, scenario.rates)
    with pytest.raises(ValueError, match=message):
        plan_observation(missing, locations, DelayCase.BEST, 1.0)


def test_femtocache_delay_reproduces_reported_numbers():
    scenario = reference_scenario()
    report = femtocache_delay(scenario)
    assert report.best_minutes == pytest.approx(16.59, abs=0.05)
    assert report.worst_minutes == pytest.approx(139.652, abs=0.05)


def test_femtocache_delay_halves_when_rates_double():
    scenario = reference_scenario()
    base = femtocache_delay(scenario)
    doubled = type(scenario)(
        scenario.records, scenario.video_mode, scenario.locations, scenario.devices,
        LinkRates(scenario.rates.edge_rate * 2, scenario.rates.macro_rate * 2),
        scenario.tables, scenario.demand, scenario.policy, scenario.timeline)
    fast = femtocache_delay(doubled)
    assert fast.best_minutes == pytest.approx(base.best_minutes / 2)
    assert fast.worst_minutes == pytest.approx(base.worst_minutes / 2)


def test_baseline_delay_reproduces_reported_numbers():
    scenario = reference_scenario()
    report = baseline_delay(scenario.demand, scenario.records, scenario.locations,
                            scenario.rates)
    assert report.best_minutes == pytest.approx(145.73, abs=0.05)
    assert report.worst_minutes == pytest.approx(247.467, abs=0.01)


def test_baseline_empty_demand_best_is_zero():
    scenario = reference_scenario()
    demand = DemandProfile({loc.name: frozenset() for loc in scenario.locations})
    report = baseline_delay(demand, scenario.records, scenario.locations, scenario.rates)
    assert report.best_minutes == 0.0


def test_baseline_accepts_any_iterable_demand_subset():
    scenario = reference_scenario()
    as_lists = DemandProfile({name: sorted(subset, key=lambda c: c.value)
                              for name, subset in scenario.demand.requirements.items()})
    args = (scenario.records, scenario.locations)
    assert baseline_delay(as_lists, *args, scenario.rates) == baseline_delay(
        scenario.demand, *args, scenario.rates)
    assert baseline_observation(as_lists, *args, DelayCase.BEST, 1.0) == baseline_observation(
        scenario.demand, *args, DelayCase.BEST, 1.0)


def test_improvement_pct_examples():
    assert improvement_pct(145.73, 9.872) == pytest.approx(93.23, abs=0.05)
    assert improvement_pct(42.0, 42.0) == 0.0
    assert improvement_pct(139.652, 26.855) == pytest.approx(80.77, abs=0.05)
    with pytest.raises(ValueError):
        improvement_pct(0.0, 1.0)


def test_worst_never_beats_best():
    rng = random.Random(17)
    for _ in range(200):
        scenario = random_scenario(rng)
        subset_by_location = {loc.name: rng.choice(ALL_SUBSETS)
                              for loc in scenario.locations}
        plan = _manual_plan(scenario, subset_by_location)
        report = expected_delay(plan, scenario.locations, scenario.rates)
        assert report.worst_minutes >= report.best_minutes - 1e-12
        for term in report.terms:
            assert term.worst_minutes >= term.best_minutes - 1e-12
            assert term.best_minutes >= 0.0


def test_delay_linear_in_sizes_and_inverse_in_rates():
    rng = random.Random(23)
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    base = expected_delay(plan, scenario.locations, scenario.rates)
    for _ in range(20):
        c = rng.uniform(0.1, 5.0)
        scaled_records = RecordSet(
            scenario.records.text_gb * c, scenario.records.image_gb * c,
            scenario.records.video_conventional_gb * c, scenario.records.video_dvs_gb * c)
        scaled_scenario = type(scenario)(
            scaled_records, scenario.video_mode, scenario.locations, scenario.devices,
            scenario.rates, scenario.tables, scenario.demand, scenario.policy,
            scenario.timeline)
        scaled_plan = _manual_plan(
            scaled_scenario, {e.location: e.subset for e in plan.entries})
        scaled = expected_delay(scaled_plan, scenario.locations, scenario.rates)
        assert scaled.best_minutes == pytest.approx(base.best_minutes * c)
        assert scaled.worst_minutes == pytest.approx(base.worst_minutes * c)

        faster = LinkRates(scenario.rates.edge_rate * c, scenario.rates.macro_rate * c)
        quick = expected_delay(plan, scenario.locations, faster)
        assert quick.best_minutes == pytest.approx(base.best_minutes / c)
        assert quick.worst_minutes == pytest.approx(base.worst_minutes / c)


def test_caching_more_never_hurts_worst_case():
    rng = random.Random(29)
    for _ in range(200):
        scenario = random_scenario(rng)
        small = {}
        big = {}
        for loc in scenario.locations:
            subset = rng.choice(ALL_SUBSETS)
            extra = rng.choice(ALL_SUBSETS)
            small[loc.name] = subset
            big[loc.name] = subset | extra
        rates = LinkRates(0.2, 0.02)  # edge faster than macro
        worse = expected_delay(_manual_plan(scenario, small), scenario.locations, rates)
        better = expected_delay(_manual_plan(scenario, big), scenario.locations, rates)
        assert better.worst_minutes <= worse.worst_minutes + 1e-9


def test_calibrate_rates_from_reported_delays():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    observations = [
        plan_observation(plan, scenario.locations, DelayCase.BEST, 9.872),
        baseline_observation(scenario.demand, scenario.records, scenario.locations,
                             DelayCase.WORST, 247.467),
    ]
    rates = calibrate_rates(observations)
    assert rates.edge_rate == pytest.approx(0.146484, rel=1e-3)
    assert rates.macro_rate == pytest.approx(0.01953125, rel=1e-3)
    # cross-check: the recovered rates reproduce the full reported delay set
    edge = expected_delay(plan, scenario.locations, rates)
    assert edge.best_minutes == pytest.approx(9.872, abs=0.01)
    assert edge.worst_minutes == pytest.approx(26.855, abs=0.02)
    scaled = type(scenario)(scenario.records, scenario.video_mode, scenario.locations,
                            scenario.devices, rates, scenario.tables, scenario.demand,
                            scenario.policy, scenario.timeline)
    femto = femtocache_delay(scaled)
    assert femto.best_minutes == pytest.approx(16.59, abs=0.05)
    assert femto.worst_minutes == pytest.approx(139.652, abs=0.05)
    base = baseline_delay(scenario.demand, scenario.records, scenario.locations, rates)
    assert base.best_minutes == pytest.approx(145.73, abs=0.05)
    assert base.worst_minutes == pytest.approx(247.467, abs=0.01)


def test_calibrate_rejects_degenerate_systems():
    with pytest.raises(ValueError):
        calibrate_rates([])
    from emrcache.delay import RateObservation
    with pytest.raises(ValueError):
        calibrate_rates([RateObservation(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        calibrate_rates([RateObservation(10.0, 0.0, 1.0)])  # macro unconstrained
    with pytest.raises(ValueError):
        calibrate_rates([RateObservation(1.0, 1.0, 1.0),
                         RateObservation(2.0, 2.0, 2.0)])  # rank deficient


def test_calibrate_round_trips_synthetic_rates():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    chosen = LinkRates(0.25, 0.05)
    report = expected_delay(plan, scenario.locations, chosen)
    observations = [
        plan_observation(plan, scenario.locations, DelayCase.BEST, report.best_minutes),
        plan_observation(plan, scenario.locations, DelayCase.WORST, report.worst_minutes),
    ]
    recovered = calibrate_rates(observations)
    assert recovered.edge_rate == pytest.approx(chosen.edge_rate, rel=1e-9)
    assert recovered.macro_rate == pytest.approx(chosen.macro_rate, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(_valid_documents())
def test_calibration_rows_reproduce_every_schemes_minutes(document):
    """At the scenario's own rates, each scheme's calibration row, in either case, prices
    out to the minutes that scheme's delay report gives for that case."""
    scenario = scenario_from_dict(document)
    locations, rates = scenario.locations, scenario.rates
    plans = (plan_scenario(scenario, PlacementMode.OMISSION), femtocache_plan(scenario))
    schemes = [(expected_delay(plans[0], locations, rates),
                lambda case: plan_observation(plans[0], locations, case, 0.0)),
               (femtocache_delay(scenario),
                lambda case: plan_observation(plans[1], locations, case, 0.0)),
               (baseline_delay(scenario.demand, scenario.records, locations, rates),
                lambda case: baseline_observation(scenario.demand, scenario.records, locations,
                                                  case, 0.0))]
    for report, observation in schemes:
        for case in DelayCase:
            row = observation(case)
            minutes = (transfer_minutes(row.edge_gb, rates.edge_rate)
                       + transfer_minutes(row.macro_gb, rates.macro_rate))
            assert minutes == pytest.approx(report.minutes(case), rel=1e-12)


def test_monte_carlo_matches_closed_form():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    closed = expected_delay(plan, scenario.locations, scenario.rates)
    config = MonteCarloConfig(samples=1_000_000, seed=42)
    result = monte_carlo_delay(plan, config, scenario.locations, scenario.rates,
                               DelayCase.BEST)
    assert abs(result.minutes - closed.best_minutes) <= 3 * result.std_error
    worst = monte_carlo_delay(plan, config, scenario.locations, scenario.rates,
                              DelayCase.WORST)
    assert abs(worst.minutes - closed.worst_minutes) <= 3 * worst.std_error


def test_monte_carlo_two_seeds_differ_but_agree():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    closed = expected_delay(plan, scenario.locations, scenario.rates)
    results = [monte_carlo_delay(plan, MonteCarloConfig(samples=200_000, seed=seed),
                                 scenario.locations, scenario.rates, DelayCase.BEST)
               for seed in (1, 2)]
    assert results[0].minutes != results[1].minutes
    for result in results:
        assert abs(result.minutes - closed.best_minutes) <= 3 * result.std_error


def test_monte_carlo_deterministic_and_partitioned():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)

    def run(partitions):
        config = MonteCarloConfig(samples=100_000, seed=7, partitions=partitions)
        return monte_carlo_delay(plan, config, scenario.locations, scenario.rates,
                                 DelayCase.BEST)

    assert run(1).minutes == run(1).minutes
    assert run(4).minutes == run(4).minutes
    assert run(1).minutes != run(4).minutes  # four draws from one generator, not one
    closed = expected_delay(plan, scenario.locations, scenario.rates)
    for partitions in (1, 4):
        result = run(partitions)
        assert abs(result.minutes - closed.best_minutes) <= 3 * result.std_error


def test_monte_carlo_single_location_is_exact():
    scenario = reference_scenario()
    solo_location = type(scenario.locations[0])("everywhere", 24)
    device = type(scenario.devices[0])("dev", 500.0, solo_location)
    solo = type(scenario)(
        scenario.records, scenario.video_mode, (solo_location,), (device,),
        scenario.rates, scenario.tables, scenario.demand, scenario.policy,
        scenario.timeline)
    plan = plan_scenario(solo, PlacementMode.MIN_COMBO)
    closed = expected_delay(plan, solo.locations, solo.rates)
    result = monte_carlo_delay(plan, MonteCarloConfig(samples=1000, seed=3),
                               solo.locations, solo.rates, DelayCase.BEST)
    assert result.minutes == pytest.approx(closed.best_minutes, rel=1e-12)
    assert result.std_error == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_all_dwell_at_one_location_gives_its_term():
    scenario = reference_scenario()
    plan = _fixture_plan(scenario)
    report = expected_delay(plan, scenario.locations, scenario.rates)
    # the other locations get no dwell time, so no draws
    locations = tuple(type(loc)(loc.name, 24.0 if i == 0 else 0.0)
                      for i, loc in enumerate(scenario.locations))
    result = monte_carlo_delay(plan, MonteCarloConfig(samples=1000, seed=5), locations,
                               scenario.rates, DelayCase.BEST)
    assert result.minutes == pytest.approx(report.terms[0].best_minutes, rel=1e-12)


def test_monte_carlo_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(samples=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(samples=10, partitions=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        MonteCarloConfig(samples=10, seed=-1)


def test_default_rates_ratio():
    assert DEFAULT_RATES.edge_rate / DEFAULT_RATES.macro_rate == pytest.approx(7.5)
    with pytest.raises(ValueError):
        LinkRates(0.0, 1.0)
