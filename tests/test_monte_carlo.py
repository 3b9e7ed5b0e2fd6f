"""Properties of the Monte Carlo delay estimator over random plans and weights."""

import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from emrcache.delay import (
    MAX_PARTITIONS,
    MAX_SAMPLES,
    DelayCase,
    LinkRates,
    MonteCarloConfig,
    expected_delay,
    monte_carlo_delay,
)
from emrcache.placement import (
    AllocationPlan,
    LocationProfile,
    PlacementMode,
    PlanEntry,
    plan_scenario,
)
from emrcache.records import VideoMode
from emrcache.scenario import reference_scenario

RATES = LinkRates(edge_rate=0.15, macro_rate=0.02)

sizes = st.floats(min_value=0.0, max_value=100.0)
# Integer weights keep every positive location at >= 1/71 of the mass, so
# each one receives many draws at the sample counts used below.
int_weights = st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
partitions = st.sampled_from((1, 4))
cases = st.sampled_from((DelayCase.BEST, DelayCase.WORST))


def _setup(cached, residual, weights):
    """A plan with one device per location, each location's dwell hours in
    proportion to its weight (24 * w / sum(w))."""
    total = sum(weights)
    locations = tuple(LocationProfile(f"loc{i}", 24.0 * w / total) for i, w in enumerate(weights))
    entries = tuple(PlanEntry(f"dev{i}", loc.name, frozenset(), c, r)
                    for i, (loc, c, r) in enumerate(zip(locations, cached, residual)))
    return AllocationPlan(PlacementMode.CUSTOM, VideoMode.DVS, entries), locations


def _terms(plan, locations, case):
    return [t.best_minutes if case is DelayCase.BEST else t.worst_minutes
            for t in expected_delay(plan, locations, RATES).terms]


def _moments(terms, locations):
    mean = sum(loc.probability * t for loc, t in zip(locations, terms))
    return mean, sum(loc.probability * (t - mean) ** 2 for loc, t in zip(locations, terms))


@st.composite
def problems(draw, weights=int_weights, sizes=sizes):
    w = draw(weights)
    assume(sum(w) > 0)
    count = len(w)
    cached = draw(st.lists(sizes, min_size=count, max_size=count))
    residual = draw(st.lists(sizes, min_size=count, max_size=count))
    return _setup(cached, residual, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems(), seeds, st.integers(min_value=10**6, max_value=10**12), partitions, cases)
def test_estimate_and_standard_error_match_the_closed_form(problem, seed, samples, parts, case):
    plan, locations = problem
    config = MonteCarloConfig(samples=samples, seed=seed, partitions=parts)
    result = monte_carlo_delay(plan, config, locations, RATES, case)
    mean, var = _moments(_terms(plan, locations, case), locations)
    sigma = math.sqrt(var / samples)
    rounding = 1e-12 * max(abs(mean), 1.0)
    assert abs(result.minutes - mean) <= 5 * result.std_error + rounding
    assert abs(result.std_error - sigma) <= 0.05 * sigma + rounding


@settings(max_examples=40, deadline=None)
@given(problems(), seeds, st.integers(min_value=1, max_value=10**12), partitions, cases)
def test_same_seed_samples_and_partitions_repeat_exactly(problem, seed, samples, parts, case):
    plan, locations = problem
    config = MonteCarloConfig(samples=samples, seed=seed, partitions=parts)
    first = monte_carlo_delay(plan, config, locations, RATES, case)
    assert monte_carlo_delay(plan, config, locations, RATES, case) == first
    assert (first.samples, first.seed, first.partitions) == (samples, seed, parts)


@settings(max_examples=60, deadline=None)
@given(problems(), seeds, st.integers(min_value=1, max_value=10**12), partitions, cases)
def test_zero_weight_locations_get_no_draws(problem, seed, samples, parts, case):
    # Had a zero-weight location drawn anything, a huge delay there would show.
    plan, locations = problem
    assume(any(loc.probability == 0 for loc in locations))
    huge = AllocationPlan(plan.mode, plan.video_mode, tuple(
        PlanEntry(e.device_id, e.location, e.subset, 1e12, 1e12) if loc.probability == 0 else e
        for e, loc in zip(plan.entries, locations)))
    config = MonteCarloConfig(samples=samples, seed=seed, partitions=parts)
    assert (monte_carlo_delay(huge, config, locations, RATES, case)
            == monte_carlo_delay(plan, config, locations, RATES, case))


@settings(max_examples=60, deadline=None)
@given(int_weights, sizes, sizes, seeds, st.integers(min_value=1, max_value=10**12),
       partitions, cases)
def test_equal_terms_give_zero_standard_error(weights, cached, residual, seed, samples,
                                              parts, case):
    assume(sum(weights) > 0)
    count = len(weights)
    plan, locations = _setup([cached] * count, [residual] * count, weights)
    config = MonteCarloConfig(samples=samples, seed=seed, partitions=parts)
    result = monte_carlo_delay(plan, config, locations, RATES, case)
    assert result.std_error == 0.0
    assert result.minutes == _terms(plan, locations, case)[0]


float_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300)),
    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(problems(float_weights, sizes | st.floats(min_value=0.0, max_value=1e306)), seeds,
       st.integers(min_value=1, max_value=10**12), partitions, cases)
@example(_setup([0.0, 1e306], [1e306, 0.0], [1, 1]), 0, 10**6, 1, DelayCase.BEST)
def test_every_weight_normalisation_gives_a_valid_estimate(problem, seed, samples, parts, case):
    # Subnormal, tiny and huge weights all normalise to valid draw probabilities,
    # and terms near 1e306 minutes, whose squares overflow, give a finite estimate.
    plan, locations = problem
    config = MonteCarloConfig(samples=samples, seed=seed, partitions=parts)
    result = monte_carlo_delay(plan, config, locations, RATES, case)
    drawn = [t for t, loc in zip(_terms(plan, locations, case), locations) if loc.probability > 0]
    slack = 1e-9 * max(drawn)
    assert min(drawn) - slack <= result.minutes <= max(drawn) + slack
    assert math.isfinite(result.std_error) and result.std_error >= 0.0


def test_a_trillion_samples_take_no_sample_sized_memory():
    scenario = reference_scenario()
    plan = plan_scenario(scenario, PlacementMode.REFERENCE)
    config = MonteCarloConfig(samples=10**12, seed=1, partitions=4)
    tracemalloc.start()
    try:
        result = monte_carlo_delay(plan, config, scenario.locations, scenario.rates,
                                   DelayCase.WORST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    closed = expected_delay(plan, scenario.locations, scenario.rates).worst_minutes
    assert abs(result.minutes - closed) <= 5 * result.std_error


def test_limits_are_checked_before_anything_is_spawned():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_PARTITIONS"):
            MonteCarloConfig(samples=10, partitions=MAX_PARTITIONS + 1)
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            MonteCarloConfig(samples=MAX_SAMPLES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert MonteCarloConfig(samples=MAX_SAMPLES, partitions=MAX_PARTITIONS).partitions \
        == MAX_PARTITIONS
