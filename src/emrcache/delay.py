"""Two-tier transmission-delay model, rate calibration, and Monte Carlo estimation.

Each scheme is a load table: one plain tuple (LocationProfile, edge GB, best-case macro
GB, worst-case macro GB) per location, as a namedtuple would slow every Monte Carlo
estimate. Edge GB move at the fast edge rate, macro GB from the registered hospital
over the slower macro link, and expected delay weights each location's term by the
fraction of the day spent there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from types import MappingProxyType

from .placement import AllocationPlan, PlacementMode, plan_scenario, subset_table
from .records import ALL_SUBSETS, RecordSet, VideoMode, full_emr_size, value_class

PROBABILITY_EPS = 1e-9
# Each partition is one multinomial draw; this caps what a config may ask for.
MAX_PARTITIONS = 4096
# `Generator.multinomial` takes its draw count as a signed 64-bit integer.
MAX_SAMPLES = 2**63 - 1

# Report labels: edge caching with event-camera video, conventional edge caching, none.
SCHEME_EDGE, SCHEME_FEMTO, SCHEME_BASELINE = "edge_dvs", "femtocache", "baseline"


@value_class
class LinkRates:
    """Constant link throughputs in GB/s: the edge tier and the macro cell."""

    edge_rate: float
    macro_rate: float

    def __post_init__(self):
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise ValueError(f"rates.{name} must be positive")


# Calibrated defaults that reproduce the reported delay set (ratio 7.5).
DEFAULT_RATES = LinkRates(edge_rate=0.146484375, macro_rate=0.01953125)


class DelayCase(Enum):
    BEST = "best"  # edge cache alone satisfies the request
    WORST = "worst"  # the full remainder also ships from the registered hospital


@value_class
class DemandProfile:
    """What the nearest hospital needs at each location: a read-only mapping from
    location name to a frozenset of file classes, so a profile can be shared."""

    requirements: dict

    def __post_init__(self):
        requirements = {name: frozenset(subset) for name, subset in self.requirements.items()}
        for name, subset in requirements.items():
            if subset not in ALL_SUBSETS:
                raise ValueError(f"demand[{name}]: a subset holds file classes only")
        object.__setattr__(self, "requirements", MappingProxyType(requirements))

    def for_location(self, name: str) -> frozenset:
        try:
            return self.requirements[name]
        except KeyError:
            raise ValueError(f"demand profile has no entry for location {name!r}") from None


# Unweighted per-location delay, both cases.
LocationTerm = namedtuple("LocationTerm", "location probability best_minutes worst_minutes")


class DelayReport(namedtuple("DelayReport", "scheme best_minutes worst_minutes terms")):
    """Expected delay for one scheme; both cases share the location terms."""

    __slots__ = ()

    def minutes(self, case: DelayCase) -> float:
        return self.best_minutes if case is DelayCase.BEST else self.worst_minutes


def transfer_minutes(size_gb: float, rate_gb_s: float) -> float:
    """Minutes to move `size_gb` over a constant-rate link."""
    if rate_gb_s <= 0:
        raise ValueError("transfer rate must be positive")
    if size_gb < 0:
        raise ValueError("transfer size must be >= 0")
    return size_gb / rate_gb_s / 60.0


def _check_probabilities(locations):
    total = sum(loc.probability for loc in locations)
    if abs(total - 1.0) > PROBABILITY_EPS:
        raise ValueError(f"location probabilities sum to {total}, expected 1")


def plan_loads(plan: AllocationPlan, locations) -> tuple:
    """Load table of an edge-cached plan: the cached GB, then the residual in the worst case."""
    _check_probabilities(locations)
    rows = []
    for loc in locations:  # a plain loop: faster than a comprehension on Python 3.11
        entry = plan.entry_for(loc.name)
        rows.append((loc, entry.cached_gb, 0.0, entry.residual_gb))
    return tuple(rows)


def baseline_loads(demand: DemandProfile, records: RecordSet, locations) -> tuple:
    """Load table of the no-edge scheme: each location's demand, or the full conventional set."""
    _check_probabilities(locations)
    sizes = subset_table(records, VideoMode.CONVENTIONAL)
    full = full_emr_size(records, VideoMode.CONVENTIONAL)
    return tuple((loc, 0.0, sizes[demand.for_location(loc.name)][0], full) for loc in locations)


def delay_report(scheme: str, loads, rates: LinkRates) -> DelayReport:
    """Dwell-weighted delay report of a load table."""
    terms = []
    best = worst = 0.0
    for loc, edge_gb, best_gb, worst_gb in loads:
        t_edge = transfer_minutes(edge_gb, rates.edge_rate)
        t_best = t_edge + transfer_minutes(best_gb, rates.macro_rate)
        t_worst = t_edge + transfer_minutes(worst_gb, rates.macro_rate)
        p = loc.probability
        terms.append(LocationTerm(loc.name, p, t_best, t_worst))
        best += p * t_best
        worst += p * t_worst
    return DelayReport(scheme, best, worst, tuple(terms))


def expected_delay(plan: AllocationPlan, locations, rates: LinkRates,
                   scheme: str = SCHEME_EDGE) -> DelayReport:
    """Dwell-weighted delay report for an allocation plan."""
    return delay_report(scheme, plan_loads(plan, locations), rates)


def femtocache_plan(scenario) -> AllocationPlan:
    """The conventional-cache plan: best-ranked combinations of conventional recordings."""
    return plan_scenario(scenario.with_video_mode(VideoMode.CONVENTIONAL),
                         PlacementMode.MIN_COMBO)


def femtocache_delay(scenario) -> DelayReport:
    """Delay report for edge caching of conventional recordings (no event camera)."""
    return expected_delay(femtocache_plan(scenario), scenario.locations, scenario.rates,
                          scheme=SCHEME_FEMTO)


def baseline_delay(demand: DemandProfile, records: RecordSet, locations,
                   rates: LinkRates) -> DelayReport:
    """Delay report with no edge caching and conventional video."""
    return delay_report(SCHEME_BASELINE, baseline_loads(demand, records, locations), rates)


def improvement_pct(reference_minutes: float, new_minutes: float) -> float:
    """Percent reduction relative to `reference_minutes`."""
    if reference_minutes <= 0:
        raise ValueError("reference delay must be positive")
    return (reference_minutes - new_minutes) / reference_minutes * 100.0


# One reported delay tied to the GB it moved on each link tier.
RateObservation = namedtuple("RateObservation", "edge_gb macro_gb minutes")


def load_observation(loads, case: DelayCase, minutes: float) -> RateObservation:
    """Calibration row of a load table: its dwell-weighted GB on each tier in `case`."""
    macro = 2 if case is DelayCase.BEST else 3
    return RateObservation(sum(row[0].probability * row[1] for row in loads),
                           sum(row[0].probability * row[macro] for row in loads), minutes)


def plan_observation(plan: AllocationPlan, locations, case: DelayCase,
                     minutes: float) -> RateObservation:
    """Coefficient row for a reported delay of an edge-cached scheme."""
    return load_observation(plan_loads(plan, locations), case, minutes)


def baseline_observation(demand: DemandProfile, records: RecordSet, locations,
                         case: DelayCase, minutes: float) -> RateObservation:
    """Coefficient row for a reported delay of the no-edge scheme."""
    return load_observation(baseline_loads(demand, records, locations), case, minutes)


def calibrate_rates(observations) -> LinkRates:
    """Recover the two link rates from reported delays by least squares.

    Each observation contributes one linear equation in the reciprocal
    rates. Rejects systems that leave either rate unconstrained or solve to
    a non-positive rate.
    """
    import numpy as np

    observations = list(observations)
    if not observations:
        raise ValueError("calibration needs at least one observation")
    a = np.array([[o.edge_gb, o.macro_gb] for o in observations], dtype=float)
    y = np.array([o.minutes * 60.0 for o in observations], dtype=float)
    for col, label in ((0, "edge"), (1, "macro")):
        if not np.any(np.abs(a[:, col]) > 0):
            raise ValueError(f"observations leave the {label} rate unconstrained")
    if np.linalg.matrix_rank(a) < 2:
        raise ValueError("observations do not separate the two rates")
    inv_rates, *_ = np.linalg.lstsq(a, y, rcond=None)
    # A reciprocal whose largest term is rounding noise is 0, an infinite rate; 1/inf is 0.
    noise = max(a.shape) * np.finfo(float).eps * np.abs(y).max()
    if not all(noise < inv * scale and inv < math.inf
               for inv, scale in zip(inv_rates, np.abs(a).max(axis=0))):
        raise ValueError("calibration produced a non-positive rate")
    return LinkRates(edge_rate=float(1.0 / inv_rates[0]), macro_rate=float(1.0 / inv_rates[1]))


@value_class
class MonteCarloConfig:
    """Sampling setup for the stochastic delay estimate."""

    samples: int
    seed: int = 0
    partitions: int = 1

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= {MAX_SAMPLES} (MAX_SAMPLES)")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.partitions > MAX_PARTITIONS:
            raise ValueError(f"partitions must be <= {MAX_PARTITIONS} (MAX_PARTITIONS)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


MonteCarloResult = namedtuple("MonteCarloResult", "minutes std_error samples seed partitions")


def _scale(spread: float, n: int, power: int) -> float:
    """A factor 2**-k for values of magnitude up to `spread`: scaled by it and
    raised to `power`, any `n` of them sum to a finite float. k is 0 unless the
    plain sum could overflow, and scaling by a power of two is exact, so wherever
    the plain sum is finite the scaled one agrees with it bit for bit.
    """
    return 2.0 ** -max(0, math.frexp(spread)[1] - (1022 - n.bit_length()) // power)


def monte_carlo_delay(plan: AllocationPlan, config: MonteCarloConfig, locations,
                      rates: LinkRates, case: DelayCase) -> MonteCarloResult:
    """Seeded sampling estimate of the expected delay for one case.

    Each draw picks a location term of the closed-form report with that
    term's dwell probability. The estimator needs only how many draws land
    on each term, and those counts are Multinomial(samples, probabilities),
    so they are drawn directly: time and memory are O(locations) whatever
    the sample count. The sample budget is split into `partitions` near-equal
    multinomial draws, taken in order from one generator seeded with
    `config.seed`, so a fixed (seed, samples, partitions) triple repeats
    exactly.
    """
    import numpy as np

    # `multinomial` hands the last category whatever probability rounding
    # leaves over, so zero-probability locations stay out of the draw.
    drawn = [(t.probability, t.best_minutes if case is DelayCase.BEST else t.worst_minutes)
             for t in expected_delay(plan, locations, rates).terms if t.probability > 0]
    weights, terms = np.array(drawn, dtype=float).T
    pvals = weights / weights.sum()
    n, parts = config.samples, config.partitions
    base, extra = divmod(n, parts)
    rng = np.random.default_rng(config.seed)
    counts = sum(rng.multinomial(base + (i < extra), pvals) for i in range(parts))
    # Shifting by one term keeps equal terms exact, so their variance is 0. Each
    # sum is scaled by a power of two, so it stays finite at any term size.
    spread = float(terms.max() - terms.min())
    shift = float(terms[0])
    scale = _scale(spread, n, 1)
    mean = shift + float(counts @ ((terms - shift) * scale)) / n / scale
    std_error = 0.0
    if n > 1:
        scale = _scale(spread, n, 2)
        scaled_variance = float(counts @ ((terms - mean) * scale) ** 2) / (n - 1)
        std_error = math.sqrt(scaled_variance / n) / scale
    return MonteCarloResult(mean, std_error, n, config.seed, parts)
