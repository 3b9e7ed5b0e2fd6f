"""Edge caching simulator and optimizer for tiered medical record sets.

Modules: record sizes (`records`), camera volume estimates (`dvs`), penalty
placement (`placement`), the two-tier delay model (`delay`), shared-capacity
counting (`sharing`), scenario files (`scenario`), and reporting
(`report`, `cli`).
"""

from .delay import (
    DEFAULT_RATES,
    DelayCase,
    DelayReport,
    DemandProfile,
    LinkRates,
    MonteCarloConfig,
    MonteCarloResult,
    RateObservation,
    baseline_delay,
    baseline_observation,
    calibrate_rates,
    expected_delay,
    femtocache_delay,
    improvement_pct,
    monte_carlo_delay,
    plan_observation,
    transfer_minutes,
)
from .dvs import (
    ActivityTimeline,
    MotionLevel,
    SensorModel,
    dvs_scale,
    event_volume,
    frame_volume,
    sleep_night_timeline,
)
from .placement import (
    AllocationPlan,
    EdgeDevice,
    LocationProfile,
    PenaltyTables,
    PlacementMode,
    PlanEntry,
    combo_penalty,
    enumerate_feasible,
    optimize_device,
    plan_scenario,
    staying_penalty,
    value_penalty,
)
from .records import (
    ALL_CLASSES,
    ALL_SUBSETS,
    FileClass,
    RecordSet,
    VideoMode,
    full_emr_size,
    parse_subset,
    subset_label,
    subset_size,
)
from .scenario import (
    EdgeScenario,
    ScenarioError,
    load_scenario,
    matches_reference_layout,
    reference_scenario,
    save_scenario,
    scenario_digest,
    validate,
)
from .sharing import SharingPolicy, capacity_sweep, patients_served, scenario_capacity

__version__ = "0.1.0"
