"""Power, energy and emissions planning toolkit for large HPC systems."""

from .emissions import (
    CarbonIntensityProfile,
    EfficiencyMetrics,
    EmbodiedEmissions,
    EmissionsBreakdown,
    EmissionsScenario,
    OptimizationObjective,
    amortized_scope3,
    classify_scenario,
    lifetime_emissions,
    output_efficiency,
    recommended_objective,
    run_intensity,
    scope2_emissions,
)
from .errors import DataFormatError, DomainError, WattplanError
from .freq_policy import (
    AppBenchmark,
    DerivedRatios,
    FleetRatios,
    FrequencySetting,
    Intervention,
    JobMix,
    PolicyDecision,
    PolicyRule,
    derived_ratios,
    fleet_ratios,
    load_benchmark_table,
    recommend,
)
from .power_model import (
    ComponentSpec,
    FactorMode,
    LoadResponse,
    PowerBreakdown,
    SystemModel,
    apply_power_factor,
    component_power,
    load_model,
    save_model,
    system_power,
)
from .simulator import (
    BIOS_DETERMINISM_POWER_FACTOR,
    ScenarioConfig,
    ScenarioDeltas,
    ScenarioResult,
    compare_scenarios,
    load_scenario_config,
    run_scenario,
    sweep_threshold,
)

# telemetry is the one module that needs numpy; it loads on first use of one
# of its names, so that the subcommands without a series start without numpy
_TELEMETRY_NAMES = (
    "Changepoint",
    "InterventionReport",
    "PowerSeries",
    "SeriesSegment",
    "WindowStats",
    "detect_changepoint",
    "intervention_impact",
    "parse_series",
    "synth_series",
    "window_mean",
    "write_series",
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _TELEMETRY_NAMES:
        from . import telemetry

        return getattr(telemetry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_TELEMETRY_NAMES))
