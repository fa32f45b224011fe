"""Power, energy and emissions planning toolkit for large HPC systems.

Every exported name loads its module on first use (PEP 562), so that
`import wattplan` loads no submodule and a caller pays only for the modules
it uses: the telemetry names, for one, bring in numpy.
"""

__version__ = "0.1.0"

# each module's exports
_EXPORTS = {
    "emissions": (
        "CarbonIntensityProfile", "EmbodiedEmissions", "EmissionsBreakdown",
        "EmissionsScenario", "OptimizationObjective", "amortized_scope3", "classify_scenario",
        "lifetime_emissions", "recommended_objective", "run_intensity", "scope2_emissions",
    ),
    "errors": ("DataFormatError", "DomainError", "WattplanError"),
    "freq_policy": (
        "AppBenchmark", "FleetRatios", "FrequencySetting", "Intervention", "JobMix",
        "PolicyDecision", "PolicyRule", "fleet_ratios", "load_benchmark_table", "recommend",
    ),
    "power_model": (
        "ComponentSpec", "FactorMode", "LoadResponse", "PowerBreakdown", "SystemModel",
        "apply_power_factor", "component_power", "load_model", "system_power",
    ),
    "simulator": (
        "BIOS_DETERMINISM_POWER_FACTOR", "ScenarioConfig", "ScenarioResult",
        "load_scenario_config", "run_scenario", "sweep_threshold",
    ),
    "telemetry": (
        "Changepoint", "InterventionReport", "PowerSeries", "SeriesSegment", "WindowStats",
        "detect_changepoint", "intervention_impact", "parse_series", "synth_series",
        "window_mean", "write_series",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
