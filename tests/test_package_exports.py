"""Every name the package exports is its module's object, and the telemetry
names come without importing telemetry (and numpy) until one of them is used."""

import importlib
import types

import pytest

import wattplan
from wattplan import telemetry

# each module's exports, as the package's __init__ lists them
EXPORTS = {
    "emissions": [
        "CarbonIntensityProfile",
        "EmbodiedEmissions",
        "EmissionsBreakdown",
        "EmissionsScenario",
        "OptimizationObjective",
        "amortized_scope3",
        "classify_scenario",
        "lifetime_emissions",
        "recommended_objective",
        "run_intensity",
        "scope2_emissions",
    ],
    "errors": ["DataFormatError", "DomainError", "WattplanError"],
    "freq_policy": [
        "AppBenchmark",
        "FleetRatios",
        "FrequencySetting",
        "Intervention",
        "JobMix",
        "PolicyDecision",
        "PolicyRule",
        "fleet_ratios",
        "load_benchmark_table",
        "recommend",
    ],
    "power_model": [
        "ComponentSpec",
        "FactorMode",
        "LoadResponse",
        "PowerBreakdown",
        "SystemModel",
        "apply_power_factor",
        "component_power",
        "load_model",
        "system_power",
    ],
    "simulator": [
        "BIOS_DETERMINISM_POWER_FACTOR",
        "ScenarioConfig",
        "ScenarioResult",
        "load_scenario_config",
        "run_scenario",
        "sweep_threshold",
    ],
    "telemetry": [
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
    ],
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_each_export_is_its_module_object(module, name):
    assert getattr(wattplan, name) is getattr(importlib.import_module(f"wattplan.{module}"), name)


def test_the_package_exports_exactly_the_listed_names():
    exported = {
        name
        for name in dir(wattplan)
        if not name.startswith("_") and not isinstance(getattr(wattplan, name), types.ModuleType)
    }
    assert exported == {name for names in EXPORTS.values() for name in names}


def test_from_import_of_telemetry_names():
    from wattplan import PowerSeries, SeriesSegment

    assert PowerSeries is telemetry.PowerSeries
    assert SeriesSegment is telemetry.SeriesSegment


def test_dir_lists_the_telemetry_names_with_the_others():
    listed = dir(wattplan)
    assert set(EXPORTS["telemetry"]) <= set(listed)
    assert {"CarbonIntensityProfile", "run_scenario", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'wattplan' has no attribute 'nope'$"):
        wattplan.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from wattplan import nope  # noqa: F401


def test_job_mix_resolves_from_the_package_and_both_modules():
    from wattplan import freq_policy, simulator

    assert wattplan.JobMix is freq_policy.JobMix is simulator.JobMix
