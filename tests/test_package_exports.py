"""The package exports the telemetry names without importing telemetry (and
numpy) until one of them is used."""

import pytest

import wattplan
from wattplan import telemetry

TELEMETRY_NAMES = [
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
]


@pytest.mark.parametrize("name", TELEMETRY_NAMES)
def test_each_telemetry_name_is_the_telemetry_object(name):
    assert getattr(wattplan, name) is getattr(telemetry, name)


def test_from_import_of_telemetry_names():
    from wattplan import PowerSeries, SeriesSegment

    assert PowerSeries is telemetry.PowerSeries
    assert SeriesSegment is telemetry.SeriesSegment


def test_dir_lists_the_telemetry_names_with_the_others():
    listed = dir(wattplan)
    assert set(TELEMETRY_NAMES) <= set(listed)
    assert {"CarbonIntensityProfile", "run_scenario", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'wattplan' has no attribute 'nope'$"):
        wattplan.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from wattplan import nope  # noqa: F401
