"""The JSON input boundary (type and shape, DataFormatError) and the finite
checks of the dataclasses behind it (range, DomainError)."""

import json
import math

import pytest

from wattplan.datafiles import (
    check_fields,
    data_path,
    integer,
    number,
    read_json,
    string,
)
from wattplan.errors import DataFormatError, DomainError
from wattplan.freq_policy import AppBenchmark, Intervention, PolicyRule, fleet_ratios
from wattplan.power_model import (
    ComponentSpec,
    FactorMode,
    apply_power_factor,
    load_model,
)
from wattplan.simulator import JobMix, load_scenario_config
from wattplan.telemetry import SeriesSegment

NAN, INF = float("nan"), float("inf")


# -- the reader and the field checks ------------------------------------------


def test_read_json_reports_the_file_of_a_syntax_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1,}')
    with pytest.raises(DataFormatError, match=r"doc\.json: invalid JSON"):
        read_json(path)
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(DataFormatError, match="invalid JSON"):
        read_json(path)
    path.write_text("[" * 100_000)
    with pytest.raises(DataFormatError, match="invalid JSON"):
        read_json(path)


def test_read_json_keeps_nan_for_the_range_checks(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": NaN, "b": -Infinity}')
    doc = read_json(path)
    assert math.isnan(doc["a"]) and doc["b"] == -INF


def test_check_fields():
    doc = {"a": 1, "b": 2}
    assert check_fields(doc, "w", ("a",), ("b", "c")) is doc
    with pytest.raises(DataFormatError, match="^w: expected an object, got array$"):
        check_fields([], "w", ("a",))
    with pytest.raises(DataFormatError, match="^w: unknown field\\(s\\): b$"):
        check_fields(doc, "w", ("a",))
    with pytest.raises(DataFormatError, match="^w: missing field\\(s\\): c, d$"):
        check_fields(doc, "w", ("a", "c", "d"), ("b",))


def test_number_accepts_ints_and_floats_only():
    doc = {"i": 3, "f": 2.5, "nan": NAN, "big": 10**30, "huge": 10**400, "t": True, "s": "1"}
    assert number(doc, "i", "w") == 3.0 and isinstance(number(doc, "i", "w"), float)
    assert number(doc, "f", "w") == 2.5
    assert math.isnan(number(doc, "nan", "w"))
    assert number(doc, "big", "w") == 1e30
    assert number(doc, "absent", "w", default=1.0) == 1.0
    with pytest.raises(DataFormatError, match="^w: 'huge' is too large for a float$"):
        number(doc, "huge", "w")
    with pytest.raises(DataFormatError, match="^w: 't' must be a number, got boolean$"):
        number(doc, "t", "w")
    with pytest.raises(DataFormatError, match="^w: 's' must be a number, got string$"):
        number(doc, "s", "w")


def test_integer_and_string():
    doc = {"i": 7, "f": 7.0, "t": False, "s": "x", "n": None}
    assert integer(doc, "i", "w") == 7
    assert string(doc, "s", "w") == "x"
    assert string(doc, "absent", "w", default="d") == "d"
    with pytest.raises(DataFormatError, match="'f' must be an integer, got number"):
        integer(doc, "f", "w")
    with pytest.raises(DataFormatError, match="'t' must be an integer, got boolean"):
        integer(doc, "t", "w")
    with pytest.raises(DataFormatError, match="'n' must be a string, got null"):
        string(doc, "n", "w")


@pytest.mark.parametrize(
    "value,fault", [("sw\ud800", "a lone surrogate"), ("a\u0000b", "a NUL character")]
)
def test_string_rejects_what_a_file_name_or_utf8_output_cannot_hold(value, fault):
    with pytest.raises(DataFormatError, match=f"^w: 's' holds {fault}$"):
        string({"s": value}, "s", "w")


@pytest.mark.parametrize("field", ["model", "benchmarks", "name"])
@pytest.mark.parametrize("value", ["a\u0000b", "\ud800"])
def test_scenario_strings_must_be_utf8_text_without_nul(tmp_path, field, value):
    doc = json.loads(data_path("baseline_scenario.json").read_text())
    doc.update(model=str(data_path("archer2_system.json")),
               benchmarks=str(data_path("table4_freq.csv")))
    doc[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"'{field}' holds "):
        load_scenario_config(path)


def test_job_mix_from_dict():
    assert JobMix.from_dict({"a": 1}, "w").weights == {"a": 1.0}
    with pytest.raises(DataFormatError, match="^w: expected an object, got string$"):
        JobMix.from_dict("equal", "w")
    with pytest.raises(DataFormatError, match="^w: 'a' must be a number, got null$"):
        JobMix.from_dict({"a": None}, "w")


def test_scenario_bios_factor_defaults_to_one_and_rejects_a_boolean(tmp_path):
    doc = json.loads(data_path("stacked_scenario.json").read_text())
    doc["model"] = str(data_path("archer2_system.json"))
    doc["benchmarks"] = str(data_path("table4_freq.csv"))
    del doc["bios_factor"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert load_scenario_config(path).bios_factor == 1.0
    path.write_text(json.dumps({**doc, "bios_factor": True}))
    with pytest.raises(DataFormatError, match="'bios_factor' must be a number, got boolean"):
        load_scenario_config(path)


# -- finite at construction ---------------------------------------------------


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_constructors_reject_non_finite_numbers(value):
    with pytest.raises(DomainError, match="idle draw"):
        ComponentSpec("n", 1, value, 1.0)
    with pytest.raises(DomainError, match="loaded draw"):
        ComponentSpec("n", 1, 0.5, value)
    with pytest.raises(DomainError, match="perf_ratio"):
        AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, value, 0.9)
    with pytest.raises(DomainError, match="energy_ratio"):
        AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.9, value)
    with pytest.raises(DomainError, match="mix weight"):
        JobMix({"a": value})
    with pytest.raises(DomainError, match="power factor"):
        apply_power_factor(
            load_model(data_path("archer2_system.json")),
            "compute_nodes",
            value,
            FactorMode.WHOLE_DRAW,
        )


# the second is past the int-string digit limit, so that no message may repr it
@pytest.mark.parametrize("count", [10**400, 10**5000], ids=["401-digits", "5001-digits"])
def test_counts_past_the_float_range_are_domain_errors(count):
    with pytest.raises(DomainError, match="^component 'n': count exceeds the float range$"):
        ComponentSpec("n", count, 0.5, 1.0)
    with pytest.raises(DomainError, match="^segment n_samples exceeds the float range$"):
        SeriesSegment(1.0, count, 1.0)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_fleet_ratios_rejects_a_non_finite_weight(value):
    benchmarks = [AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.9, 0.9)]
    with pytest.raises(DomainError, match="weight for 'a' must be >= 0"):
        fleet_ratios(benchmarks, {"a": value}, PolicyRule(0.1))
