"""The JSON input boundary (type and shape, DataFormatError) and the finite
checks of the dataclasses behind it (range, DomainError), which errors.py's one
range rule makes at every site."""

import ast
import json
import math
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import wattplan

from wattplan.datafiles import (
    check_fields,
    data_path,
    integer,
    number,
    read_json,
    string,
)
from wattplan.emissions import (
    CarbonIntensityProfile,
    EmbodiedEmissions,
    amortized_scope3,
    classify_scenario,
    lifetime_emissions,
    priced_emissions,
    run_intensity,
    scope2_emissions,
)
from wattplan.errors import DataFormatError, DomainError
from wattplan.freq_policy import AppBenchmark, Intervention, PolicyRule, fleet_ratios
from wattplan.power_model import (
    ComponentSpec,
    FactorMode,
    apply_power_factor,
    component_power,
    load_model,
    system_power,
)
from wattplan.simulator import JobMix, load_scenario_config, sweep_threshold
from wattplan.telemetry import SeriesSegment, intervention_impact, synth_series

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


# a negative count past the digit limit, which no message may repr either
def test_negative_counts_past_the_float_range_are_domain_errors():
    count = -(10**5000)
    with pytest.raises(DomainError, match="^component 'n': count exceeds the float range$"):
        ComponentSpec("n", count, 0.5, 1.0)
    with pytest.raises(DomainError, match="^segment n_samples exceeds the float range$"):
        SeriesSegment(1.0, count, 1.0)
    with pytest.raises(DomainError, match="^benchmark 'a': nodes exceeds the float range$"):
        AppBenchmark("a", count, Intervention.FREQ_CAP_2000, 0.9, 0.9)


@pytest.mark.parametrize("nodes", [10**400, 10**5000], ids=["401-digits", "5001-digits"])
def test_benchmark_nodes_past_the_float_range_are_domain_errors(nodes):
    with pytest.raises(DomainError, match="^benchmark 'a': nodes exceeds the float range$"):
        AppBenchmark("a", nodes, Intervention.FREQ_CAP_2000, 0.9, 0.9)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_fleet_ratios_rejects_a_non_finite_weight(value):
    benchmarks = [AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.9, 0.9)]
    with pytest.raises(DomainError, match="weight for 'a' must be >= 0"):
        fleet_ratios(benchmarks, {"a": value}, PolicyRule(0.1))


# -- one range rule -------------------------------------------------------------

_T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
_MODEL = load_model(data_path("archer2_system.json"))
_SCENARIO = load_scenario_config(data_path("baseline_scenario.json"))
_FLAT = CarbonIntensityProfile.constant(50.0)
_CASTEP = "benchmark 'CASTEP Al Slab'"


def _bench(nodes=1, perf=0.9, energy=0.9):
    return AppBenchmark("CASTEP Al Slab", nodes, Intervention.FREQ_CAP_2000, perf, energy)


# Each site the range rule guards: how to reach it with one value, a value out
# of its range, and the message; all but the six marked "new" were captured
# from the checks that each site wrote out before errors.py owned them.
RULE_SITES = {
    "embodied-total": (lambda v: EmbodiedEmissions(v, 1.0), -1.0,
                       "embodied emissions must be >= 0 kg, got -1.0"),
    "embodied-lifetime": (lambda v: EmbodiedEmissions(1.0, v), 0.0,
                          "service lifetime must be > 0 hours, got 0.0"),
    "constant-profile": (CarbonIntensityProfile.constant, NAN,
                         "carbon intensity must be >= 0 g/kWh, got nan"),
    "series-profile": (lambda v: CarbonIntensityProfile.from_series(
        [(_T0, 1.0), (_T0 + timedelta(hours=1), v)]), -0.5,
        "carbon intensity must be >= 0 g/kWh, got -0.5"),
    "classify-scenario": (classify_scenario, -INF,
                          "carbon intensity must be >= 0 g/kWh, got -inf"),
    "scope2-energy": (lambda v: scope2_emissions([((_T0, _T0 + timedelta(hours=1)), v)], _FLAT),
                      -2.0, "interval energy must be >= 0 kWh, got -2.0"),
    "amortized-duration": (lambda v: amortized_scope3(EmbodiedEmissions(1.0, 1.0), v), -1.0,
                           "duration must be >= 0 hours, got -1.0"),
    "run-duration": (lambda v: run_intensity(_FLAT, v), INF,
                     "duration must be >= 0 hours, got inf"),
    "priced-intensity": (lambda v: priced_emissions(1.0, 1.0, v, None), NAN,
                         "carbon intensity must be >= 0 g/kWh, got nan"),
    "lifetime-power": (lambda v: lifetime_emissions(v, 1.0, _FLAT, None), -1.0,
                       "mean power must be >= 0 kW, got -1.0"),
    "benchmark-nodes": (lambda v: _bench(nodes=v), 0,
                        f"{_CASTEP}: nodes must be an integer >= 1, got 0"),  # new
    "benchmark-perf": (lambda v: _bench(perf=v), 0.0,
                       f"{_CASTEP}: perf_ratio must be > 0, got 0.0"),
    "benchmark-energy": (lambda v: _bench(energy=v), INF,
                         f"{_CASTEP}: energy_ratio must be > 0, got inf"),
    "policy-rule": (PolicyRule, 1.5, "perf_loss_threshold must be within [0, 1], got 1.5"),
    "mix-weight": (lambda v: JobMix({"a": v}), -0.1, "mix weight for 'a' must be >= 0, got -0.1"),
    "component-count": (lambda v: ComponentSpec("n", v, 0.5, 1.0), 0,
                        "component 'n': count must be an integer >= 1, got 0"),  # new
    "component-idle": (lambda v: ComponentSpec("n", 1, v, 10.0), -1.0,
                       "component 'n': idle draw must be >= 0 kW, got -1.0"),
    "component-loaded": (lambda v: ComponentSpec("n", 1, 0.5, v), NAN,
                         "component 'n': loaded draw must be finite, got nan"),
    "component-power": (lambda v: component_power(_MODEL.components[0], v), 1.5,
                        "utilization must be within [0, 1], got 1.5"),
    "system-power": (lambda v: system_power(_MODEL, v), -0.5,
                     "utilization must be within [0, 1], got -0.5"),
    "power-factor": (lambda v: apply_power_factor(_MODEL, "compute_nodes", v,
                                                  FactorMode.WHOLE_DRAW), -1.0,
                     "power factor must be >= 0, got -1.0"),
    "scenario-utilization": (lambda v: replace(_SCENARIO, utilization=v), NAN,
                             "utilization must be within [0, 1], got nan"),
    "scenario-duration": (lambda v: replace(_SCENARIO, duration_hours=v), 0.0,
                          "duration must be > 0 hours, got 0.0"),
    "scenario-bios-factor": (lambda v: replace(_SCENARIO, bios_factor=v), -1.0,
                             "bios_factor must be > 0, got -1.0"),
    "sweep-threshold": (lambda v: sweep_threshold(_SCENARIO, [0.1, v]), 2.0,
                        "threshold must be within [0, 1], got 2.0"),
    "segment-duration": (lambda v: SeriesSegment(v, 5, 1.0), 0.0,
                         "segment duration must be > 0 hours, got 0.0"),  # new
    "segment-samples": (lambda v: SeriesSegment(1.0, v, 1.0), 0,
                        "segment n_samples must be an integer >= 1, got 0"),  # new
    "segment-mean": (lambda v: SeriesSegment(1.0, 5, v), -1.0,
                     "segment mean must be >= 0 kW, got -1.0"),  # new
    "segment-noise": (lambda v: SeriesSegment(1.0, 5, 1.0, v), NAN,
                      "segment noise sd must be >= 0 kW, got nan"),  # new
}


@pytest.mark.parametrize("call,value,message", RULE_SITES.values(), ids=RULE_SITES)
def test_each_rule_site_refuses_in_one_grammar(call, value, message):
    with pytest.raises(DomainError) as refused:
        call(value)
    assert str(refused.value) == message


# the second is past the int-string digit limit, so that no message may write it out
@pytest.mark.parametrize("huge", [10**400, -(10**5000)], ids=["401-digits", "negative-5001"])
@pytest.mark.parametrize("call,value,message", RULE_SITES.values(), ids=RULE_SITES)
def test_each_rule_site_names_an_integer_past_the_float_range(call, value, message, huge):
    subject = message.split(" must be ")[0]
    with pytest.raises(DomainError) as refused:
        call(huge)
    assert str(refused.value) == f"{subject} exceeds the float range"


@pytest.mark.parametrize(
    "value,message",
    [(-1, "^seed must be >= 0, got -1$"), (-(10**5000), "^seed exceeds the float range$")],
    ids=["minus-one", "negative-5001"],
)
def test_a_negative_seed_is_named_by_the_rule(value, message):
    with pytest.raises(DomainError, match=message):
        synth_series([(1.0, 4, 1.0)], seed=value)


def test_a_seed_past_the_float_range_is_taken():
    assert len(synth_series([(1.0, 4, 1.0)], seed=10**400)) == 4


def test_a_negative_guard_gap_is_refused_by_the_rule():
    series = synth_series([(2.0, 8, 1.0)], seed=0)
    with pytest.raises(DomainError, match=r"^guard gap must be >= 0 hours, got -1\.0$"):
        intervention_impact(series, series.timestamps[4], timedelta(hours=-1))


# the checks that keep their own wording: a file's cell, named by its line and
# quoted, and a whole power array, checked in one numpy pass
RULE_WORDING_OWNERS = {("datafiles", "timed_values"), ("telemetry", "PowerSeries")}
RULE_WORDING = re.compile(r"must be (finite and )?(>=? 0|within \[0, 1\])")


def test_only_errors_py_spells_a_range_refusal():
    spelled = set()
    for path in sorted(Path(wattplan.__file__).parent.glob("*.py")):
        if path.stem == "errors":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and RULE_WORDING.search(node.value)):
                    spelled.add((path.stem, getattr(top, "name", None)))
    assert spelled == RULE_WORDING_OWNERS
