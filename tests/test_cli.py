import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import wattplan
from wattplan.cli import main
from wattplan.datafiles import data_path
from wattplan.telemetry import synth_series, write_series
from wattplan.timestamps import format_timestamp

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def step_csv(tmp_path):
    series = synth_series([(500.0, 500, 3220.0, 20.0), (500.0, 500, 3010.0, 20.0)], seed=5)
    path = tmp_path / "step.csv"
    write_series(series, path)
    return path


def test_power_table_output(capsys):
    code, out, err = _run(capsys, "power", "builtin:archer2_system.json", "-u", "1.0")
    assert code == 0
    assert "total" in out
    assert "3523.6" in out
    assert "compute_nodes" in out


def test_power_json_within_band(capsys):
    doc = _run_json(capsys, "power", "builtin:archer2_system.json", "-u", "1.0")
    assert abs(doc["total_kw"] - 3500.0) / 3500.0 < 0.02
    assert doc["per_component"]["compute_nodes"] == pytest.approx(2988.6)


def test_power_idle_json_within_band(capsys):
    doc = _run_json(capsys, "power", "builtin:archer2_system.json", "-u", "0.0")
    assert abs(doc["total_kw"] - 1800.0) / 1800.0 < 0.02


def test_power_repeat_invocations_byte_identical(capsys):
    _, first, _ = _run(capsys, "power", "builtin:archer2_system.json", "-u", "0.92")
    _, second, _ = _run(capsys, "power", "builtin:archer2_system.json", "-u", "0.92")
    assert first == second


def test_power_rejects_bad_utilization(capsys):
    code, out, err = _run(capsys, "power", "builtin:archer2_system.json", "-u", "1.5")
    assert code == 1
    assert "1.5" in err


@pytest.mark.parametrize("utilization", ["1.5", "nan"])
def test_power_on_a_model_without_components_checks_the_utilization(capsys, tmp_path, utilization):
    empty = tmp_path / "empty.json"
    empty.write_text('{"name": "empty", "compute_component": null, "components": []}')
    code, out, err = _run(capsys, "power", str(empty), "-u", utilization)
    assert (code, out) == (1, "")
    assert err == f"error: utilization must be within [0, 1], got {float(utilization)}\n"


def test_power_on_components_that_are_not_a_list_is_a_format_error(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text('{"name": "m", "compute_component": null, "components": {}}')
    code, out, err = _run(capsys, "power", str(model), "-u", "0.5")
    assert (code, out) == (2, "")
    assert err == f"error: {model}: 'components' must be a list\n"


def test_power_dynamic_factor(capsys):
    doc = _run_json(
        capsys,
        "power",
        "builtin:archer2_system.json",
        "-u",
        "1.0",
        "--factor",
        "compute_nodes=0.5:dynamic",
    )
    assert doc["per_component"]["compute_nodes"] == pytest.approx(2168.2)


def test_power_bad_factor_syntax(capsys):
    code, _, err = _run(capsys, "power", "builtin:archer2_system.json", "-u", "1.0", "--factor", "x")
    assert code == 1


def test_power_factor_value_must_be_a_number(capsys):
    factor = ["--factor", "compute_nodes=abc"]
    code, out, err = _run(capsys, "power", "builtin:archer2_system.json", "-u", "1.0", *factor)
    _assert_rejected(code, out, err, 1)
    assert err == "error: factor value is not a number: 'abc'\n"


def test_power_missing_file_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, "power", str(tmp_path / "nope.json"), "-u", "1.0")
    assert code == 2


def test_policy_default_threshold_reverts_three(capsys):
    doc = _run_json(capsys, "policy", "builtin:table4_freq.csv", "--threshold", "0.10")
    reverted = [d["app_name"] for d in doc["decisions"] if d["reverted"]]
    assert sorted(reverted) == ["GROMACS 1400k", "LAMMPS Ethanol", "Nektar++ TGV 128 DoF"]
    assert doc["fleet_power_ratio"] == pytest.approx(0.8935857142857143)


def test_policy_threshold_one_no_reverts(capsys):
    code, out, _ = _run(capsys, "policy", "builtin:table4_freq.csv", "--threshold", "1.0")
    assert code == 0
    assert "yes" not in out.split("fleet_power_ratio")[0]
    assert "0.7628" in out


def test_policy_custom_weights(capsys, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"LAMMPS Ethanol": 1.0}))
    doc = _run_json(
        capsys, "policy", "builtin:table4_freq.csv", "--threshold", "0.10",
        "--weights", str(weights),
    )
    assert doc["fleet_power_ratio"] == 1.0
    assert len(doc["decisions"]) == 1


def test_policy_on_a_header_only_table_is_domain_error(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("app_name,nodes,intervention,perf_ratio,energy_ratio\n")
    code, out, err = _run(capsys, "policy", str(table))
    _assert_rejected(code, out, err, 1)
    assert err == "error: benchmark table is empty\n"


def test_policy_on_bios_table_is_domain_error(capsys):
    code, _, err = _run(capsys, "policy", "builtin:table3_bios.csv", "--threshold", "0.10")
    assert code == 1
    assert "bios_determinism" in err


def test_telemetry_change_time(capsys, step_csv):
    change = format_timestamp(T0 + timedelta(hours=500))
    code, out, _ = _run(capsys, "telemetry", str(step_csv), "--change-time", change)
    assert code == 0
    assert "-6.5%" in out
    doc = _run_json(capsys, "telemetry", str(step_csv), "--change-time", change)
    assert doc["pct_change"] == pytest.approx(-0.0652, abs=0.002)
    assert doc["delta_kw"] == pytest.approx(-210.0, abs=5.0)


def test_telemetry_detect(capsys, step_csv):
    doc = _run_json(capsys, "telemetry", str(step_csv), "--detect")
    assert doc["change_time"] == format_timestamp(T0 + timedelta(hours=500))
    assert 0.0 <= doc["score"] <= 1.0


def test_telemetry_detect_table(capsys, step_csv):
    # the table view of the --detect document, score row included
    code, out, err = _run(capsys, "telemetry", str(step_csv), "--detect")
    assert (code, err) == (0, "")
    assert out == (
        "change_time       2022-01-21T20:00:00Z\n"
        "score             0.9654\n"
        "before_samples    500\n"
        "before_mean_kw    3220.0\n"
        "before_stddev_kw  19.2\n"
        "after_samples     500\n"
        "after_mean_kw     3010.0\n"
        "after_stddev_kw   20.6\n"
        "delta_kw          -210.0\n"
        "pct_change        -6.5%\n"
    )


def test_telemetry_empty_file_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = _run(capsys, "telemetry", str(empty), "--detect")
    assert code == 2


def test_emissions_high_intensity(capsys):
    doc = _run_json(capsys, "emissions", "--intensity", "150", "--power-kw", "100", "--hours", "1")
    assert doc["scenario"] == "scope2_dominated"
    assert doc["objective"] == "maximize_energy_efficiency"


def test_emissions_zero_power(capsys):
    doc = _run_json(capsys, "emissions", "--intensity", "0", "--power-kw", "0", "--hours", "24")
    assert doc["scope2_kg"] == 0.0


def test_emissions_day_at_reduced_power(capsys):
    code, out, _ = _run(
        capsys, "emissions", "--intensity", "50", "--power-kw", "2530", "--hours", "24"
    )
    assert code == 0
    assert "3036.0" in out
    assert "balanced" in out


def test_emissions_with_profile_csv(capsys, tmp_path):
    profile = tmp_path / "intensity.csv"
    profile.write_text(
        "timestamp,intensity_g_per_kwh\n"
        "2022-01-01T00:00:00Z,20\n"
        "2022-01-01T12:00:00Z,40\n"
    )
    doc = _run_json(
        capsys, "emissions", "--profile", str(profile), "--power-kw", "1000", "--hours", "24"
    )
    assert doc["mean_intensity_g_per_kwh"] == pytest.approx(30.0)
    assert doc["scenario"] == "balanced"
    assert doc["scope2_kg"] == pytest.approx(24000 * 30.0 / 1000.0)


def test_emissions_with_embodied(capsys, tmp_path):
    embodied = tmp_path / "embodied.json"
    embodied.write_text(json.dumps({"total_kgco2e": 1_000_000.0, "service_lifetime_hours": 50_000.0}))
    doc = _run_json(
        capsys, "emissions", "--intensity", "50", "--power-kw", "100", "--hours", "5000",
        "--embodied", str(embodied),
    )
    assert doc["scope3_kg"] == pytest.approx(100_000.0)
    assert not doc["scope3_unset"]


@pytest.mark.parametrize(
    "source,value",
    [("--intensity", "nan"), ("--intensity", "inf"), ("--profile", "nan"), ("--profile", "inf")],
)
def test_emissions_rejects_non_finite_intensity(capsys, tmp_path, source, value):
    if source == "--profile":
        profile = tmp_path / "intensity.csv"
        profile.write_text(
            "timestamp,intensity_g_per_kwh\n"
            "2022-01-01T00:00:00Z,20\n"
            f"2022-01-01T12:00:00Z,{value}\n"
        )
        value = str(profile)
    code, out, err = _run(
        capsys, "emissions", source, value, "--power-kw", "1000", "--hours", "24",
        "--format", "json",
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_emissions_rejects_infinite_hours_on_a_profile(capsys, tmp_path):
    profile = tmp_path / "intensity.csv"
    profile.write_text("timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,20\n")
    code, out, err = _run(
        capsys, "emissions", "--profile", str(profile), "--power-kw", "1000", "--hours", "inf"
    )
    assert code == 1
    assert out == ""
    assert err == "error: duration must be >= 0 hours, got inf\n"


@pytest.mark.parametrize("hours", ["0", "1e-12"])
def test_emissions_window_shorter_than_a_microsecond_reports_the_anchor_intensity(
    capsys, tmp_path, hours
):
    profile = tmp_path / "intensity.csv"
    # 20 g/kWh holds for the first hour, so a 1 h window would average 30
    profile.write_text(
        "timestamp,intensity_g_per_kwh\n"
        "2022-01-01T00:00:00Z,20\n"
        "2022-01-01T00:30:00Z,40\n"
    )
    doc = _run_json(
        capsys, "emissions", "--profile", str(profile), "--power-kw", "1", "--hours", hours
    )
    assert doc["mean_intensity_g_per_kwh"] == 20.0
    assert doc["scope2_kg"] == float(hours) * 20.0 / 1000.0


@pytest.mark.parametrize(
    "edit",
    [
        lambda stamps: stamps.__setitem__(1000, "2022-06-01T24:00:00Z"),
        lambda stamps: stamps.__setitem__(1000, "2023-02-29" + stamps[1000][10:]),
    ],
    ids=["hour-24", "29-february"],
)
def test_telemetry_rejects_a_bad_stamp_in_a_long_file(tmp_path, edit):
    # one invalid stamp among thousands of canonical rows, read by a child
    # process, where a crash in numpy would show as its exit status
    start = datetime(2020, 2, 27, tzinfo=timezone.utc)
    stamps = [format_timestamp(start + timedelta(days=i)) for i in range(3000)]
    edit(stamps)
    path = tmp_path / "series.csv"
    path.write_text("timestamp,power_kw\n" + "".join(f"{t},3220.5\n" for t in stamps))
    done = _child(
        "import sys; from wattplan.cli import main; sys.exit(main(sys.argv[1:]))",
        "telemetry", str(path), "--detect",
    )
    _assert_rejected(done.returncode, done.stdout.decode(), done.stderr.decode(), 2)
    assert "line 1002: " in done.stderr.decode()


def test_simulate_baseline(capsys):
    doc = _run_json(capsys, "simulate", "builtin:baseline_scenario.json")
    assert 3000.0 <= doc["mean_power_kw"] <= 3400.0
    assert doc["emissions"]["scope3_unset"] is True


def test_simulate_sweep_ordered_monotone(capsys):
    doc = _run_json(
        capsys, "simulate", "builtin:stacked_scenario.json",
        "--sweep", "0.0,0.05,0.10,0.15,0.30,1.0",
    )
    rows = doc["sweep"]
    assert len(rows) == 6
    thresholds = [row["threshold"] for row in rows]
    assert thresholds == sorted(thresholds)
    energies = [row["energy_kwh"] for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("sweep", ["", ",", "0.1,x"], ids=["empty", "comma", "not-a-number"])
def test_simulate_sweep_must_list_numbers(capsys, fmt, sweep):
    code, out, err = _run(
        capsys, "simulate", "builtin:stacked_scenario.json", "--sweep", sweep, "--format", fmt
    )
    _assert_rejected(code, out, err, 1)
    assert err == f"error: --sweep must be a comma-separated list of numbers: {sweep!r}\n"


def test_simulate_table_output(capsys):
    code, out, _ = _run(capsys, "simulate", "builtin:stacked_scenario.json")
    assert code == 0
    assert "mean_power_kw" in out
    assert "reverted_apps" in out and "3/7" in out


def test_synth_writes_deterministic_csv(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = _run(capsys, "synth", "builtin:recipe_bios_step.json", "-o", str(out1))
    code2, _, _ = _run(capsys, "synth", "builtin:recipe_bios_step.json", "-o", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "timestamp,power_kw"
    assert len(lines) == 1001


def test_synth_seed_override_changes_output(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    _run(capsys, "synth", "builtin:recipe_bios_step.json", "-o", str(out1))
    _run(capsys, "synth", "builtin:recipe_bios_step.json", "-o", str(out2), "--seed", "7")
    assert out1.read_bytes() != out2.read_bytes()


def test_synth_then_telemetry_pipeline(capsys, tmp_path):
    fixture = tmp_path / "fixture.csv"
    _run(capsys, "synth", "builtin:recipe_freq_step.json", "-o", str(fixture))
    change = format_timestamp(datetime(2022, 11, 1, tzinfo=timezone.utc) + timedelta(hours=500))
    doc = _run_json(capsys, "telemetry", str(fixture), "--change-time", change)
    assert doc["pct_change"] == pytest.approx(-0.159, abs=0.002)


def test_json_outputs_roundtrip_through_json(capsys):
    invocations = [
        ("power", "builtin:archer2_system.json", "-u", "0.92"),
        ("policy", "builtin:table4_freq.csv", "--threshold", "0.10"),
        ("simulate", "builtin:baseline_scenario.json"),
        ("emissions", "--intensity", "65", "--power-kw", "500", "--hours", "2"),
    ]
    for argv in invocations:
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) == out.rstrip("\n")


def test_inputs_are_never_mutated(capsys):
    targets = [
        data_path("archer2_system.json"),
        data_path("table4_freq.csv"),
        data_path("baseline_scenario.json"),
    ]
    before = [hashlib.sha256(p.read_bytes()).hexdigest() for p in targets]
    _run(capsys, "power", "builtin:archer2_system.json", "-u", "0.5")
    _run(capsys, "policy", "builtin:table4_freq.csv", "--threshold", "0.2")
    _run(capsys, "simulate", "builtin:baseline_scenario.json")
    after = [hashlib.sha256(p.read_bytes()).hexdigest() for p in targets]
    assert before == after


def _assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("gap", ["nan", "inf", "1e300"])
def test_telemetry_rejects_unrepresentable_gap(capsys, step_csv, gap):
    code, out, err = _run(capsys, "telemetry", str(step_csv), "--detect", "--gap", gap)
    _assert_one_error_line(code, out, err)
    assert err == f"error: guard gap is out of range: {float(gap)} hours\n"


def test_telemetry_negative_gap_is_given_in_hours(capsys, step_csv):
    code, out, err = _run(capsys, "telemetry", str(step_csv), "--detect", "--gap", "-1")
    _assert_one_error_line(code, out, err)
    assert err == "error: guard gap must be >= 0 hours, got -1.0\n"


def test_telemetry_gap_past_the_datetime_range(capsys, step_csv):
    code, out, err = _run(capsys, "telemetry", str(step_csv), "--detect", "--gap", "1e8")
    _assert_one_error_line(code, out, err)
    assert "leaves the years 1 to 9999" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("duration_hours", "NaN"),
        ("duration_hours", "Infinity"),
        ("duration_hours", "1e300"),
        ("mean_kw", "NaN"),
        ("mean_kw", "Infinity"),
        ("noise_sd_kw", "NaN"),
        ("noise_sd_kw", "-Infinity"),
        # finite fields whose noisy sum overflows
        pytest.param("mean_kw,noise_sd_kw", "1e308", id="mean_kw,noise_sd_kw-1e308"),
    ],
)
def test_synth_rejects_non_finite_or_huge_segment_fields(capsys, tmp_path, field, value):
    segment = {"duration_hours": "24", "n_samples": "24", "mean_kw": "3220", "noise_sd_kw": "0"}
    segment.update(dict.fromkeys(field.split(","), value))
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        '{"start": "2022-01-01T00:00:00Z", "seed": 1, "segments": [{'
        + ", ".join(f'"{k}": {v}' for k, v in segment.items())
        + "}]}"
    )
    output = tmp_path / "out.csv"
    code, out, err = _run(capsys, "synth", str(recipe), "-o", str(output))
    _assert_one_error_line(code, out, err)
    assert not output.exists()


@pytest.mark.parametrize("source", ["--intensity", "--profile"])
# 1e308 kW for 1e20 h is an infinite energy too; the duration is named first
@pytest.mark.parametrize("power", ["1", "0", "1e308"])
def test_emissions_rejects_hours_past_the_datetime_range(capsys, tmp_path, source, power):
    value = "50"
    if source == "--profile":
        value = str(tmp_path / "intensity.csv")
        Path(value).write_text("timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,20\n")
    code, out, err = _run(
        capsys, "emissions", source, value, "--power-kw", power, "--hours", "1e20"
    )
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: duration must end by the year 9999, got 1e+20 hours from ")


NAN, INF = float("nan"), float("inf")


def _assert_rejected(code, out, err, exit_code):
    assert code == exit_code, err
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _write_json(path, doc):
    # json.dumps writes nan and inf as the NaN and Infinity literals
    path.write_text(json.dumps(doc))
    return str(path)


def _model_doc():
    return json.loads(data_path("archer2_system.json").read_text())


def _scenario_doc(**fields):
    doc = json.loads(data_path("stacked_scenario.json").read_text())
    doc["model"] = str(data_path("archer2_system.json"))
    doc["benchmarks"] = str(data_path("table4_freq.csv"))
    return {**doc, **fields}


def _recipe_doc():
    return json.loads(data_path("recipe_bios_step.json").read_text())


@pytest.mark.parametrize("field", ["idle_kw_per_unit", "loaded_kw_per_unit"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_power_rejects_non_finite_component_draw(capsys, tmp_path, field, value):
    doc = _model_doc()
    doc["components"][2][field] = value
    model = _write_json(tmp_path / "model.json", doc)
    code, out, err = _run(capsys, "power", model, "-u", "1", "--format", "json")
    _assert_one_error_line(code, out, err)
    assert "cabinet_overheads" in err


@pytest.mark.parametrize("column", [3, 4])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_policy_rejects_non_finite_benchmark_ratio(capsys, tmp_path, column, value):
    rows = data_path("table4_freq.csv").read_text().splitlines()
    fields = rows[1].split(",")
    fields[column] = value
    rows[1] = ",".join(fields)
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n")
    code, out, err = _run(capsys, "policy", str(tmp_path / "table.csv"), "--format", "json")
    _assert_one_error_line(code, out, err)
    assert "_ratio must be > 0" in err


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_policy_rejects_non_finite_weight(capsys, tmp_path, value):
    weights = _write_json(tmp_path / "weights.json", {"LAMMPS Ethanol": value})
    code, out, err = _run(
        capsys, "policy", "builtin:table4_freq.csv", "--weights", weights, "--format", "json"
    )
    _assert_one_error_line(code, out, err)


def test_simulate_rejects_non_finite_mix_weight(capsys, tmp_path):
    config = _write_json(tmp_path / "config.json", _scenario_doc(mix={"LAMMPS Ethanol": NAN}))
    code, out, err = _run(capsys, "simulate", config, "--format", "json")
    _assert_one_error_line(code, out, err)


@pytest.mark.parametrize("field", ["bios_factor", "duration_hours"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_simulate_rejects_non_finite_scenario_numbers(capsys, tmp_path, field, value):
    config = _write_json(tmp_path / "config.json", _scenario_doc(**{field: value}))
    code, out, err = _run(capsys, "simulate", config, "--format", "json")
    _assert_one_error_line(code, out, err)
    assert "must be > 0" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_power_rejects_non_finite_factor(capsys, value):
    code, out, err = _run(
        capsys, "power", "builtin:archer2_system.json", "-u", "1",
        "--factor", f"compute_nodes={value}", "--format", "json",
    )
    _assert_one_error_line(code, out, err)
    assert err == f"error: power factor must be >= 0, got {float(value)}\n"


def test_telemetry_rejects_a_stamp_that_leaves_the_datetime_range(capsys, tmp_path):
    series = tmp_path / "series.csv"
    series.write_text(
        "timestamp,power_kw\n0001-01-01T00:00:00+01:00,5\n0001-01-02T00:00:00Z,6\n"
    )
    code, out, err = _run(capsys, "telemetry", str(series), "--detect")
    _assert_rejected(code, out, err, 2)
    assert "line 2: timestamp is outside the years 1 to 9999 in UTC" in err
    code, out, err = _run(
        capsys, "telemetry", str(series), "--change-time", "9999-12-31T23:00:00-01:00"
    )
    _assert_rejected(code, out, err, 2)


def test_power_json_rejects_a_result_past_the_float_range(capsys, tmp_path):
    doc = _model_doc()
    doc["components"][0].update(idle_kw_per_unit=1e308, loaded_kw_per_unit=1e308)
    model = _write_json(tmp_path / "model.json", doc)
    code, out, err = _run(capsys, "power", model, "-u", "1", "--format", "json")
    _assert_one_error_line(code, out, err)


@pytest.mark.parametrize("value", ["x", True, None, []])
def test_simulate_rejects_a_bios_factor_that_is_not_a_number(capsys, tmp_path, value):
    config = _write_json(tmp_path / "config.json", _scenario_doc(bios_factor=value))
    code, out, err = _run(capsys, "simulate", config, "--format", "json")
    _assert_rejected(code, out, err, 2)
    assert "'bios_factor' must be a number" in err


@pytest.mark.parametrize("value", ["x", True])
def test_emissions_rejects_embodied_figures_that_are_not_numbers(capsys, tmp_path, value):
    embodied = _write_json(
        tmp_path / "embodied.json", {"total_kgco2e": value, "service_lifetime_hours": 5e4}
    )
    code, out, err = _run(
        capsys, "emissions", "--intensity", "50", "--power-kw", "1", "--hours", "1",
        "--embodied", embodied,
    )
    _assert_rejected(code, out, err, 2)
    assert "'total_kgco2e' must be a number" in err


@pytest.mark.parametrize("value", [NAN, INF, "24", 2.7, 24.0, True])
def test_synth_rejects_an_n_samples_that_is_not_an_integer(capsys, tmp_path, value):
    doc = _recipe_doc()
    doc["segments"][0]["n_samples"] = value
    output = tmp_path / "out.csv"
    code, out, err = _run(capsys, "synth", _write_json(tmp_path / "r.json", doc), "-o", str(output))
    _assert_rejected(code, out, err, 2)
    assert "'n_samples' must be an integer" in err
    assert not output.exists()


@pytest.mark.parametrize("value", [5, None, ["2022-04-01T00:00:00Z"]])
def test_synth_rejects_a_start_that_is_not_a_string(capsys, tmp_path, value):
    recipe = _write_json(tmp_path / "recipe.json", {**_recipe_doc(), "start": value})
    code, out, err = _run(capsys, "synth", recipe, "-o", str(tmp_path / "out.csv"))
    _assert_rejected(code, out, err, 2)
    assert "'start' must be a string" in err


def test_synth_rejects_a_negative_seed(capsys, tmp_path):
    recipe = _write_json(tmp_path / "recipe.json", {**_recipe_doc(), "seed": -1})
    code, out, err = _run(capsys, "synth", recipe, "-o", str(tmp_path / "out.csv"))
    _assert_one_error_line(code, out, err)
    code, out, err = _run(
        capsys, "synth", "builtin:recipe_bios_step.json", "-o", str(tmp_path / "out.csv"),
        "--seed", "-1",
    )
    _assert_one_error_line(code, out, err)


def test_synth_rejects_samples_closer_than_a_microsecond(capsys, tmp_path):
    doc = _recipe_doc()
    doc["segments"][0]["n_samples"] = 10**30
    recipe = _write_json(tmp_path / "recipe.json", doc)
    code, out, err = _run(capsys, "synth", recipe, "-o", str(tmp_path / "out.csv"))
    _assert_one_error_line(code, out, err)
    assert "less than 1 us apart" in err


_OVERFLOW_MESSAGE = (
    "error: energy or emissions exceed the float range: "
    "24.0 h at a mean 3048.1343174880003 kW, carbon intensity 1e+308 g/kWh\n"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["power", "MODEL", "-u", "1"],
         "error: model 'archer2': total power exceeds the float range at utilization 1.0\n"),
        (["simulate", "SCENARIO"], _OVERFLOW_MESSAGE),
        (["emissions", "--intensity", "1e308", "--power-kw", "2530", "--hours", "24"],
         "error: energy or emissions exceed the float range: "
         "24.0 h at a mean 2530.0 kW, carbon intensity 1e+308 g/kWh\n"),
    ],
    ids=["power", "simulate", "emissions"],
)
def test_table_rejects_a_result_past_the_float_range(capsys, tmp_path, argv, message):
    # finite inputs whose total power, or whose emissions, overflow to inf
    doc = _model_doc()
    doc["components"][0].update(idle_kw_per_unit=1e308, loaded_kw_per_unit=1e308)
    files = {
        "MODEL": _write_json(tmp_path / "model.json", doc),
        "SCENARIO": _write_json(
            tmp_path / "scenario.json",
            _scenario_doc(name="scenario", carbon={"constant_g_per_kwh": 1e308}),
        ),
    }
    code, out, err = _run(capsys, *[files.get(arg, arg) for arg in argv])
    _assert_one_error_line(code, out, err)
    assert err == message


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("sweep", [[], ["--sweep", "0,0.1"]], ids=["run", "sweep"])
def test_simulate_emissions_overflow_names_its_inputs(capsys, tmp_path, fmt, sweep):
    # the sweep table has no emissions column, so only the scenario run can see this
    doc = _scenario_doc(carbon={"constant_g_per_kwh": 1e308})
    scenario = _write_json(tmp_path / "scenario.json", doc)
    code, out, err = _run(capsys, "simulate", scenario, *sweep, "--format", fmt)
    _assert_one_error_line(code, out, err)
    assert "energy or emissions exceed the float range" in err
    assert f"{doc['duration_hours']} h at a mean " in err
    assert "carbon intensity 1e+308 g/kWh" in err


def test_simulate_scope3_overflow_names_the_embodied_total(capsys, tmp_path):
    embodied = {"total_kgco2e": 1e308, "service_lifetime_hours": 1.0}
    scenario = _write_json(tmp_path / "scenario.json", _scenario_doc(embodied=embodied))
    code, out, err = _run(capsys, "simulate", scenario, "--sweep", "0,0.1")
    _assert_one_error_line(code, out, err)
    assert err.endswith(", embodied 1e+308 kg over 1.0 h\n")


def test_simulate_overflow_names_a_series_carbon_by_its_run_mean(capsys, tmp_path):
    carbon = tmp_path / "carbon.csv"
    carbon.write_text(
        "timestamp,intensity_g_per_kwh\n2022-06-01T00:00:00Z,95.5\n2022-06-01T06:00:00Z,120\n"
    )
    embodied = {"total_kgco2e": 1e308, "service_lifetime_hours": 1.0}
    doc = _scenario_doc(carbon={"series_csv": str(carbon)}, embodied=embodied)
    scenario = _write_json(tmp_path / "scenario.json", doc)
    code, out, err = _run(capsys, "simulate", scenario)
    _assert_one_error_line(code, out, err)
    # 6 h at 95.5 and 18 h at 120 g/kWh
    assert "carbon intensity 113.875 g/kWh, embodied 1e+308 kg over 1.0 h\n" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_json_rejects_a_non_finite_result_as_the_table_does(capsys, tmp_path, fmt):
    # the fleet power ratio is the energy ratio times the perf ratio: 1e400
    table = tmp_path / "table.csv"
    table.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "app,1,freq_cap_2000,1e200,1e200\n"
    )
    code, out, err = _run(capsys, "policy", str(table), "--format", fmt)
    _assert_one_error_line(code, out, err)
    assert err == (
        "error: fleet power ratio exceeds the float range: "
        "kept app 'app' has energy_ratio 1e+200 and perf_ratio 1e+200\n"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_non_finite_result_no_step_named_meets_the_cli_net(capsys, monkeypatch, fmt):
    from wattplan import freq_policy

    monkeypatch.setattr(
        freq_policy, "fleet_ratios",
        lambda benchmarks, weights, rule: freq_policy.FleetRatios(math.inf, 1.0, ()),
    )
    code, out, err = _run(capsys, "policy", "builtin:table4_freq.csv", "--format", fmt)
    _assert_one_error_line(code, out, err)
    assert err == "error: a result is not finite (inf)\n"


def test_simulate_names_a_fleet_ratio_overflow_as_policy_does(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "app,1,freq_cap_2000,1e200,1e200\n"
    )
    scenario = json.loads(Path(data_path("stacked_scenario.json")).read_text())
    scenario.update(model=str(data_path("archer2_system.json")), benchmarks=str(table))
    config = _write_json(tmp_path / "scenario.json", scenario)
    code, out, err = _run(capsys, "simulate", config)
    _assert_one_error_line(code, out, err)
    assert err == (
        "error: fleet power ratio exceeds the float range: "
        "kept app 'app' has energy_ratio 1e+200 and perf_ratio 1e+200\n"
    )


def test_emissions_energy_overflow_names_the_power_and_hours(capsys):
    code, out, err = _run(
        capsys, "emissions", "--intensity", "1", "--power-kw", "1e305", "--hours", "10000"
    )
    _assert_one_error_line(code, out, err)
    assert err == "error: energy exceeds the float range: a mean 1e+305 kW for 10000.0 h\n"


@pytest.mark.parametrize(
    "rows,hours,mean",
    [
        (["00:00:00Z,1e308", "01:00:00Z,1e308", "02:00:00Z,1"], "3", 1e308 / 3 + 1e308 / 3),
        (["00:00:00Z,100", "00:30:00Z,1e308", "01:00:00Z,1e308"], "1", 5e307),
    ],
    ids=["three hours", "two half hours"],
)
def test_emissions_mean_intensity_past_a_float_range_sum_is_in_range(
    capsys, tmp_path, rows, hours, mean
):
    # every step is in range and so is their mean; their weighted sum over the run is not
    profile = tmp_path / "profile.csv"
    profile.write_text(
        "timestamp,intensity_g_per_kwh\n" + "".join(f"2022-06-01T{row}\n" for row in rows)
    )
    code, out, err = _run(
        capsys, "emissions", "--profile", str(profile), "--power-kw", "10", "--hours", hours,
        "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["mean_intensity_g_per_kwh"] == mean
    assert doc["scope2_kg"] == doc["energy_kwh"] * (mean / 1000.0)


def test_emissions_scope2_past_a_float_range_product_is_in_range(capsys):
    # 1e305 kWh times 1e4 g/kWh passes the float range; 1e306 kg does not
    code, out, err = _run(
        capsys, "emissions", "--intensity", "1e4", "--power-kw", "1e300", "--hours", "1e5",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["scope2_kg"] == doc["energy_kwh"] * (1e4 / 1000.0) == pytest.approx(1e306)


def test_emissions_header_only_profile_exits_2(capsys, tmp_path):
    profile = tmp_path / "profile.csv"
    profile.write_text("timestamp,intensity_g_per_kwh\n")
    code, out, err = _run(
        capsys, "emissions", "--profile", str(profile), "--power-kw", "1", "--hours", "3"
    )
    _assert_rejected(code, out, err, 2)
    assert err == f"error: {profile}: no intensity rows found\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_component_name_that_is_not_unicode_text_exits_2(capsys, tmp_path, fmt):
    # the table printed it to UTF-8 output, which cannot encode a lone surrogate
    doc = _model_doc()
    doc["components"][1]["name"] = "sw\ud800"
    model = _write_json(tmp_path / "model.json", doc)
    code, out, err = _run(capsys, "power", model, "-u", "0.5", "--format", fmt)
    _assert_rejected(code, out, err, 2)
    assert err == f"error: {model}: component #2: 'name' holds a lone surrogate\n"


def test_a_scenario_series_path_with_a_nul_exits_2(capsys, tmp_path):
    doc = _scenario_doc(carbon={"series_csv": "a\u0000b"})
    scenario = _write_json(tmp_path / "scenario.json", doc)
    code, out, err = _run(capsys, "simulate", scenario)
    _assert_rejected(code, out, err, 2)
    assert err == f"error: {scenario}: 'carbon': 'series_csv' holds a NUL character\n"


def test_unknown_builtin_name_exits_2(capsys):
    code, out, err = _run(capsys, "policy", "builtin:nope.csv")
    _assert_rejected(code, out, err, 2)
    assert err == "error: no bundled data file named 'nope.csv'\n"


@pytest.mark.parametrize(
    "name",
    ["../data/table4_freq.csv", "ABSOLUTE", "sub/table4_freq.csv", "./table4_freq.csv"],
    ids=["parent", "absolute", "subdirectory", "dot"],
)
def test_builtin_takes_only_a_bare_file_name(capsys, name):
    # a name with a directory part names no bundled file, even one that exists
    if name == "ABSOLUTE":
        name = str(data_path("table4_freq.csv"))
    code, out, err = _run(capsys, "policy", f"builtin:{name}")
    _assert_rejected(code, out, err, 2)
    assert err == f"error: no bundled data file named {name!r}\n"


@pytest.mark.parametrize(
    "argv,name,text",
    [
        (["policy", "FILE"], "table.csv",
         "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
         "CAS?TEP,4,freq_cap_2000,0.9,0.9\n"),
        (["emissions", "--profile", "FILE", "--power-kw", "1", "--hours", "1"], "profile.csv",
         "timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,5?\n"),
        (["telemetry", "FILE", "--detect"], "series.csv",
         "timestamp,power_kw\n2022-01-01T00:00:00Z,5?\n2022-01-01T00:01:00Z,6\n"),
    ],
    ids=["policy", "emissions-profile", "telemetry"],
)
def test_csv_readers_reject_bytes_that_are_not_utf8(capsys, tmp_path, argv, name, text):
    path = str(tmp_path / name)
    # byte 0xff never occurs in UTF-8
    Path(path).write_bytes(text.encode().replace(b"?", b"\xff"))
    code, out, err = _run(capsys, *[path if arg == "FILE" else arg for arg in argv])
    _assert_rejected(code, out, err, 2)
    assert err.startswith(f"error: {path}: not UTF-8 text: ")


PROFILE_ARGV = ["emissions", "--profile", "FILE", "--power-kw", "1", "--hours", "1"]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv,name,text,exit_code,message",
    [
        # a quoted power that holds a newline spans lines 3 and 4
        (["telemetry", "FILE", "--detect"], "series.csv",
         'timestamp,power_kw\n2022-01-01T00:00:00Z,1\n"2022-01-01T00:01:00Z","2\n"\n'
         "2022-01-01T00:02:00Z,x\n",
         2, "line 5: power is not a number: 'x'"),
        # a quoted app name that holds a newline spans lines 2 and 3
        (["policy", "FILE"], "table.csv",
         "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
         '"a\nb",4,freq_cap_2000,0.9,0.9\nc,x,freq_cap_2000,0.9,0.9\n',
         2, "line 4: nodes is not an integer: 'x'"),
        # blank lines 3 and 4 sit between the first two rows
        (PROFILE_ARGV, "profile.csv",
         "timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,10\n\n\n"
         "2022-01-01T01:00:00Z,20\n2022-01-01T00:30:00Z,30\n",
         2, "line 6: timestamps not strictly increasing "
         "(2022-01-01 01:00:00+00:00 then 2022-01-01 00:30:00+00:00)"),
        # an intensity out of range is a domain error, as `--intensity -5` is;
        # it is named before the disorder on line 3
        (PROFILE_ARGV, "profile.csv",
         "timestamp,intensity_g_per_kwh\n2022-01-01T01:00:00Z,10\n"
         "2022-01-01T00:30:00Z,20\n2022-01-01T02:00:00Z,-5\n",
         1, "line 4: intensity must be finite and >= 0 g/kWh, got '-5'"),
        # line 3 is blank
        (PROFILE_ARGV, "profile.csv",
         "timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,10\n\n"
         "2022-01-01T01:00:00Z,nan\n",
         1, "line 4: intensity must be finite and >= 0 g/kWh, got 'nan'"),
        # so is a power out of range, in the file the vectorized parse would take
        (["telemetry", "FILE", "--detect"], "series.csv",
         "timestamp,power_kw\n2022-01-01T00:00:00Z,10\n2022-01-01T00:01:00Z,-5\n",
         1, "line 3: power must be finite and >= 0 kW, got '-5'"),
        (["telemetry", "FILE", "--detect"], "series.csv",
         "timestamp,power_kw\n2022-01-01T00:00:00Z,10\n\n2022-01-01T00:01:00Z,nan\n",
         1, "line 4: power must be finite and >= 0 kW, got 'nan'"),
        # a stamp that does not parse, after blank line 3, in both series formats
        (PROFILE_ARGV, "profile.csv",
         "timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,10\n\n"
         "2022-01-01T25:00:00Z,20\n",
         2, "line 4: invalid ISO-8601 timestamp: '2022-01-01T25:00:00Z'"),
        (["telemetry", "FILE", "--detect"], "series.csv",
         "timestamp,power_kw\n2022-01-01T00:00:00Z,10\n\n2022-01-01T25:00:00Z,20\n",
         2, "line 4: invalid ISO-8601 timestamp: '2022-01-01T25:00:00Z'"),
    ],
    ids=["telemetry", "policy", "emissions-profile", "profile-negative", "profile-nan",
         "telemetry-negative", "telemetry-nan", "profile-stamp", "telemetry-stamp"],
)
def test_csv_errors_name_the_physical_line(
    capsys, tmp_path, fmt, argv, name, text, exit_code, message
):
    path = str(tmp_path / name)
    Path(path).write_text(text)
    argv = [path if arg == "FILE" else arg for arg in argv]
    code, out, err = _run(capsys, *argv, "--format", fmt)
    _assert_rejected(code, out, err, exit_code)
    assert err == f"error: {path}: {message}\n"


# an integer literal longer than Python's int-string digit limit, which
# json.dumps cannot write
HUGE_INTEGER = "9" * 5000


@pytest.mark.parametrize(
    "argv,text",
    [
        (["power", "FILE", "-u", "0.5"],
         '{"name": "m", "compute_component": null, "components": [{"name": "n", '
         f'"count": {HUGE_INTEGER}, "idle_kw_per_unit": 1, "loaded_kw_per_unit": 1, '
         '"load_response": "linear"}]}'),
        (["policy", "builtin:table4_freq.csv", "--weights", "FILE"],
         f'{{"GROMACS": {HUGE_INTEGER}}}'),
    ],
    ids=["model-count", "weight"],
)
def test_a_json_integer_past_the_digit_limit_is_a_format_error(capsys, tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = _run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    _assert_rejected(code, out, err, 2)
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit (4300")


# a nodes cell past the digit limit is named by the limit, not written out; one
# past the float range but within the limit is a domain error of its line, as
# are ratios out of range
@pytest.mark.parametrize(
    "column,cell,exit_code,message",
    [
        (1, HUGE_INTEGER, 2,
         "{path}: line 2: nodes exceeds Python's int-string digit limit of {limit} digits"),
        (1, "9" * 400, 1,
         "{path}: line 2: benchmark 'CASTEP Al Slab': nodes exceeds the float range"),
        (3, "-1", 1,
         "{path}: line 2: benchmark 'CASTEP Al Slab': perf_ratio must be > 0, got -1.0"),
        (4, "0", 1,
         "{path}: line 2: benchmark 'CASTEP Al Slab': energy_ratio must be > 0, got 0.0"),
    ],
    ids=["5000-digits", "400-digits", "perf-ratio-minus-one", "energy-ratio-zero"],
)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_nodes_cell_past_the_float_range_is_not_written_out(
    capsys, tmp_path, fmt, column, cell, exit_code, message
):
    lines = data_path("table4_freq.csv").read_text().splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = cell
    lines[1] = ",".join(cells) + "\n"
    path = tmp_path / "table.csv"
    path.write_text("".join(lines))
    code, out, err = _run(capsys, "policy", str(path), "--format", fmt)
    _assert_rejected(code, out, err, exit_code)
    limit = sys.get_int_max_str_digits()
    assert err == f"error: {message.format(path=path, limit=limit)}\n"


# -- numpy stays out of the subcommands that use no series ---------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(wattplan.__file__).resolve().parents[1]
# the planning cycle's calls that neither read nor write a series
NUMPY_FREE_CALLS = [
    "power", "policy", "simulate", "simulate_sweep", "emissions_intensity", "emissions_profile",
]


def _python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=cwd, capture_output=True, timeout=120,
    )


def _child(code, *argv, cwd=None):
    return _python("-c", code, *argv, cwd=cwd)


@pytest.fixture(scope="module")
def planning_cycle(tmp_path_factory):
    """The benchmark's CLI cycle by label, and a directory holding its inputs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    work = tmp_path_factory.mktemp("planning")
    workloads.write_cli_inputs(work)
    return dict(workloads.CLI_CYCLE), work


def test_series_calls_match_their_golden_files(planning_cycle):
    cycle, work = planning_cycle
    # synth writes the file that telemetry_detect reads
    for label in ("synth", "telemetry_detect"):
        proc = _child("from wattplan.cli import entrypoint; entrypoint()", *cycle[label], cwd=work)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (PERFBENCH / "golden" / f"{label}.out").read_bytes()
    digest = hashlib.sha256((work / "full_timeline.csv").read_bytes()).hexdigest()
    assert digest == (PERFBENCH / "golden" / "synth.csv.sha256").read_text().strip()


def test_importing_the_package_and_the_cli_leaves_numpy_out():
    proc = _child(
        "import sys, wattplan; assert 'numpy' not in sys.modules; "
        "import wattplan.cli; assert 'numpy' not in sys.modules"
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("label", NUMPY_FREE_CALLS)
def test_planning_calls_run_without_numpy(planning_cycle, label):
    cycle, work = planning_cycle
    # numpy set to None in sys.modules makes any import of it fail
    proc = _child(
        "import sys; sys.modules['numpy'] = None; "
        "from wattplan.cli import entrypoint; entrypoint()",
        *cycle[label], cwd=work,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (PERFBENCH / "golden" / f"{label}.out").read_bytes()


@pytest.mark.parametrize("module", ["wattplan", "wattplan.cli"])
def test_python_dash_m_runs_the_cli(planning_cycle, tmp_path, module):
    cycle, work = planning_cycle
    proc = _python("-m", module, *cycle["power"], cwd=work)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (PERFBENCH / "golden" / "power.out").read_bytes()
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    proc = _python("-m", module, "power", str(broken), "-u", "0.92", cwd=work)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")


# -- each call loads only the wattplan modules it runs --------------------------

# the modules every call loads: the CLI and what it imports at its top
CLI_MODULES = {"cli", "datafiles", "errors", "timestamps"}
# what each call of the planning cycle loads besides, to run its subcommand
RUN_MODULES = {
    "synth": {"telemetry"},
    "telemetry_detect": {"telemetry"},
    "power": {"power_model"},
    "policy": {"freq_policy"},
    "simulate": {"simulator", "emissions", "freq_policy", "power_model"},
    "simulate_sweep": {"simulator", "emissions", "freq_policy", "power_model"},
    "emissions_intensity": {"emissions"},
    "emissions_profile": {"emissions"},
}
# runs the CLI, then prints the wattplan modules loaded to stderr
LOADED_MODULES_CHILD = (
    "import sys; from wattplan.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('wattplan.')), file=sys.stderr); "
    "sys.exit(code)"
)


def test_every_planning_call_has_its_module_set(planning_cycle):
    cycle, _ = planning_cycle
    assert set(RUN_MODULES) == set(cycle)


@pytest.mark.parametrize("label", list(RUN_MODULES))
def test_each_planning_call_loads_only_the_modules_it_runs(planning_cycle, label):
    cycle, work = planning_cycle
    if label == "telemetry_detect":
        # the series it reads is the one synth writes
        proc = _child(LOADED_MODULES_CHILD, *cycle["synth"], cwd=work)
        assert proc.returncode == 0, proc.stderr.decode()
    proc = _child(LOADED_MODULES_CHILD, *cycle[label], cwd=work)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PERFBENCH / "golden" / f"{label}.out").read_bytes()
    loaded = set(proc.stderr.decode().split())
    assert loaded == {f"wattplan.{module}" for module in CLI_MODULES | RUN_MODULES[label]}


# -- the tables that no golden file pins -----------------------------------------

# each call's argv, with the inputs that table_inputs writes named bare
PINNED_TABLES = {
    "policy": ["policy", "builtin:table4_freq.csv"],
    "policy-weights": ["policy", "builtin:table4_freq.csv", "--weights", "weights.json"],
    "sweep": [
        "simulate", "builtin:stacked_scenario.json", "--sweep", "0.0,0.05,0.10,0.15,0.30,1.0",
    ],
    "telemetry-detect": ["telemetry", "full.csv", "--detect", "--gap", "24"],
    "telemetry-change-time": ["telemetry", "bios.csv", "--change-time", "2022-04-21T20:00:00Z"],
    "emissions-profile": [
        "emissions", "--profile", "profile.csv", "--power-kw", "3000", "--hours", "1.5",
        "--embodied", "embodied.json",
    ],
    "power-empty-model": ["power", "empty.json", "-u", "0.5"],
}
PINNED_OUTPUT = {
    "policy": (
        "app_name              default        reverted   perf_loss  energy_saving  weight\n"
        "CASTEP Al Slab        2.0GHz         no            0.0700         0.1200  0.1429\n"
        "CP2K H2O 2048         2.0GHz         no            0.0900         0.0700  0.1429\n"
        "GROMACS 1400k         2.25GHz+turbo  yes           0.1700         0.0800  0.1429\n"
        "LAMMPS Ethanol        2.25GHz+turbo  yes           0.2600         0.0800  0.1429\n"
        "Nektar++ TGV 128 DoF  2.25GHz+turbo  yes           0.2000         0.2000  0.1429\n"
        "ONETEP hBN-BP-hBN     2.0GHz         no            0.0800         0.1800  0.1429\n"
        "VASP CdTe             2.0GHz         no            0.0500         0.1200  0.1429\n"
        "\n"
        "fleet_power_ratio       0.8936\n"
        "fleet_throughput_ratio  0.9586\n"
    ),
    "policy-weights": (
        "app_name        default        reverted   perf_loss  energy_saving  weight\n"
        "CASTEP Al Slab  2.0GHz         no            0.0700         0.1200  0.7500\n"
        "GROMACS 1400k   2.25GHz+turbo  yes           0.1700         0.0800  0.2500\n"
        "\n"
        "fleet_power_ratio       0.8638\n"
        "fleet_throughput_ratio  0.9475\n"
    ),
    "sweep": (
        "threshold  mean_power_kw   energy_kwh  throughput_index  reverted\n"
        "   0.0000         3198.3      76759.9            1.0000         7\n"
        "   0.0500         3198.3      76759.9            1.0000         7\n"
        "   0.1000         3048.1      73155.2            0.9586         3\n"
        "   0.1500         3048.1      73155.2            0.9586         3\n"
        "   0.3000         2863.5      68724.5            0.8686         0\n"
        "   1.0000         2863.5      68724.5            0.8686         0\n"
    ),
    "telemetry-detect": (
        "change_time       2022-07-29T00:00:00Z\n"
        "score             0.7629\n"
        "before_samples    5736\n"
        "before_mean_kw    3115.6\n"
        "before_stddev_kw  108.3\n"
        "after_samples     696\n"
        "after_mean_kw     2530.8\n"
        "after_stddev_kw   24.2\n"
        "delta_kw          -584.8\n"
        "pct_change        -18.8%\n"
    ),
    "telemetry-change-time": (
        "change_time       2022-04-21T20:00:00Z\n"
        "before_samples    500\n"
        "before_mean_kw    3220.0\n"
        "before_stddev_kw  19.2\n"
        "after_samples     500\n"
        "after_mean_kw     3010.0\n"
        "after_stddev_kw   20.6\n"
        "delta_kw          -210.0\n"
        "pct_change        -6.5%\n"
    ),
    "emissions-profile": (
        "mean_intensity_g_per_kwh  31.7\n"
        "scenario                  balanced\n"
        "objective                 balance_performance_and_energy\n"
        "energy_kwh                4500.0\n"
        "scope2_kg                 142.5\n"
        "scope3_kg                 30.0\n"
        "total_kg                  172.5\n"
    ),
    "power-empty-model": (
        "component    power_kw\n"
        "total             0.0\n"
    ),
}


@pytest.fixture(scope="module")
def table_inputs(tmp_path_factory):
    """A directory of the inputs that the pinned table calls read."""
    work = tmp_path_factory.mktemp("tables")
    for recipe, name in [("recipe_full_timeline", "full.csv"), ("recipe_bios_step", "bios.csv")]:
        assert main(["synth", f"builtin:{recipe}.json", "-o", str(work / name)]) == 0
    (work / "weights.json").write_text('{"CASTEP Al Slab": 0.75, "GROMACS 1400k": 0.25}')
    (work / "profile.csv").write_text(
        "timestamp,intensity_g_per_kwh\n"
        "2022-01-01T00:00:00Z,20\n"
        "2022-01-01T00:30:00Z,40\n"
        "2022-01-01T01:00:00Z,35\n"
    )
    (work / "embodied.json").write_text(
        '{"total_kgco2e": 1000000.0, "service_lifetime_hours": 50000.0}'
    )
    (work / "empty.json").write_text(
        '{"name": "empty", "compute_component": null, "components": []}'
    )
    return work


@pytest.mark.parametrize("label", PINNED_TABLES)
def test_tables_without_a_golden_file_keep_their_bytes(capsys, table_inputs, label):
    argv = [
        str(table_inputs / arg) if (table_inputs / arg).is_file() else arg
        for arg in PINNED_TABLES[label]
    ]
    assert _run(capsys, *argv) == (0, PINNED_OUTPUT[label], "")
