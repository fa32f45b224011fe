import copy
import json
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattplan import freq_policy, simulator
from wattplan.datafiles import data_path
from wattplan.emissions import CarbonIntensityProfile, EmbodiedEmissions
from wattplan.errors import DataFormatError, DomainError
from wattplan.freq_policy import (
    AppBenchmark,
    Intervention,
    PolicyRule,
    fleet_ratios,
    load_benchmark_table,
)
from wattplan.power_model import (
    ComponentSpec,
    SystemModel,
    load_model,
    system_power,
)
from wattplan.simulator import (
    BIOS_DETERMINISM_POWER_FACTOR,
    JobMix,
    ScenarioConfig,
    load_scenario_config,
    result_to_dict,
    run_scenario,
    sweep_threshold,
)


@pytest.fixture(scope="module")
def baseline_config():
    return load_scenario_config(data_path("baseline_scenario.json"))


@pytest.fixture(scope="module")
def stacked_config():
    return load_scenario_config(data_path("stacked_scenario.json"))


def _tiny_config(**overrides):
    model = SystemModel(
        name="tiny",
        compute_component="nodes",
        components=(
            ComponentSpec("nodes", 100, 0.2, 0.5),
            ComponentSpec("switches", 10, 0.3, 0.3),
        ),
    )
    benchmarks = (
        AppBenchmark("fast", 2, Intervention.FREQ_CAP_2000, 0.95, 0.90),
        AppBenchmark("slow", 2, Intervention.FREQ_CAP_2000, 0.70, 0.85),
    )
    config = ScenarioConfig(
        model=model,
        utilization=0.9,
        mix=JobMix.equal(["fast", "slow"]),
        benchmarks=benchmarks,
        rule=PolicyRule(0.10),
        duration_hours=12.0,
        carbon=CarbonIntensityProfile.constant(100.0),
    )
    return replace(config, **overrides) if overrides else config


def test_baseline_power_brackets_measured_mean(baseline_config):
    result = run_scenario(baseline_config)
    assert result.mean_power_kw == pytest.approx(3384.056)
    assert 3000.0 <= result.mean_power_kw <= 3400.0


def test_baseline_is_identity_policy(baseline_config):
    result = run_scenario(baseline_config)
    raw = system_power(load_model(data_path("archer2_system.json")), 0.92)
    assert result.mean_power_kw == pytest.approx(raw.total_kw, rel=1e-12)
    assert result.throughput_index == pytest.approx(1.0)
    assert all(d.reverted for d in result.decisions)


def test_stacked_scenario_frozen_values(stacked_config):
    result = run_scenario(stacked_config)
    assert result.mean_power_kw == pytest.approx(3048.134, abs=1e-2)
    assert result.throughput_index == pytest.approx(0.9585714285714285)
    assert sum(1 for d in result.decisions if d.reverted) == 3


def test_bios_only_reduction_in_band(baseline_config):
    bios_only = replace(baseline_config, bios_factor=BIOS_DETERMINISM_POWER_FACTOR)
    base = run_scenario(baseline_config)
    result = run_scenario(bios_only)
    reduction = (base.mean_power_kw - result.mean_power_kw) / base.mean_power_kw
    assert reduction == pytest.approx(0.0548829, abs=1e-6)
    assert 0.05 <= reduction <= 0.08


def test_runs_are_deterministic(baseline_config):
    assert run_scenario(baseline_config) == run_scenario(baseline_config)


def test_energy_equals_power_times_duration(stacked_config):
    result = run_scenario(stacked_config)
    assert result.energy_kwh == result.mean_power_kw * result.duration_hours


def test_scope2_accounting(baseline_config):
    result = run_scenario(baseline_config)
    assert result.scope3_unset
    assert result.emissions.scope3_kg == 0.0
    assert result.emissions.scope2_kg == pytest.approx(result.energy_kwh * 120.0 / 1000.0)


def test_embodied_block_enables_scope3(baseline_config):
    config = replace(baseline_config, embodied=EmbodiedEmissions(12_000_000.0, 87_600.0))
    result = run_scenario(config)
    assert not result.scope3_unset
    assert result.emissions.scope3_kg == pytest.approx(12_000_000.0 * 24.0 / 87_600.0)
    assert result.emissions.total_kg == pytest.approx(
        result.emissions.scope2_kg + result.emissions.scope3_kg
    )


def test_policy_cannot_push_compute_below_idle_floor():
    config = _tiny_config(rule=PolicyRule(1.0), bios_factor=0.9)
    result = run_scenario(config)
    idle_floor = 100 * 0.2 * 0.9
    assert result.breakdown.per_component["nodes"] >= idle_floor - 1e-12


def test_dynamic_scaling_touches_only_compute(baseline_config, stacked_config):
    base = run_scenario(baseline_config).breakdown.per_component
    stacked = run_scenario(stacked_config).breakdown.per_component
    for name in base:
        if name != "compute_nodes":
            assert stacked[name] == base[name]


def test_constant_components_share_stays_small_at_high_utilization():
    model = load_model(data_path("archer2_system.json"))
    for u in (0.90, 0.95, 1.0):
        breakdown = system_power(model, u)
        constant_share = (
            breakdown.per_component["interconnect_switches"]
            + breakdown.per_component["coolant_distribution_units"]
            + breakdown.per_component["file_systems"]
        ) / breakdown.total_kw
        assert constant_share < 0.15


def test_sweep_endpoints(stacked_config):
    runs = dict(sweep_threshold(stacked_config, [1.0, 0.0]))
    all_revert = runs[0.0]
    none_revert = runs[1.0]
    assert all(d.reverted for d in all_revert.decisions)
    assert not any(d.reverted for d in none_revert.decisions)
    # threshold 0 leaves the policy inert; threshold 1 applies every capped ratio
    assert all_revert.throughput_index == pytest.approx(1.0)
    assert none_revert.throughput_index == pytest.approx(0.8685714285714285)
    assert none_revert.mean_power_kw < all_revert.mean_power_kw


def test_sweep_is_ordered_and_monotone(stacked_config):
    thresholds = [0.30, 0.0, 1.0, 0.05, 0.15, 0.10]
    runs = sweep_threshold(stacked_config, thresholds)
    assert [t for t, _ in runs] == sorted(thresholds)
    energies = [r.energy_kwh for _, r in runs]
    throughputs = [r.throughput_index for _, r in runs]
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(throughputs, throughputs[1:]))


def test_sweep_rejects_out_of_range_threshold(stacked_config):
    with pytest.raises(DomainError):
        sweep_threshold(stacked_config, [0.5, 1.2])


def _sweep_oracle(config, thresholds):
    """Reference sweep: the scenario run afresh at every threshold."""
    thresholds = list(thresholds)
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise DomainError(f"threshold must be within [0, 1], got {threshold}")
    results = []
    for threshold in sorted(thresholds):
        run = run_scenario(replace(config, rule=PolicyRule(threshold)))
        results.append((threshold, run))
    return results


def _outcome(sweep, config, thresholds):
    try:
        return sweep(config, thresholds)
    except DomainError as exc:
        return exc.args


_FREQ, _BIOS = Intervention.FREQ_CAP_2000, Intervention.BIOS_DETERMINISM


@st.composite
def _sweep_cases(draw):
    """(benchmarks, weights, thresholds) over a random freq-cap table.

    Apps may carry a BIOS row too, unweighted apps may carry only one, and
    weights may be zero. Thresholds come unsorted, repeated and sometimes
    exactly at an app's perf loss. Rarely the table is one `run_scenario`
    rejects: a weighted app with only a BIOS row, or a second freq-cap row.
    """
    ratio = st.floats(0.05, 1.5)
    benchmarks, weights = [], {}
    for i in range(draw(st.integers(1, 5))):
        app = f"app{i}"
        kind = draw(st.sampled_from(["freq", "freq+bios", "bios"]))
        if kind != "bios":
            benchmarks.append(AppBenchmark(app, 1, _FREQ, draw(ratio), draw(ratio)))
            weights[app] = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0))
        if kind != "freq":
            benchmarks.append(AppBenchmark(app, 1, _BIOS, draw(ratio), draw(ratio)))
    if draw(st.integers(0, 9)) == 0:
        if draw(st.booleans()) and any(b.intervention is _BIOS for b in benchmarks):
            bios_only = next(b.app_name for b in benchmarks if b.intervention is _BIOS)
            benchmarks = [
                b for b in benchmarks if b.app_name != bios_only or b.intervention is _BIOS
            ]
            weights[bios_only] = draw(st.floats(0.01, 1.0))
        elif weights:
            benchmarks.append(AppBenchmark(next(iter(weights)), 1, _FREQ, draw(ratio), 1.0))
    if not weights or sum(weights.values()) == 0:
        weights[benchmarks[0].app_name] = 1.0
    total = sum(weights.values())
    weights = {app: weight / total for app, weight in weights.items()}
    breaks = [1.0 - b.perf_ratio for b in benchmarks if 0.0 <= 1.0 - b.perf_ratio <= 1.0]
    point = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0] + breaks)
    thresholds = draw(st.lists(point, max_size=12))
    if thresholds:
        thresholds += draw(st.lists(st.sampled_from(thresholds), max_size=4))
    return tuple(benchmarks), weights, draw(st.permutations(thresholds))


@settings(max_examples=300, deadline=None)
@given(case=_sweep_cases())
# thresholds exactly at each kept app's perf loss (strict `>`), duplicated and
# unsorted, with a zero-weight app and an unweighted BIOS-only app
@example(
    case=(
        (
            AppBenchmark("a", 1, _FREQ, 0.9, 0.8),
            AppBenchmark("b", 1, _FREQ, 0.75, 0.9),
            AppBenchmark("z", 1, _FREQ, 0.6, 0.7),
            AppBenchmark("c", 1, _BIOS, 0.95, 0.9),
        ),
        {"a": 0.5, "b": 0.5, "z": 0.0},
        [1.0 - 0.75, 0.3, 1.0 - 0.9, 1.0 - 0.75, 0.0, 1.0 - 0.9],
    )
)
def test_sweep_equals_the_per_threshold_oracle(case):
    benchmarks, weights, thresholds = case
    config = _tiny_config(benchmarks=benchmarks, mix=JobMix(weights))
    assert _outcome(sweep_threshold, config, thresholds) == _outcome(
        _sweep_oracle, config, thresholds
    )


def test_sweep_runs_the_scenario_once_per_decision_set(monkeypatch, stacked_config):
    calls = []

    def counting(config):
        calls.append(config.rule.perf_loss_threshold)
        return run_scenario(config)

    monkeypatch.setattr(simulator, "run_scenario", counting)
    runs = sweep_threshold(stacked_config, np.linspace(0.0, 1.0, 1001))
    by_set = {}
    for _, result in runs:
        key = tuple(d.reverted for d in result.decisions)
        assert by_set.setdefault(key, result) is result
    assert len(calls) == len(by_set) == 8
    calls.clear()
    with pytest.raises(DomainError, match="threshold"):
        sweep_threshold(stacked_config, [0.0, 0.5, 1.2])
    assert calls == []


def _counting_row_builds(monkeypatch):
    """The benchmark tables passed to the row-map build from now on."""
    builds = []
    build = freq_policy._app_rows

    def counting(benchmarks):
        builds.append(benchmarks)
        return build(benchmarks)

    monkeypatch.setattr(freq_policy, "_app_rows", counting)
    return builds


def test_a_benchmark_table_is_checked_once_over_a_replace_grid(monkeypatch, stacked_config):
    # a copy of the bundled rows, as a table nothing has read yet
    config = replace(stacked_config, benchmarks=tuple(stacked_config.benchmarks))
    builds = _counting_row_builds(monkeypatch)
    rng = random.Random(11)
    results = []
    for _ in range(200):
        point = replace(
            config,
            utilization=rng.uniform(0.5, 1.0),
            bios_factor=rng.uniform(0.9, 1.0),
            rule=PolicyRule(rng.random()),
        )
        assert point.benchmarks is config.benchmarks
        results.append(run_scenario(point))
    sweep_threshold(config, np.linspace(0.0, 1.0, 1001))
    assert len(builds) == 1 and builds[0] is config.benchmarks
    assert len({r.mean_power_kw for r in results}) == 200


def test_a_duplicated_row_raises_from_every_run_not_from_the_config(monkeypatch):
    rows = (
        AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.9, 0.8),
        AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.8, 0.8),
    )
    config = _tiny_config(benchmarks=rows, mix=JobMix({"a": 1.0}))
    builds = _counting_row_builds(monkeypatch)
    points = [config, config, replace(config, rule=PolicyRule(0.5), utilization=0.5)]
    for point in points:
        with pytest.raises(DomainError, match=r"^duplicate benchmark for app 'a'$"):
            run_scenario(point)
    with pytest.raises(DomainError, match=r"^duplicate benchmark for app 'a'$"):
        sweep_threshold(config, [0.0, 0.5])
    assert len(builds) == 4


def test_a_loaded_table_builds_its_row_map_once(monkeypatch):
    builds = _counting_row_builds(monkeypatch)
    table = load_benchmark_table(data_path("table4_freq.csv"))
    assert len(builds) == 1 and builds[0] is table
    assert freq_policy.BenchmarkTable(table) is table
    weights = JobMix.equal(sorted(table.rows)).weights
    fleets = {fleet_ratios(table, weights, PolicyRule(t)) for t in (0.0, 0.1, 0.1, 1.0)}
    config = _tiny_config(benchmarks=table, mix=JobMix(weights))
    assert config.benchmarks is table
    run_scenario(config)
    assert len(builds) == 1 and len(fleets) == 3
    # a bare sequence gets a new table, so a build, on every call
    fleet_ratios(list(table), weights, PolicyRule(0.1))
    fleet_ratios(list(table), weights, PolicyRule(0.1))
    assert len(builds) == 3


def test_a_duplicated_bios_row_is_refused_in_one_wording(tmp_path):
    rows = (
        AppBenchmark("a", 1, Intervention.BIOS_DETERMINISM, 0.99, 0.9),
        AppBenchmark("a", 1, Intervention.FREQ_CAP_2000, 0.9, 0.8),
        AppBenchmark("a", 2, Intervention.BIOS_DETERMINISM, 0.98, 0.9),
    )
    message = r"^duplicate benchmark for app 'a'$"
    with pytest.raises(DomainError, match=message):
        fleet_ratios(rows, {"a": 1.0}, PolicyRule(0.1))
    with pytest.raises(DomainError, match=message):
        run_scenario(_tiny_config(benchmarks=rows, mix=JobMix({"a": 1.0})))
    path = tmp_path / "dup.csv"
    path.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "a,1,bios_determinism,0.99,0.9\n"
        "a,1,freq_cap_2000,0.9,0.8\n"
        "a,2,bios_determinism,0.98,0.9\n"
    )
    with pytest.raises(DomainError) as info:
        load_benchmark_table(path)
    assert str(info.value) == f"{path}: duplicate benchmark for app 'a'"


@pytest.mark.parametrize("made_by", ["copy", "pickle"])
def test_a_copied_loaded_table_keeps_its_rows_and_row_map(monkeypatch, made_by):
    table = load_benchmark_table(data_path("table4_freq.csv"))
    builds = _counting_row_builds(monkeypatch)
    twin = copy.copy(table) if made_by == "copy" else pickle.loads(pickle.dumps(table))
    assert type(twin) is freq_policy.BenchmarkTable
    assert twin == table and twin.rows == table.rows
    assert list(twin.rows) == list(table.rows)
    weights = JobMix.equal(sorted(twin.rows)).weights
    assert fleet_ratios(twin, weights, PolicyRule(0.1)) == fleet_ratios(
        table, weights, PolicyRule(0.1)
    )
    assert builds == []


def test_sweep_over_numpy_thresholds_encodes_like_python_floats(stacked_config):
    thresholds = np.linspace(0.0, 1.0, 41)

    def encoded(sweep):
        return json.dumps([[float(t), result_to_dict(result)] for t, result in sweep])

    numpy_sweep = sweep_threshold(stacked_config, thresholds)
    assert encoded(numpy_sweep) == encoded(sweep_threshold(stacked_config, thresholds.tolist()))
    assert {type(d.reverted) for _, r in numpy_sweep for d in r.decisions} == {bool}


def test_job_mix_validation():
    with pytest.raises(DomainError, match="sum to 1"):
        JobMix({"a": 0.4, "b": 0.4})
    with pytest.raises(DomainError, match=">= 0"):
        JobMix({"a": 1.5, "b": -0.5})
    with pytest.raises(DomainError):
        JobMix.equal([])


def test_scenario_config_validation():
    with pytest.raises(DomainError):
        _tiny_config(utilization=1.2)
    with pytest.raises(DomainError):
        _tiny_config(duration_hours=0.0)
    with pytest.raises(DomainError):
        _tiny_config(bios_factor=0.0)


def test_run_scenario_requires_compute_component():
    model = SystemModel("nocompute", (ComponentSpec("x", 1, 1.0, 2.0),), None)
    with pytest.raises(DomainError, match="compute"):
        run_scenario(_tiny_config(model=model))


def test_run_scenario_rejects_mix_without_benchmark():
    with pytest.raises(DomainError, match="unknown app"):
        run_scenario(_tiny_config(mix=JobMix({"fast": 0.5, "mystery": 0.5})))


def test_run_scenario_past_the_float_range_raises_where_the_product_is_made():
    # some 5e5 kWh at 1e308 g/kWh: scope-2 is past the float range in either order
    with pytest.raises(DomainError, match="^energy or emissions exceed the float range: "):
        run_scenario(
            _tiny_config(duration_hours=1e4, carbon=CarbonIntensityProfile.constant(1e308))
        )
    model = SystemModel("huge", (ComponentSpec("nodes", 2, 1e308, 1e308),), "nodes")
    with pytest.raises(DomainError, match="^model 'huge': total power exceeds the float range"):
        run_scenario(_tiny_config(model=model))


def test_load_config_rejects_unknown_field(tmp_path):
    doc = json.loads(data_path("baseline_scenario.json").read_text())
    doc["model"] = str(data_path("archer2_system.json"))
    doc["benchmarks"] = str(data_path("table4_freq.csv"))
    doc["pue"] = 1.2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="pue"):
        load_scenario_config(path)


def test_load_config_missing_field(tmp_path):
    doc = json.loads(data_path("baseline_scenario.json").read_text())
    del doc["carbon"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="carbon"):
        load_scenario_config(path)


def test_load_config_inline_mix_and_series_profile(tmp_path):
    (tmp_path / "intensity.csv").write_text(
        "timestamp,intensity_g_per_kwh\n2022-01-01T00:00:00Z,80\n"
    )
    doc = {
        "name": "custom",
        "model": str(data_path("archer2_system.json")),
        "benchmarks": str(data_path("table4_freq.csv")),
        "mix": {"VASP CdTe": 0.5, "LAMMPS Ethanol": 0.5},
        "rule": {"perf_loss_threshold": 0.10},
        "utilization": 0.9,
        "duration_hours": 6.0,
        "carbon": {"series_csv": "intensity.csv"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = load_scenario_config(path)
    result = run_scenario(config)
    assert result.name == "custom"
    assert len(result.decisions) == 2
    assert result.emissions.scope2_kg == pytest.approx(result.energy_kwh * 80.0 / 1000.0)


def test_bundled_stacked_config_uses_calibrated_bios_factor(stacked_config):
    assert stacked_config.bios_factor == BIOS_DETERMINISM_POWER_FACTOR


def test_result_dict_json_roundtrip(stacked_config):
    doc = result_to_dict(run_scenario(stacked_config))
    text = json.dumps(doc, indent=2)
    assert json.loads(text) == doc


def _reference_result_dict(result):
    """result_to_dict as it was written out field by field before to_json."""
    return {
        "name": result.name,
        "mean_power_kw": result.mean_power_kw,
        "per_component": dict(result.breakdown.per_component),
        "energy_kwh": result.energy_kwh,
        "duration_hours": result.duration_hours,
        "emissions": {
            "scope2_kg": result.emissions.scope2_kg,
            "scope3_kg": result.emissions.scope3_kg,
            "total_kg": result.emissions.total_kg,
            "scope3_unset": result.scope3_unset,
        },
        "throughput_index": result.throughput_index,
        "decisions": [
            {
                "app_name": d.app_name,
                "default_setting": d.default_setting.value,
                "reverted": d.reverted,
                "perf_loss": d.perf_loss,
                "energy_saving": d.energy_saving,
            }
            for d in result.decisions
        ],
    }


def test_sweep_monotonicity_randomized():
    rng = random.Random(59)
    for case in range(50):
        n = rng.randint(2, 5)
        benchmarks = tuple(
            AppBenchmark(
                f"app{i}", rng.randint(1, 8), Intervention.FREQ_CAP_2000,
                rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0),
            )
            for i in range(n)
        )
        raw = [rng.random() + 0.01 for _ in range(n)]
        total = sum(raw)
        mix = JobMix({b.app_name: w / total for b, w in zip(benchmarks, raw)})
        # every other case has embodied emissions, so both scope-3 forms are encoded
        embodied = EmbodiedEmissions(1e6, 50_000.0) if case % 2 else None
        config = _tiny_config(benchmarks=benchmarks, mix=mix, embodied=embodied)
        thresholds = sorted(rng.random() for _ in range(3))
        runs = sweep_threshold(config, thresholds)
        energies = [r.energy_kwh for _, r in runs]
        throughputs = [r.throughput_index for _, r in runs]
        assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(throughputs, throughputs[1:]))
        for _, result in runs:
            assert json.dumps(result_to_dict(result), indent=2) == json.dumps(
                _reference_result_dict(result), indent=2
            )
