"""The scenario path against the implementations it replaced.

`apply_power_factor`, `recommend`, `fleet_ratios` and `sweep_threshold` once
built a `dataclasses.replace` copy per factor, a `derived_ratios` object per
kept app and a tuple of comparisons per threshold. Those bodies are kept here as
references; the package's versions must give equal results, and equal errors,
on random inputs.
"""

import copy
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattplan import simulator
from wattplan.datafiles import to_json
from wattplan.emissions import CarbonIntensityProfile, lifetime_emissions
from wattplan.errors import DomainError
from wattplan.freq_policy import (
    AppBenchmark,
    FleetRatios,
    FrequencySetting,
    Intervention,
    JobMix,
    PolicyDecision,
    PolicyRule,
    fleet_ratios,
    recommend,
)
from wattplan.power_model import (
    ComponentSpec,
    FactorMode,
    LoadResponse,
    PowerBreakdown,
    SystemModel,
    apply_power_factor,
    component_power,
)
from wattplan.simulator import (
    ScenarioConfig,
    ScenarioResult,
    result_to_dict,
    run_scenario,
    sweep_threshold,
)

FREQ = Intervention.FREQ_CAP_2000
BIOS = Intervention.BIOS_DETERMINISM


# -- the reference implementations ------------------------------------------


def replace_apply_power_factor(
    model: SystemModel, component: str, factor: float, mode: FactorMode
) -> SystemModel:
    """Reference apply_power_factor: two `dataclasses.replace` copies."""
    if not (math.isfinite(factor) and factor >= 0):
        raise DomainError(f"power factor must be >= 0, got {factor}")
    spec = model.component(component)
    if mode is FactorMode.WHOLE_DRAW:
        scaled = replace(
            spec,
            idle_kw_per_unit=spec.idle_kw_per_unit * factor,
            loaded_kw_per_unit=spec.loaded_kw_per_unit * factor,
        )
    else:
        dynamic = spec.loaded_kw_per_unit - spec.idle_kw_per_unit
        scaled = replace(spec, loaded_kw_per_unit=spec.idle_kw_per_unit + dynamic * factor)
    components = tuple(scaled if c.name == component else c for c in model.components)
    return replace(model, components=components)


def derived_ratios(benchmark: AppBenchmark) -> SimpleNamespace:
    """Loss/saving fractions and the mean-power ratio implied by a benchmark.

    Mean power scales as energy over runtime, and runtime scales as 1/perf,
    so power_ratio = energy_ratio * perf_ratio.
    """
    return SimpleNamespace(
        perf_loss=1.0 - benchmark.perf_ratio,
        energy_saving=1.0 - benchmark.energy_ratio,
        power_ratio=benchmark.energy_ratio * benchmark.perf_ratio,
    )


def derived_recommend(benchmark: AppBenchmark, rule: PolicyRule) -> PolicyDecision:
    """Reference recommend: a fresh decision from `derived_ratios` per call."""
    if benchmark.intervention is not Intervention.FREQ_CAP_2000:
        raise DomainError(
            f"policy recommendations need {Intervention.FREQ_CAP_2000.value} benchmarks; "
            f"{benchmark.app_name!r} records {benchmark.intervention.value}"
        )
    ratios = derived_ratios(benchmark)
    reverted = ratios.perf_loss > rule.perf_loss_threshold
    return PolicyDecision(
        app_name=benchmark.app_name,
        default_setting=FrequencySetting.F2250_TURBO if reverted else FrequencySetting.F2000,
        reverted=reverted,
        perf_loss=ratios.perf_loss,
        energy_saving=ratios.energy_saving,
    )


def derived_fleet_ratios(benchmarks, weights: dict[str, float], rule: PolicyRule) -> FleetRatios:
    """Reference fleet_ratios: `derived_recommend` and `derived_ratios` per app."""
    rows: dict[str, AppBenchmark] = {}
    for bench in benchmarks:
        app = bench.app_name
        if bench.intervention is not Intervention.FREQ_CAP_2000:
            rows.setdefault(app, bench)
        elif app in rows and rows[app].intervention is Intervention.FREQ_CAP_2000:
            raise DomainError(f"duplicate benchmark for app {app!r}")
        else:
            rows[app] = bench
    JobMix(weights)  # raises unless the weights are a valid mix
    for app in weights:
        if app not in rows:
            raise DomainError(f"unknown app in weights: {app!r}")

    fleet_power = 0.0
    fleet_throughput = 0.0
    decisions: list[PolicyDecision] = []
    for app, source in rows.items():
        if app not in weights:
            continue
        decision = derived_recommend(source, rule)
        decisions.append(decision)
        weight = weights[app]
        if decision.reverted:
            fleet_power += weight
            fleet_throughput += weight
        else:
            ratios = derived_ratios(source)
            fleet_power += weight * ratios.power_ratio
            fleet_throughput += weight * source.perf_ratio
    return FleetRatios(
        fleet_power_ratio=fleet_power,
        fleet_throughput_ratio=fleet_throughput,
        decisions=tuple(decisions),
    )


def tuple_key_sweep_threshold(config: ScenarioConfig, thresholds):
    """Reference sweep_threshold: each threshold keyed by the tuple of its
    `perf_loss > threshold` tests."""
    thresholds = list(thresholds)
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise DomainError(f"threshold must be within [0, 1], got {threshold}")
    losses = [
        derived_ratios(b).perf_loss
        for b in config.benchmarks
        if b.intervention is Intervention.FREQ_CAP_2000
    ]
    by_decisions = {}
    results = []
    for threshold in sorted(thresholds):
        key = tuple(loss > threshold for loss in losses)
        if key not in by_decisions:
            by_decisions[key] = simulator.run_scenario(replace(config, rule=PolicyRule(threshold)))
        results.append((threshold, by_decisions[key]))
    return results


def _outcome(function, *args):
    try:
        return function(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def _on_reference_pieces(function, *args):
    """The outcome of function with the simulator calling the reference
    apply_power_factor, and derived_fleet_ratios on the rows of the row map in
    place of fleet_of_rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "apply_power_factor", replace_apply_power_factor)
        patch.setattr(
            simulator, "fleet_of_rows",
            lambda rows, weights, rule: derived_fleet_ratios(tuple(rows.values()), weights, rule),
        )
        return _outcome(function, *args)


# -- strategies -------------------------------------------------------------

_draw_kw = st.floats(0.0, 5.0) | st.sampled_from([0.0, 1e300])
_factors = st.floats(0.0, 3.0) | st.sampled_from(
    [0.0, 1.0, 0.935, 1e300, -0.5, -1e-300, math.nan, math.inf]
)


@st.composite
def _models(draw):
    """A model of one to four components, one of them the compute component."""
    components = []
    for i in range(draw(st.integers(1, 4))):
        idle = draw(_draw_kw)
        response = draw(st.sampled_from(LoadResponse))
        components.append(
            ComponentSpec(f"c{i}", draw(st.integers(1, 6000)), idle, idle + draw(_draw_kw), response)
        )
    compute = draw(st.sampled_from([c.name for c in components]))
    return SystemModel("model", tuple(components), compute)


@st.composite
def _tables(draw):
    """(benchmarks, weights): a freq-cap row, a BIOS row or both per app, now
    and then a second freq-cap row; the mix may leave apps out, name one the
    table lacks or not sum to 1."""
    ratio = st.floats(0.05, 1.5) | st.sampled_from([0.9, 0.75, 1.0])
    kinds = st.sampled_from(["f"] * 8 + ["fb", "bf", "b", "ff"])
    benchmarks, weights = [], {}
    for i in range(draw(st.integers(1, 5))):
        app = f"app{i}"
        for kind in draw(kinds):
            intervention = FREQ if kind == "f" else BIOS
            benchmarks.append(AppBenchmark(app, 1, intervention, draw(ratio), draw(ratio)))
        if draw(st.integers(0, 4)):
            weights[app] = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0))
    if draw(st.integers(0, 9)) == 0:
        weights["ghost"] = draw(st.floats(0.0, 1.0))
    total = sum(weights.values())
    if total > 0 and draw(st.integers(0, 9)):
        weights = {app: weight / total for app, weight in weights.items()}
    return benchmarks, weights


def _thresholds(benchmarks):
    """Thresholds in [0, 1], often exactly at an app's perf loss or at 0 or 1."""
    losses = [1.0 - b.perf_ratio for b in benchmarks if 0.0 <= 1.0 - b.perf_ratio <= 1.0]
    return st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0] + losses)


# -- apply_power_factor -----------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    model=_models(),
    name=st.sampled_from(["c0", "c1", "c2", "c3"]),
    factors=st.lists(st.tuples(_factors, st.sampled_from(FactorMode)), min_size=1, max_size=3),
)
# the scenario's two steps: the BIOS factor on the whole draw, then the fleet
# ratio on the dynamic span
@example(
    model=SystemModel("m", (ComponentSpec("c0", 5860, 0.25, 0.5), ComponentSpec("c1", 10, 0.3, 0.3))),
    name="c0",
    factors=[(0.935, FactorMode.WHOLE_DRAW), (0.8, FactorMode.DYNAMIC_ONLY)],
)
def test_apply_power_factor_equals_the_replace_oracle(model, name, factors):
    actual, expected = model, model
    for factor, mode in factors:
        actual = _outcome(apply_power_factor, actual, name, factor, mode)
        expected = _outcome(replace_apply_power_factor, expected, name, factor, mode)
        assert actual == expected
        if isinstance(expected, tuple):
            return
        assert type(actual) is SystemModel
        assert all(type(c) is ComponentSpec for c in actual.components)
        # bit for bit, which == on floats does not tell for signed zeros
        assert repr(actual) == repr(expected)


# -- recommend and fleet_ratios ---------------------------------------------


@st.composite
def _fleet_cases(draw):
    benchmarks, weights = draw(_tables())
    threshold = draw(_thresholds(benchmarks))
    if draw(st.booleans()):
        threshold = np.float64(threshold)
    return benchmarks, weights, PolicyRule(threshold)


@settings(max_examples=500, deadline=None)
@given(case=_fleet_cases())
@example(case=([AppBenchmark("a", 1, FREQ, 0.9, 0.8)], {"a": 1.0}, PolicyRule(1.0 - 0.9)))
@example(case=([AppBenchmark("a", 1, FREQ, 0.9, 0.8)], {"a": 1.0}, PolicyRule(0.0)))
@example(case=([AppBenchmark("a", 1, FREQ, 0.1, 0.8)], {"a": 1.0}, PolicyRule(1.0)))
def test_recommend_and_fleet_ratios_equal_the_derived_oracles(case):
    benchmarks, weights, rule = case
    for bench in benchmarks:
        actual = _outcome(recommend, bench, rule)
        assert actual == _outcome(derived_recommend, bench, rule)
        # the same call again hands back the one shared decision
        if isinstance(actual, PolicyDecision):
            assert recommend(bench, rule) is actual
            assert type(actual.reverted) is bool
    actual = _outcome(fleet_ratios, benchmarks, weights, rule)
    assert actual == _outcome(derived_fleet_ratios, benchmarks, weights, rule)
    if isinstance(actual, FleetRatios):
        assert all(type(d.reverted) is bool for d in actual.decisions)


def test_cached_decisions_leave_the_benchmark_unchanged():
    bench = AppBenchmark("a", 4, FREQ, 0.85, 0.9)
    fresh = AppBenchmark("a", 4, FREQ, 0.85, 0.9)
    before = (hash(bench), repr(bench), pickle.dumps(bench), to_json(bench))
    kept = recommend(bench, PolicyRule(0.2))
    reverted = recommend(bench, PolicyRule(0.1))
    assert (kept.reverted, reverted.reverted) == (False, True)
    assert bench == fresh and fresh == bench
    assert (hash(bench), repr(bench), pickle.dumps(bench), to_json(bench)) == before
    assert pickle.dumps(bench) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(bench)), copy.copy(bench), copy.deepcopy(bench)):
        assert clone == bench
        assert recommend(clone, PolicyRule(0.2)) == kept
        assert recommend(clone, PolicyRule(0.1)) == reverted


# -- sweep_threshold ---------------------------------------------------------


@st.composite
def _sweep_cases(draw):
    benchmarks, weights = draw(_tables())
    points = draw(st.lists(_thresholds(benchmarks), max_size=12))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    return benchmarks, weights, draw(st.permutations(points))


def _tiny_config(benchmarks, weights):
    model = SystemModel(
        "tiny",
        (ComponentSpec("nodes", 100, 0.2, 0.5), ComponentSpec("switches", 10, 0.3, 0.3)),
        "nodes",
    )
    return ScenarioConfig(
        model=model,
        utilization=0.9,
        mix=JobMix(weights),
        benchmarks=tuple(benchmarks),
        rule=PolicyRule(0.10),
        duration_hours=12.0,
        carbon=CarbonIntensityProfile.constant(100.0),
        bios_factor=0.935,
    )


def _shared(sweep):
    """Which points of a sweep return the same result object."""
    return [[j for j, (_, other) in enumerate(sweep) if other is result] for _, result in sweep]


@settings(max_examples=300, deadline=None)
@given(case=_sweep_cases())
@example(
    case=(
        [
            AppBenchmark("a", 1, FREQ, 0.9, 0.8),
            AppBenchmark("b", 1, FREQ, 0.75, 0.9),
            AppBenchmark("z", 1, FREQ, 0.75, 0.7),
            AppBenchmark("c", 1, BIOS, 0.95, 0.9),
        ],
        {"a": 0.5, "b": 0.5, "z": 0.0},
        [1.0 - 0.75, 1.0, 1.0 - 0.9, 1.0 - 0.75, 0.0, 1.0 - 0.9],
    )
)
def test_sweep_equals_the_tuple_key_oracle(case):
    benchmarks, weights, thresholds = case
    try:
        config = _tiny_config(benchmarks, weights)
    except DomainError:
        return
    assert _outcome(run_scenario, config) == _on_reference_pieces(run_scenario, config)
    actual = _outcome(sweep_threshold, config, thresholds)
    expected = _on_reference_pieces(tuple_key_sweep_threshold, config, thresholds)
    assert actual == expected
    if isinstance(expected, list):
        assert _shared(actual) == _shared(expected)
        assert [result_to_dict(r) for _, r in actual] == [result_to_dict(r) for _, r in expected]


# -- the config path ---------------------------------------------------------
#
# A config's table keeps its row map across runs and `replace`, so the config
# path calls `simulator.fleet_of_rows` on a map that was checked once. These
# bodies take the config's fields as plain inputs on every call instead.


def plain_fleet_ratios(benchmarks, weights: dict[str, float], rule: PolicyRule) -> FleetRatios:
    """Reference fleet_ratios: the row map, its duplicate check and the mix
    check on every call, then `recommend` per weighted app."""
    rows: dict[str, AppBenchmark] = {}
    for bench in benchmarks:
        app = bench.app_name
        if bench.intervention is not Intervention.FREQ_CAP_2000:
            rows.setdefault(app, bench)
        elif app in rows and rows[app].intervention is Intervention.FREQ_CAP_2000:
            raise DomainError(f"duplicate benchmark for app {app!r}")
        else:
            rows[app] = bench
    JobMix(weights)  # raises unless the weights are a valid mix
    for app in weights:
        if app not in rows:
            raise DomainError(f"unknown app in weights: {app!r}")

    fleet_power = 0.0
    fleet_throughput = 0.0
    decisions: list[PolicyDecision] = []
    for app, source in rows.items():
        if app not in weights:
            continue
        decision = recommend(source, rule)
        decisions.append(decision)
        weight = weights[app]
        if decision.reverted:
            fleet_power += weight
            fleet_throughput += weight
        else:
            fleet_power += weight * (source.energy_ratio * source.perf_ratio)
            fleet_throughput += weight * source.perf_ratio
    return FleetRatios(
        fleet_power_ratio=fleet_power,
        fleet_throughput_ratio=fleet_throughput,
        decisions=tuple(decisions),
    )


def reference_run_scenario(config: ScenarioConfig, rule: PolicyRule | None = None):
    """Reference run_scenario: `plain_fleet_ratios` on the config's benchmarks
    and mix weights, with the reference apply_power_factor and system_power."""
    if config.model.compute_component is None:
        raise DomainError(f"model {config.model.name!r} has no compute component to scale")
    compute = config.model.compute_component
    model = replace_apply_power_factor(
        config.model, compute, config.bios_factor, FactorMode.WHOLE_DRAW
    )
    fleet = plain_fleet_ratios(tuple(config.benchmarks), config.mix.weights, rule or config.rule)
    model = replace_apply_power_factor(
        model, compute, fleet.fleet_power_ratio, FactorMode.DYNAMIC_ONLY
    )
    breakdown = reference_system_power(model, config.utilization)
    emissions = lifetime_emissions(
        breakdown.total_kw, config.duration_hours, config.carbon, config.embodied
    )
    return ScenarioResult(
        name=config.name,
        mean_power_kw=breakdown.total_kw,
        breakdown=breakdown,
        energy_kwh=breakdown.total_kw * config.duration_hours,
        emissions=emissions,
        scope3_unset=config.embodied is None,
        throughput_index=fleet.fleet_throughput_ratio,
        decisions=fleet.decisions,
        duration_hours=config.duration_hours,
    )


def reference_system_power(model: SystemModel, utilization: float) -> PowerBreakdown:
    """Reference system_power: component_power, with its utilization check, per
    component. The draws are added one by one, in component order, as sum()
    does only before Python 3.12."""
    per_component = {c.name: component_power(c, utilization) for c in model.components}
    total_kw = 0
    for draw in per_component.values():
        total_kw += draw
    if not math.isfinite(total_kw):
        raise DomainError(
            f"model {model.name!r}: total power exceeds the float range "
            f"at utilization {utilization}"
        )
    return PowerBreakdown(per_component=per_component, total_kw=total_kw)


def reference_sweep_threshold(config: ScenarioConfig, thresholds):
    """Reference sweep_threshold: the reference scenario at every threshold."""
    thresholds = list(thresholds)
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise DomainError(f"threshold must be within [0, 1], got {threshold}")
    return [
        (threshold, reference_run_scenario(config, PolicyRule(threshold)))
        for threshold in sorted(thresholds)
    ]


@st.composite
def _config_cases(draw):
    benchmarks, weights = draw(_tables())
    threshold = draw(_thresholds(benchmarks))
    if draw(st.booleans()):
        threshold = np.float64(threshold)
    return SimpleNamespace(
        model=draw(_models()),
        benchmarks=benchmarks,
        weights=weights,
        rule=PolicyRule(threshold),
        utilization=draw(st.floats(0.0, 1.0)),
        bios_factor=draw(st.floats(0.05, 3.0) | st.sampled_from([0.935, 1.0, 1e300])),
        thresholds=draw(st.lists(_thresholds(benchmarks), max_size=8)),
        made_by=draw(st.sampled_from(["init", "replace", "retable", "copy", "pickle"])),
    )


_OTHER_TABLE = (AppBenchmark("other", 1, FREQ, 0.9, 0.8),)


def _config_made_by(case, mix: JobMix) -> ScenarioConfig:
    """The case's config, made as case.made_by says; all but "init" make it from
    a config that has run first, so any table it shares has built what it can."""
    fields = dict(
        model=case.model,
        utilization=case.utilization,
        mix=mix,
        benchmarks=case.benchmarks,
        rule=case.rule,
        duration_hours=12.0,
        carbon=CarbonIntensityProfile.constant(100.0),
        bios_factor=case.bios_factor,
    )
    if case.made_by == "retable":
        other = ScenarioConfig(**{
            **fields, "benchmarks": _OTHER_TABLE, "mix": JobMix({"other": 1.0})
        })
        _outcome(run_scenario, other)
        return replace(other, benchmarks=case.benchmarks, mix=mix)
    config = ScenarioConfig(**fields)
    if case.made_by == "init":
        return config
    first = replace(config, rule=PolicyRule(0.5), utilization=0.5, bios_factor=1.0)
    _outcome(run_scenario, first)
    _outcome(sweep_threshold, first, [0.0, 0.25, 1.0])
    if case.made_by == "replace":
        return replace(first, rule=case.rule, utilization=case.utilization,
                       bios_factor=case.bios_factor)
    _outcome(run_scenario, config)
    if case.made_by == "copy":
        return copy.copy(config)
    return pickle.loads(pickle.dumps(config))


def _mixed_case(made_by):
    """A BIOS row before one app's freq-cap row, and an unweighted BIOS-only app."""
    return SimpleNamespace(
        model=SystemModel("m", (ComponentSpec("c0", 5860, 0.25, 0.5),), "c0"),
        benchmarks=[
            AppBenchmark("a", 1, FREQ, 0.9, 0.8),
            AppBenchmark("b", 1, BIOS, 0.95, 0.9),
            AppBenchmark("b", 1, FREQ, 0.75, 0.9),
            AppBenchmark("c", 1, BIOS, 0.95, 0.9),
        ],
        weights={"a": 0.5, "b": 0.5},
        rule=PolicyRule(0.1),
        utilization=0.92,
        bios_factor=0.935,
        thresholds=[1.0 - 0.75, 0.0, 1.0, 1.0 - 0.9],
        made_by=made_by,
    )


@settings(max_examples=400, deadline=None)
@given(case=_config_cases())
@example(case=_mixed_case("replace"))
@example(case=_mixed_case("pickle"))
def test_config_path_equals_the_bodies_that_took_plain_inputs(case):
    try:
        mix = JobMix(case.weights)
    except DomainError:
        return  # no config holds weights that are not a mix
    config = _config_made_by(case, mix)
    expected = _outcome(reference_run_scenario, config)
    assert repr(_outcome(run_scenario, config)) == repr(expected)
    # the second run reads what the first built
    assert repr(_outcome(run_scenario, config)) == repr(expected)
    expected = _outcome(reference_sweep_threshold, config, case.thresholds)
    assert repr(_outcome(sweep_threshold, config, case.thresholds)) == repr(expected)
