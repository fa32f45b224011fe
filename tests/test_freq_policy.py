import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattplan.datafiles import data_path
from wattplan.errors import DataFormatError, DomainError
from wattplan.freq_policy import (
    AppBenchmark,
    FleetRatios,
    FrequencySetting,
    Intervention,
    JobMix,
    PolicyDecision,
    PolicyRule,
    fleet_ratios,
    load_benchmark_table,
    recommend,
)

FREQ = Intervention.FREQ_CAP_2000
BIOS = Intervention.BIOS_DETERMINISM


def _bench(app, perf, energy, intervention=FREQ, nodes=4):
    return AppBenchmark(app, nodes, intervention, perf, energy)


@pytest.fixture(scope="module")
def table4():
    return load_benchmark_table(data_path("table4_freq.csv"))


@pytest.fixture(scope="module")
def table3():
    return load_benchmark_table(data_path("table3_bios.csv"))


def _equal_weights(benchmarks):
    apps = [b.app_name for b in benchmarks]
    return {app: 1.0 / len(apps) for app in apps}


def test_recommend_keeps_castep():
    decision = recommend(_bench("CASTEP Al Slab", 0.93, 0.88), PolicyRule(0.10))
    assert not decision.reverted
    assert decision.default_setting is FrequencySetting.F2000
    assert decision.perf_loss == pytest.approx(0.07)


def test_recommend_reverts_lammps():
    decision = recommend(_bench("LAMMPS Ethanol", 0.74, 0.92), PolicyRule(0.10))
    assert decision.reverted
    assert decision.default_setting is FrequencySetting.F2250_TURBO
    assert decision.perf_loss == pytest.approx(0.26)


def test_recommend_boundary_is_strict():
    decision = recommend(_bench("edge", 0.90, 0.90), PolicyRule(0.10))
    assert not decision.reverted
    assert decision.default_setting is FrequencySetting.F2000


def test_recommend_rejects_bios_benchmark():
    with pytest.raises(DomainError, match="bios_determinism"):
        recommend(_bench("VASP TiO2", 0.99, 0.93, intervention=BIOS), PolicyRule(0.10))


def test_recommend_monotone_in_threshold():
    rng = random.Random(41)
    for _ in range(200):
        bench = _bench("app", rng.uniform(0.3, 1.1), rng.uniform(0.5, 1.1))
        t1, t2 = sorted((rng.random(), rng.random()))
        lower = recommend(bench, PolicyRule(t1))
        higher = recommend(bench, PolicyRule(t2))
        # raising the threshold never converts a kept app into a reverted one
        assert not (higher.reverted and not lower.reverted)


def test_policy_rule_validation():
    with pytest.raises(DomainError):
        PolicyRule(-0.1)
    with pytest.raises(DomainError):
        PolicyRule(1.5)


def test_benchmark_validation():
    with pytest.raises(DomainError):
        _bench("x", 0.0, 0.9)
    with pytest.raises(DomainError):
        _bench("x", 0.9, -0.1)
    with pytest.raises(DomainError):
        _bench("x", 0.9, 0.9, nodes=0)
    with pytest.raises(DomainError):
        _bench("", 0.9, 0.9)


def test_fleet_reverted_set_at_default_threshold(table4):
    fleet = fleet_ratios(table4, _equal_weights(table4), PolicyRule(0.10))
    reverted = {d.app_name for d in fleet.decisions if d.reverted}
    assert reverted == {"GROMACS 1400k", "LAMMPS Ethanol", "Nektar++ TGV 128 DoF"}
    assert fleet.fleet_power_ratio == pytest.approx(0.8935857142857143)
    assert fleet.fleet_throughput_ratio == pytest.approx(0.9585714285714285)


def test_fleet_no_reverts_at_threshold_one(table4):
    fleet = fleet_ratios(table4, _equal_weights(table4), PolicyRule(1.0))
    assert not any(d.reverted for d in fleet.decisions)
    assert fleet.fleet_power_ratio == pytest.approx(0.7627857142857143)
    assert fleet.fleet_throughput_ratio == pytest.approx(0.8685714285714285)


def test_fleet_all_weight_on_reverted_app(table4):
    fleet = fleet_ratios(table4, {"LAMMPS Ethanol": 1.0}, PolicyRule(0.10))
    assert fleet.fleet_power_ratio == 1.0
    assert fleet.fleet_throughput_ratio == 1.0
    assert len(fleet.decisions) == 1


def test_fleet_rejects_unnormalized_weights(table4):
    weights = _equal_weights(table4)
    weights["VASP CdTe"] += 0.5
    with pytest.raises(DomainError, match="sum to 1"):
        fleet_ratios(table4, weights, PolicyRule(0.10))


def test_fleet_rejects_negative_weight(table4):
    weights = dict.fromkeys((b.app_name for b in table4), 0.0)
    weights["VASP CdTe"] = 1.5
    weights["CP2K H2O 2048"] = -0.5
    with pytest.raises(DomainError, match=">= 0"):
        fleet_ratios(table4, weights, PolicyRule(0.10))


def test_fleet_rejects_unknown_app(table4):
    with pytest.raises(DomainError, match="unknown app"):
        fleet_ratios(table4, {"NAMD STMV": 1.0}, PolicyRule(0.10))


def test_fleet_bios_only_app_raises(table3):
    with pytest.raises(DomainError, match="bios_determinism"):
        fleet_ratios(table3, {"VASP TiO2": 1.0}, PolicyRule(0.10))


def test_equal_mix_counts_each_distinct_app_once(table3, table4):
    assert JobMix.equal(["a", "a"]).weights == {"a": 1.0}
    assert JobMix.equal(["b", "a", "b"]).weights == {"b": 0.5, "a": 0.5}
    # the README's idiom, over a table that holds both the BIOS and the freq-cap rows
    table = table3 + table4
    apps = {b.app_name for b in table}
    assert len(table) > len(apps)
    mix = JobMix.equal([b.app_name for b in table])
    assert mix.weights == dict.fromkeys([b.app_name for b in table], 1.0 / len(apps))


def test_fleet_power_ratio_bounds_property():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 8)
        benchmarks = [
            _bench(f"app{i}", rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)) for i in range(n)
        ]
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        weights = {b.app_name: w / total for b, w in zip(benchmarks, raw)}
        fleet = fleet_ratios(benchmarks, weights, PolicyRule(rng.random()))
        floor = min(b.energy_ratio * b.perf_ratio for b in benchmarks)
        assert floor - 1e-9 <= fleet.fleet_power_ratio <= 1.0 + 1e-9
        # power ratio = energy * perf <= perf when energy <= 1
        assert fleet.fleet_throughput_ratio >= fleet.fleet_power_ratio - 1e-9


def test_fleet_all_reverted_gives_unity():
    benchmarks = [_bench("a", 0.5, 0.9), _bench("b", 0.6, 0.8)]
    fleet = fleet_ratios(benchmarks, {"a": 0.5, "b": 0.5}, PolicyRule(0.0))
    assert fleet.fleet_power_ratio == pytest.approx(1.0)
    assert fleet.fleet_throughput_ratio == pytest.approx(1.0)


def _fleet_ratios_oracle(
    benchmarks, weights: dict[str, float], rule: PolicyRule
) -> FleetRatios:
    """Reference fleet_ratios: the body that checked the weights itself, before
    it built a JobMix, kept word for word."""
    benchmarks = list(benchmarks)
    by_app: dict[str, AppBenchmark] = {}
    for bench in benchmarks:
        if bench.intervention is not Intervention.FREQ_CAP_2000:
            continue
        if bench.app_name in by_app:
            raise DomainError(f"duplicate benchmark for app {bench.app_name!r}")
        by_app[bench.app_name] = bench
    all_apps = {b.app_name for b in benchmarks}

    for app, weight in weights.items():
        if not (math.isfinite(weight) and weight >= 0):
            raise DomainError(f"weight for {app!r} must be >= 0, got {weight}")
        if app not in all_apps:
            raise DomainError(f"unknown app in weights: {app!r}")
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"weights must sum to 1 within 1e-9, got {total!r}")

    fleet_power = 0.0
    fleet_throughput = 0.0
    decisions: list[PolicyDecision] = []
    decided: set[str] = set()
    for bench in benchmarks:
        app = bench.app_name
        if app not in weights or app in decided:
            continue
        decided.add(app)
        # prefer the app's freq-cap row; recommend() rejects any other kind
        source = by_app.get(app, bench)
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


_BAD_SUM = "weights must sum to 1 within 1e-9, got "


def _error(exc: DomainError):
    """Type and message without JobMix's `mix ` prefix. A bad sum's total is
    kept as a float: the oracle's `sum` of no weights prints int 0, and from
    Python 3.12 `sum` compensates, so its last digits may differ."""
    message = str(exc).removeprefix("mix ")
    if message.startswith(_BAD_SUM):
        return type(exc), _BAD_SUM, float(message[len(_BAD_SUM):])
    return type(exc), message


def _fleet_outcome(fleet, benchmarks, weights, rule):
    try:
        return fleet(benchmarks, weights, rule)
    except DomainError as exc:
        return _error(exc)


@st.composite
def _fleet_cases(draw):
    """(benchmarks, weights, rule) over a random table and mix.

    An app has a freq-cap row, a BIOS row or both, in either order, and now
    and then a second freq-cap row. The mix may leave apps out, give them zero
    weight, name an app the table lacks, hold a negative or non-finite weight
    or not sum to 1, and its order is shuffled.
    """
    ratio = st.floats(0.05, 1.5)
    kinds = st.sampled_from(["f"] * 10 + ["b"] * 2 + ["fb"] * 3 + ["bf"] * 3 + ["ff", "fbf"])
    benchmarks, weights = [], {}
    for i in range(draw(st.integers(1, 5))):
        app = f"app{i}"
        for kind in draw(kinds):
            intervention = FREQ if kind == "f" else BIOS
            benchmarks.append(AppBenchmark(app, 1, intervention, draw(ratio), draw(ratio)))
        if draw(st.integers(0, 4)):
            weights[app] = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0))
    flaw = st.integers(0, 9).map(lambda n: n == 0)
    unknown, unnormalized, bad = draw(flaw), draw(flaw), draw(flaw)
    if unknown:
        weights["ghost"] = draw(st.floats(0.0, 1.0))
    total = sum(weights.values())
    if total > 0 and not unnormalized:
        weights = {app: weight / total for app, weight in weights.items()}
    if bad and weights:
        app = draw(st.sampled_from(sorted(weights)))
        weights[app] = draw(st.sampled_from([-0.5, -1e-300, math.nan, math.inf, -math.inf]))
    weights = dict(draw(st.permutations(list(weights.items()))))
    losses = [1.0 - b.perf_ratio for b in benchmarks if 0.0 <= 1.0 - b.perf_ratio <= 1.0]
    threshold = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0] + losses))
    return benchmarks, weights, PolicyRule(threshold)


@settings(max_examples=500, deadline=None)
@given(case=_fleet_cases())
# a duplicate freq-cap row and a bad weight: the row scan reports first
@example(case=([_bench("a", 0.9, 0.9), _bench("a", 0.8, 0.9)], {"a": math.nan}, PolicyRule()))
# an unknown app, then a bad weight: the mix's own check reports first now
@example(case=([_bench("a", 0.9, 0.9)], {"ghost": 0.5, "a": -0.5}, PolicyRule()))
# an unknown app in a mix that does not sum to 1, and an empty mix
@example(case=([_bench("a", 0.9, 0.9)], {"a": 1.0, "ghost": 0.5}, PolicyRule()))
@example(case=([_bench("a", 0.9, 0.9)], {}, PolicyRule()))
# a BIOS row before the freq-cap row, and a BIOS-only app with weight
@example(
    case=(
        [_bench("a", 0.9, 0.9, BIOS), _bench("a", 0.8, 0.9), _bench("b", 0.9, 0.9, BIOS)],
        {"a": 0.5, "b": 0.5},
        PolicyRule(),
    )
)
def test_fleet_ratios_equals_the_oracle(case):
    benchmarks, weights, rule = case
    expected = _fleet_outcome(_fleet_ratios_oracle, benchmarks, weights, rule)
    if isinstance(expected, tuple) and expected[1].startswith("unknown app"):
        # the mix is checked on its own before against the table, so a weight
        # fault after the unknown app, or a bad sum, is the one reported
        try:
            JobMix(weights)
        except DomainError as exc:
            expected = _error(exc)
    actual = _fleet_outcome(fleet_ratios, benchmarks, weights, rule)
    if isinstance(expected, tuple) and expected[1] == _BAD_SUM:
        assert actual[:2] == expected[:2]
        assert math.isclose(actual[2], expected[2], rel_tol=1e-12)
    else:
        assert actual == expected


def test_bundled_table4_contents(table4):
    assert len(table4) == 7
    cp2k = next(b for b in table4 if b.app_name == "CP2K H2O 2048")
    assert (cp2k.perf_ratio, cp2k.energy_ratio, cp2k.nodes) == (0.91, 0.93, 4)
    assert all(b.intervention is FREQ for b in table4)


def test_bundled_table3_contents(table3):
    assert len(table3) == 3
    opensbli = next(b for b in table3 if b.app_name == "OpenSBLI TGV 1024^3")
    assert (opensbli.perf_ratio, opensbli.energy_ratio, opensbli.nodes) == (1.00, 0.90, 32)
    assert all(b.intervention is BIOS for b in table3)


def test_bundled_table4_ratio_ranges(table4):
    losses = [1.0 - b.perf_ratio for b in table4]
    savings = [1.0 - b.energy_ratio for b in table4]
    assert min(losses) == pytest.approx(0.05)
    assert max(losses) == pytest.approx(0.26)
    assert min(savings) == pytest.approx(0.07)
    assert max(savings) == pytest.approx(0.20)


def test_bundled_table3_ratio_ranges(table3):
    losses = [1.0 - b.perf_ratio for b in table3]
    savings = [1.0 - b.energy_ratio for b in table3]
    assert max(losses) <= 0.01 + 1e-12
    assert min(savings) == pytest.approx(0.06)
    assert max(savings) == pytest.approx(0.10)


def test_load_table_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("app_name,nodes,intervention,perf_ratio,energy_ratio\n")
    assert load_benchmark_table(path) == ()


def test_load_table_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("app,nodes,perf,energy\n")
    with pytest.raises(DataFormatError, match="header"):
        load_benchmark_table(path)


def test_load_table_reports_line_number_for_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "GROMACS 1400k,3,freq_cap_2000,0.83,0.92\n"
        "LAMMPS Ethanol,four,freq_cap_2000,0.74,0.92\n"
    )
    with pytest.raises(DataFormatError, match="line 3"):
        load_benchmark_table(path)


def test_load_table_rejects_unknown_intervention(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "GROMACS 1400k,3,undervolt,0.83,0.92\n"
    )
    with pytest.raises(DataFormatError, match="undervolt"):
        load_benchmark_table(path)


def test_load_table_rejects_duplicate_records(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "GROMACS 1400k,3,freq_cap_2000,0.83,0.92\n"
        "GROMACS 1400k,6,freq_cap_2000,0.85,0.90\n"
    )
    with pytest.raises(DomainError, match="duplicate"):
        load_benchmark_table(path)


def test_fleet_ratio_past_the_float_range_names_the_kept_app():
    # 1e200 * 1e200 passes the float range; a zero weight on it makes nan
    big = _bench("big", 1e200, 1e200)
    message = (
        "^fleet power ratio exceeds the float range: "
        "kept app 'big' has energy_ratio 1e\\+200 and perf_ratio 1e\\+200$"
    )
    for weights in ({"big": 1.0}, {"a": 1.0, "big": 0.0}):
        with pytest.raises(DomainError, match=message):
            fleet_ratios([_bench("a", 0.9, 0.9), big], weights, PolicyRule(0.5))


def test_load_table_invariant_violation_is_domain_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "app_name,nodes,intervention,perf_ratio,energy_ratio\n"
        "GROMACS 1400k,3,freq_cap_2000,0.0,0.92\n"
    )
    with pytest.raises(DomainError):
        load_benchmark_table(path)
