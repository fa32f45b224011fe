import json
import random

import pytest

from wattplan.datafiles import data_path
from wattplan.errors import DataFormatError, DomainError
from wattplan.power_model import (
    ComponentSpec,
    FactorMode,
    LoadResponse,
    SystemModel,
    apply_power_factor,
    component_power,
    load_model,
    model_from_dict,
    model_to_dict,
    system_power,
)

COMPUTE = ComponentSpec("compute_nodes", 5860, 0.23, 0.51, LoadResponse.LINEAR)


def _archer2() -> SystemModel:
    return load_model(data_path("archer2_system.json"))


def _random_model(rng: random.Random) -> SystemModel:
    n = rng.randint(1, 6)
    components = []
    for i in range(n):
        idle = rng.uniform(0.0, 5.0)
        loaded = idle + rng.uniform(0.0, 5.0)
        components.append(
            ComponentSpec(
                name=f"part_{i}",
                count=rng.randint(1, 500),
                idle_kw_per_unit=idle,
                loaded_kw_per_unit=loaded,
                load_response=rng.choice([LoadResponse.LINEAR, LoadResponse.CONSTANT]),
            )
        )
    return SystemModel(
        name="random",
        components=tuple(components),
        compute_component=components[rng.randrange(n)].name,
    )


def test_component_power_compute_loaded():
    assert component_power(COMPUTE, 1.0) == pytest.approx(2988.6)


def test_component_power_compute_idle():
    assert component_power(COMPUTE, 0.0) == pytest.approx(1347.8)


def test_component_power_midpoint():
    assert component_power(COMPUTE, 0.5) == pytest.approx(2168.2)


def test_component_power_constant_ignores_utilization():
    switch = ComponentSpec("switches", 768, 0.25, 0.25, LoadResponse.CONSTANT)
    values = [component_power(switch, u) for u in (0.0, 0.3, 0.92, 1.0)]
    assert values == [pytest.approx(192.0)] * 4


def test_component_power_degenerate_interpolation():
    flat = ComponentSpec("flat", 10, 2.0, 2.0, LoadResponse.LINEAR)
    for u in (0.0, 0.25, 1.0):
        assert component_power(flat, u) == pytest.approx(20.0)


@pytest.mark.parametrize("utilization", [-0.1, 1.5, float("nan")])
def test_component_power_rejects_bad_utilization(utilization):
    with pytest.raises(DomainError) as err:
        component_power(COMPUTE, utilization)
    assert str(utilization) in str(err.value)


def test_component_spec_validation():
    with pytest.raises(DomainError):
        ComponentSpec("x", 0, 1.0, 2.0)
    with pytest.raises(DomainError):
        ComponentSpec("x", 1, -0.5, 2.0)
    with pytest.raises(DomainError):
        ComponentSpec("x", 1, 3.0, 2.0)
    with pytest.raises(DomainError):
        ComponentSpec("", 1, 1.0, 2.0)


def test_system_power_reference_totals():
    model = _archer2()
    loaded = system_power(model, 1.0).total_kw
    idle = system_power(model, 0.0).total_kw
    assert loaded == pytest.approx(3523.6)
    assert idle == pytest.approx(1779.3)
    assert abs(loaded - 3500.0) / 3500.0 < 0.02
    assert abs(idle - 1800.0) / 1800.0 < 0.02


def test_system_power_total_is_sum_of_components():
    model = _archer2()
    breakdown = system_power(model, 0.92)
    assert breakdown.total_kw == pytest.approx(sum(breakdown.per_component.values()), rel=1e-12)
    assert all(v >= 0 for v in breakdown.per_component.values())


def test_system_power_empty_model_total_zero():
    empty = SystemModel(name="empty", components=(), compute_component=None)
    assert system_power(empty, 0.5).total_kw == 0.0


def test_system_power_adds_the_draws_in_component_order_on_every_python():
    # sum() compensates float sums from Python 3.12 on, and would give 1.0
    tenths = [ComponentSpec(f"c{i}", 1, 0.1, 0.1, LoadResponse.CONSTANT) for i in range(10)]
    assert system_power(SystemModel("tenths", tenths), 0.5).total_kw == 0.9999999999999999


@pytest.mark.parametrize("utilization", [-0.1, 1.5, float("nan")])
def test_system_power_checks_the_utilization_without_components(utilization):
    empty = SystemModel(name="empty", components=(), compute_component=None)
    with pytest.raises(DomainError) as err:
        system_power(empty, utilization)
    assert str(err.value) == f"utilization must be within [0, 1], got {utilization}"
    with pytest.raises(DomainError) as err_with_one:
        system_power(SystemModel("one", (COMPUTE,)), utilization)
    assert str(err_with_one.value) == str(err.value)


def test_system_power_past_the_float_range_names_the_model_and_utilization():
    # each unit's draw is finite; the count times it is not
    model = SystemModel("huge", (ComponentSpec("nodes", 2, 1e308, 1e308),))
    with pytest.raises(
        DomainError, match=r"^model 'huge': total power exceeds the float range at utilization 0\.5$"
    ):
        system_power(model, 0.5)
    # so does a total of finite component draws
    model = SystemModel("huge", tuple(ComponentSpec(n, 1, 1e308, 1e308) for n in "ab"))
    with pytest.raises(DomainError, match="^model 'huge': total power exceeds"):
        system_power(model, 0.5)


def test_system_model_rejects_duplicate_names():
    with pytest.raises(DomainError):
        SystemModel(
            name="bad",
            components=(
                ComponentSpec("a", 1, 1.0, 2.0),
                ComponentSpec("a", 2, 1.0, 2.0),
            ),
        )


def test_system_model_rejects_unknown_compute_component():
    with pytest.raises(DomainError):
        SystemModel(
            name="bad",
            components=(ComponentSpec("a", 1, 1.0, 2.0),),
            compute_component="b",
        )


def test_apply_factor_identity_returns_equal_model():
    model = _archer2()
    assert apply_power_factor(model, "compute_nodes", 1.0, FactorMode.WHOLE_DRAW) == model


def test_apply_factor_bios_whole_draw_at_operating_utilization():
    model = _archer2()
    scaled = apply_power_factor(model, "compute_nodes", 0.935, FactorMode.WHOLE_DRAW)
    before = system_power(model, 0.92).total_kw
    after = system_power(scaled, 0.92).total_kw
    assert before == pytest.approx(3384.056)
    # compute nodes carry ~84% of the total, so a 6.5% cut there is ~5.5% overall
    assert (before - after) / before == pytest.approx(0.0548829, abs=1e-6)


def test_apply_factor_dynamic_zero_leaves_idle_floor():
    model = _archer2()
    scaled = apply_power_factor(model, "compute_nodes", 0.0, FactorMode.DYNAMIC_ONLY)
    breakdown = system_power(scaled, 1.0)
    assert breakdown.per_component["compute_nodes"] == pytest.approx(1347.8)


def test_apply_factor_does_not_modify_input():
    model = _archer2()
    apply_power_factor(model, "compute_nodes", 0.5, FactorMode.WHOLE_DRAW)
    assert model == _archer2()


def test_apply_factor_unknown_component():
    with pytest.raises(DomainError):
        apply_power_factor(_archer2(), "gpu_nodes", 0.9, FactorMode.WHOLE_DRAW)


def test_apply_factor_rejects_negative_factor():
    with pytest.raises(DomainError):
        apply_power_factor(_archer2(), "compute_nodes", -0.1, FactorMode.WHOLE_DRAW)


def test_apply_factor_composes_multiplicatively():
    model = _archer2()
    once = apply_power_factor(model, "compute_nodes", 0.9 * 0.8, FactorMode.WHOLE_DRAW)
    twice = apply_power_factor(
        apply_power_factor(model, "compute_nodes", 0.9, FactorMode.WHOLE_DRAW),
        "compute_nodes",
        0.8,
        FactorMode.WHOLE_DRAW,
    )
    assert system_power(twice, 0.7).total_kw == pytest.approx(
        system_power(once, 0.7).total_kw, rel=1e-12
    )


def test_apply_factor_order_independent_across_modes():
    model = _archer2()
    whole_first = apply_power_factor(
        apply_power_factor(model, "compute_nodes", 0.935, FactorMode.WHOLE_DRAW),
        "compute_nodes",
        0.8,
        FactorMode.DYNAMIC_ONLY,
    )
    dynamic_first = apply_power_factor(
        apply_power_factor(model, "compute_nodes", 0.8, FactorMode.DYNAMIC_ONLY),
        "compute_nodes",
        0.935,
        FactorMode.WHOLE_DRAW,
    )
    for u in (0.0, 0.5, 1.0):
        assert system_power(whole_first, u).total_kw == pytest.approx(
            system_power(dynamic_first, u).total_kw, rel=1e-12
        )


def test_monotonic_in_utilization():
    rng = random.Random(7)
    for _ in range(200):
        model = _random_model(rng)
        u1, u2 = sorted((rng.random(), rng.random()))
        assert system_power(model, u1).total_kw <= system_power(model, u2).total_kw + 1e-9


def test_additivity_over_single_component_models():
    rng = random.Random(11)
    for _ in range(50):
        model = _random_model(rng)
        u = rng.random()
        parts = sum(
            system_power(SystemModel("part", (c,), c.name), u).total_kw
            for c in model.components
        )
        assert system_power(model, u).total_kw == pytest.approx(parts, rel=1e-12)


def test_constant_components_identical_at_extremes():
    rng = random.Random(13)
    for _ in range(50):
        model = _random_model(rng)
        low = system_power(model, 0.0).per_component
        high = system_power(model, 1.0).per_component
        for comp in model.components:
            if comp.load_response is LoadResponse.CONSTANT:
                assert low[comp.name] == high[comp.name]


def test_whole_draw_scales_single_component_total_by_factor():
    rng = random.Random(17)
    for _ in range(100):
        idle = rng.uniform(0.0, 4.0)
        comp = ComponentSpec("only", rng.randint(1, 100), idle, idle + rng.uniform(0, 4))
        model = SystemModel("single", (comp,), "only")
        factor = rng.uniform(0.0, 2.0)
        u = rng.random()
        scaled = apply_power_factor(model, "only", factor, FactorMode.WHOLE_DRAW)
        assert system_power(scaled, u).total_kw == pytest.approx(
            factor * system_power(model, u).total_kw, rel=1e-12, abs=1e-12
        )


def test_reference_compute_share_of_loaded_total():
    model = _archer2()
    breakdown = system_power(model, 1.0)
    share = breakdown.per_component["compute_nodes"] / breakdown.total_kw
    assert 0.82 <= share <= 0.88


def test_reference_compute_idle_loaded_ratio():
    compute = _archer2().component("compute_nodes")
    ratio = compute.idle_kw_per_unit / compute.loaded_kw_per_unit
    assert ratio == pytest.approx(0.451, abs=5e-4)


def test_model_json_roundtrip(tmp_path):
    model = _archer2()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    assert load_model(path) == model


def test_model_dict_roundtrip_random():
    rng = random.Random(23)
    for _ in range(50):
        model = _random_model(rng)
        assert model_from_dict(model_to_dict(model)) == model


def test_load_model_rejects_unknown_fields(tmp_path):
    doc = model_to_dict(_archer2())
    doc["pue"] = 1.1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="pue"):
        load_model(path)


def test_load_model_rejects_unknown_component_fields(tmp_path):
    doc = model_to_dict(_archer2())
    doc["components"][0]["voltage"] = 48
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="voltage"):
        load_model(path)


def test_load_model_missing_field(tmp_path):
    doc = model_to_dict(_archer2())
    del doc["compute_component"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="compute_component"):
        load_model(path)


def test_load_model_bad_load_response(tmp_path):
    doc = model_to_dict(_archer2())
    doc["components"][0]["load_response"] = "quadratic"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="quadratic"):
        load_model(path)


def test_load_model_invariant_violation_is_domain_error(tmp_path):
    doc = model_to_dict(_archer2())
    doc["components"][0]["idle_kw_per_unit"] = 0.9  # above the loaded figure
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError):
        load_model(path)


def test_load_model_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError):
        load_model(path)
