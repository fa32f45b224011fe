"""Scenario runner composing the power model, frequency policy and emissions
accounting: one configuration in, mean power, energy, emissions and a
throughput index out, plus threshold sweeps over the revert rule."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .datafiles import check_fields, check_object, number, read_json, string, to_json
from .emissions import (
    CarbonIntensityProfile,
    EmbodiedEmissions,
    EmissionsBreakdown,
    embodied_from_dict,
    lifetime_emissions,
)
from .errors import DataFormatError, DomainError, check_fraction, check_positive
from .freq_policy import (
    AppBenchmark,
    BenchmarkTable,
    JobMix,
    PolicyDecision,
    PolicyRule,
    fleet_of_rows,
    load_benchmark_table,
)
from .power_model import (
    FactorMode,
    PowerBreakdown,
    SystemModel,
    apply_power_factor,
    load_model,
    system_power,
)

# Whole-draw factor on the compute component for switching the BIOS to
# performance-determinism mode: a 6.5% cut of the compute nodes' draw, which
# is 5.49% of the modelled system at utilization 0.92 (the telemetry recipes'
# cabinet-level step is 6.5%).
BIOS_DETERMINISM_POWER_FACTOR = 0.935


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's inputs. Building it checks the utilization, duration and
    BIOS factor; the model, mix and rule were checked when they were built, so
    mutating `mix.weights` later goes unchecked. The benchmarks become a
    BenchmarkTable unless they are one, as `load_benchmark_table` and
    `replace` pass them; a table checks its rows once, when loaded or first run."""

    model: SystemModel
    utilization: float
    mix: JobMix
    benchmarks: tuple[AppBenchmark, ...]
    rule: PolicyRule
    duration_hours: float
    carbon: CarbonIntensityProfile
    bios_factor: float = 1.0
    embodied: EmbodiedEmissions | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", BenchmarkTable(self.benchmarks))
        check_fraction(self.utilization, "utilization")
        check_positive(self.duration_hours, "duration", "hours")
        check_positive(self.bios_factor, "bios_factor")


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    mean_power_kw: float
    breakdown: PowerBreakdown
    energy_kwh: float
    emissions: EmissionsBreakdown
    scope3_unset: bool
    throughput_index: float
    decisions: tuple[PolicyDecision, ...]
    duration_hours: float


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate one scenario.

    The BIOS factor scales the compute component's whole draw; the frequency
    policy's fleet power ratio then scales only its dynamic (loaded minus
    idle) draw, so no policy can push compute power below the idle floor.
    Scope-3 emissions are reported as zero, with a flag, when no embodied
    emissions are configured. A power or emissions total past the float range
    raises the DomainError of the step that makes it.

    A run checks what building the config did not: the compute component, the
    scaled draws, the table's rows (once per table), the mix's apps, the totals.
    """
    if config.model.compute_component is None:
        raise DomainError(f"model {config.model.name!r} has no compute component to scale")
    compute = config.model.compute_component
    model = apply_power_factor(config.model, compute, config.bios_factor, FactorMode.WHOLE_DRAW)
    fleet = fleet_of_rows(config.benchmarks.rows, config.mix.weights, config.rule)
    model = apply_power_factor(model, compute, fleet.fleet_power_ratio, FactorMode.DYNAMIC_ONLY)
    breakdown = system_power(model, config.utilization)
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


def sweep_threshold(config: ScenarioConfig, thresholds) -> list[tuple[float, ScenarioResult]]:
    """The scenario at each revert threshold, ordered by threshold.

    The decisions at a threshold follow from how many freq-cap rows keep the
    cap there (`BenchmarkTable.kept_count`). A result does not record the
    threshold, so the scenario runs once per such count, at the smallest
    threshold that has it: thresholds that share a decision set return the
    same frozen `ScenarioResult` object.
    """
    thresholds = list(thresholds)
    for threshold in thresholds:
        check_fraction(threshold, "threshold")
    by_count: dict[int, ScenarioResult] = {}
    results = []
    for threshold in sorted(thresholds):
        count = config.benchmarks.kept_count(threshold)
        if count not in by_count:
            by_count[count] = run_scenario(replace(config, rule=PolicyRule(threshold)))
        results.append((threshold, by_count[count]))
    return results


def _carbon_from_dict(doc, base_dir: Path, where: str) -> CarbonIntensityProfile:
    check_object(doc, where)
    if set(doc) == {"constant_g_per_kwh"}:
        return CarbonIntensityProfile.constant(number(doc, "constant_g_per_kwh", where))
    if set(doc) == {"series_csv"}:
        return CarbonIntensityProfile.from_csv(base_dir / string(doc, "series_csv", where))
    raise DataFormatError(
        f"{where}: must contain exactly one of 'constant_g_per_kwh' or 'series_csv'"
    )


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario configuration from JSON.

    Referenced model/benchmark/intensity files are resolved relative to the
    configuration file's directory. The mix is an inline app-to-weight map or
    the string "equal" for an equal split over every benchmarked app.
    """
    path = Path(path)
    where = str(path)
    doc = check_fields(
        read_json(path),
        where,
        required=("model", "benchmarks", "mix", "rule", "utilization", "duration_hours", "carbon"),
        optional=("name", "bios_factor", "embodied"),
    )
    base_dir = path.parent
    model = load_model(base_dir / string(doc, "model", where))
    benchmarks = load_benchmark_table(base_dir / string(doc, "benchmarks", where))
    if doc["mix"] == "equal":
        mix = JobMix.equal(sorted(benchmarks.rows))
    else:
        mix = JobMix.from_dict(doc["mix"], f"{where}: 'mix'")
    rule_where = f"{where}: 'rule'"
    rule_doc = check_fields(doc["rule"], rule_where, ("perf_loss_threshold",))
    embodied = doc.get("embodied")
    if embodied is not None:
        embodied = embodied_from_dict(embodied, f"{where}: 'embodied'")
    return ScenarioConfig(
        model=model,
        utilization=number(doc, "utilization", where),
        mix=mix,
        benchmarks=benchmarks,
        rule=PolicyRule(number(rule_doc, "perf_loss_threshold", rule_where)),
        duration_hours=number(doc, "duration_hours", where),
        carbon=_carbon_from_dict(doc["carbon"], base_dir, f"{where}: 'carbon'"),
        bios_factor=number(doc, "bios_factor", where, default=1.0),
        embodied=embodied,
        name=string(doc, "name", where, default=path.stem),
    )


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON view of a scenario result. Unlike to_json(result), it lifts the
    component draws to the top, puts the scope-3 flag in the emissions and the
    duration after the energy."""
    return {
        "name": result.name,
        "mean_power_kw": result.mean_power_kw,
        "per_component": dict(result.breakdown.per_component),
        "energy_kwh": result.energy_kwh,
        "duration_hours": result.duration_hours,
        "emissions": {**to_json(result.emissions), "scope3_unset": result.scope3_unset},
        "throughput_index": result.throughput_index,
        "decisions": to_json(result.decisions),
    }
