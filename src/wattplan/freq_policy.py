"""Per-application benchmark ratios for operating-point changes and the
revert-threshold rule that picks each application's default CPU frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

from .datafiles import check_object, csv_records, number
from .errors import DataFormatError, DomainError


class FrequencySetting(Enum):
    """CPU frequency operating points available on the modeled hardware."""

    F2000 = "2.0GHz"
    F2250_TURBO = "2.25GHz+turbo"


class Intervention(Enum):
    """System-wide change a benchmark pair measures."""

    BIOS_DETERMINISM = "bios_determinism"
    FREQ_CAP_2000 = "freq_cap_2000"


@dataclass(frozen=True)
class AppBenchmark:
    """After/before performance and energy ratios for one application.

    perf_ratio > 1 means the change made the application faster; energy_ratio
    is total energy after over before. Building it also builds the decision
    that keeps the capped frequency and the one that reverts, which every
    `recommend` call shares.
    """

    app_name: str
    nodes: int
    intervention: Intervention
    perf_ratio: float
    energy_ratio: float

    def __post_init__(self) -> None:
        if not self.app_name:
            raise DomainError("benchmark app_name must be non-empty")
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise DomainError(f"benchmark {self.app_name!r}: nodes must be >= 1, got {self.nodes!r}")
        if not (math.isfinite(self.perf_ratio) and self.perf_ratio > 0):
            raise DomainError(f"benchmark {self.app_name!r}: perf_ratio must be > 0, got {self.perf_ratio}")
        if not (math.isfinite(self.energy_ratio) and self.energy_ratio > 0):
            raise DomainError(
                f"benchmark {self.app_name!r}: energy_ratio must be > 0, got {self.energy_ratio}"
            )
        perf_loss = 1.0 - self.perf_ratio
        energy_saving = 1.0 - self.energy_ratio
        object.__setattr__(self, "_decisions", (
            PolicyDecision(self.app_name, FrequencySetting.F2000, False, perf_loss, energy_saving),
            PolicyDecision(
                self.app_name, FrequencySetting.F2250_TURBO, True, perf_loss, energy_saving
            ),
        ))


@dataclass(frozen=True)
class PolicyRule:
    """Revert rule: applications losing more than this fraction of performance
    are reset to the top frequency setting."""

    perf_loss_threshold: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.perf_loss_threshold <= 1.0:
            raise DomainError(
                f"perf_loss_threshold must be within [0, 1], got {self.perf_loss_threshold}"
            )


@dataclass(frozen=True)
class JobMix:
    """Fraction of compute node-hours spent in each application."""

    weights: dict[str, float]

    def __post_init__(self) -> None:
        total = 0.0
        for app, weight in self.weights.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise DomainError(f"mix weight for {app!r} must be >= 0, got {weight}")
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"mix weights must sum to 1 within 1e-9, got {total!r}")

    @classmethod
    def equal(cls, apps) -> "JobMix":
        """An equal share for each distinct app, in the order first named."""
        apps = dict.fromkeys(apps)
        if not apps:
            raise DomainError("an equal mix needs at least one app")
        return cls(weights=dict.fromkeys(apps, 1.0 / len(apps)))

    @classmethod
    def from_dict(cls, doc, where: str) -> "JobMix":
        """A mix from a JSON object of app name to weight."""
        check_object(doc, where)
        return cls(weights={app: number(doc, app, where) for app in doc})


@dataclass(frozen=True)
class PolicyDecision:
    app_name: str
    default_setting: FrequencySetting
    reverted: bool
    perf_loss: float
    energy_saving: float


@dataclass(frozen=True)
class FleetRatios:
    """Mix-weighted power and throughput ratios after applying a policy rule."""

    fleet_power_ratio: float
    fleet_throughput_ratio: float
    decisions: tuple[PolicyDecision, ...]


def recommend(benchmark: AppBenchmark, rule: PolicyRule) -> PolicyDecision:
    """Default frequency for one application under the revert rule.

    Applies only to frequency-cap benchmarks. The threshold comparison is
    strict: a loss exactly at the threshold keeps the capped frequency.
    """
    if benchmark.intervention is not Intervention.FREQ_CAP_2000:
        raise DomainError(
            f"policy recommendations need {Intervention.FREQ_CAP_2000.value} benchmarks; "
            f"{benchmark.app_name!r} records {benchmark.intervention.value}"
        )
    kept, reverted = benchmark._decisions
    return reverted if kept.perf_loss > rule.perf_loss_threshold else kept


def _app_rows(benchmarks) -> dict[str, AppBenchmark]:
    """Each app's freq-cap row, else its first row (which recommend() rejects),
    in the order the apps first appear; a second freq-cap row for an app raises."""
    rows: dict[str, AppBenchmark] = {}
    for bench in benchmarks:
        app = bench.app_name
        if bench.intervention is not Intervention.FREQ_CAP_2000:
            rows.setdefault(app, bench)
        elif app in rows and rows[app].intervention is Intervention.FREQ_CAP_2000:
            raise DomainError(f"duplicate benchmark for app {app!r}")
        else:
            rows[app] = bench
    return rows


class BenchmarkTable(tuple):
    """A tuple of AppBenchmark rows that keeps, from first use, the row map
    (whose build, with its duplicate check, runs again while it fails) and the
    sorted freq-cap perf losses. A copy or pickle carries what it has built."""

    @cached_property
    def rows(self) -> dict[str, AppBenchmark]:
        return _app_rows(self)

    @cached_property
    def freq_cap_losses(self) -> tuple[float, ...]:
        return tuple(sorted(
            1.0 - b.perf_ratio for b in self if b.intervention is Intervention.FREQ_CAP_2000
        ))


def fleet_ratios(
    benchmarks, weights: dict[str, float], rule: PolicyRule
) -> FleetRatios:
    """Weight-averaged power and throughput ratios over a job mix.

    Reverted applications run at the original operating point and contribute
    ratios of exactly 1.0. A kept application contributes its perf_ratio and
    the mean-power ratio energy_ratio * perf_ratio: mean power is energy over
    runtime, and runtime scales as 1/perf. The weights must make a valid
    JobMix over benchmarked apps.

    Each call checks the benchmarks for duplicate rows, then the weights as a
    JobMix, then each weighted app's row. A scenario calls `fleet_of_rows`,
    with the row map its BenchmarkTable keeps and the mix checked at its build.
    """
    rows = _app_rows(benchmarks)
    JobMix(weights)  # raises unless the weights are a valid mix
    return fleet_of_rows(rows, weights, rule)


def fleet_of_rows(
    rows: dict[str, AppBenchmark], weights: dict[str, float], rule: PolicyRule
) -> FleetRatios:
    """fleet_ratios over a checked row map and weights taken as a valid mix;
    it checks that each weighted app has a row, and `recommend` decides each."""
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


_HEADER = ["app_name", "nodes", "intervention", "perf_ratio", "energy_ratio"]


def load_benchmark_table(path: str | Path) -> list[AppBenchmark]:
    """Load benchmark records from CSV.

    Header must be app_name,nodes,intervention,perf_ratio,energy_ratio with
    intervention one of bios_determinism or freq_cap_2000. Malformed rows are
    reported with their line number; duplicate (app, intervention) pairs are
    rejected.
    """
    records: list[AppBenchmark] = []
    for line, row in csv_records(path, _HEADER):
        app_name, nodes_text, intervention_text, perf_text, energy_text = row
        try:
            nodes = int(nodes_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line}: nodes is not an integer: {nodes_text!r}"
            ) from None
        try:
            intervention = Intervention(intervention_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line}: unknown intervention {intervention_text!r}"
            ) from None
        try:
            perf_ratio = float(perf_text)
            energy_ratio = float(energy_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line}: ratios must be numbers: {perf_text!r}, {energy_text!r}"
            ) from None
        records.append(
            AppBenchmark(
                app_name=app_name,
                nodes=nodes,
                intervention=intervention,
                perf_ratio=perf_ratio,
                energy_ratio=energy_ratio,
            )
        )
    seen: set[tuple[str, Intervention]] = set()
    for record in records:
        key = (record.app_name, record.intervention)
        if key in seen:
            raise DomainError(
                f"{path}: duplicate benchmark for ({record.app_name!r}, "
                f"{record.intervention.value})"
            )
        seen.add(key)
    return records
