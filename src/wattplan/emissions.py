"""Emissions accounting: carbon-intensity regimes, scope-2 energy emissions and
amortized scope-3 embodied emissions."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property, reduce
from itertools import pairwise
from pathlib import Path

from .datafiles import check_fields, number, timed_columns, timed_values
from .errors import DataFormatError, DomainError, check_nonnegative, check_positive
from .timestamps import aware, format_timestamp

# Carbon-intensity bands (gCO2/kWh) separating the three emissions regimes.
# Both band edges belong to the balanced regime.
LOW_INTENSITY_CEILING = 30.0
HIGH_INTENSITY_FLOOR = 100.0


class EmissionsScenario(Enum):
    """Which emissions source dominates at a given grid carbon intensity."""

    SCOPE3_DOMINATED = "scope3_dominated"
    BALANCED = "balanced"
    SCOPE2_DOMINATED = "scope2_dominated"


class OptimizationObjective(Enum):
    """Operational objective recommended for an emissions scenario."""

    MAXIMIZE_APPLICATION_PERFORMANCE = "maximize_application_performance"
    BALANCE_PERFORMANCE_AND_ENERGY = "balance_performance_and_energy"
    MAXIMIZE_ENERGY_EFFICIENCY = "maximize_energy_efficiency"


@dataclass(frozen=True)
class EmbodiedEmissions:
    """Total embodied (scope-3) emissions amortized over a service lifetime."""

    total_kgco2e: float
    service_lifetime_hours: float

    def __post_init__(self) -> None:
        check_nonnegative(self.total_kgco2e, "embodied emissions", "kg")
        check_positive(self.service_lifetime_hours, "service lifetime", "hours")


def embodied_from_dict(doc, where: str) -> EmbodiedEmissions:
    """EmbodiedEmissions from a JSON object of exactly its two fields."""
    check_fields(doc, where, ("total_kgco2e", "service_lifetime_hours"))
    return EmbodiedEmissions(
        total_kgco2e=number(doc, "total_kgco2e", where),
        service_lifetime_hours=number(doc, "service_lifetime_hours", where),
    )


@dataclass(frozen=True)
class EmissionsBreakdown:
    """Scope-2 and scope-3 emissions in kg CO2e; total is their sum."""

    scope2_kg: float
    scope3_kg: float
    total_kg: float

    @classmethod
    def of_parts(cls, scope2_kg: float, scope3_kg: float) -> "EmissionsBreakdown":
        return cls(scope2_kg=scope2_kg, scope3_kg=scope3_kg, total_kg=scope2_kg + scope3_kg)


@dataclass(frozen=True)
class CarbonIntensityProfile:
    """Grid carbon intensity in gCO2/kWh, either constant or a step-hold series.

    A series value holds from its timestamp until the next timestamp; the last
    value holds indefinitely. Times before the first entry are not covered.
    Naive datetimes, in the series and in queries, are taken as UTC.
    """

    constant_g_per_kwh: float | None = None
    series: tuple[tuple[datetime, float], ...] | None = None

    def __post_init__(self) -> None:
        if (self.constant_g_per_kwh is None) == (self.series is None):
            raise DomainError("profile must be either constant or a series, not both")
        if self.constant_g_per_kwh is not None:
            check_nonnegative(self.constant_g_per_kwh, "carbon intensity", "g/kWh")
            return
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise DomainError("series profile must contain at least one entry")
        times = tuple(map(operator.itemgetter(0), self.series))
        values = tuple(map(operator.itemgetter(1), self.series))
        # naive stamps are taken as UTC; the points are rebuilt only if a stamp is naive
        if None in map(operator.attrgetter("tzinfo"), times):
            times = tuple(map(aware, times))
            object.__setattr__(self, "series", tuple(zip(times, values)))
        # for the lookups to bisect; not a field, so equality and repr see only the series
        object.__setattr__(self, "_times", times)
        # each check is a C-level pass; the loops only find the fault to name
        if not all(map(operator.lt, times, times[1:])):
            i = next(i for i in range(len(times)) if times[i + 1] <= times[i])
            raise DomainError(
                f"series timestamps must be strictly increasing: {times[i]} then {times[i + 1]}"
            )
        try:
            valid = all(map(math.isfinite, values)) and min(values) >= 0
        except OverflowError:  # an int past the float range, which the rule names
            valid = False
        if not valid:
            for value in values:
                check_nonnegative(value, "carbon intensity", "g/kWh")

    @classmethod
    def constant(cls, g_per_kwh: float) -> "CarbonIntensityProfile":
        return cls(constant_g_per_kwh=g_per_kwh)

    @classmethod
    def from_series(cls, points) -> "CarbonIntensityProfile":
        return cls(series=tuple(points))

    @classmethod
    def from_csv(cls, path: str | Path) -> "CarbonIntensityProfile":
        """Load a series profile from CSV with header timestamp,intensity_g_per_kwh.

        A file of plain `stamp,number` lines is read column-wise
        (timed_columns) and checked once, here; any other file, and every
        file the profile refuses, is read row by row (_from_rows), which
        names each fault's line.
        """
        columns = timed_columns(path, "intensity_g_per_kwh")
        if columns is not None:
            try:
                return cls.from_series(zip(*columns))
            except DomainError:
                pass
        return cls._from_rows(path)

    @classmethod
    def _from_rows(cls, path: str | Path) -> "CarbonIntensityProfile":
        """from_csv row by row; the source of every error."""
        rows = list(timed_values(path, "intensity_g_per_kwh", "intensity", "g/kWh"))
        if not rows:
            raise DataFormatError(f"{path}: no intensity rows found")
        try:
            return cls.from_series((ts, value) for _, ts, value in rows)
        except DomainError:
            # timed_values checked each value, so the order check failed: name
            # the line of the first disorder
            for (_, before, _), (line, ts, _) in pairwise(rows):
                if ts <= before:
                    raise DataFormatError(
                        f"{path}: line {line}: timestamps not strictly increasing "
                        f"({before} then {ts})"
                    ) from None
            raise

    def start_time(self) -> datetime | None:
        """First covered instant, or None for a constant profile."""
        return None if self.series is None else self.series[0][0]

    def intensity_at(self, when: datetime) -> float:
        """Step-hold intensity at an instant; O(log n) in the series length."""
        if self.constant_g_per_kwh is not None:
            return self.constant_g_per_kwh
        assert self.series is not None
        when = aware(when)
        idx = bisect_right(self._times, when) - 1
        if idx < 0:
            raise DomainError(
                f"time {when} precedes series coverage starting at {self._times[0]}"
            )
        return self.series[idx][1]

    def mean_intensity(self, start: datetime, end: datetime) -> float:
        """Time-weighted average intensity over the half-open interval [start, end).

        Costs O(log n + k) for a series of n entries of which k hold inside
        the interval: only the covered steps are summed, in time order. The
        first call on a series also weighs each whole step once, in O(n).
        """
        start, end = aware(start), aware(end)
        if end <= start:
            raise DomainError(f"interval end {end} must be after start {start}")
        if self.constant_g_per_kwh is not None:
            return self.constant_g_per_kwh
        assert self.series is not None
        if start < self.series[0][0]:
            raise DomainError(
                f"interval [{start}, {end}) is outside series coverage "
                f"starting at {self.series[0][0]}"
            )
        # Steps before `first` end by `start`; steps after `last` begin at or
        # after `end`. Either kind adds nothing to the sum. The steps between
        # `first` and `last` hold whole inside the interval; the sum runs in
        # time order from 0.0, as a loop over every step would.
        first = bisect_right(self._times, start) - 1
        last = bisect_left(self._times, end) - 1
        series = self.series
        weighted = 0.0 + series[first][1] * self._held(first, start, end)
        if last > first:
            weighted = reduce(operator.add, self._step_terms[first + 1 : last], weighted)
            weighted += series[last][1] * self._held(last, start, end)
        seconds = (end - start).total_seconds()
        if math.isfinite(weighted):
            return weighted / seconds
        # the weighted sum passed the float range: sum each step's share instead
        mean = 0.0
        for i in range(first, last + 1):
            mean += series[i][1] * (self._held(i, start, end) / seconds)
        return mean

    def _held(self, i: int, start: datetime, end: datetime) -> float:
        """The seconds that step i holds inside [start, end)."""
        hi = end if i + 1 == len(self._times) else min(end, self._times[i + 1])
        return (hi - max(start, self._times[i])).total_seconds()

    @cached_property
    def _step_terms(self) -> tuple[float, ...]:
        """Each step's value times its whole length in seconds, for every step
        but the last, which has no end; built on first use."""
        return tuple(
            value * (t_next - t_i).total_seconds()
            for (t_i, value), (t_next, _) in pairwise(self.series)
        )


def classify_scenario(intensity_g_per_kwh: float) -> EmissionsScenario:
    """Map a carbon intensity to the emissions regime it implies.

    Below 30 g/kWh embodied emissions dominate; above 100 g/kWh operational
    emissions dominate; the closed band in between is balanced.
    """
    check_nonnegative(intensity_g_per_kwh, "carbon intensity", "g/kWh")
    if intensity_g_per_kwh < LOW_INTENSITY_CEILING:
        return EmissionsScenario.SCOPE3_DOMINATED
    if intensity_g_per_kwh <= HIGH_INTENSITY_FLOOR:
        return EmissionsScenario.BALANCED
    return EmissionsScenario.SCOPE2_DOMINATED


_OBJECTIVES = {
    EmissionsScenario.SCOPE3_DOMINATED: OptimizationObjective.MAXIMIZE_APPLICATION_PERFORMANCE,
    EmissionsScenario.BALANCED: OptimizationObjective.BALANCE_PERFORMANCE_AND_ENERGY,
    EmissionsScenario.SCOPE2_DOMINATED: OptimizationObjective.MAXIMIZE_ENERGY_EFFICIENCY,
}


def recommended_objective(scenario: EmissionsScenario) -> OptimizationObjective:
    """Operational objective for a scenario: chase performance when embodied
    emissions dominate, energy efficiency when grid emissions dominate."""
    return _OBJECTIVES[scenario]


def scope2_emissions(
    energy_kwh_by_interval, profile: CarbonIntensityProfile
) -> float:
    """Operational emissions in kg for energy drawn over timestamped intervals.

    Each item is ((start, end), energy_kwh); the interval's intensity is the
    time-weighted average of the profile over [start, end). A total past the
    float range raises a DomainError.
    """
    if not isinstance(energy_kwh_by_interval, (list, tuple)):
        energy_kwh_by_interval = list(energy_kwh_by_interval)  # read twice on overflow
    total_g = 0.0
    for (start, end), energy_kwh in energy_kwh_by_interval:
        check_nonnegative(energy_kwh, "interval energy", "kWh")
        total_g += energy_kwh * profile.mean_intensity(start, end)
    if math.isfinite(total_g):
        return total_g / 1000.0
    # the gram sum passed the float range: sum again, dividing first
    terms = [(e, profile.mean_intensity(start, end)) for (start, end), e in energy_kwh_by_interval]
    total_kg = 0.0
    for energy_kwh, intensity in terms:
        total_kg += energy_kwh * (intensity / 1000.0)
    if math.isfinite(total_kg):
        return total_kg
    energy, intensity = map(max, zip(*terms))
    raise DomainError(
        f"scope-2 emissions exceed the float range: {len(terms)} intervals of up to "
        f"{energy} kWh at up to {intensity} g/kWh"
    )


def amortized_scope3(embodied: EmbodiedEmissions, duration_hours: float) -> float:
    """Linear share of the embodied emissions attributable to a duration."""
    check_nonnegative(duration_hours, "duration", "hours")
    share = embodied.total_kgco2e * duration_hours / embodied.service_lifetime_hours
    if math.isinf(share):
        # the product passed the float range before the division
        share = embodied.total_kgco2e * (duration_hours / embodied.service_lifetime_hours)
    return share


_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)


def run_intensity(
    profile: CarbonIntensityProfile, duration_hours: float, start: datetime | None = None
) -> float:
    """Mean intensity over a run of duration_hours from start (default: the
    start of a series profile, or 2000-01-01 for a constant one).

    A run shorter than datetime's 1 µs step holds the intensity at its start.
    """
    check_nonnegative(duration_hours, "duration", "hours")
    anchor = aware(start) if start is not None else (profile.start_time() or _EPOCH)
    try:
        end = anchor + timedelta(hours=duration_hours)
    except OverflowError:
        raise DomainError(
            f"duration must end by the year 9999, got {duration_hours} hours "
            f"from {format_timestamp(anchor)}"
        ) from None
    if end == anchor:
        return profile.intensity_at(anchor)
    return profile.mean_intensity(anchor, end)


def priced_emissions(
    mean_power_kw: float,
    duration_hours: float,
    intensity: float,
    embodied: EmbodiedEmissions | None,
) -> EmissionsBreakdown:
    """Scope-2 plus amortized scope-3 emissions for a run at constant mean power,
    its energy priced at one mean intensity in g/kWh. With `embodied=None` the
    result is scope-2 only: scope-3 is exactly 0.0 and the total equals scope-2.
    The mean power and the duration are taken as checked; a DomainError names
    the inputs when the intensity is negative, NaN or an integer past the float
    range, or when the intensity, the energy or the total passes the float range."""
    if intensity == math.inf:
        raise DomainError(
            f"the run's mean carbon intensity exceeds the float range, got {intensity} g/kWh"
        )
    check_nonnegative(intensity, "carbon intensity", "g/kWh")
    energy_kwh = mean_power_kw * duration_hours
    if math.isinf(energy_kwh):
        raise DomainError(
            f"energy exceeds the float range: a mean {mean_power_kw} kW for {duration_hours} h"
        )
    scope3 = 0.0 if embodied is None else amortized_scope3(embodied, duration_hours)
    scope2 = energy_kwh * intensity / 1000.0
    if math.isinf(scope2):
        # the product passed the float range before the division
        scope2 = energy_kwh * (intensity / 1000.0)
    breakdown = EmissionsBreakdown.of_parts(scope2, scope3)
    if math.isfinite(breakdown.total_kg):
        return breakdown
    message = (
        f"energy or emissions exceed the float range: {duration_hours} h at a mean "
        f"{mean_power_kw} kW, carbon intensity {intensity} g/kWh"
    )
    if embodied is not None:
        message += f", embodied {embodied.total_kgco2e} kg over {embodied.service_lifetime_hours} h"
    raise DomainError(message)


def lifetime_emissions(
    mean_power_kw: float,
    duration_hours: float,
    profile: CarbonIntensityProfile,
    embodied: EmbodiedEmissions | None,
    start: datetime | None = None,
) -> EmissionsBreakdown:
    """priced_emissions at run_intensity(profile, duration_hours, start); the
    mean power is checked before the run's intensity is looked up."""
    check_nonnegative(mean_power_kw, "mean power", "kW")
    intensity = run_intensity(profile, duration_hours, start)
    return priced_emissions(mean_power_kw, duration_hours, intensity, embodied)
