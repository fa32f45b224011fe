import math
import pickle
import random
import time
from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import pytest

from wattplan.emissions import (
    CarbonIntensityProfile,
    EmbodiedEmissions,
    EmissionsScenario,
    OptimizationObjective,
    amortized_scope3,
    classify_scenario,
    lifetime_emissions,
    priced_emissions,
    recommended_objective,
    run_intensity,
    scope2_emissions,
)
from wattplan.datafiles import timed_values, to_json
from wattplan.errors import DataFormatError, DomainError

T0 = datetime(2022, 6, 1, tzinfo=timezone.utc)
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _hours(n: float) -> timedelta:
    return timedelta(hours=n)


@pytest.mark.parametrize(
    "intensity,expected",
    [
        (0.0, EmissionsScenario.SCOPE3_DOMINATED),
        (25.0, EmissionsScenario.SCOPE3_DOMINATED),
        (29.99, EmissionsScenario.SCOPE3_DOMINATED),
        (30.0, EmissionsScenario.BALANCED),
        (65.0, EmissionsScenario.BALANCED),
        (100.0, EmissionsScenario.BALANCED),
        (100.01, EmissionsScenario.SCOPE2_DOMINATED),
        (150.0, EmissionsScenario.SCOPE2_DOMINATED),
    ],
)
def test_classify_scenario_bands(intensity, expected):
    assert classify_scenario(intensity) is expected


@pytest.mark.parametrize("intensity", [-1.0, float("nan"), float("inf")])
def test_classify_scenario_rejects_negative(intensity):
    with pytest.raises(DomainError, match="carbon intensity must be >= 0 g/kWh"):
        classify_scenario(intensity)


@pytest.mark.parametrize(
    "fields", [{}, {"constant_g_per_kwh": 1.0, "series": ((T0, 1.0),)}], ids=["neither", "both"]
)
def test_profile_is_either_constant_or_a_series(fields):
    with pytest.raises(DomainError, match="either constant or a series, not both"):
        CarbonIntensityProfile(**fields)


def test_classify_scenario_partitions_nonnegative_axis():
    rng = random.Random(3)
    for _ in range(500):
        intensity = rng.uniform(0, 400)
        scenario = classify_scenario(intensity)
        assert isinstance(scenario, EmissionsScenario)


@pytest.mark.parametrize(
    "scenario,expected",
    [
        (EmissionsScenario.SCOPE3_DOMINATED, OptimizationObjective.MAXIMIZE_APPLICATION_PERFORMANCE),
        (EmissionsScenario.BALANCED, OptimizationObjective.BALANCE_PERFORMANCE_AND_ENERGY),
        (EmissionsScenario.SCOPE2_DOMINATED, OptimizationObjective.MAXIMIZE_ENERGY_EFFICIENCY),
    ],
)
def test_recommended_objective_mapping(scenario, expected):
    assert recommended_objective(scenario) is expected


def test_scope2_zero_intensity_gives_zero():
    profile = CarbonIntensityProfile.constant(0.0)
    assert scope2_emissions([((T0, T0 + _hours(24)), 12345.0)], profile) == 0.0


def test_scope2_constant_intensity_day():
    profile = CarbonIntensityProfile.constant(50.0)
    total = scope2_emissions([((T0, T0 + _hours(24)), 60720.0)], profile)
    assert total == pytest.approx(3036.0)


def test_scope2_step_hold_two_intervals():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), 30.0)])
    intervals = [
        ((T0, T0 + _hours(1)), 100.0),
        ((T0 + _hours(1), T0 + _hours(2)), 100.0),
    ]
    assert scope2_emissions(intervals, profile) == pytest.approx(4.0)


def test_scope2_time_weighted_average_across_boundary():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), 30.0)])
    # half the interval at 10, half at 30 -> effective 20 g/kWh
    total = scope2_emissions([((T0, T0 + _hours(2)), 100.0)], profile)
    assert total == pytest.approx(2.0)


def test_scope2_rejects_negative_energy():
    for energy in [-5.0, *NON_FINITE]:
        for profile in (
            CarbonIntensityProfile.constant(10.0),
            CarbonIntensityProfile.from_series([(T0, 10.0)]),
        ):
            with pytest.raises(DomainError):
                scope2_emissions([((T0, T0 + _hours(1)), energy)], profile)


def test_scope2_in_range_after_a_gram_sum_past_the_float_range():
    # 1e5 kWh at 1e304 g/kWh is 1e309 g but 1e306 kg
    one = [((T0, T0 + _hours(1)), 1e5)]
    for profile in (
        CarbonIntensityProfile.constant(1e304),
        CarbonIntensityProfile.from_series([(T0, 1e304)]),
    ):
        assert scope2_emissions(one, profile) == pytest.approx(1e306, rel=1e-15)
    # two intervals whose gram sum passes the float range, as a list and as a generator
    two = [((T0, T0 + _hours(1)), 1e5), ((T0 + _hours(1), T0 + _hours(2)), 1e5)]
    profile = CarbonIntensityProfile.constant(1e303)
    assert scope2_emissions(two, profile) == pytest.approx(2e305, rel=1e-15)
    assert scope2_emissions(iter(two), profile) == scope2_emissions(two, profile)


def test_scope2_past_the_float_range_in_kg_names_the_inputs():
    intervals = [((T0, T0 + _hours(h + 1)), 1e308) for h in range(3)]
    with pytest.raises(DomainError) as err:
        scope2_emissions(intervals, CarbonIntensityProfile.constant(1e304))
    assert str(err.value) == (
        "scope-2 emissions exceed the float range: 3 intervals of up to 1e+308 kWh "
        "at up to 1e+304 g/kWh"
    )


_PROFILE_KINDS = {
    "constant": CarbonIntensityProfile.constant(50.0),
    "series": CarbonIntensityProfile.from_series([(T0, 50.0)]),
}


@pytest.mark.parametrize("kind", sorted(_PROFILE_KINDS))
@pytest.mark.parametrize(
    "start,end", [(T0 + _hours(1), T0), (T0, T0)], ids=["reversed", "empty"]
)
def test_scope2_rejects_an_interval_that_does_not_end_after_it_starts(kind, start, end):
    with pytest.raises(DomainError) as err:
        scope2_emissions([((start, end), 5.0)], _PROFILE_KINDS[kind])
    assert str(err.value) == f"interval end {end} must be after start {start}"


def test_scope2_coverage_error_names_interval():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0)])
    early = T0 - _hours(2)
    with pytest.raises(DomainError) as err:
        scope2_emissions([((early, T0), 100.0)], profile)
    assert str(early) in str(err.value)


def test_scope2_linearity_spot_checks():
    rng = random.Random(5)
    for _ in range(100):
        energy = rng.uniform(0, 1e5)
        intensity = rng.uniform(0, 300)
        k = rng.uniform(0, 10)
        base = scope2_emissions(
            [((T0, T0 + _hours(1)), energy)], CarbonIntensityProfile.constant(intensity)
        )
        scaled_energy = scope2_emissions(
            [((T0, T0 + _hours(1)), k * energy)], CarbonIntensityProfile.constant(intensity)
        )
        scaled_intensity = scope2_emissions(
            [((T0, T0 + _hours(1)), energy)], CarbonIntensityProfile.constant(k * intensity)
        )
        assert scaled_energy == pytest.approx(k * base, rel=1e-9, abs=1e-12)
        assert scaled_intensity == pytest.approx(k * base, rel=1e-9, abs=1e-12)


def test_single_entry_series_equivalent_to_constant():
    rng = random.Random(9)
    for _ in range(50):
        value = rng.uniform(0, 200)
        series = CarbonIntensityProfile.from_series([(T0, value)])
        constant = CarbonIntensityProfile.constant(value)
        start = T0 + _hours(rng.uniform(0, 100))
        end = start + _hours(rng.uniform(0.1, 50))
        energy = rng.uniform(0, 1e4)
        assert scope2_emissions([((start, end), energy)], series) == pytest.approx(
            scope2_emissions([((start, end), energy)], constant), rel=1e-12
        )


def test_series_last_value_holds_indefinitely():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), 30.0)])
    assert profile.intensity_at(T0 + _hours(1000)) == 30.0


def _full_scan_mean_intensity(profile, start, end):
    """Interval mean by a scan over every step: the oracle for the bounded scan."""
    if end <= start:
        raise DomainError(f"interval end {end} must be after start {start}")
    if profile.constant_g_per_kwh is not None:
        return profile.constant_g_per_kwh
    series = profile.series
    if start < series[0][0]:
        raise DomainError(
            f"interval [{start}, {end}) is outside series coverage starting at {series[0][0]}"
        )
    weighted = 0.0
    for i, (t_i, value) in enumerate(series):
        t_next = series[i + 1][0] if i + 1 < len(series) else None
        lo = max(start, t_i)
        hi = end if t_next is None else min(end, t_next)
        if hi > lo:
            weighted += value * (hi - lo).total_seconds()
    return weighted / (end - start).total_seconds()


def _rebuilt_intensity_at(profile, when):
    """Lookup that rebuilds the list of times on every call: the oracle for intensity_at."""
    times = [t for t, _ in profile.series]
    idx = bisect_right(times, when) - 1
    if idx < 0:
        raise DomainError(f"time {when} precedes series coverage starting at {times[0]}")
    return profile.series[idx][1]


def _irregular_profile(rng, n):
    """n steps with microsecond offsets and widths from 1 us to a few hours."""
    t = T0 + timedelta(microseconds=rng.randrange(1_000_000))
    points = []
    for _ in range(n):
        points.append((t, rng.choice([0.0, round(rng.uniform(0, 400), 3), rng.uniform(0, 400)])))
        t += rng.choice(
            [
                timedelta(microseconds=1),
                timedelta(microseconds=rng.randrange(1, 1_000_000)),
                timedelta(seconds=rng.randrange(1, 14_400), microseconds=rng.randrange(1_000_000)),
                timedelta(minutes=30),
            ]
        )
    return CarbonIntensityProfile.from_series(points)


def _random_instant(rng, times):
    """An instant at a step, a microsecond off one, inside a step or past the last."""
    t = rng.choice(times)
    return rng.choice(
        [
            t,
            t + timedelta(microseconds=1),
            t - timedelta(microseconds=1),
            t + timedelta(seconds=rng.uniform(0, 7200)),
            times[-1] + timedelta(seconds=rng.uniform(0, 86_400)),
        ]
    )


def _interval_random(rng, times):
    a, b = _random_instant(rng, times), _random_instant(rng, times)
    return min(a, b), max(a, b)


def _interval_on_steps(rng, times):
    i = rng.randrange(len(times))
    j = rng.randrange(i + 1, len(times) + 1)
    end = times[j] if j < len(times) else times[-1] + timedelta(hours=rng.randrange(1, 48))
    # Start on a step, end on a step, or both.
    return rng.choice(
        [
            (times[i], end),
            (times[i], end + timedelta(microseconds=rng.randrange(1, 1_000_000))),
            (times[i] + timedelta(microseconds=rng.randrange(0, 2)), end),
        ]
    )


def _interval_inside_one_step(rng, times):
    i = rng.randrange(len(times) - 1)
    width_us = (times[i + 1] - times[i]) // timedelta(microseconds=1)
    a, b = sorted(rng.sample(range(width_us + 1), 2)) if width_us > 1 else (0, 1)
    return times[i] + timedelta(microseconds=a), times[i] + timedelta(microseconds=b)


def _interval_past_last(rng, times):
    start = times[-1] + timedelta(microseconds=rng.randrange(0, 10**11))
    return start, start + timedelta(microseconds=rng.randrange(1, 10**11))


@pytest.mark.parametrize(
    "make_interval,n_min",
    [
        (_interval_random, 1),
        (_interval_on_steps, 1),
        (_interval_inside_one_step, 2),
        (_interval_past_last, 1),
    ],
    ids=["random", "on_steps", "inside_one_step", "past_last"],
)
def test_mean_intensity_equals_full_scan(make_interval, n_min):
    rng = random.Random(f"mean-{make_interval.__name__}")
    checked = 0
    for _ in range(60):
        profile = _irregular_profile(rng, rng.choice([n_min, 2, rng.randrange(n_min, 80)]))
        times = [t for t, _ in profile.series]
        for _ in range(25):
            start, end = make_interval(rng, times)
            if end <= start or start < times[0]:
                continue
            assert profile.mean_intensity(start, end) == _full_scan_mean_intensity(
                profile, start, end
            )
            checked += 1
    assert checked > 1000


def test_single_entry_series_mean_equals_full_scan():
    rng = random.Random("single-entry")
    for _ in range(200):
        profile = _irregular_profile(rng, 1)
        (t0, value), = profile.series
        start = t0 + timedelta(microseconds=rng.choice([0, 1, rng.randrange(10**11)]))
        end = start + timedelta(microseconds=rng.choice([1, rng.randrange(1, 10**11)]))
        mean = profile.mean_intensity(start, end)
        assert mean == _full_scan_mean_intensity(profile, start, end)
        assert mean == pytest.approx(value, rel=1e-12)


def test_intensity_at_equals_rebuilt_lookup():
    rng = random.Random("intensity-at")
    for _ in range(100):
        profile = _irregular_profile(rng, rng.randrange(1, 80))
        times = [t for t, _ in profile.series]
        for _ in range(25):
            when = _random_instant(rng, times)
            if when < times[0]:
                with pytest.raises(DomainError) as got:
                    profile.intensity_at(when)
                with pytest.raises(DomainError) as want:
                    _rebuilt_intensity_at(profile, when)
                assert str(got.value) == str(want.value)
            else:
                assert profile.intensity_at(when) == _rebuilt_intensity_at(profile, when)


def test_mean_intensity_errors_match_full_scan():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), 30.0)])
    for start, end in [
        (T0 - timedelta(microseconds=1), T0 + _hours(1)),
        (T0 + _hours(1), T0 + _hours(1)),
        (T0 + _hours(2), T0 + _hours(1)),
    ]:
        with pytest.raises(DomainError) as got:
            profile.mean_intensity(start, end)
        with pytest.raises(DomainError) as want:
            _full_scan_mean_intensity(profile, start, end)
        assert str(got.value) == str(want.value)


def test_scope2_year_of_hourly_intervals_within_budget():
    # A year of hourly intervals against a year of half-hourly intensity. On a
    # 2-vCPU Xeon a scan over the whole series per interval takes about 110 s
    # and the bounded scan about 30 ms, so the budget catches a return to the
    # full scan and not a slow host.
    rng = random.Random(8760)
    values = [rng.uniform(0, 300) for _ in range(17_520)]
    profile = CarbonIntensityProfile.from_series(
        [(T0 + timedelta(minutes=30 * i), v) for i, v in enumerate(values)]
    )
    energies = [rng.uniform(0, 4000) for _ in range(8_760)]
    intervals = [((T0 + _hours(h), T0 + _hours(h + 1)), e) for h, e in enumerate(energies)]
    started = time.perf_counter()
    total = scope2_emissions(intervals, profile)
    elapsed = time.perf_counter() - started
    expected = sum(
        e * (values[2 * h] + values[2 * h + 1]) / 2 for h, e in enumerate(energies)
    ) / 1000.0
    assert total == pytest.approx(expected, rel=1e-12)
    assert elapsed < 5.0, f"8,760 intervals took {elapsed:.2f} s"


def test_profile_validation():
    with pytest.raises(DomainError):
        CarbonIntensityProfile.constant(-5.0)
    with pytest.raises(DomainError):
        CarbonIntensityProfile.from_series([(T0, 10.0), (T0, 20.0)])
    with pytest.raises(DomainError):
        CarbonIntensityProfile.from_series([(T0, -1.0)])
    with pytest.raises(DomainError):
        CarbonIntensityProfile.from_series([])
    for bad in NON_FINITE:
        with pytest.raises(DomainError):
            CarbonIntensityProfile.constant(bad)
        with pytest.raises(DomainError):
            CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), bad)])


@pytest.mark.parametrize(
    "make",
    [lambda: CarbonIntensityProfile.constant(3.0),
     lambda: CarbonIntensityProfile.from_series([(T0, 3.0), (T0 + _hours(1), 5.0)])],
    ids=["constant", "series"],
)
def test_profile_json_and_copies_hold_only_its_fields(make):
    profile = make()
    # a lookup builds the private bisect and step caches before the encoding
    profile.mean_intensity(T0, T0 + _hours(2))
    assert list(to_json(profile)) == ["constant_g_per_kwh", "series"]
    copy = pickle.loads(pickle.dumps(profile))
    assert copy == profile == make() and hash(copy) == hash(make())
    assert repr(copy) == repr(make())
    assert copy.intensity_at(T0 + _hours(1)) == profile.intensity_at(T0 + _hours(1))


def reference_profile_fault(points):
    """The message of the per-entry loops the profile checked with before its
    C-level passes, or None: the first disorder, else the first bad value."""
    for (t_prev, _), (t_next, _) in zip(points, points[1:]):
        if t_next <= t_prev:
            return f"series timestamps must be strictly increasing: {t_prev} then {t_next}"
    for _, value in points:
        if not (math.isfinite(value) and value >= 0):
            return f"carbon intensity must be >= 0 g/kWh, got {value}"
    return None


@pytest.mark.parametrize(
    "edits",
    [
        {}, {0: (None, -1.0)}, {5: (None, -0.0)}, {9: (None, math.nan)},
        {3: (None, math.inf), 7: (None, -2.0)}, {0: (T0 + _hours(1), None)},
        {4: (T0 + _hours(3), None)}, {9: (T0, None)},
        # a disorder is named before a bad value that comes earlier
        {2: (None, -1.0), 8: (T0, None)},
        {2: (T0 + _hours(1), None), 6: (T0 + _hours(9), None)},
    ],
)
def test_profile_names_its_first_fault_as_the_loops_did(edits):
    points = [(T0 + _hours(i), 10.0 * i) for i in range(10)]
    for i, (t, value) in edits.items():
        points[i] = (points[i][0] if t is None else t, points[i][1] if value is None else value)
    want = reference_profile_fault(points)
    if want is None:
        assert CarbonIntensityProfile.from_series(points).series == tuple(points)
    else:
        with pytest.raises(DomainError) as err:
            CarbonIntensityProfile.from_series(points)
        assert str(err.value) == want


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "intensity.csv"
    path.write_text(
        "timestamp,intensity_g_per_kwh\n"
        "2022-06-01T00:00:00Z,45.5\n"
        "2022-06-01T00:30:00Z,50.0\n"
    )
    profile = CarbonIntensityProfile.from_csv(path)
    assert profile.series == ((T0, 45.5), (T0 + timedelta(minutes=30), 50.0))


def test_profile_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "intensity.csv"
    path.write_text("time,g\n2022-06-01T00:00:00Z,45.5\n")
    with pytest.raises(DataFormatError):
        CarbonIntensityProfile.from_csv(path)


def test_profile_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "intensity.csv"
    path.write_text("timestamp,intensity_g_per_kwh\n2022-06-01T00:00:00Z,abc\n")
    with pytest.raises(DataFormatError, match="line 2"):
        CarbonIntensityProfile.from_csv(path)


@pytest.mark.parametrize(
    "body,message",
    [
        # a quoted intensity that holds a newline spans lines 3 and 4
        ('2022-06-01T00:00:00Z,10\n"2022-06-01T01:00:00Z","20\n"\n2022-06-01T00:30:00Z,30\n',
         "line 5: timestamps not strictly increasing "
         "(2022-06-01 01:00:00+00:00 then 2022-06-01 00:30:00+00:00)"),
        # of two disorders, the first is named
        ("2022-06-01T01:00:00Z,10\n2022-06-01T00:00:00Z,20\n"
         "2022-06-01T02:00:00Z,30\n2022-06-01T02:00:00Z,40\n",
         "line 3: timestamps not strictly increasing "
         "(2022-06-01 01:00:00+00:00 then 2022-06-01 00:00:00+00:00)"),
    ],
    ids=["after-a-quoted-newline", "first-of-two"],
)
def test_profile_csv_names_the_physical_line_of_the_first_disorder(tmp_path, body, message):
    path = tmp_path / "intensity.csv"
    path.write_text("timestamp,intensity_g_per_kwh\n" + body)
    with pytest.raises(DataFormatError) as err:
        CarbonIntensityProfile.from_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_a_disordered_plain_profile_is_read_once_by_the_row_reader(tmp_path):
    # the column-wise read passes the plain file, the profile refuses its
    # order, and the row reader's rows name the line without a second read
    path = tmp_path / "intensity.csv"
    stamps = [T0 + timedelta(minutes=30 * i) for i in range(6)]
    stamps[4] = T0
    path.write_text("timestamp,intensity_g_per_kwh\n" + "".join(
        f"{ts.isoformat()},{40 + i}\n" for i, ts in enumerate(stamps)
    ))
    with patch("wattplan.emissions.timed_values", wraps=timed_values) as rows:
        with pytest.raises(DataFormatError) as err:
            CarbonIntensityProfile.from_csv(path)
    assert str(err.value) == (
        f"{path}: line 6: timestamps not strictly increasing "
        "(2022-06-01 01:30:00+00:00 then 2022-06-01 00:00:00+00:00)"
    )
    assert rows.call_count == 1


def test_amortized_scope3_zero_duration():
    embodied = EmbodiedEmissions(1_000_000.0, 50_000.0)
    assert amortized_scope3(embodied, 0.0) == 0.0


def test_amortized_scope3_full_lifetime():
    embodied = EmbodiedEmissions(1_000_000.0, 50_000.0)
    assert amortized_scope3(embodied, 50_000.0) == pytest.approx(1_000_000.0)


def test_amortized_scope3_partial():
    embodied = EmbodiedEmissions(1_000_000.0, 50_000.0)
    assert amortized_scope3(embodied, 5_000.0) == pytest.approx(100_000.0)


def test_amortized_scope3_linearity():
    rng = random.Random(21)
    embodied = EmbodiedEmissions(rng.uniform(1e4, 1e7), rng.uniform(1e3, 1e5))
    for _ in range(100):
        duration = rng.uniform(0, embodied.service_lifetime_hours)
        k = rng.uniform(0, 5)
        assert amortized_scope3(embodied, k * duration) == pytest.approx(
            k * amortized_scope3(embodied, duration), rel=1e-9, abs=1e-9
        )


def test_embodied_emissions_validation():
    with pytest.raises(DomainError):
        EmbodiedEmissions(-1.0, 100.0)
    with pytest.raises(DomainError):
        EmbodiedEmissions(100.0, 0.0)
    for bad in NON_FINITE:
        with pytest.raises(DomainError):
            EmbodiedEmissions(bad, 100.0)
        with pytest.raises(DomainError):
            EmbodiedEmissions(100.0, bad)


def test_amortized_rejects_negative_duration():
    for duration in [-1.0, *NON_FINITE]:
        with pytest.raises(DomainError):
            amortized_scope3(EmbodiedEmissions(100.0, 100.0), duration)


def test_lifetime_emissions_zero_power():
    embodied = EmbodiedEmissions(1000.0, 100.0)
    breakdown = lifetime_emissions(0.0, 10.0, CarbonIntensityProfile.constant(50.0), embodied)
    assert breakdown.scope2_kg == 0.0
    assert breakdown.scope3_kg == pytest.approx(100.0)


def test_lifetime_emissions_hour_at_measured_power():
    breakdown = lifetime_emissions(
        3220.0, 1.0, CarbonIntensityProfile.constant(100.0), EmbodiedEmissions(0.0, 1.0)
    )
    assert breakdown.scope2_kg == pytest.approx(322.0)
    assert breakdown.scope3_kg == 0.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_lifetime_emissions_rejects_non_finite(bad):
    profile = CarbonIntensityProfile.constant(50.0)
    embodied = EmbodiedEmissions(1000.0, 100.0)
    with pytest.raises(DomainError, match="mean power"):
        lifetime_emissions(bad, 1.0, profile, embodied)
    with pytest.raises(DomainError, match="duration"):
        lifetime_emissions(100.0, bad, profile, embodied)


def test_priced_emissions_past_the_float_range_names_its_inputs():
    with pytest.raises(
        DomainError,
        match=r"^energy or emissions exceed the float range: "
        r"24 h at a mean 2530 kW, carbon intensity 1e\+308 g/kWh$",
    ):
        priced_emissions(2530, 24, 1e308, None)
    # a scope-3 share past the float range, on a scope-2 in range
    with pytest.raises(DomainError, match=r", embodied 1e\+308 kg over 1\.0 h$"):
        priced_emissions(2530, 24, 50.0, EmbodiedEmissions(1e308, 1.0))


@pytest.mark.parametrize(
    "intensity, message",
    [
        (-1.0, r"^carbon intensity must be >= 0 g/kWh, got -1\.0$"),
        (math.nan, r"^carbon intensity must be >= 0 g/kWh, got nan$"),
        (math.inf, r"^the run's mean carbon intensity exceeds the float range, got inf g/kWh$"),
    ],
)
def test_priced_emissions_names_what_is_wrong_with_the_intensity(intensity, message):
    with pytest.raises(DomainError, match=message):
        priced_emissions(1.0, 1.0, intensity, None)


def test_amortized_scope3_past_a_float_range_product_is_in_range():
    embodied = EmbodiedEmissions(1e308, 1e10)
    share = amortized_scope3(embodied, 24.0)
    assert share == 1e308 * (24.0 / 1e10) == pytest.approx(2.4e299)
    assert priced_emissions(1.0, 24.0, 50.0, embodied).scope3_kg == share


def test_priced_scope2_past_a_float_range_product_is_in_range():
    energy_kwh = 1e300 * 1e5
    breakdown = priced_emissions(1e300, 1e5, 1e4, None)
    assert breakdown.scope2_kg == energy_kwh * (1e4 / 1000.0) == pytest.approx(1e306)
    assert breakdown.total_kg == breakdown.scope2_kg


def test_mean_intensity_past_a_float_range_sum_is_in_range():
    half = timedelta(minutes=30)
    profile = CarbonIntensityProfile.from_series(
        [(T0, 100.0), (T0 + half, 1e308), (T0 + 2 * half, 1e308)]
    )
    assert profile.mean_intensity(T0, T0 + 2 * half) == 5e307
    # one step alone, and a window inside the last step
    assert profile.mean_intensity(T0 + half, T0 + 2 * half) == 1e308
    assert profile.mean_intensity(T0 + 3 * half, T0 + 5 * half) == 1e308


def test_lifetime_emissions_past_the_float_range_names_its_inputs():
    with pytest.raises(
        DomainError,
        match=r"^energy or emissions exceed the float range: "
        r"24\.0 h at a mean 2530\.0 kW, carbon intensity 1e\+308 g/kWh$",
    ):
        lifetime_emissions(2530.0, 24.0, CarbonIntensityProfile.constant(1e308), None)


@pytest.mark.parametrize("kind", sorted(_PROFILE_KINDS))
def test_lifetime_emissions_without_embodied_is_scope2_only(kind):
    profile = _PROFILE_KINDS[kind]
    breakdown = lifetime_emissions(100.0, 3.0, profile, None)
    assert breakdown.scope3_kg == 0.0
    assert breakdown.total_kg == breakdown.scope2_kg == 15.0
    for embodied in (EmbodiedEmissions(0.0, 1.0), EmbodiedEmissions(1e6, 52560.0)):
        assert lifetime_emissions(100.0, 3.0, profile, embodied).scope2_kg == breakdown.scope2_kg


@pytest.mark.parametrize("kind", sorted(_PROFILE_KINDS))
def test_lifetime_emissions_shorter_than_a_microsecond_uses_the_anchor_intensity(kind):
    # the interval rounds to zero length, which scope2_emissions rejects
    breakdown = lifetime_emissions(1.0, 1e-12, _PROFILE_KINDS[kind], None)
    assert breakdown.scope2_kg == 1e-12 * 50.0 / 1000.0


def test_lifetime_emissions_total_is_sum():
    rng = random.Random(31)
    for _ in range(100):
        embodied = EmbodiedEmissions(rng.uniform(0, 1e6), rng.uniform(1, 1e5))
        breakdown = lifetime_emissions(
            rng.uniform(0, 5000),
            rng.uniform(0, 1000),
            CarbonIntensityProfile.constant(rng.uniform(0, 300)),
            embodied,
        )
        assert breakdown.total_kg == pytest.approx(
            breakdown.scope2_kg + breakdown.scope3_kg, rel=1e-12
        )


def test_lifetime_emissions_series_anchored_at_series_start():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0), (T0 + _hours(1), 30.0)])
    breakdown = lifetime_emissions(100.0, 2.0, profile, EmbodiedEmissions(0.0, 1.0))
    # one hour at 10 plus one hour at 30 -> 200 kWh at an effective 20 g/kWh
    assert breakdown.scope2_kg == pytest.approx(4.0)


# -- naive datetimes are taken as UTC, as PowerSeries and parse_timestamp take them


def _naive(ts: datetime) -> datetime:
    return ts.replace(tzinfo=None)


def test_a_series_of_naive_or_mixed_stamps_equals_one_of_utc_stamps():
    points = [(T0, 10.0), (T0 + _hours(1), 20.0), (T0 + _hours(2), 30.0)]
    aware = CarbonIntensityProfile.from_series(points)
    naive = CarbonIntensityProfile.from_series([(_naive(ts), v) for ts, v in points])
    mixed = CarbonIntensityProfile.from_series(
        [(ts if i % 2 else _naive(ts), v) for i, (ts, v) in enumerate(points)]
    )
    assert naive == aware
    assert mixed == aware
    assert naive.start_time() == T0
    with pytest.raises(DomainError, match="strictly increasing"):
        CarbonIntensityProfile.from_series([(T0, 10.0), (_naive(T0), 20.0)])


@pytest.mark.parametrize("kind", ["series", "constant"])
def test_naive_query_instants_give_what_utc_ones_give(kind):
    if kind == "series":
        profile = CarbonIntensityProfile.from_series(
            [(T0, 10.0), (T0 + _hours(1), 20.0), (T0 + _hours(2), 30.0)]
        )
    else:
        profile = CarbonIntensityProfile.constant(42.0)
    when, start, end = T0 + _hours(1.5), T0 + _hours(0.5), T0 + _hours(2.5)
    assert profile.intensity_at(_naive(when)) == profile.intensity_at(when)
    assert profile.mean_intensity(_naive(start), _naive(end)) == profile.mean_intensity(start, end)
    assert profile.mean_intensity(_naive(start), end) == profile.mean_intensity(start, end)
    assert run_intensity(profile, 2.0, _naive(start)) == run_intensity(profile, 2.0, start)
    assert lifetime_emissions(100.0, 2.0, profile, None, _naive(start)) == lifetime_emissions(
        100.0, 2.0, profile, None, start
    )
    interval = [((_naive(start), _naive(end)), 5.0)]
    assert scope2_emissions(interval, profile) == scope2_emissions([((start, end), 5.0)], profile)


def test_naive_instants_before_a_series_are_refused_as_utc_ones_are():
    profile = CarbonIntensityProfile.from_series([(T0, 10.0)])
    early = T0 - _hours(1)
    for query in (
        lambda ts: profile.intensity_at(ts),
        lambda ts: profile.mean_intensity(ts, T0 + _hours(1)),
        lambda ts: run_intensity(profile, 2.0, ts),
    ):
        with pytest.raises(DomainError) as aware_error:
            query(early)
        with pytest.raises(DomainError) as naive_error:
            query(_naive(early))
        assert str(naive_error.value) == str(aware_error.value)
