import json
import math
from datetime import datetime, timedelta, timezone

import pytest

from wattplan.datafiles import data_path
from wattplan.errors import DataFormatError, DomainError
from wattplan.telemetry import (
    PowerSeries,
    SeriesSegment,
    detect_changepoint,
    intervention_impact,
    parse_series,
    synth_series,
    window_mean,
    write_series,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def _hours(n: float) -> timedelta:
    return timedelta(hours=n)


def _series(values, start=T0, step_hours=1.0):
    return PowerSeries(
        timestamps=tuple(start + i * _hours(step_hours) for i in range(len(values))),
        values_kw=tuple(values),
    )


def test_parse_two_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(
        "timestamp,power_kw\n2022-01-01T00:00:00Z,100\n2022-01-01T01:00:00Z,200\n"
    )
    series = parse_series(path)
    assert len(series) == 2
    assert series.values_kw == (100.0, 200.0)
    assert series.timestamps[0] == T0


def test_parse_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(
        "timestamp,power_kw\n2022-01-01T02:00:00Z,100\n2022-01-01T01:00:00Z,200\n"
    )
    with pytest.raises(DataFormatError) as err:
        parse_series(path)
    message = str(err.value)
    assert "2022-01-01T02:00:00Z" in message and "2022-01-01T01:00:00Z" in message
    assert "line 3" in message


def test_parse_rejects_negative_power(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,power_kw\n2022-01-01T00:00:00Z,-5\n")
    with pytest.raises(DomainError, match="line 2"):
        parse_series(path)


def test_parse_rejects_nan_power(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,power_kw\n2022-01-01T00:00:00Z,nan\n")
    with pytest.raises(DomainError, match="line 2"):
        parse_series(path)


def test_parse_rejects_malformed_row(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,power_kw\n2022-01-01T00:00:00Z\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_series(path)


def test_parse_rejects_empty_file(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        parse_series(path)


def test_parse_header_only_gives_empty_series(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,power_kw\n")
    assert len(parse_series(path)) == 0


def test_bundled_timeline_recipe_roundtrips(tmp_path):
    recipe = json.loads(data_path("recipe_full_timeline.json").read_text())
    assert len(recipe["segments"]) == 5
    segments = [
        SeriesSegment(s["duration_hours"], s["n_samples"], s["mean_kw"], s["noise_sd_kw"])
        for s in recipe["segments"]
    ]
    series = synth_series(segments, seed=recipe["seed"])
    assert len(series) == sum(s.n_samples for s in segments)
    path = tmp_path / "timeline.csv"
    write_series(series, path)
    parsed = parse_series(path)
    assert parsed == series


def test_window_mean_constant_series():
    series = _series([100.0] * 10)
    stats = window_mean(series, T0, T0 + _hours(10))
    assert stats.mean_kw == pytest.approx(100.0)
    assert stats.stddev_kw == pytest.approx(0.0)
    assert stats.count == 10


def test_window_mean_two_samples():
    series = _series([3200.0, 3240.0])
    stats = window_mean(series, T0, T0 + _hours(2))
    assert stats.mean_kw == pytest.approx(3220.0)
    assert stats.stddev_kw == pytest.approx(20.0)  # population, not sample


def test_window_is_half_open():
    series = _series([1.0, 2.0, 3.0, 4.0])
    stats = window_mean(series, T0 + _hours(1), T0 + _hours(3))
    assert stats.count == 2
    assert stats.mean_kw == pytest.approx(2.5)


def test_adjacent_windows_partition_series():
    series = _series(list(range(1, 11)))
    mid = T0 + _hours(5)
    first = window_mean(series, T0, mid)
    second = window_mean(series, mid, T0 + _hours(10))
    assert first.count + second.count == len(series)


def test_window_mean_empty_window():
    series = _series([1.0, 2.0])
    with pytest.raises(DomainError, match="no samples"):
        window_mean(series, T0 + _hours(10), T0 + _hours(20))


def test_window_mean_on_noisy_segment_near_target():
    series = synth_series([(500.0, 500, 3220.0, 20.0)], seed=20220501)
    stats = window_mean(series, T0, T0 + _hours(500))
    assert abs(stats.mean_kw - 3220.0) <= 3 * 20.0 / math.sqrt(500)


def test_full_range_mean_matches_weighted_segment_means():
    # equal cadence -> the overall mean is the sample-weighted segment mean
    segments = [(100.0, 100, 3220.0, 0.0), (50.0, 50, 3010.0, 0.0), (50.0, 50, 2530.0, 0.0)]
    series = synth_series(segments, seed=1)
    stats = window_mean(series, series.timestamps[0], series.timestamps[-1] + _hours(1))
    expected = (100 * 3220.0 + 50 * 3010.0 + 50 * 2530.0) / 200
    assert stats.mean_kw == pytest.approx(expected, abs=1e-9)


def test_impact_noiseless_bios_step():
    series = synth_series([(500.0, 500, 3220.0, 0.0), (500.0, 500, 3010.0, 0.0)], seed=0)
    report = intervention_impact(series, T0 + _hours(500))
    assert report.delta_kw == pytest.approx(-210.0)
    assert report.pct_change == pytest.approx(-0.06521739, abs=1e-8)


def test_impact_noiseless_freq_step():
    series = synth_series([(500.0, 500, 3010.0, 0.0), (500.0, 500, 2530.0, 0.0)], seed=0)
    report = intervention_impact(series, T0 + _hours(500))
    assert report.delta_kw == pytest.approx(-480.0)
    assert report.pct_change == pytest.approx(-0.15946844, abs=1e-8)


def test_impact_constant_series_gives_zero_delta():
    series = _series([3220.0] * 20)
    report = intervention_impact(series, T0 + _hours(10))
    assert report.delta_kw == 0.0
    assert report.pct_change == 0.0


def test_impact_reduction_is_negative():
    series = synth_series([(100.0, 100, 3220.0, 20.0), (100.0, 100, 3010.0, 20.0)], seed=3)
    report = intervention_impact(series, T0 + _hours(100))
    assert report.delta_kw < 0
    assert report.pct_change < 0


def test_impact_guard_gap_excludes_transition():
    segments = [(500.0, 500, 3220.0, 20.0), (500.0, 500, 3010.0, 20.0), (500.0, 500, 2530.0, 20.0)]
    series = synth_series(segments, seed=77)
    report = intervention_impact(series, T0 + _hours(750), _hours(250))
    assert report.before.count == 500
    assert report.after.count == 500
    assert report.pct_change == pytest.approx(-0.2143, abs=0.005)


def test_impact_of_stacked_steps_composes():
    first = synth_series([(100.0, 100, 3220.0, 0.0), (100.0, 100, 3010.0, 0.0)], seed=0)
    second = synth_series([(100.0, 100, 3010.0, 0.0), (100.0, 100, 2530.0, 0.0)], seed=0)
    both = synth_series([(100.0, 100, 3220.0, 0.0), (100.0, 100, 2530.0, 0.0)], seed=0)
    pct1 = intervention_impact(first, T0 + _hours(100)).pct_change
    pct2 = intervention_impact(second, T0 + _hours(100)).pct_change
    pct_cum = intervention_impact(both, T0 + _hours(100)).pct_change
    assert (1 + pct1) * (1 + pct2) == pytest.approx(1 + pct_cum, rel=1e-12)
    assert pct_cum == pytest.approx(-690.0 / 3220.0, rel=1e-12)


def test_impact_windows_cover_all_samples_at_zero_gap():
    series = _series([1.0, 2.0, 3.0, 4.0])
    report = intervention_impact(series, T0 + _hours(2))
    assert report.before.count == 2
    assert report.after.count == 2


def test_impact_requires_samples_on_both_sides():
    series = _series([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        intervention_impact(series, T0 - _hours(1))
    with pytest.raises(DomainError):
        intervention_impact(series, T0 + _hours(10))
    with pytest.raises(DomainError):
        intervention_impact(series, T0 + _hours(1), _hours(5))


def test_impact_takes_a_naive_change_time_as_utc():
    series = synth_series([(100.0, 100, 3220.0, 20.0), (100.0, 100, 3010.0, 20.0)], seed=3)
    aware = T0 + _hours(100)
    naive = aware.replace(tzinfo=None)
    for gap in (_hours(0), _hours(5)):
        assert intervention_impact(series, naive, gap) == intervention_impact(series, aware, gap)
    end = T0 + _hours(50)
    assert window_mean(series, T0.replace(tzinfo=None), end) == window_mean(series, T0, end)


@pytest.mark.filterwarnings("error")
def test_powers_whose_squares_overflow_raise_a_domain_error():
    series = _series([3220.0, 1e200, 3220.0, 3010.0, 3010.0, 3010.0])
    with pytest.raises(DomainError, match="too large"):
        detect_changepoint(series)
    with pytest.raises(DomainError, match="too large"):
        window_mean(series, T0, T0 + _hours(3))
    assert window_mean(series, T0 + _hours(2), T0 + _hours(6)).count == 4


def test_detect_clean_step():
    series = synth_series([(50.0, 50, 10.0, 0.0), (50.0, 50, 20.0, 0.0)], seed=0)
    found = detect_changepoint(series)
    assert found.index == 50
    assert found.change_time == T0 + _hours(50)
    assert found.score == pytest.approx(1.0)


def test_detect_clean_steps_at_various_positions():
    for split in (5, 20, 80, 95):
        values = [10.0] * split + [25.0] * (100 - split)
        found = detect_changepoint(_series(values))
        assert found.index == split
        assert found.score == pytest.approx(1.0)


def test_detect_constant_series():
    found = detect_changepoint(_series([100.0] * 12))
    assert found.score == 0.0
    assert found.index == 2  # earliest admissible split


def test_detect_requires_four_samples():
    with pytest.raises(DomainError):
        detect_changepoint(_series([1.0, 2.0, 3.0]))


def test_detect_noisy_steps_monte_carlo():
    hits = 0
    for seed in range(20):
        series = synth_series(
            [(150.0, 150, 3220.0, 30.0), (150.0, 150, 3010.0, 30.0)], seed=seed
        )
        found = detect_changepoint(series)
        if abs(found.index - 150) <= 2:
            hits += 1
    assert hits >= 19


def test_synth_deterministic_for_seed():
    segments = [(100.0, 100, 3220.0, 20.0)]
    assert synth_series(segments, seed=9) == synth_series(segments, seed=9)
    assert synth_series(segments, seed=9) != synth_series(segments, seed=10)


def test_synth_noiseless_segment_is_constant():
    series = synth_series([(24.0, 24, 3220.0, 0.0)], seed=0)
    assert set(series.values_kw) == {3220.0}
    assert series.timestamps[1] - series.timestamps[0] == _hours(1)


def test_synth_clamps_at_zero():
    series = synth_series([(10.0, 200, 1.0, 10.0)], seed=5)
    assert min(series.values_kw) == 0.0
    assert all(v >= 0 for v in series.values_kw)


def test_synth_segment_validation():
    with pytest.raises(DomainError):
        synth_series([(10.0, 0, 100.0, 1.0)], seed=0)
    with pytest.raises(DomainError):
        synth_series([(10.0, 5, 100.0, -1.0)], seed=0)
    with pytest.raises(DomainError):
        synth_series([(0.0, 5, 100.0, 1.0)], seed=0)
    with pytest.raises(DomainError):
        synth_series([], seed=0)


def test_synth_segment_means_within_standard_error_bound():
    segments = [(300.0, 300, 3220.0, 20.0), (300.0, 300, 3010.0, 20.0), (300.0, 300, 2530.0, 20.0)]
    series = synth_series(segments, seed=12)
    bound = 3 * 20.0 / math.sqrt(300)
    for i, (_, _, mean, _) in enumerate(segments):
        stats = window_mean(series, T0 + _hours(300 * i), T0 + _hours(300 * (i + 1)))
        assert abs(stats.mean_kw - mean) <= bound


def test_write_parse_roundtrip_preserves_values(tmp_path):
    series = synth_series([(48.0, 48, 3152.25, 17.5)], seed=99)
    path = tmp_path / "series.csv"
    write_series(series, path)
    assert parse_series(path) == series


def test_series_validation():
    with pytest.raises(DomainError, match="strictly increasing"):
        PowerSeries(timestamps=(T0, T0), values_kw=(1.0, 2.0))
    with pytest.raises(DomainError):
        PowerSeries(timestamps=(T0,), values_kw=(-1.0,))
    with pytest.raises(DomainError):
        PowerSeries(timestamps=(T0,), values_kw=(float("inf"),))
    with pytest.raises(DomainError):
        PowerSeries(timestamps=(T0, T0 + _hours(1)), values_kw=(1.0,))
