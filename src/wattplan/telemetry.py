"""Cabinet power telemetry: CSV ingestion, windowed statistics, before/after
intervention impact, single-changepoint detection, and a synthetic-series
generator for fixtures (the measured series behind the analysis is not
redistributable)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datafiles import timed_values
from .errors import DataFormatError, DomainError
from .timestamps import aware, format_timestamp

DEFAULT_SERIES_START = datetime(2022, 1, 1, tzinfo=timezone.utc)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MIN_US = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
_MAX_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
# the longest span a datetime can hold, and so the longest synthetic segment
_MAX_SEGMENT_HOURS = (datetime.max - datetime.min) / timedelta(hours=1)
_CHUNK = 1 << 12  # rows per batch of timestamps and write_series, which bounds the temporaries
_BATCH = 1 << 14  # rows per batch of the canonical parse


def _micros(ts: datetime) -> int:
    """Microseconds since the Unix epoch; naive timestamps are taken as UTC."""
    return (aware(ts) - _EPOCH) // _ONE_US


def _instant(us) -> datetime:
    """The UTC datetime of an epoch-microsecond count."""
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class PowerSeries:
    """Strictly time-ordered power samples in kW.

    The samples live in two read-only arrays: `times_us`, int64 microseconds
    since the Unix epoch (UTC), and `power_kw`, float64. The tuples
    `timestamps` (UTC datetimes) and `values_kw` are built on first use.
    Naive datetimes are taken as UTC.
    """

    times_us: np.ndarray
    power_kw: np.ndarray

    def __init__(self, timestamps, values_kw) -> None:
        values = np.fromiter((float(v) for v in values_kw), dtype=np.float64)
        times = np.fromiter((_micros(t) for t in timestamps), dtype=np.int64)
        self._adopt(times, values)

    @classmethod
    def from_arrays(cls, times_us, power_kw) -> "PowerSeries":
        """A series from epoch microseconds and kW values; both are copied."""
        return cls._owning(
            np.array(times_us, dtype=np.int64), np.array(power_kw, dtype=np.float64)
        )

    @classmethod
    def _owning(cls, times: np.ndarray, values: np.ndarray) -> "PowerSeries":
        """A series that takes, uncopied, an int64 and a float64 array that
        no one else holds; the checks are those of from_arrays."""
        series = cls.__new__(cls)
        series._adopt(times, values)
        return series

    def _adopt(self, times: np.ndarray, values: np.ndarray) -> None:
        if len(times) != len(values):
            raise DomainError(f"{len(times)} timestamps but {len(values)} power values")
        # before the order check, whose message turns two of the times into datetimes
        if times.size and not (_MIN_US <= times.min() and times.max() <= _MAX_US):
            raise DomainError("timestamps must lie within the years 1 to 9999")
        backwards = np.flatnonzero(np.diff(times) <= 0)
        if backwards.size:
            i = int(backwards[0])
            raise DomainError(
                f"timestamps must be strictly increasing: "
                f"{format_timestamp(_instant(times[i]))} then "
                f"{format_timestamp(_instant(times[i + 1]))}"
            )
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        if bad.size:
            raise DomainError(
                f"power values must be finite and >= 0 kW, got {float(values[bad[0]])}"
            )
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times_us", times)
        object.__setattr__(self, "power_kw", values)

    @cached_property
    def timestamps(self) -> tuple[datetime, ...]:
        stamps: list[datetime] = []
        for lo in range(0, len(self), _CHUNK):
            naive = self.times_us[lo : lo + _CHUNK].astype("datetime64[us]").tolist()
            # combine sets the zone several times faster than replace(tzinfo=...)
            stamps.extend(map(datetime.combine, map(datetime.date, naive),
                              map(datetime.time, naive), repeat(timezone.utc)))
        return tuple(stamps)

    @cached_property
    def values_kw(self) -> tuple[float, ...]:
        return tuple(self.power_kw.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.times_us, other.times_us) and np.array_equal(
            self.power_kw, other.power_kw
        )

    def __hash__(self) -> int:
        return hash((self.timestamps, self.values_kw))

    def __repr__(self) -> str:
        return f"PowerSeries(timestamps={self.timestamps!r}, values_kw={self.values_kw!r})"

    def __reduce__(self):
        # copies and unpickled series go through the checks and stay read-only
        return (PowerSeries.from_arrays, (self.times_us, self.power_kw))

    def __len__(self) -> int:
        return len(self.times_us)


@dataclass(frozen=True)
class WindowStats:
    """Sample count, mean and population standard deviation over [start, end)."""

    start: datetime
    end: datetime
    count: int
    mean_kw: float
    stddev_kw: float


@dataclass(frozen=True)
class InterventionReport:
    """Mean-shift summary around a change time; reductions give negative deltas."""

    change_time: datetime
    before: WindowStats
    after: WindowStats
    delta_kw: float
    pct_change: float


@dataclass(frozen=True)
class Changepoint:
    change_time: datetime
    index: int
    score: float


@dataclass(frozen=True)
class SeriesSegment:
    """One constant-mean stretch of a synthetic series."""

    duration_hours: float
    n_samples: int
    mean_kw: float
    noise_sd_kw: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_hours) and self.duration_hours > 0):
            raise DomainError(
                f"segment duration must be finite and > 0 hours, got {self.duration_hours}"
            )
        if self.duration_hours > _MAX_SEGMENT_HOURS:
            raise DomainError(
                f"segment duration must be at most {_MAX_SEGMENT_HOURS:.0f} hours, "
                f"got {self.duration_hours}"
            )
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise DomainError(f"segment n_samples must be >= 1, got {self.n_samples!r}")
        if not (math.isfinite(self.mean_kw) and self.mean_kw >= 0):
            raise DomainError(f"segment mean must be finite and >= 0 kW, got {self.mean_kw}")
        if not (math.isfinite(self.noise_sd_kw) and self.noise_sd_kw >= 0):
            raise DomainError(
                f"segment noise sd must be finite and >= 0 kW, got {self.noise_sd_kw}"
            )


def parse_series(path: str | Path) -> PowerSeries:
    """Load a power series from CSV with header timestamp,power_kw.

    Rows out of time order and malformed rows are rejected with their line
    number as a DataFormatError, negative or non-finite power as a
    DomainError. The canonical form that write_series emits for whole-second
    times is read vectorized, without a scan for line ends where every row
    has the same width; any other file, and every file with an error in it,
    is read row by row.
    """
    series = _parse_canonical(path)
    return series if series is not None else _parse_rows(path)


_HEADER = b"timestamp,power_kw\n"
# a canonical row is "YYYY-MM-DDTHH:MM:SSZ,<number>": 21 fixed bytes, then the number
_STAMP_BYTES = 21
_STAMP_SEPARATORS = np.frombuffer(b"--T::Z,", dtype=np.uint8)
_STAMP_SEPARATOR_AT = [4, 7, 10, 13, 16, 19, 20]
_STAMP_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_NUMBER_BYTE = np.zeros(256, dtype=bool)
_NUMBER_BYTE[np.frombuffer(b"0123456789.+-eE", dtype=np.uint8)] = True
# a whole-second write_series row is at most 21 + 24 bytes (the longest float
# repr); a longer row goes to the per-row parser, as its cast below would take
# about 132 bytes per byte of the row
_MAX_ROW_BYTES = 64
_EXACT_DIGITS = 15  # integers below 10**15, and 10**k for k <= 22, are exact doubles
_POWERS_OF_TEN = 10.0 ** np.arange(_EXACT_DIGITS + 1)


def _parse_canonical(path: str | Path) -> PowerSeries | None:
    """The series of a canonical file, or None for any other file.

    Canonical: the exact header, LF line ends, and every row a whole-second
    `YYYY-MM-DDTHH:MM:SSZ` time, a comma and a number written with digits,
    sign, point and exponent only, with the times strictly increasing and
    the powers finite and >= 0.

    Rows are parsed in batches of one length. Where the first row's width w
    divides the body into rows of w + 1 bytes and one strided compare finds
    a newline at the end of each, the rows are first read as one group,
    without a scan for the line ends. Any other file, and one whose read as
    a single group fails (such as rows of several widths whose newlines fall
    on the stride by chance), has its line ends scanned and its rows grouped
    by length.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not (data.startswith(_HEADER) and data.endswith(b"\n")):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=len(_HEADER))
    width = data.find(b"\n", len(_HEADER)) - len(_HEADER)  # the first row's
    if body.size and width <= _MAX_ROW_BYTES and body.size % (width + 1) == 0 and (
        body[width :: width + 1] == ord("\n")
    ).all():
        # Every row is `width` bytes long: one group, whose row numbers and
        # starts are ranges. The parse checks each other byte of a row as a
        # digit, a separator or a number byte, none of them a newline, so a
        # file that passes the stride by chance fails here and is scanned.
        n_rows = body.size // (width + 1)
        series = _parse_groups(body, range(0, body.size, width + 1), [(width, range(n_rows))])
        if series is not None:
            return series
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.concatenate(([0], ends + 1))[:-1]
    lengths = ends - starts
    if lengths.size and lengths.max() > _MAX_ROW_BYTES:
        return None
    groups = (
        (length, np.flatnonzero(lengths == length))
        for length in np.flatnonzero(np.bincount(lengths)).tolist()
    )
    return _parse_groups(body, starts, groups)


def _parse_groups(body: np.ndarray, starts, groups) -> PowerSeries | None:
    """The series of the canonical rows of body, or None if one is not: row i
    starts at body[starts[i]], and groups holds (length, row numbers) pairs."""
    times = np.empty(len(starts), dtype=np.int64)
    power = np.empty(len(starts))
    # a batch per row length, so that byte j of every row is one column
    for length, group in groups:
        if length <= _STAMP_BYTES:
            return None
        windows = sliding_window_view(body, length)
        for lo in range(0, len(group), _BATCH):
            rows = group[lo : lo + _BATCH]
            first, n = int(rows[0]), len(rows)
            if rows[-1] - first == n - 1:
                # consecutive rows of one length are evenly spaced in the file
                rows = slice(first, first + n)
                block = windows[starts[first] :: length + 1][:n]
            else:
                block = windows[starts[rows]]
            seconds = _canonical_seconds(block)
            kw = None if seconds is None else _canonical_power(block)
            if kw is None:
                return None
            times[rows] = seconds * 1_000_000
            power[rows] = kw
    try:
        return PowerSeries._owning(times, power)
    except DomainError:
        return None


def _canonical_seconds(rows: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of the rows' `YYYY-MM-DDTHH:MM:SSZ,` stamps, or None."""
    cols = np.ascontiguousarray(rows[:, :_STAMP_BYTES].T)  # byte j of every row is cols[j]
    if not (cols[_STAMP_SEPARATOR_AT] == _STAMP_SEPARATORS[:, None]).all():
        return None
    digits = cols[_STAMP_DIGIT_AT] - np.uint8(ord("0"))
    # numpy's parser would also take a sign, a space or a NUL in the year
    if (digits > 9).any():
        return None
    # YY, YY, MM, DD, hh, mm, ss
    pairs = digits[0::2].astype(np.int32) * 10 + digits[1::2]
    hour, minute, second = pairs[4], pairs[5], pairs[6]
    if ((hour > 23) | (minute > 59) | (second > 59)).any():
        return None
    # numpy's ISO parser checks the month and the day of the month (leap days
    # too), once per run of rows on the same date. It reads them as str, as a
    # failed cast of more than 500 bytes strings crashes numpy 2.4.6.
    date = ((pairs[0] * 100 + pairs[1]) * 100 + pairs[2]) * 100 + pairs[3]
    first = np.flatnonzero(np.concatenate(([True], date[1:] != date[:-1])))
    text = np.ascontiguousarray(rows[first, :10]).view("S10")[:, 0].astype("U10")
    try:
        days = text.astype("datetime64[D]")
    except ValueError:
        return None
    days = np.repeat(days.astype(np.int64), np.diff(first, append=len(rows)))
    return days * 86_400 + ((hour * 60 + minute) * 60 + second)


def _canonical_power(rows: np.ndarray) -> np.ndarray | None:
    """The kW after each row's stamp, or None if one is not a number.

    A plain decimal of at most 15 digits is M / 10**k with M and 10**k exact
    doubles, so one correctly rounded division gives float()'s value
    (Clinger 1990). Any other number goes through numpy's cast.
    """
    width = rows.shape[1] - _STAMP_BYTES
    power = np.empty(len(rows))
    exact = np.zeros(len(rows), dtype=bool)
    # a wider number has more than 15 digits or is not a plain decimal
    if width <= _EXACT_DIGITS + 1:
        number = np.ascontiguousarray(rows[:, _STAMP_BYTES:].T)
        digit = number - np.uint8(ord("0"))
        point = number == ord(".")
        n_digits = (digit <= 9).sum(axis=0, dtype=np.uint8)
        n_points = point.sum(axis=0, dtype=np.uint8)
        exact = (n_digits + n_points == width) & (n_points <= 1)
        exact &= (n_digits >= 1) & (n_digits <= _EXACT_DIGITS)
        # Horner's rule over the digits; `decimals` counts those after the point
        mantissa = np.zeros(len(rows))
        decimals = 0
        for j in range(width):
            if point[j].all():
                decimals = width - 1 - j
                continue
            shifted = mantissa * 10 + digit[j]
            if point[j].any():
                mantissa = np.where(point[j], mantissa, shifted)
                decimals = np.where(point[j], width - 1 - j, decimals)
            else:
                mantissa = shifted
        power = mantissa / _POWERS_OF_TEN[decimals]
    other = np.flatnonzero(~exact)
    if other.size:
        text = rows[other, _STAMP_BYTES:]
        if not _NUMBER_BYTE[text].all():
            return None
        try:
            power[other] = np.ascontiguousarray(text).view(f"S{width}")[:, 0].astype(np.float64)
        except ValueError:
            return None
    return power


def _parse_rows(path: str | Path) -> PowerSeries:
    """Row-by-row parse of any file parse_series accepts; the source of every error."""
    timestamps: list[datetime] = []
    values: list[float] = []
    for line, ts, value in timed_values(path, "power_kw", "power", "kW"):
        if timestamps and ts <= timestamps[-1]:
            raise DataFormatError(
                f"{path}: line {line}: timestamps out of order "
                f"({format_timestamp(timestamps[-1])} then {format_timestamp(ts)})"
            )
        timestamps.append(ts)
        values.append(value)
    return PowerSeries._owning(_utc_micros(timestamps), np.array(values, dtype=np.float64))


def _utc_micros(stamps: list[datetime]) -> np.ndarray:
    """Epoch microseconds of UTC datetimes, a field at a time; a fraction of
    the cost of subtracting the epoch from each."""

    def field(get) -> np.ndarray:
        return np.fromiter(map(get, stamps), dtype=np.int64, count=len(stamps))

    days = field(datetime.toordinal) - _EPOCH.toordinal()
    hours = days * 24 + field(attrgetter("hour"))
    seconds = (hours * 60 + field(attrgetter("minute"))) * 60 + field(attrgetter("second"))
    return seconds * 1_000_000 + field(attrgetter("microsecond"))


def write_series(series: PowerSeries, path: str | Path) -> None:
    """Write a power series in the same CSV format parse_series reads.

    Times are ISO-8601 UTC with a trailing Z, with microseconds only where
    they are non-zero; powers are Python float reprs.

    Each chunk of rows is written column-wise: its stamps become one format
    text of lines `YYYY-MM-DDTHH:MM:SSZ,%r` (see _row_formats), and one `%`
    with the chunk's powers fills in their reprs, the same bytes as a
    per-row f-string.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp,power_kw\n")
        for lo in range(0, len(series), _CHUNK):
            rows = _row_formats(series.times_us[lo : lo + _CHUNK])
            handle.write(rows % tuple(series.power_kw[lo : lo + _CHUNK].tolist()))


_US_PER_DAY = 86_400_000_000
_ROW_END = np.frombuffer(b"%r\n", dtype=np.uint8)
_FRACTION_AT = _STAMP_SEPARATOR_AT[5]  # a fraction of a second goes before the Z
_FRACTION_PLACES = 10 ** np.arange(5, -1, -1, dtype=np.int64)[:, None]


def _row_formats(times_us: np.ndarray) -> str:
    """One `YYYY-MM-DDTHH:MM:SS[.ffffff]Z,%r` line per epoch-microsecond time,
    with the fraction only where it is non-zero.

    The text is built as a uint8 matrix whose row j is byte j of every line,
    the layout the canonical parse reads. The fields are int64 arithmetic
    until they are stored, as numpy 1.x keeps uint8 arithmetic in uint8.
    """
    n = len(times_us)
    days = times_us // _US_PER_DAY
    micros = times_us - days * _US_PER_DAY
    cols = np.empty((_STAMP_BYTES + len(_ROW_END), n), dtype=np.uint8)
    # the date text once per run of rows on the same day, as the parse checks it
    first = np.flatnonzero(np.concatenate(([True], days[1:] != days[:-1])))
    dates = np.datetime_as_string(days[first].astype("datetime64[D]")).astype("S10")
    dates = dates.view(np.uint8).reshape(-1, 10)
    cols[:10] = np.repeat(dates, np.diff(first, append=n), axis=0).T
    cols[_STAMP_SEPARATOR_AT] = _STAMP_SEPARATORS[:, None]
    cols[_STAMP_BYTES:] = _ROW_END[:, None]
    seconds = micros // 1_000_000
    hms = np.stack((seconds // 3600, seconds // 60 % 60, seconds % 60))
    cols[_STAMP_DIGIT_AT[8::2]] = hms // 10 + ord("0")
    cols[_STAMP_DIGIT_AT[9::2]] = hms % 10 + ord("0")
    lines = cols.T
    fraction = micros % 1_000_000
    if fraction.any():
        # ".ffffff" goes into every line, then out of those on a whole second
        digits = fraction // _FRACTION_PLACES % 10 + ord("0")
        dot = np.full((1, n), ord("."), dtype=np.int64)
        lines = np.insert(cols, [_FRACTION_AT] * 7, np.concatenate((dot, digits)), axis=0).T
        keep = np.ones(lines.shape, dtype=bool)
        keep[fraction == 0, _FRACTION_AT : _FRACTION_AT + 7] = False
        lines = lines[keep]
    return lines.tobytes().decode()


def window_mean(series: PowerSeries, start: datetime, end: datetime) -> WindowStats:
    """Mean and population standard deviation of samples within [start, end)."""
    start, end = aware(start), aware(end)
    if end <= start:
        raise DomainError(
            f"window end {format_timestamp(end)} must be after start {format_timestamp(start)}"
        )
    lo, hi = np.searchsorted(series.times_us, [_micros(start), _micros(end)])
    if hi <= lo:
        raise DomainError(
            f"no samples in window [{format_timestamp(start)}, {format_timestamp(end)})"
        )
    window = series.power_kw[lo:hi]
    # powers whose squares pass the float range make the deviation inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        stats = WindowStats(start, end, int(window.size), float(window.mean()), float(window.std()))
    if not math.isfinite(stats.stddev_kw):
        raise DomainError(
            f"powers in window [{format_timestamp(start)}, {format_timestamp(end)}) "
            f"are too large for their standard deviation to be a float"
        )
    return stats


def intervention_impact(
    series: PowerSeries, change_time: datetime, guard_gap: timedelta = timedelta(0)
) -> InterventionReport:
    """Before/after mean shift around a change time.

    The before window runs from the series start to change_time - guard_gap
    (exclusive); the after window from change_time + guard_gap to the end of
    the series. A positive guard gap excludes a smeared transition period.
    """
    gap_hours = guard_gap / timedelta(hours=1)
    if guard_gap < timedelta(0):
        raise DomainError(f"guard gap must be >= 0 hours, got {gap_hours}")
    if len(series) == 0:
        raise DomainError("series has no samples")
    change_time = aware(change_time)
    try:
        before_end = change_time - guard_gap
        after_start = change_time + guard_gap
    except OverflowError:
        raise DomainError(
            f"guard gap of {gap_hours} hours around {format_timestamp(change_time)} "
            f"leaves the years 1 to 9999"
        ) from None
    first = _instant(series.times_us[0])
    last = _instant(series.times_us[-1])
    if first >= before_end:
        raise DomainError(
            f"no samples before {format_timestamp(before_end)} (change time minus gap)"
        )
    if last < after_start:
        raise DomainError(
            f"no samples at or after {format_timestamp(after_start)} (change time plus gap)"
        )
    before = window_mean(series, first, before_end)
    # pad the window bound by 1 us so the final sample falls inside [start, end)
    after = window_mean(series, after_start, last + _ONE_US)
    if before.mean_kw == 0:
        raise DomainError("before-window mean is zero; percentage change is undefined")
    delta = after.mean_kw - before.mean_kw
    pct_change = delta / before.mean_kw
    if math.isinf(pct_change):
        raise DomainError(
            f"before-window mean {before.mean_kw} kW is too small for the percentage "
            f"change to be a float"
        )
    return InterventionReport(
        change_time=change_time,
        before=before,
        after=after,
        delta_kw=delta,
        pct_change=pct_change,
    )


def detect_changepoint(series: PowerSeries) -> Changepoint:
    """Best two-segment piecewise-constant split of the series.

    Returns the split index k (the first sample of the second segment, with
    at least two samples on each side) minimizing the total within-segment
    sum of squared deviations, breaking ties toward the earliest index. The
    score is 1 minus the ratio of the two-segment to the one-segment SSE, so
    a clean step scores 1.0 and a constant series scores 0.0.
    """
    n = len(series)
    if n < 4:
        raise DomainError(f"changepoint detection needs at least 4 samples, got {n}")
    y = series.power_kw
    # prefix sums with a leading zero, accumulated straight into their buffers
    csum = np.zeros(n + 1)
    np.cumsum(y, out=csum[1:])
    csq = np.zeros(n + 1)
    # a square past the float range makes the total inf or nan; while both
    # sums and the square of the plain one are finite, so is every split's
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(y * y, out=csq[1:])
        total_sse = float(csq[n] - csum[n] ** 2 / n)
    if not math.isfinite(total_sse):
        raise DomainError("powers are too large for their squared deviations to be floats")
    if total_sse <= 1e-12 * max(1.0, float(csq[n])):
        # flat series: every split is equivalent, return the earliest
        return Changepoint(change_time=_instant(series.times_us[2]), index=2, score=0.0)
    # left = csq[k] - csum[k]**2 / k and right = (csq[n] - csq[k]) -
    # (csum[n] - csum[k])**2 / (n - k) for k = 2 .. n - 2, on slices and in place
    ks = np.arange(2, n - 1)
    head_sum, head_sq = csum[2 : n - 1], csq[2 : n - 1]
    left = np.square(head_sum)
    left /= ks
    np.subtract(head_sq, left, out=left)
    right = np.square(csum[n] - head_sum)
    right /= np.subtract(n, ks, out=ks)
    np.subtract(csq[n] - head_sq, right, out=right)
    sse = np.add(left, right, out=left)
    best = int(np.argmin(sse))
    k = best + 2
    score = 1.0 - float(sse[best]) / total_sse
    score = min(max(score, 0.0), 1.0)
    return Changepoint(change_time=_instant(series.times_us[k]), index=k, score=score)


def synth_series(
    segments, seed: int, start: datetime = DEFAULT_SERIES_START
) -> PowerSeries:
    """Generate a piecewise-constant series with Gaussian noise, clamped at 0 kW.

    Each segment contributes n_samples evenly spaced over its duration,
    beginning at the segment start. Output is deterministic for a given seed.
    """
    segs = [s if isinstance(s, SeriesSegment) else SeriesSegment(*s) for s in segments]
    if not segs:
        raise DomainError("at least one segment is required")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    times: list[np.ndarray] = []
    values: list[np.ndarray] = []
    segment_start = _micros(start)
    for seg in segs:
        # past the datetime range, the int64 arithmetic below could overflow
        if segment_start > _MAX_US:
            raise DomainError("synthetic series runs past the year 9999")
        # the sample step rounded to a whole microsecond, as timedelta rounds it
        step = timedelta(hours=seg.duration_hours / seg.n_samples) // _ONE_US
        # checked before the samples are drawn, which could not be allocated
        if step == 0 and seg.n_samples > 1:
            raise DomainError(
                f"timestamps must be strictly increasing: {seg.n_samples} samples "
                f"in {seg.duration_hours} hours are less than 1 us apart"
            )
        # a sum past the float range is inf, which PowerSeries rejects
        with np.errstate(over="ignore"):
            noisy = seg.mean_kw + rng.normal(0.0, seg.noise_sd_kw, seg.n_samples)
        times.append(segment_start + step * np.arange(seg.n_samples, dtype=np.int64))
        values.append(np.maximum(noisy, 0.0))
        segment_start += timedelta(hours=seg.duration_hours) // _ONE_US
    return PowerSeries._owning(np.concatenate(times), np.concatenate(values))
