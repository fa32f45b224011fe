"""Cabinet power telemetry: CSV ingestion, windowed statistics, before/after
intervention impact, single-changepoint detection, and a synthetic-series
generator for fixtures (the measured series behind the analysis is not
redistributable)."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import repeat
from numbers import Real
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datafiles import timed_values
from .errors import DataFormatError, DomainError
from .errors import check_count, check_nonnegative, check_positive, refusal
from .timestamps import aware, format_timestamp

DEFAULT_SERIES_START = datetime(2022, 1, 1, tzinfo=timezone.utc)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MIN_US = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
_MAX_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
_OUT_OF_YEARS = "timestamps must lie within the years 1 to 9999"
# the longest span a datetime can hold, and so the longest synthetic segment
_MAX_SEGMENT_HOURS = (datetime.max - datetime.min) / timedelta(hours=1)
# rows per batch of timestamps and per byte matrix of write_series, which
# bounds the temporaries
_CHUNK = 1 << 12
# rows per batch of the canonical parse and per block of the changepoint's
# passes, whose temporaries then stay in cache
_BATCH = 1 << 15


def _micros(ts: datetime) -> int:
    """Microseconds since the Unix epoch; naive timestamps are taken as UTC."""
    return (aware(ts) - _EPOCH) // _ONE_US


def _real(value, what: str):
    """value, if it is a real number other than a bool; float() would also
    take a bool or the text of a number."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise refusal(value, what, "a real number", show=repr)
    return value


def _kw(value) -> float:
    """float(value) of a real number, with an int past the float range
    refused by the rule."""
    try:
        return float(_real(value, "power value"))
    except OverflowError:
        raise refusal(value, "power value", "finite and >= 0", "kW") from None


def _whole_us(t) -> int:
    """int(t), for a time t in epoch microseconds that is an integer or an
    integral float within the years 1 to 9999."""
    _real(t, "timestamp")
    if t == t and not _MIN_US <= t <= _MAX_US:
        raise DomainError(_OUT_OF_YEARS)
    if t != t or t % 1:
        raise refusal(t, "timestamp", "a whole number of", "microseconds")
    return int(t)


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
        values = np.fromiter(map(_kw, values_kw), dtype=np.float64)
        times = np.fromiter((_micros(t) for t in timestamps), dtype=np.int64)
        self._adopt(times, values)

    @classmethod
    def from_arrays(cls, times_us, power_kw) -> "PowerSeries":
        """A series from epoch microseconds and kW values; both are copied.
        A time is an integer or an integral float. Float, unsigned and object
        times, and object powers (such as an int past the float range), are
        checked one by one before a cast could change them. Arrays of bools,
        complex numbers, datetimes, text or records are refused whole."""
        times, power = np.asarray(times_us), np.asarray(power_kw)
        for array, what in ((times, "timestamps"), (power, "power values")):
            if array.dtype.kind not in "iufO":
                raise refusal(f"dtype {array.dtype}", what, "real numbers")
        if times.dtype.kind in "fuO":
            times = list(map(_whole_us, times.tolist()))
        if power.dtype.kind == "O":
            power = list(map(_kw, power.tolist()))
        return cls._owning(np.array(times, dtype=np.int64), np.array(power, dtype=np.float64))

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
        increasing = times[1:] > times[:-1]
        ordered = bool(increasing.all())
        if times.size:
            # increasing times have their extremes at their ends
            low, high = (times[0], times[-1]) if ordered else (times.min(), times.max())
            # before the order check, whose message turns two of the times into datetimes
            if not (_MIN_US <= low and high <= _MAX_US):
                raise DomainError(_OUT_OF_YEARS)
        if not ordered:
            i = int(np.argmin(increasing))  # the first backward or repeated step
            raise DomainError(
                f"timestamps must be strictly increasing: "
                f"{format_timestamp(_instant(times[i]))} then "
                f"{format_timestamp(_instant(times[i + 1]))}"
            )
        # a NaN makes the min and the max NaN, which fails both compares
        if values.size and not (values.min() >= 0 and values.max() < math.inf):
            bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
            raise refusal(float(values[bad[0]]), "power values", "finite and >= 0", "kW")
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
        check_positive(self.duration_hours, "segment duration", "hours")
        if self.duration_hours > _MAX_SEGMENT_HOURS:
            rule = f"at most {_MAX_SEGMENT_HOURS:.0f}"
            raise refusal(self.duration_hours, "segment duration", rule, "hours")
        if check_count(self.n_samples, "segment n_samples") is not self.n_samples:
            object.__setattr__(self, "n_samples", int(self.n_samples))  # a numpy integer
        check_nonnegative(self.mean_kw, "segment mean", "kW")
        check_nonnegative(self.noise_sd_kw, "segment noise sd", "kW")


def parse_series(path: str | Path) -> PowerSeries:
    """Load a power series from CSV with header timestamp,power_kw.

    Rows out of time order and malformed rows are rejected with their line
    number as a DataFormatError, negative or non-finite power as a
    DomainError. The canonical form that write_series emits for whole-second
    times is read vectorized, without a scan for line ends where every row
    has the same width; any other file, and every file with an error in it,
    is read row by row. The canonical rows of a file of more than _BATCH
    rows are parsed in batches on a thread per usable CPU, with the same
    result as on one.
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
# a whole-second write_series row is at most 21 + 24 bytes (_STAMP_BYTES and
# _REPR_BYTES, the longest float repr); a longer row goes to the per-row
# parser, as its cast below would take about 132 bytes per byte of the row
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
    without a scan for the line ends. Any other file has its line ends
    scanned and its rows grouped by length. So has a file whose read as a
    single group fails, if the scan finds more line ends than the stride
    (rows of several widths whose newlines fall on the stride by chance);
    if not, its rows are one width and that read's failure stands.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not (data.startswith(_HEADER) and data.endswith(b"\n")):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=len(_HEADER))
    width = data.find(b"\n", len(_HEADER)) - len(_HEADER)  # the first row's
    n_rows = None  # as the stride counts them, if the file passes it
    if body.size and body.size % (width + 1) == 0 and (body[width :: width + 1] == ord("\n")).all():
        # Every row is `width` bytes long: one group, whose row numbers and
        # starts are ranges. The parse checks each other byte of a row as a
        # digit, a separator or a number byte, none of them a newline, so a
        # file that passes the stride by chance fails here and is scanned.
        n_rows = body.size // (width + 1)
        series = _parse_groups(body, range(0, body.size, width + 1), [(width, range(n_rows))])
        if series is not None:
            return series
    ends = np.flatnonzero(body == ord("\n"))
    if len(ends) == n_rows:  # no newline off the stride: the rows are one width
        return None
    starts = np.concatenate(([0], ends + 1))[:-1]
    # a longer row counts as one byte past the bound, so bincount's array stays small
    lengths = np.minimum(ends - starts, _MAX_ROW_BYTES + 1)
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
    batches = []
    for length, group in groups:
        if not _STAMP_BYTES < length <= _MAX_ROW_BYTES:
            return None
        windows = sliding_window_view(body, length)
        for lo in range(0, len(group), _BATCH):
            batches.append((length, windows, group[lo : lo + _BATCH]))

    def parse(batch) -> bool:
        """Whether the batch's rows are canonical; it writes only their slots."""
        length, windows, rows = batch
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
            return False
        times[rows] = seconds * 1_000_000
        power[rows] = kw
        return True

    # threads cost more than they save on a file of at most one batch of
    # rows, even where its widths make several batches
    parse_each = _each if len(times) > _BATCH else map
    if not all(parse_each(parse, batches)):
        return None
    try:
        return PowerSeries._owning(times, power)
    except DomainError:
        return None


def _each(fn, items) -> list:
    """[fn(item) for item in items], on a thread per usable CPU where there
    are two items or more; numpy releases the GIL in its array loops."""
    workers = min(len(items), _cpus())
    if workers < 2:
        return list(map(fn, items))
    # imported here, as it costs a few ms (mostly logging) that a call on one
    # thread should not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    return PowerSeries(timestamps, values)


def write_series(series: PowerSeries, path: str | Path) -> None:
    """Write a power series in the same CSV format parse_series reads.

    Times are ISO-8601 UTC with a trailing Z, with microseconds only where
    they are non-zero; powers are Python float reprs. The file holds the
    bytes of a per-row `f"{time},{power!r}"` writer, with LF line ends on
    every platform.

    Each chunk of rows is built as one byte matrix (see _lines). A power in
    [1e-4, 1e16), whose repr has no exponent, is formatted in numpy (see
    _shortest); any other power, such as 0.0, 1e-5 or 1e16, takes its own
    repr.
    """
    with open(path, "wb") as handle:
        handle.write(_HEADER)
        for lo in range(0, len(series), _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            handle.write(_lines(series.times_us[chunk], series.power_kw[chunk]))


_US_PER_DAY = 86_400_000_000
_FRACTION_AT = _STAMP_SEPARATOR_AT[5]  # a fraction of a second goes before the Z
_FRACTION_PLACES = 10 ** np.arange(5, -1, -1, dtype=np.int64)[:, None]
_REPR_BYTES = 24  # the longest float repr, such as -2.2250738585072014e-308
_REPR_AT = np.arange(_REPR_BYTES)[:, None]


def _lines(times_us: np.ndarray, power_kw: np.ndarray) -> bytes:
    """One `YYYY-MM-DDTHH:MM:SS[.ffffff]Z,<repr>` line per epoch-microsecond
    time and power, with the fraction only where it is non-zero.

    The text is built as a uint8 matrix whose row j is byte j of every line,
    the layout the canonical parse reads, with room for the fraction (if any
    line has one) and the longest repr; each line's unused bytes are then
    dropped. The fields are int64 arithmetic until they are stored, as numpy
    1.x keeps uint8 arithmetic in uint8.
    """
    n = len(times_us)
    days = times_us // _US_PER_DAY
    micros = times_us - days * _US_PER_DAY
    fraction = micros % 1_000_000
    fractional = bool(fraction.any())
    number_at = _STAMP_BYTES + 7 * fractional
    cols = np.empty((number_at + _REPR_BYTES + 1, n), dtype=np.uint8)
    # the date text once per run of rows on the same day, as the parse checks it
    first = np.flatnonzero(np.concatenate(([True], days[1:] != days[:-1])))
    dates = np.datetime_as_string(days[first].astype("datetime64[D]")).astype("S10")
    dates = dates.view(np.uint8).reshape(-1, 10)
    cols[:10] = np.repeat(dates, np.diff(first, append=n), axis=0).T
    cols[_STAMP_SEPARATOR_AT[:5]] = _STAMP_SEPARATORS[:5, None]
    seconds = micros // 1_000_000
    hms = np.stack((seconds // 3600, seconds // 60 % 60, seconds % 60))
    cols[_STAMP_DIGIT_AT[8::2]] = hms // 10 + ord("0")
    cols[_STAMP_DIGIT_AT[9::2]] = hms % 10 + ord("0")
    if fractional:
        cols[_FRACTION_AT] = ord(".")
        cols[_FRACTION_AT + 1 : _FRACTION_AT + 7] = fraction // _FRACTION_PLACES % 10 + ord("0")
    cols[number_at - 2 : number_at] = _STAMP_SEPARATORS[5:, None]
    cols[number_at:-1], length = _reprs(power_kw)
    end = number_at + length
    cols[end, np.arange(n)] = ord("\n")
    keep = np.arange(len(cols))[:, None] <= end
    if fractional:
        # ".ffffff" goes into every line, then out of those on a whole second
        keep[_FRACTION_AT : _FRACTION_AT + 7, fraction == 0] = False
    return cols.T[keep.T].tobytes()


def _reprs(power_kw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each power: a (24, n) uint8 matrix whose column j starts
    with the text of power_kw[j], and the text lengths."""
    positional = (power_kw >= 1e-4) & (power_kw < 1e16)
    if positional.all():
        return _positional_reprs(power_kw)
    other = np.flatnonzero(~positional)
    text = np.zeros((_REPR_BYTES, len(power_kw)), dtype=np.uint8)
    own = np.array([repr(v) for v in power_kw[other].tolist()], dtype=f"S{_REPR_BYTES}")
    text[:, other] = own.view(np.uint8).reshape(-1, _REPR_BYTES).T
    length = (text != 0).sum(axis=0)
    if positional.any():
        text[:, positional], length[positional] = _positional_reprs(power_kw[positional])
    return text, length


_DIGITS = 17  # the most a shortest repr has
_U64 = np.uint64
_TEN_POWERS = _U64(10) ** np.arange(_DIGITS + 1, dtype=np.uint64)


def _positional_reprs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_reprs for doubles in [1e-4, 1e16), whose reprs have no exponent."""
    digits, exponent = _shortest(x)
    n_digits = np.searchsorted(_TEN_POWERS, digits, side="right")
    point = n_digits + exponent  # x is 0.ddd * 10**point, with -3 <= point <= 16
    # the digits, padded to 17 with trailing zeros, after five '0's and before seven
    padded = np.full((5 + _DIGITS + 7, len(x)), ord("0"), dtype=np.uint8)
    rest = digits * _TEN_POWERS[_DIGITS - n_digits]
    for row in range(4 + _DIGITS, 4, -1):
        tens = rest // _U64(10)
        padded[row] = rest - tens * _U64(10) + _U64(ord("0"))
        rest = tens
    significant = _DIGITS - np.argmax(padded[4 + _DIGITS : 4 : -1] != ord("0"), axis=0)
    dot = np.maximum(point, 1)
    # byte i of the repr is padded[5 + i - shift], where shift counts the
    # '0's put before the digits ("0.000" puts four) and, past the dot, one more
    shift = (_REPR_AT > dot) + np.maximum(1 - point, 0).astype(np.uint8)
    text = padded[5 : 5 + _REPR_BYTES].copy()
    for s in range(1, int(shift.max()) + 1):
        np.copyto(text, padded[5 - s : 5 - s + _REPR_BYTES], where=shift == s)
    text[dot, np.arange(len(x))] = ord(".")
    return text, dot + 1 + np.maximum(significant - point, 1)


# Schubfach (Giulietti, "The Schubfach way to render doubles", 2020), as in
# the JDK's DoubleToDecimal, in numpy uint64. Every operand stays uint64, as
# numpy 1.x casts uint64 mixed with int64 to float64.
_LOW32 = _U64(0xFFFF_FFFF)
_LOW63 = _U64((1 << 63) - 1)


def _floor_log10_pow2(e):
    return (e * 661_971_961_083) >> 41


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


# a double in [1e-4, 1e16) is c * 2**q with 2**52 <= c < 2**53 and -66 <= q <= 1,
# so its decimal exponent k runs from -20 to 0; g(k) is 10**-k * 2**(125 -
# floor(log2(10**-k))) + 1, which is 126 bits, as g1 * 2**63 + g0
_K_MIN = _floor_log10_pow2(-66)
_G = [(10**-k << (125 - _floor_log2_pow10(-k))) + 1 for k in range(_K_MIN, 1)]
_G1 = np.array([g >> 63 for g in _G], dtype=np.uint64)
_G0 = np.array([g & ((1 << 63) - 1) for g in _G], dtype=np.uint64)


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    cross_1, cross_2 = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U64(32)) + (cross_1 & _LOW32) + (cross_2 & _LOW32)
    return a_hi * b_hi + (cross_1 >> _U64(32)) + (cross_2 >> _U64(32)) + (mid >> _U64(32))


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp * g / 2**127 rounded to odd, where g = g1 * 2**63 + g0."""
    z = ((g1 * cp) >> _U64(1)) + _mul_high(g0, cp)
    return (_mul_high(g1, cp) + (z >> _U64(63))) | (((z & _LOW63) + _LOW63) >> _U64(63))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For doubles x in [1e-4, 1e16), uint64 digits and int64 exponents of
    the decimals digits * 10**exponent that repr writes: of those that read
    back as x, the ones with the fewest digits, and of them the closest."""
    bits = x.view(np.uint64)
    c = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075  # x = c * 2**q
    odd = c & _U64(1)
    # 4x and the ends of the interval that rounds to x, in units of 2**q / 4.
    # A power of two is nearer its neighbour below, a case of its own in
    # Schubfach, but each of the 67 in [1e-4, 1e16) comes out right without it.
    cb = c << _U64(2)
    cbl, cbr = cb - _U64(2), cb + _U64(2)
    k = _floor_log10_pow2(q)
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    # those times 10**-k, rounded to odd: s = floor(x / 10**k) has 16 or 17 digits
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, cbl << h) + odd
    vbr = _round_to_odd(g1, g0, cbr << h) - odd
    s = vb >> _U64(2)
    t = s + _U64(1)
    # s or t, whichever is inside the interval, or the closer of the two
    # (the even one on a tie)
    s_in, t_in = vbl <= s << _U64(2), t << _U64(2) <= vbr
    mid = (s + t) << _U64(1)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == _U64(0)))
    digits = np.where(np.where(s_in != t_in, s_in, nearer_s), s, t)
    # but a multiple of 10 first, if just one of those next to s is inside
    s10 = s // _U64(10) * _U64(10)
    t10 = s10 + _U64(10)
    s10_in, t10_in = vbl <= s10 << _U64(2), t10 << _U64(2) <= vbr
    digits = np.where(s10_in != t10_in, np.where(s10_in, s10, t10), digits)
    return digits, k


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
    check_nonnegative(gap_hours, "guard gap", "hours")
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
    # pad the window bound by 1 us so the final sample falls inside [start, end)
    try:
        after_end = last + _ONE_US
    except OverflowError:
        raise DomainError(
            f"series ends at {format_timestamp(last)}, so the after window's end "
            f"1 us later leaves the years 1 to 9999"
        ) from None
    before = window_mean(series, first, before_end)
    after = window_mean(series, after_start, after_end)
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
    csum, csq = _prefix_sums(series.power_kw)
    # a square past the float range makes the total inf or nan; while both
    # sums and the square of the plain one are finite, so is every split's
    with np.errstate(over="ignore", invalid="ignore"):
        total_sse = float(csq[n] - csum[n] ** 2 / n)
    if not math.isfinite(total_sse):
        raise DomainError("powers are too large for their squared deviations to be floats")
    if total_sse <= 1e-12 * max(1.0, float(csq[n])):
        # flat series: every split is equivalent, return the earliest
        return Changepoint(change_time=_instant(series.times_us[2]), index=2, score=0.0)
    # left = csq[k] - csum[k]**2 / k and right = (csq[n] - csq[k]) -
    # (csum[n] - csum[k])**2 / (n - k) for k = 2 .. n - 2, a block of k at a
    # time, on slices and in place; k is a double, exact below 2**53, so it
    # divides as an int64 k would, without the cast. On a thread per block
    # (see _each) the scan was slower, so it stays on this one.
    offsets = np.arange(min(_BATCH, n - 3), dtype=np.float64)
    k, best_sse = 2, math.inf
    for lo in range(2, n - 1, _BATCH):
        hi = min(lo + _BATCH, n - 1)
        ks = offsets[: hi - lo] + lo
        head_sum, head_sq = csum[lo:hi], csq[lo:hi]
        left = np.square(head_sum)
        left /= ks
        np.subtract(head_sq, left, out=left)
        right = np.square(csum[n] - head_sum)
        right /= np.subtract(n, ks, out=ks)
        np.subtract(csq[n] - head_sq, right, out=right)
        sse = np.add(left, right, out=left)
        best = int(np.argmin(sse))
        # only a strictly smaller SSE moves the split, so the earliest wins a tie
        if sse[best] < best_sse:
            k, best_sse = lo + best, float(sse[best])
    score = 1.0 - best_sse / total_sse
    score = min(max(score, 0.0), 1.0)
    return Changepoint(change_time=_instant(series.times_us[k]), index=k, score=score)


def _prefix_sums(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative sums of y and of its squares after a leading zero, a
    block at a time: a block's first term takes the last sum before it, so
    each sum is the double that one cumsum over y makes.

    Both run as one complex cumsum, y + 1j * y**2, whose additions are those
    of the two real cumsums, part for part, but overlap in one loop."""
    sums = np.zeros(len(y) + 1, dtype=np.complex128)
    terms = np.empty(min(len(y), _BATCH), dtype=np.complex128)
    # a sum or a square past the float range is inf, which detect_changepoint refuses
    with np.errstate(over="ignore"):
        for lo in range(0, len(y), _BATCH):
            block, part = y[lo : lo + _BATCH], terms[: len(y) - lo]
            part.real = block
            np.square(block, out=part.imag)
            part[0] += sums[lo]
            np.cumsum(part, out=sums[lo + 1 : lo + 1 + len(part)])
    return sums.real, sums.imag


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
    if seed < 0:  # a seed past the float range is no fault: numpy takes it
        raise refusal(seed, "seed", ">= 0")
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
