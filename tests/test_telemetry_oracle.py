"""The array-backed telemetry paths against the code they replaced, which is
kept here verbatim as the oracle: the vectorized CSV parse against the
tuple-of-datetime parse and against the per-width vectorized parse before it,
the chunked writer, integer-microsecond synthesis, and the searchsorted
windows and changepoint."""

import copy
import csv
import math
import pickle
import threading
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from wattplan.errors import DataFormatError, DomainError
from wattplan.telemetry import _CHUNK as _WRITE_CHUNK
from wattplan.telemetry import (
    _BATCH,
    _MAX_ROW_BYTES,
    _MAX_US,
    _MIN_US,
    _REPR_BYTES,
    PowerSeries,
    SeriesSegment,
    _each,
    _micros,
    _parse_canonical,
    _parse_rows,
    _reprs,
    detect_changepoint,
    parse_series,
    synth_series,
    window_mean,
    write_series,
)
from wattplan.timestamps import format_timestamp, parse_timestamp

UTC = timezone.utc


def reference_parse(path):
    """parse_series as it was before the fast path: (timestamps, values) tuples.

    It numbers records, not lines, so a file with a quoted newline is outside
    its domain; the strategies below generate none."""
    timestamps = []
    values = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["timestamp", "power_kw"]:
            raise DataFormatError(f"{path}: expected header 'timestamp,power_kw', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                ts = parse_timestamp(row[0])
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            try:
                value = float(row[1])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: power is not a number: {row[1]!r}"
                ) from None
            if not math.isfinite(value) or value < 0:
                raise DomainError(
                    f"{path}: line {lineno}: power must be finite and >= 0 kW, got {row[1]!r}"
                )
            if timestamps and ts <= timestamps[-1]:
                raise DataFormatError(
                    f"{path}: line {lineno}: timestamps out of order "
                    f"({format_timestamp(timestamps[-1])} then {format_timestamp(ts)})"
                )
            timestamps.append(ts)
            values.append(value)
    return tuple(timestamps), tuple(values)


# the per-width vectorized parse, before the column-wise one
_HEADER = b"timestamp,power_kw\n"
_STAMP_BYTES = 21
_STAMP_SEPARATORS = np.frombuffer(b"--T::Z,", dtype=np.uint8)
_STAMP_SEPARATOR_AT = [4, 7, 10, 13, 16, 19, 20]
_STAMP_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_NUMBER_BYTE = np.zeros(256, dtype=bool)
_NUMBER_BYTE[np.frombuffer(b"0123456789.+-eE", dtype=np.uint8)] = True
_CHUNK = 1 << 12


def reference_parse_canonical(path):
    """_parse_canonical as it was before the column-wise parse."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not (data.startswith(_HEADER) and data.endswith(b"\n")):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=len(_HEADER))
    ends = np.flatnonzero(body == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    times = np.empty(len(ends), dtype=np.int64)
    power = np.empty(len(ends))
    for lo in range(0, len(ends), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        parsed = _parse_canonical_rows(body, starts[rows], ends[rows])
        if parsed is None:
            return None
        times[rows], power[rows] = parsed
    try:
        return PowerSeries.from_arrays(times, power)
    except DomainError:
        return None


def _parse_canonical_rows(body, starts, ends):
    """Epoch microseconds and kW of canonical rows, or None if any row is not."""
    number_at = starts + _STAMP_BYTES
    number_bytes = ends - number_at
    if number_bytes.min() < 1:
        return None

    stamp = sliding_window_view(body, _STAMP_BYTES)[starts]
    if not (stamp[:, _STAMP_SEPARATOR_AT] == _STAMP_SEPARATORS).all():
        return None
    # numpy's parser would also take a sign, a space or a NUL in the year
    if (stamp[:, _STAMP_DIGIT_AT] - np.uint8(ord("0")) > 9).any():
        return None
    # with every byte pinned to YYYY-MM-DDTHH:MM:SS, numpy's ISO parser checks
    # the month, the day of the month (leap days too), hour, minute and second
    try:
        seconds = stamp[:, :19].copy().view("S19")[:, 0].astype("datetime64[s]")
    except ValueError:
        return None

    # the numbers, a batch per width so that each is exactly its own bytes
    power = np.empty(len(starts))
    for width in np.flatnonzero(np.bincount(number_bytes)).tolist():
        rows = np.flatnonzero(number_bytes == width)
        text = sliding_window_view(body, width)[number_at[rows]]
        if not _NUMBER_BYTE[text].all():
            return None
        try:
            power[rows] = text.view(f"S{width}")[:, 0].astype(np.float64)
        except ValueError:
            return None
    return seconds.astype(np.int64) * 1_000_000, power


def reference_write(series, path):
    """write_series as a per-row writer, a format_timestamp and a repr per row:
    the oracle for the byte matrix that write_series builds."""
    lines = ["timestamp,power_kw"]
    rows = zip(series.timestamps, series.values_kw)
    lines.extend(f"{format_timestamp(t)},{v!r}" for t, v in rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_synth_times(segments, start):
    """synth_series's timestamps as it built them: start + i * step per segment."""
    timestamps = []
    segment_start = start
    for seg in segments:
        step = timedelta(hours=seg.duration_hours / seg.n_samples)
        timestamps.extend(segment_start + i * step for i in range(seg.n_samples))
        segment_start = segment_start + timedelta(hours=seg.duration_hours)
    return tuple(timestamps)


def assert_same_series(series, timestamps, values):
    assert series.timestamps == timestamps
    assert all(t.tzinfo is UTC for t in series.timestamps)
    # repr tells -0.0 from 0.0
    assert list(map(repr, series.values_kw)) == list(map(repr, values))


def assert_fast_path_matches_oracle(path):
    """The column-wise parse takes the files the per-width one took, with the
    same arrays; the int64 view tells -0.0 from 0.0."""
    want = reference_parse_canonical(path)
    got = _parse_canonical(path)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got.times_us, want.times_us)
        assert np.array_equal(got.power_kw.view(np.int64), want.power_kw.view(np.int64))


def assert_parse_matches_reference(path, oracle=True):
    if oracle:
        assert_fast_path_matches_oracle(path)
    try:
        want = reference_parse(path)
    except (DataFormatError, DomainError) as exc:
        with pytest.raises(type(exc)) as err:
            parse_series(path)
        assert str(err.value) == str(exc)
    else:
        assert_same_series(parse_series(path), *want)


# -- the vectorized parse -----------------------------------------------------

STAMP_EDITS = [
    "2024-02-29T00:00:00Z",
    "2023-02-29T00:00:00Z",
    "2022-02-30T00:00:00Z",
    "2022-04-30T00:00:00Z",
    "2022-04-31T00:00:00Z",
    "2022-12-31T00:00:00Z",
    "2022-01-32T00:00:00Z",
    "2022-13-01T00:00:00Z",
    "2022-00-10T00:00:00Z",
    "2022-01-00T00:00:00Z",
    "2022-01-01T24:00:00Z",
    "2022-01-01T23:60:00Z",
    "2022-01-01T23:59:60Z",
    "0000-01-01T00:00:00Z",
    # the right length and separators, but not all digits; numpy's own
    # ISO parser would read each of these as some time
    " 022-06-01T00:00:00Z",
    "+022-06-01T00:00:00Z",
    "-022-06-01T00:00:00Z",
    "2\x0022-06-01T00:00:00Z",
    "2022-06-01T00:00:00.5Z",
    "2022-06-01T00:00:00.000001Z",
    "2022-06-01T00:00:00+00:00",
    "2022-06-01T01:00:00+01:00",
    "2022-06-01T00:00:00z",
    "2022-06-01T00:00:00",
    "2022-06-01 00:00:00Z",
    "2022-06-01t00:00:00Z",
    "2022/06/01T00:00:00Z",
    "20220601T000000Z",
    "2022-6-01T00:00:00Z",
    " 2022-06-01T00:00:00Z",
    "2022-06-01T00:00:00Z ",
    '"2022-06-01T00:00:00Z"',
    "2022-06-01T00:00:00ZZ",
    "",
]
VALUE_EDITS = [
    "nan", "NaN", "inf", "-inf", "-1", "-0", "-0.0", "+5", ".5", "5.", "1e5", "1E+05",
    "1e999", "1e-999", "1_000", " 1", "1 ", '"5"', "", "0x10", "1e", ".", "--1", "1.2.3",
    "5\x00", "\x005", "\u0661", "12345678901234567890123456789",
    "0.1000000000000000055511151231257827",
]


def _between_the_ends(stamp, value):
    """A three-row file whose middle row is the one under test."""
    return (
        "timestamp,power_kw\n0001-01-01T00:00:00Z,1\n"
        f"{stamp},{value}\n9999-12-31T23:59:59Z,2\n"
    )


@pytest.mark.parametrize(
    "text",
    [_between_the_ends(stamp, "3220.5") for stamp in STAMP_EDITS]
    + [_between_the_ends("2022-06-01T00:00:00Z", value) for value in VALUE_EDITS],
)
def test_one_odd_row_matches_the_reference(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parse_matches_reference(path)


# where each field of "YYYY-MM-DDTHH:MM:SSZ" sits, and values to put there
STAMP_FIELDS = [
    (0, 4, ["0000", "0001", "9999", " 022", "+022", "-022"]),
    (5, 7, ["00", "01", "02", "12", "13"]),
    (8, 10, ["00", "28", "29", "30", "31", "32"]),
    (11, 13, ["00", "23", "24"]),
    (14, 16, ["59", "60"]),
    (17, 19, ["59", "60", "99"]),
]
STAMP_ENDS = ["+00:00", "-00:00", "z", ".5Z", ".000001Z", "", "ZZ", "+01:00", "Z "]
ROW_EDITS = ["duplicate", "swap", "blank", "three fields", "one field"] + ["stamp", "value"] * 3

canonical_stamps = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)
).map(lambda t: t.replace(microsecond=0))


@st.composite
def plain_decimals(draw):
    """Digits with at most one point, around the 15 digits of the exact path."""
    digits = draw(st.text("0123456789", min_size=1, max_size=18))
    at = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(digits))))
    return digits if at is None else f"{digits[:at]}.{digits[at:]}"


values = st.one_of(
    plain_decimals(),
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.floats(min_value=0.0, max_value=1e7).map(lambda v: f"{v:.3f}"),
    st.floats(min_value=0.0, max_value=1e7).map(lambda v: f"{v:e}"),
    st.integers(min_value=0, max_value=10**20).map(str),
)


@st.composite
def odd_stamps(draw, text):
    """A canonical stamp with one field, separator or ending changed."""
    kind = draw(st.sampled_from(["field", "field", "separator", "end", "whole"]))
    if kind == "field":
        lo, hi, options = draw(st.sampled_from(STAMP_FIELDS))
        return text[:lo] + draw(st.sampled_from(options)) + text[hi:]
    if kind == "separator":
        at = draw(st.sampled_from([4, 7, 10, 13, 16]))
        return text[:at] + draw(st.sampled_from(" Tt:-/.x")) + text[at + 1 :]
    if kind == "end":
        return text[:19] + draw(st.sampled_from(STAMP_ENDS))
    return draw(st.sampled_from(STAMP_EDITS))


@st.composite
def series_files(draw):
    times = sorted(draw(st.lists(canonical_stamps, max_size=8)))
    rows = [[t.isoformat() + "Z", draw(values)] for t in times]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not rows:
            break
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        edit = draw(st.sampled_from(ROW_EDITS))
        if edit == "duplicate":
            rows.insert(i, list(rows[i]))
        elif edit == "swap":
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif edit == "blank":
            rows.insert(i, [])
        elif edit == "three fields":
            rows[i] = rows[i] + ["1"]
        elif edit == "one field":
            rows[i] = rows[i][:1]
        elif len(rows[i]) < 2:
            continue
        elif edit == "stamp":
            rows[i][0] = draw(odd_stamps(rows[i][0]))
        else:
            rows[i][1] = draw(st.sampled_from(VALUE_EDITS))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    header = draw(st.sampled_from(["timestamp,power_kw"] * 5 + ["timestamp,power", ""]))
    text = newline.join([header] + [",".join(row) for row in rows])
    if draw(st.sampled_from([True, True, True, False])):
        text += newline
    return text


@st.composite
def one_odd_row_files(draw):
    """A canonical file but for one stamp or one value."""
    times = sorted(set(draw(st.lists(canonical_stamps, min_size=1, max_size=6))))
    rows = [[t.isoformat() + "Z", draw(values)] for t in times]
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    if draw(st.booleans()):
        rows[i][0] = draw(odd_stamps(rows[i][0]))
    else:
        rows[i][1] = draw(st.sampled_from(VALUE_EDITS))
    return "timestamp,power_kw\n" + "".join(f"{t},{v}\n" for t, v in rows)


@settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=st.one_of(series_files(), one_odd_row_files()))
# rows of 57, 34 and 22 bytes: 34 + 1 + 22 = 57, so every 58th byte is a
# newline, but the file is not one width
@example(
    text="timestamp,power_kw\n1999-01-01T00:00:00Z,0.1000000000000000055511151231257827\n"
    "2000-01-01T00:00:00Z,2.393912e-291\n2000-01-01T00:00:01Z,0\n"
)
def test_parse_matches_the_per_row_reference(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parse_matches_reference(path)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(times=st.lists(canonical_stamps, min_size=1, max_size=20, unique=True), data=st.data())
def test_canonical_files_take_the_fast_path(tmp_path, times, data):
    times.sort()
    texts = [data.draw(values) for _ in times]
    path = tmp_path / "series.csv"
    path.write_text(
        "timestamp,power_kw\n" + "".join(f"{t.isoformat()}Z,{v}\n" for t, v in zip(times, texts))
    )
    fast = _parse_canonical(path)
    assert fast is not None
    assert_same_series(fast, *reference_parse(path))
    assert_fast_path_matches_oracle(path)


@pytest.mark.parametrize(
    "text",
    [
        "timestamp,power_kw\n",
        "timestamp,power_kw",
        "timestamp,power_kw\n\n",
        "timestamp,power_kw\n2022-01-01T00:00:00Z,1",
        "timestamp,power_kw\r\n2022-01-01T00:00:00Z,1\r\n",
        "timestamp,power_kw\n2022-01-01T00:00:00Z,1\n2022-01-01T00:00:00Z,2\n",
        "timestamp,power_kw\n2022-01-01T00:00:00Z,1\x002\n",
        "timestamp,power_kw\n2022-01-01T00:00:00Z,\n",
        "timestamp,power_kw\n2022-01-01T00:00:00\n",
        "\ufefftimestamp,power_kw\n2022-01-01T00:00:00Z,1\n",
        "",
    ],
)
def test_edge_files_match_the_reference(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_parse_matches_reference(path)


def test_long_file_matches_the_reference(tmp_path):
    rng = np.random.default_rng(3)
    n = 4 * _BATCH  # more than two vectorized batches, across the 2024 leap day
    start = datetime(2024, 2, 1, 12, tzinfo=UTC)
    milli_kw = rng.integers(0, 5_000_000, n)
    lines = [
        f"{format_timestamp(start + timedelta(minutes=7 * i))},{k / 1000}\n"
        for i, k in enumerate(milli_kw.tolist())
    ]
    # batches are per row length, and the most common length alone fills three
    assert max(Counter(map(len, lines)).values()) > 2 * _BATCH
    path = tmp_path / "year.csv"
    path.write_text("timestamp,power_kw\n" + "".join(lines))
    assert _parse_canonical(path) is not None
    assert_parse_matches_reference(path)


def _write_rows(path, stamps, values):
    path.write_text("timestamp,power_kw\n" + "".join(f"{t},{v}\n" for t, v in zip(stamps, values)))


def _minutes(start, n):
    return [format_timestamp(start + timedelta(minutes=i)) for i in range(n)]


@pytest.mark.parametrize(
    "value",
    [
        "999999999999999", "9999999999999999", "0.000000000000001", ".000000000000001",
        "123456789012345.", "1234567890123456.", "9007199254740993", "0003220.5",
        "000000000000003220.5", "5.", ".5", "0", "0.0", "0.1", "0.3", "3220.123",
        "9999999999.999999", "1.7976931348623157", "4.9406564584124654e-324",
    ],
)
def test_decimals_are_bit_identical_to_float(tmp_path, value):
    path = tmp_path / "series.csv"
    _write_rows(path, ["2022-06-01T00:00:00Z", "2022-06-01T00:01:00Z"], [value, value])
    series = _parse_canonical(path)
    assert series is not None
    assert series.power_kw.view(np.int64).tolist() == [np.float64(float(value)).view(np.int64)] * 2
    assert_parse_matches_reference(path)


def test_rows_of_several_lengths_match_the_reference(tmp_path):
    rng = np.random.default_rng(8)
    n = 3 * _BATCH
    # a first half all below 1000 kW, so one length; then .3f values crossing it
    first_half = np.arange(n) < n // 2
    kw = np.where(first_half, rng.uniform(990.0, 999.0, n), rng.uniform(990.0, 1010.0, n))
    path = tmp_path / "series.csv"
    _write_rows(path, _minutes(datetime(2023, 12, 31, tzinfo=UTC), n), [f"{v:.3f}" for v in kw])
    assert _parse_canonical(path) is not None
    assert_parse_matches_reference(path)


@pytest.mark.parametrize("extra", [0, 1])
def test_rows_past_the_length_bound_go_row_by_row(tmp_path, extra):
    # a longest write_series row fits, with room to spare
    assert _STAMP_BYTES + len(repr(2.2250738585072014e-308)) <= _MAX_ROW_BYTES
    value = "0." + "0" * (_MAX_ROW_BYTES - _STAMP_BYTES - 3 + extra) + "7"
    path = tmp_path / "series.csv"
    _write_rows(path, _minutes(datetime(2023, 12, 31, tzinfo=UTC), 3), ["1.5", value, "2.5"])
    assert (_parse_canonical(path) is None) == bool(extra)
    assert_parse_matches_reference(path, oracle=False)


# -- rows of one width, whose line ends one strided compare finds -------------

FIXED_START = datetime(2022, 6, 1, tzinfo=UTC)
FIXED_ROW = "2022-06-01T00:00:00Z,3220.125"  # 29 bytes, as every row below


def test_rows_of_one_width_match_the_reference(tmp_path):
    rng = np.random.default_rng(13)
    n = 2 * _BATCH + 5  # two full batches and a short one
    # .3f values from 1000 to 9999 kW all take 8 bytes
    kw = rng.uniform(1000.0, 9999.0, n)
    path = tmp_path / "series.csv"
    _write_rows(path, _minutes(FIXED_START, n), [f"{v:.3f}" for v in kw])
    assert _parse_canonical(path) is not None
    assert_parse_matches_reference(path)


@pytest.mark.parametrize("value", ["999.125", "10000.125"], ids=["shorter", "longer"])
@pytest.mark.parametrize("at", [0, _BATCH, -1], ids=["first", "middle", "last"])
def test_one_row_of_another_width_matches_the_reference(tmp_path, at, value):
    values = ["3220.125"] * (2 * _BATCH)
    values[at] = value
    path = tmp_path / "series.csv"
    _write_rows(path, _minutes(FIXED_START, len(values)), values)
    assert _parse_canonical(path) is not None
    assert_parse_matches_reference(path)


def test_two_widths_that_pass_the_stride_are_read_by_the_scan(tmp_path):
    # a first row of 45 bytes, then pairs of 22-byte rows: 22 + 1 + 22 = 45,
    # so a newline sits at every 46th byte, but also inside each 45-byte window
    stamps = _minutes(FIXED_START, 9)
    values = ["3220.1250000000000000000"] + ["5", "6"] * 4
    path = tmp_path / "series.csv"
    _write_rows(path, stamps, values)
    body = path.read_bytes()[len("timestamp,power_kw\n") :]
    assert len(body) % 46 == 0 and set(body[45::46]) == {ord("\n")}
    # the strided compare takes it for one width, the newline inside a row
    # fails that read, and the scan reads the file as the reference does
    assert reference_parse_canonical(path) is not None
    assert_fast_path_matches_oracle(path)
    assert_parse_matches_reference(path)


@pytest.mark.parametrize("header_end", ["\r\n", "\n"])
def test_crlf_rows_of_one_width_match_the_reference(tmp_path, header_end):
    rows = [f"{t},3220.125\r\n" for t in _minutes(FIXED_START, 5)]
    path = tmp_path / "series.csv"
    path.write_bytes(f"timestamp,power_kw{header_end}{''.join(rows)}".encode())
    assert _parse_canonical(path) is None
    assert_parse_matches_reference(path)


@pytest.mark.parametrize("column", range(len(FIXED_ROW) + 1))
def test_one_bad_byte_in_rows_of_one_width_matches_the_reference(tmp_path, column):
    rows = [f"{t},3220.125\n" for t in _minutes(FIXED_START, 3)]
    for bad in "x\n\r ,.9":
        middle = rows[1][:column] + bad + rows[1][column + 1 :]
        path = tmp_path / "series.csv"
        path.write_text("timestamp,power_kw\n" + rows[0] + middle + rows[2])
        assert_parse_matches_reference(path)


@pytest.mark.parametrize(
    "text",
    [
        f"timestamp,power_kw\n{FIXED_ROW}\n",
        "timestamp,power_kw\n",
        # every row 64 bytes, the longest the vectorized parse takes, then 65
        *(
            "timestamp,power_kw\n"
            + "".join(f"{t},3220.{'1' * (width - 26)}\n" for t in _minutes(FIXED_START, 3))
            for width in (_MAX_ROW_BYTES, _MAX_ROW_BYTES + 1)
        ),
    ],
    ids=["one row", "no rows", "width 64", "width 65"],
)
def test_short_and_wide_files_of_one_width_match_the_reference(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    wide = text.endswith(f"{'1' * (_MAX_ROW_BYTES + 1 - 26)}\n")
    assert (_parse_canonical(path) is None) == wide
    # the per-width parse has no bound on the row length
    assert_parse_matches_reference(path, oracle=not wide)


# -- the batches on a thread per CPU ------------------------------------------

# _each runs the parse batches of a file of more than _BATCH rows on a thread
# per usable CPU. These patch the batch small and the CPU count to 1 and to 4,
# so that a file of a few thousand rows takes the serial and the pooled
# branch on any host.


@contextmanager
def _batches(cpus, batch=64):
    with patch("wattplan.telemetry._BATCH", batch), patch("wattplan.telemetry._cpus", lambda: cpus):
        yield


@pytest.mark.parametrize("cpus", [1, 4])
def test_each_maps_in_order_on_a_thread_per_cpu(cpus):
    main = threading.get_ident()
    with _batches(cpus):
        assert _each(lambda x: x * x, range(100)) == [x * x for x in range(100)]
        threads = set(_each(lambda _: threading.get_ident(), range(8)))
        assert _each(lambda _: threading.get_ident(), [0]) == [main]  # one item: no pool
    assert threads == {main} if cpus == 1 else main not in threads


def _written_rows(path, n):
    """A write_series file of n noisy minutes, whose rows have several widths."""
    series = synth_series([(n / 60, n, 3220.0, 25.0)], seed=5, start=FIXED_START)
    write_series(series, path)
    assert len(set(map(len, path.read_text().splitlines()))) > 2


def _fixed_rows(path, n):
    """A file of n .3f minutes from 1000 to 9999 kW, whose rows have one width."""
    kw = np.random.default_rng(13).uniform(1000.0, 9999.0, n)
    _write_rows(path, _minutes(FIXED_START, n), [f"{v:.3f}" for v in kw])


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("rows", [_written_rows, _fixed_rows], ids=["widths", "one width"])
def test_batches_on_threads_parse_as_the_per_row_reader(tmp_path, rows, cpus):
    path = tmp_path / "series.csv"
    rows(path, 20 * 64 + 5)  # twenty full batches and a short one
    want = _parse_rows(path)
    with _batches(cpus):
        assert _parse_canonical(path) is not None
        got = parse_series(path)
    assert np.array_equal(got.times_us, want.times_us)
    assert np.array_equal(got.power_kw.view(np.int64), want.power_kw.view(np.int64))


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("rows", [_written_rows, _fixed_rows], ids=["widths", "one width"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda stamp, value: f"{stamp},x",
        lambda stamp, value: f"{stamp},-{value}",
        lambda stamp, value: f"2022-06-01T00:00:00Z,{value}",  # out of order
        lambda stamp, value: f"2022-06-31{stamp[10:]},{value}",
    ],
    ids=["not a number", "negative", "out of order", "no such date"],
)
def test_a_bad_row_in_the_last_batch_fails_as_the_per_row_reader(tmp_path, rows, cpus, edit):
    path = tmp_path / "series.csv"
    n = 20 * 64 + 5
    rows(path, n)
    lines = path.read_text().splitlines()
    lines[-1] = edit(*lines[-1].split(","))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((DataFormatError, DomainError)) as want:
        _parse_rows(path)
    assert f"line {n + 1}: " in str(want.value)
    with _batches(cpus), pytest.raises(want.type) as got:
        parse_series(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("rows", [_written_rows, _fixed_rows], ids=["widths", "one width"])
def test_an_odd_row_in_the_last_batch_leaves_the_file_to_the_per_row_reader(tmp_path, rows, cpus):
    path = tmp_path / "series.csv"
    rows(path, 20 * 64 + 5)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace("Z,", "+00:00,")  # valid, but not canonical
    path.write_text("\n".join(lines) + "\n")
    want = _parse_rows(path)
    with _batches(cpus):
        assert _parse_canonical(path) is None
        got = parse_series(path)
    assert np.array_equal(got.times_us, want.times_us)
    assert np.array_equal(got.power_kw.view(np.int64), want.power_kw.view(np.int64))


def test_daily_stamps_match_the_reference(tmp_path):
    # a new date on every row, across the 1900 non-leap year and several leap days
    start = datetime(1896, 1, 1, tzinfo=UTC)
    stamps = [
        format_timestamp(start + timedelta(days=i, seconds=(i * 7919) % 86_400))
        for i in range(_BATCH + 1000)
    ]
    path = tmp_path / "series.csv"
    _write_rows(path, stamps, [f"{i % 5000}.{i % 7}" for i in range(len(stamps))])
    assert _parse_canonical(path) is not None
    assert_parse_matches_reference(path)


@pytest.mark.parametrize("step", [timedelta(minutes=1), timedelta(days=1)])
def test_invalid_date_over_several_rows_matches_the_reference(tmp_path, step):
    start = datetime(2023, 2, 27, tzinfo=UTC) - 1000 * step
    stamps = [format_timestamp(start + i * step) for i in range(5000)]
    # ten rows from 1 March dated 29 February
    bad = next(i for i, t in enumerate(stamps) if t.startswith("2023-03-01"))
    for i in range(bad, bad + 10):
        stamps[i] = "2023-02-29" + stamps[i][10:]
    path = tmp_path / "series.csv"
    _write_rows(path, stamps, ["3220.5"] * len(stamps))
    assert _parse_canonical(path) is None
    with pytest.raises(DataFormatError, match=f"line {bad + 2}: "):
        parse_series(path)
    # the per-width parse's failed cast of a 4,096-row chunk segfaults numpy 2.4.6
    assert_parse_matches_reference(path, oracle=False)


@pytest.mark.parametrize("stamp", STAMP_EDITS)
def test_one_odd_stamp_in_a_long_file_matches_the_reference(tmp_path, stamp):
    stamps = _minutes(datetime(2022, 6, 1, tzinfo=UTC) - timedelta(minutes=1000), 2000)
    stamps[1000] = stamp
    path = tmp_path / "series.csv"
    _write_rows(path, stamps, ["3220.5"] * len(stamps))
    # as above, the per-width parse would crash on several of these stamps
    assert_parse_matches_reference(path, oracle=False)


# -- the column-wise writer --------------------------------------------------

micro_stamps = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999)
)
whole_stamps = micro_stamps.map(lambda t: t.replace(microsecond=0))
# values whose reprs take each form: zero of either sign, a trailing .0, an
# exponent, subnormals, the longest repr, the largest finite double; either
# side of [1e-4, 1e16), the reprs without an exponent, which numpy formats;
# powers of two, whose intervals are lopsided; reprs of 1, 15, 16 and 17
# digits; and two halfway between 17-digit decimals, which go to the even one
EDGE_POWERS = [
    0.0, -0.0, 3.0, 0.1, 3220.0, 1e16, 1e-5, 1e300, 5e-324, 1.5e-323,
    2.2250738585072014e-308, 1.7976931348623157e308, 123456789012345.67,
    1e-4, 9.999999999999999e-05, 9999999999999998.0, 2048.0, 0.5, 0.3,
    3220.12345678901, 3220.123456789012, 0.30000000000000004,
    100000000000000.125, 100000000000000.375,
]
powers = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-300),
    st.sampled_from(EDGE_POWERS),
)


def assert_writes_as_the_reference(tmp_path, series):
    """The same bytes as the per-row writer, read back to the same series."""
    write_series(series, tmp_path / "new.csv")
    reference_write(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert_same_series(parse_series(tmp_path / "new.csv"), series.timestamps, series.values_kw)


# fractional seconds on every row, on none, or on some
stamp_kinds = st.sampled_from([micro_stamps, whole_stamps, st.one_of(whole_stamps, micro_stamps)])


@settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(samples=stamp_kinds.flatmap(lambda stamps: st.dictionaries(stamps, powers, max_size=12)))
def test_write_matches_the_per_row_reference(tmp_path, samples):
    times = sorted(samples)
    series = PowerSeries(times, [samples[t] for t in times])
    assert_writes_as_the_reference(tmp_path, series)


def _stamps(*texts):
    return [datetime.fromisoformat(text) for text in texts]


CALENDAR_EDGES = {
    "day": _stamps("2022-03-14T23:59:59", "2022-03-14T23:59:59.999999", "2022-03-15T00:00:00",
                   "2022-03-15T00:00:00.000001"),
    "month": _stamps("2022-01-31T23:59:59", "2022-02-01T00:00:00", "2022-04-30T23:59:59.5",
                     "2022-05-01T00:00:00"),
    "leap day": _stamps("2024-02-28T23:59:59", "2024-02-29T00:00:00", "2024-02-29T23:59:59.25",
                        "2024-03-01T00:00:00", "2000-02-29T12:00:00", "1900-02-28T23:59:59",
                        "1900-03-01T00:00:00"),
    "year": _stamps("2022-12-31T23:59:59", "2022-12-31T23:59:59.999999", "2023-01-01T00:00:00",
                    "1999-12-31T23:59:59", "2000-01-01T00:00:00"),
    "year 1": _stamps("0001-01-01T00:00:00", "0001-01-01T00:00:00.000001", "0001-01-01T23:59:59",
                      "0009-09-09T09:09:09", "0099-12-31T23:59:59", "0999-12-31T23:59:59"),
    "year 9999": _stamps("9999-12-30T23:59:59.999999", "9999-12-31T00:00:00",
                         "9999-12-31T23:59:59", "9999-12-31T23:59:59.999999"),
    "before 1970": _stamps("1969-12-31T23:59:59", "1969-12-31T23:59:59.999999",
                           "1970-01-01T00:00:00", "1970-01-01T00:00:00.000001",
                           "1901-12-13T20:45:52", "1583-10-15T00:00:00.5"),
}


@pytest.mark.parametrize("stamps", CALENDAR_EDGES.values(), ids=CALENDAR_EDGES.keys())
def test_calendar_edges_match_the_reference(tmp_path, stamps):
    times = sorted(stamps)
    power = [EDGE_POWERS[i % len(EDGE_POWERS)] for i in range(len(times))]
    assert_writes_as_the_reference(tmp_path, PowerSeries(times, power))


@pytest.mark.parametrize("whole", [True, False], ids=["whole", "fractional"])
@pytest.mark.parametrize("value", EDGE_POWERS, ids=repr)
def test_edge_powers_match_the_reference(tmp_path, value, whole):
    start = datetime(2022, 6, 1, microsecond=0 if whole else 250_000)
    times = [start + timedelta(seconds=i) for i in range(3)]
    assert_writes_as_the_reference(tmp_path, PowerSeries(times, [value] * 3))


def test_write_matches_the_reference_across_chunks(tmp_path):
    rng = np.random.default_rng(11)
    n = 10_000  # more than two chunks
    steps = rng.choice([1_000_000, 60_000_000, 1_500_000, 1], size=n)
    times = -100_000_000_000 + np.cumsum(steps)
    assert times[0] < 0 < times[-1]  # crosses 1970 with whole and fractional seconds
    series = PowerSeries.from_arrays(times, rng.uniform(0.0, 1e4, n))
    assert_writes_as_the_reference(tmp_path, series)


def test_whole_mixed_and_fractional_chunks_match_the_reference(tmp_path):
    # one chunk of whole seconds, one whose last row alone has a fraction,
    # then one of fractions only
    times = np.arange(3 * _WRITE_CHUNK, dtype=np.int64) * 1_000_000 - 5 * 86_400_000_000
    times[2 * _WRITE_CHUNK - 1] += 1
    times[2 * _WRITE_CHUNK :] += 999_999
    power = np.random.default_rng(12).uniform(0.0, 1e4, len(times))
    assert_writes_as_the_reference(tmp_path, PowerSeries.from_arrays(times, power))


def _repr_lines(values):
    """The text _reprs gives for each value, each followed by a newline."""
    text, length = _reprs(values)
    lines = np.vstack((text, np.zeros((1, len(values)), dtype=np.uint8)))
    lines[length, np.arange(len(values))] = ord("\n")
    return lines.T[np.arange(_REPR_BYTES + 1) <= length[:, None]].tobytes().decode()


def test_reprs_match_repr_on_a_million_values():
    rng = np.random.default_rng(20)
    window = np.array([1e-4, 1e16]).view(np.uint64)
    values = np.concatenate([
        # any bit pattern of a double in [1e-4, 1e16)
        rng.integers(window[0], window[1], 500_000, dtype=np.uint64).view(np.float64),
        # noisy kW, from a node to a cabinet, clamped at 0 as synth_series does
        *(np.maximum(rng.normal(mean, mean / 20, 100_000), 0.0) for mean in (0.4, 25, 3220)),
        rng.integers(0, 10**7, 200_000).astype(np.float64),
        # every power of two in the window, whose interval is narrower below
        2.0 ** np.arange(-13, 54),
    ])
    for lo in range(0, len(values), _WRITE_CHUNK):
        chunk = values[lo : lo + _WRITE_CHUNK].tolist()
        assert _repr_lines(values[lo : lo + _WRITE_CHUNK]).splitlines() == list(map(repr, chunk))


# -- integer-microsecond synthesis --------------------------------------------

segments = st.builds(
    SeriesSegment,
    duration_hours=st.floats(min_value=1e-9, max_value=1e5),
    n_samples=st.integers(min_value=1, max_value=40),
    mean_kw=st.floats(min_value=0.0, max_value=1e4),
    noise_sd_kw=st.floats(min_value=0.0, max_value=100.0),
)


@settings(max_examples=300, deadline=None)
@given(
    segs=st.lists(segments, min_size=1, max_size=4),
    start=st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)),
    aware=st.booleans(),
)
# steps and segment lengths where hours * 3.6e9, rounded, is 1 us off timedelta's rounding
@example(
    segs=[SeriesSegment(87953.66554858055, 20, 1.0), SeriesSegment(23674.748553172638, 1, 1.0),
          SeriesSegment(1.0, 2, 1.0)],
    start=datetime(2000, 1, 1),
    aware=True,
)
def test_synth_times_equal_start_plus_i_steps(segs, start, aware):
    if aware:
        start = start.replace(tzinfo=UTC)
    # a naive start is taken as UTC
    want = reference_synth_times(segs, start.replace(tzinfo=UTC))
    increasing = all(a < b for a, b in zip(want, want[1:]))
    if not increasing:
        with pytest.raises(DomainError, match="strictly increasing"):
            synth_series(segs, seed=0, start=start)
        return
    series = synth_series(segs, seed=0, start=start)
    assert series.timestamps == want


def test_synth_past_the_year_9999_is_a_domain_error():
    with pytest.raises(DomainError):
        synth_series([(48.0, 3, 1.0, 0.0)], seed=0, start=datetime(9999, 12, 31, tzinfo=UTC))
    with pytest.raises(DomainError):
        synth_series([(8e7, 2, 1.0, 0.0)] * 30, seed=0)


@pytest.mark.parametrize(
    "fields",
    [
        (math.nan, 5, 1.0, 0.0),
        (math.inf, 5, 1.0, 0.0),
        (1e300, 5, 1.0, 0.0),
        (10.0, 5, math.nan, 0.0),
        (10.0, 5, math.inf, 0.0),
        (10.0, 5, 1.0, math.nan),
        (10.0, 5, 1.0, math.inf),
    ],
)
def test_segment_rejects_non_finite_and_huge_fields(fields):
    with pytest.raises(DomainError):
        SeriesSegment(*fields)


# -- windows and changepoint on the arrays ------------------------------------


def reference_window(series, start, end):
    lo = bisect_left(series.timestamps, start)
    hi = bisect_left(series.timestamps, end)
    window = np.asarray(series.values_kw[lo:hi], dtype=float)
    return int(window.size), float(window.mean()), float(window.std())


def test_window_mean_matches_bisect_over_datetimes():
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.integers(1, 10**9, 5_000)) + 1_600_000_000_000_000
    series = PowerSeries.from_arrays(times, rng.normal(3000.0, 50.0, times.size))
    stamps = series.timestamps
    for _ in range(300):
        i, j = sorted(rng.integers(0, len(stamps), 2))
        start = stamps[i] + timedelta(microseconds=int(rng.integers(-2, 3)))
        end = stamps[j] + timedelta(microseconds=int(rng.integers(1, 3)))
        stats = window_mean(series, start, end)
        assert (stats.count, stats.mean_kw, stats.stddev_kw) == reference_window(
            series, start, end
        )


def test_changepoint_matches_the_tuple_code():
    series = synth_series([(200.0, 200, 3220.0, 25.0), (300.0, 300, 3010.0, 25.0)], seed=4)
    found = detect_changepoint(series)
    y = np.asarray(series.values_kw, dtype=float)
    n = len(y)
    sse = [((y[:k] - y[:k].mean()) ** 2).sum() + ((y[k:] - y[k:].mean()) ** 2).sum()
           for k in range(2, n - 1)]
    assert found.index == 2 + int(np.argmin(sse))
    assert found.change_time == series.timestamps[found.index]
    assert found.change_time.tzinfo is UTC


def reference_changepoint(series):
    """detect_changepoint's (index, score) as it was computed on gathers
    csq[ks] and csum[ks] before it worked on slices in place."""
    n = len(series)
    y = series.power_kw
    csum = np.concatenate(([0.0], np.cumsum(y)))
    csq = np.concatenate(([0.0], np.cumsum(y * y)))
    total_sse = float(csq[n] - csum[n] ** 2 / n)
    if total_sse <= 1e-12 * max(1.0, float(csq[n])):
        return 2, 0.0
    ks = np.arange(2, n - 1)
    left = csq[ks] - csum[ks] ** 2 / ks
    right = (csq[n] - csq[ks]) - (csum[n] - csum[ks]) ** 2 / (n - ks)
    sse = left + right
    best = int(np.argmin(sse))
    score = 1.0 - float(sse[best]) / total_sse
    return int(ks[best]), min(max(score, 0.0), 1.0)


@st.composite
def changepoint_series(draw):
    """Random, flat, two-level and tied (small integer) power values."""
    n = draw(st.integers(min_value=4, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "flat", "two-level", "tied", "drawn"]))
    if kind == "random":
        values = rng.uniform(0.0, draw(st.sampled_from([1e-3, 1.0, 4e3, 1e12])), n)
    elif kind == "flat":
        level = draw(st.floats(min_value=0.0, max_value=1e6))
        values = level + rng.normal(0.0, draw(st.sampled_from([0.0, 1e-9, 1e-6])), n)
    elif kind == "two-level":
        k = draw(st.integers(min_value=1, max_value=n - 1))
        low, high = sorted(draw(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=2)))
        values = np.where(np.arange(n) < k, high, low) + rng.normal(0.0, rng.uniform(0, 50), n)
    elif kind == "tied":
        values = rng.integers(0, draw(st.integers(min_value=1, max_value=4)), n).astype(float)
    else:
        values = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=4, max_size=40)))
    return PowerSeries.from_arrays(np.arange(len(values)), np.maximum(values, 0.0))


@settings(max_examples=300, deadline=None)
@given(series=changepoint_series())
def test_changepoint_equals_the_gather_formula(series):
    found = detect_changepoint(series)
    assert (found.index, found.score) == reference_changepoint(series)


# detect_changepoint runs its prefix sums in blocks of _BATCH samples and its
# split scan in blocks of _BATCH splits from k = 2; the drawn series are
# shorter than one block, so these run with the block size patched small


@pytest.mark.parametrize("block", [3, 64])
@settings(max_examples=100, deadline=None)
@given(series=changepoint_series())
def test_changepoint_in_small_blocks_equals_the_gather_formula(block, series):
    with patch("wattplan.telemetry._BATCH", block):
        found = detect_changepoint(series)
    assert (found.index, found.score) == reference_changepoint(series)


def _two_level(n, step, noise_sd=1.0, seed=0):
    values = np.where(np.arange(n) < step, 3220.0, 3010.0)
    values = values + np.random.default_rng(seed).normal(0.0, noise_sd, n)
    return PowerSeries.from_arrays(np.arange(n), values)


@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize(
    "case", ["sum block edge", "scan block edge", "tie across blocks", "four samples"]
)
def test_changepoint_across_block_edges(block, case):
    if case == "sum block edge":  # the second level starts a block of the prefix sums
        series, expected = _two_level(10 * block, 4 * block), 4 * block
    elif case == "scan block edge":  # the best split is the first of a scan block
        series, expected = _two_level(10 * block, 2 + 4 * block), 2 + 4 * block
    elif case == "tie across blocks":
        # 0^a 1^b 0^a: the splits at a and a + b have the same SSE to the bit,
        # a * b / (a + b), and lie in different scan blocks; the earliest wins
        a, b = 2 * block + 4, 3 * block
        series = PowerSeries.from_arrays(np.arange(2 * a + b), [0.0] * a + [1.0] * b + [0.0] * a)
        expected = a
    else:
        series = PowerSeries.from_arrays(np.arange(4), [5.0, 1.0, 7.0, 2.5])
        expected = reference_changepoint(series)[0]
    with patch("wattplan.telemetry._BATCH", block):
        found = detect_changepoint(series)
    assert (found.index, found.score) == reference_changepoint(series)
    assert found.index == expected


@pytest.mark.parametrize("block", [64, _BATCH])
def test_changepoint_over_a_year_of_minutes_in_blocks(block):
    series = _two_level(525_600, 200_000, noise_sd=25.0, seed=3)
    with patch("wattplan.telemetry._BATCH", block):
        found = detect_changepoint(series)
    assert (found.index, found.score) == reference_changepoint(series)
    assert found.index == 200_000


# -- the series itself --------------------------------------------------------


def test_tuple_and_array_constructions_agree():
    t0 = datetime(2022, 1, 1, tzinfo=UTC)
    stamps = (t0, t0 + timedelta(microseconds=1), t0 + timedelta(days=400))
    values = (1.0, 0.0, 2.5)
    series = PowerSeries(stamps, values)
    same = PowerSeries.from_arrays(
        [(t - datetime(1970, 1, 1, tzinfo=UTC)) // timedelta(microseconds=1) for t in stamps],
        values,
    )
    assert series == same and hash(series) == hash(same)
    assert series.timestamps == stamps and series.values_kw == values
    assert repr(series) == f"PowerSeries(timestamps={stamps!r}, values_kw={values!r})"
    for twin in (pickle.loads(pickle.dumps(series)), copy.deepcopy(series), copy.copy(series)):
        assert twin == series and type(twin) is PowerSeries
        assert not (twin.times_us.flags.writeable or twin.power_kw.flags.writeable)
    # naive times are UTC; other zones are the same instants
    plus_one = timezone(timedelta(hours=1))
    assert PowerSeries([t.replace(tzinfo=None) for t in stamps], values) == series
    assert PowerSeries([t.astimezone(plus_one) for t in stamps], values) == series


def test_from_arrays_copies_what_it_is_given():
    times, power = np.array([0, 1]), np.array([1.0, 2.0])
    series = PowerSeries.from_arrays(times, power)
    assert not np.shares_memory(series.times_us, times)
    assert not np.shares_memory(series.power_kw, power)
    times[0], power[0] = 5, 5.0  # the caller's arrays stay writable
    assert series == PowerSeries.from_arrays([0, 1], [1.0, 2.0])


def test_series_is_read_only():
    series = PowerSeries.from_arrays([0, 1], [1.0, 2.0])
    with pytest.raises(FrozenInstanceError):
        series.power_kw = None
    with pytest.raises(ValueError):
        series.power_kw[0] = 5.0
    with pytest.raises(ValueError):
        series.times_us[0] = 5


def test_array_construction_checks_like_the_tuple_one():
    with pytest.raises(DomainError, match="2 timestamps but 1 power values"):
        PowerSeries.from_arrays([0, 1], [1.0])
    with pytest.raises(
        DomainError,
        match="strictly increasing: 1970-01-01T00:00:00.000002Z then 1970-01-01T00:00:00.000002Z",
    ):
        PowerSeries.from_arrays([1, 2, 2], [1.0, 1.0, 1.0])
    with pytest.raises(
        DomainError,
        match="strictly increasing: 1970-01-01T00:00:00.000003Z then 1970-01-01T00:00:00.000002Z",
    ):
        PowerSeries.from_arrays([1, 2, 3, 2], [1.0, 1.0, 1.0, 1.0])
    for last in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"finite and >= 0 kW, got {last}$"):
            PowerSeries.from_arrays([1, 2, 3], [1.0, 2.0, last])
    # the first bad value in index order, not the one the min or max finds
    with pytest.raises(DomainError, match="finite and >= 0 kW, got -2.0$"):
        PowerSeries.from_arrays([1, 2, 3, 4], [1.0, -2.0, math.nan, -5.0])
    assert len(PowerSeries.from_arrays([1, 2], [1.0, -0.0])) == 2  # -0.0 is >= 0
    assert len(PowerSeries.from_arrays([], [])) == 0
    with pytest.raises(DomainError, match="years 1 to 9999"):
        PowerSeries.from_arrays([0, 2**62], [1.0, 1.0])


def test_range_is_checked_before_order():
    # increasing times are checked at their ends only; times out of order
    # and out of range get the range message, whose check comes first
    lowest, highest = _MIN_US, _MAX_US
    assert len(PowerSeries.from_arrays([lowest, 0, highest], [1.0] * 3)) == 3
    for times in ([lowest - 1, 0], [0, highest + 1], [2**62, 0], [0, 2**62, 1], [1, -(2**62), 0]):
        with pytest.raises(DomainError, match="timestamps must lie within the years 1 to 9999$"):
            PowerSeries.from_arrays(times, [1.0] * len(times))
    # in range and out of order, the message names the backward step
    t = _micros(datetime(2022, 6, 1, tzinfo=UTC))
    with pytest.raises(
        DomainError,
        match="strictly increasing: 2022-06-01T00:01:00Z then 2022-06-01T00:00:30Z$",
    ):
        PowerSeries.from_arrays([t, t + 60_000_000, t + 30_000_000], [1.0] * 3)
