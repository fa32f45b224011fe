"""The column-wise read of series files (datafiles.timed_columns) against the
row-by-row read it stands in front of, which stays the source of every error:
CarbonIntensityProfile.from_csv against _from_rows and timed_columns against
timed_values, plus parse_series (whose only other reader is the canonical
one) against _parse_rows, on files built from the pieces where they could
part: stamp offsets and padding, cells that float reads or refuses, quotes,
CRLF, blank lines, a missing final newline, a BOM."""

import csv
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wattplan.cli import main
from wattplan.datafiles import timed_columns, timed_values
from wattplan.emissions import CarbonIntensityProfile
from wattplan.errors import DataFormatError, DomainError
from wattplan.telemetry import _parse_rows, parse_series

UTC = timezone.utc
T0 = datetime(2022, 6, 1)
INTENSITY = "intensity_g_per_kwh"

# repeats weight the draw toward files the column-wise read takes
OFFSETS = ["+00:00", "+00:00", "Z", "Z", "-00:00", "+01:00", ""]
PADDING = ["", "", "", "", " "]
CELLS = ["12.5", "12.5", "0", "7", "1e3", "nan", "inf", "-1", "1_0", '"2.5"', "", " 3"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n"]


@st.composite
def series_texts(draw, column):
    """The text of a small series file, mostly plain, sometimes not."""
    header = draw(st.sampled_from(
        [f"timestamp,{column}"] * 4 + [f'"timestamp","{column}"', f"\ufefftimestamp,{column}"]
    ))
    lines = [header]
    minute = 0
    for _ in range(draw(st.integers(0, 6))):
        # a step of 0 or -1 puts the stamps out of order
        minute += draw(st.sampled_from([30, 30, 30, 1, 0, -1]))
        stamp = (T0 + timedelta(minutes=minute)).isoformat() + draw(st.sampled_from(OFFSETS))
        if draw(st.sampled_from(PADDING)):
            stamp = draw(st.sampled_from([f" {stamp}", f"{stamp} "]))
        lines.append(f"{stamp},{draw(st.sampled_from(CELLS))}")
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(lines) + draw(st.sampled_from([end, end, ""]))


def outcome(load, path):
    """What load gives for path: the result and its repr, or the error's type and text."""
    try:
        result = load(path)
    except Exception as exc:  # every type, so that one path's stray error shows
        return type(exc), str(exc)
    return result, repr(result)


def write(tmp_path, text: str):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=series_texts(INTENSITY))
@example(text=f"timestamp,{INTENSITY}\n2022-06-01T00:00:00+00:00,12.5\n")
@example(text=f"timestamp,{INTENSITY}\n2022-06-01T00:00:00+00:00,-1\n")
def test_from_csv_equals_the_row_by_row_read(tmp_path, text):
    path = write(tmp_path, text)
    assert outcome(CarbonIntensityProfile.from_csv, path) == outcome(
        CarbonIntensityProfile._from_rows, path
    )


@FUZZ
@given(text=series_texts("power_kw"))
@example(text="timestamp,power_kw\n2022-06-01T00:00:00+00:00,12.5\n")
@example(text="timestamp,power_kw\n2022-06-01T00:00:00+00:00,nan\n")
def test_parse_series_equals_the_row_by_row_read(tmp_path, text):
    path = write(tmp_path, text)
    assert outcome(parse_series, path) == outcome(_parse_rows, path)


@FUZZ
@given(text=series_texts("power_kw"))
def test_timed_columns_reads_what_timed_values_reads(tmp_path, text):
    path = write(tmp_path, text)
    columns = timed_columns(path, "power_kw")
    if columns is None:
        return
    times, values = columns
    assert all(ts.tzinfo is UTC for ts in times)
    # timed_columns leaves the range to the caller; timed_values checks it
    if not all(0 <= value < float("inf") for value in values):
        with pytest.raises(DomainError):
            list(timed_values(path, "power_kw", "power", "kW"))
        return
    rows = [(ts, value) for _, ts, value in timed_values(path, "power_kw", "power", "kW")]
    assert list(zip(times, values)) == rows
    assert [ts.tzinfo for ts, _ in rows] == [ts.tzinfo for ts in times]


@pytest.mark.parametrize("offset", ["+00:00", "Z", "-00:00"])
def test_plain_utc_files_are_read_column_wise(tmp_path, offset):
    # a fast path that quietly fell back to the row-by-row read would pass
    # every oracle test, so that it takes these files is checked on its own
    path = write(tmp_path, "timestamp,power_kw\n"
                           f"2022-06-01T00:00:00{offset},12.5\n2022-06-01T00:30:00{offset},0\n")
    times = [datetime(2022, 6, 1, tzinfo=UTC), datetime(2022, 6, 1, 0, 30, tzinfo=UTC)]
    assert timed_columns(path, "power_kw") == (times, [12.5, 0.0])


def test_a_long_file_is_read_in_blocks_to_the_same_columns(tmp_path):
    n = 20_000  # about 700 KB, so eleven blocks
    stamps = [(T0 + timedelta(minutes=30 * i)).isoformat() + "+00:00" for i in range(n)]
    path = write(tmp_path, "timestamp,power_kw\n" + "".join(
        f"{stamp},{i / 10}\n" for i, stamp in enumerate(stamps)))
    times, values = timed_columns(path, "power_kw")
    assert times == [T0.replace(tzinfo=UTC) + timedelta(minutes=30 * i) for i in range(n)]
    assert values == [i / 10 for i in range(n)]


@pytest.mark.parametrize(
    "text",
    [
        "timestamp,power_kw\r\n2022-06-01T00:00:00Z,1\r\n",  # CRLF
        "timestamp,power_kw\n2022-06-01T00:00:00Z,1\n\n",  # a blank line
        'timestamp,power_kw\n2022-06-01T00:00:00Z,"1"\n',  # a quote
        "timestamp,power_kw\n2022-06-01T00:00:00Z,1\r2022-06-01T00:01:00Z,2\n",  # a lone CR
        "timestamp,power_kw\n2022-06-01T00:00:00,1\n",  # naive
        "timestamp,power_kw\n2022-06-01T00:00:00+01:00,1\n",  # another offset
        "timestamp,power_kw\n 2022-06-01T00:00:00Z,1\n",  # padded
        # a Z as the date-time separator, which parse_timestamp refuses and
        # Python 3.11's fromisoformat would read as UTC
        "timestamp,power_kw\n2022-06-01Z00:00:00Z,1\n",
    ],
    ids=["crlf", "blank-line", "quote", "lone-cr", "naive", "offset", "padded", "z-separator"],
)
def test_other_files_are_left_to_the_row_by_row_read(tmp_path, text):
    assert timed_columns(write(tmp_path, text), "power_kw") is None


def test_a_z_separator_is_refused_as_the_row_by_row_read_refuses_it(tmp_path):
    path = write(tmp_path, f"timestamp,{INTENSITY}\n2022-06-01Z00:00:00Z,1\n")
    with pytest.raises(DataFormatError, match=r"line 2: invalid ISO-8601 timestamp"):
        CarbonIntensityProfile.from_csv(path)


# one comma a record on average, but not one in each record
MISCOUNTED = "2022-06-01T00:00:00+00:00\n1.0,2022-06-01T00:30:00+00:00,2.0\n"


@pytest.mark.parametrize(
    "argv,header",
    [
        (["telemetry", "{path}", "--detect"], "timestamp,power_kw"),
        (["emissions", "--profile", "{path}", "--power-kw", "1", "--hours", "1"],
         f"timestamp,{INTENSITY}"),
    ],
    ids=["telemetry", "emissions-profile"],
)
def test_a_record_without_its_comma_is_named_when_the_total_matches(
    capsys, tmp_path, argv, header
):
    path = write(tmp_path, f"{header}\n{MISCOUNTED}")
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: line 2: expected 2 fields, got 1\n"


@pytest.mark.parametrize(
    "load,header",
    [(parse_series, "timestamp,power_kw"),
     (CarbonIntensityProfile.from_csv, f"timestamp,{INTENSITY}")],
    ids=["parse-series", "from-csv"],
)
def test_a_value_over_the_field_limit_is_named_by_csv(tmp_path, load, header):
    # zeros, so that float reads the cell and only the limit refuses it
    cell = "0" * (csv.field_size_limit() + 1)
    path = write(tmp_path, f"{header}\n2022-06-01T00:00:00+00:00,{cell}\n")
    with pytest.raises(DataFormatError, match=r"line 2: field larger than field limit"):
        load(path)


def test_a_value_at_the_field_limit_is_read(tmp_path):
    cell = "0" * csv.field_size_limit()
    path = write(tmp_path, f"timestamp,power_kw\n2022-06-01T00:00:00+00:00,{cell}\n")
    assert timed_columns(path, "power_kw") == ([datetime(2022, 6, 1, tzinfo=UTC)], [0.0])
    assert parse_series(path) == _parse_rows(path)
