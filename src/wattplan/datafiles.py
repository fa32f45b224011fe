"""Access to the data files bundled with the package, the two input
boundaries every loader goes through (one for JSON and one for CSV), and the
one JSON encoder every output document goes through.

The JSON boundary checks type and shape only: a value of the wrong type, a
missing or unknown field, or a file that is not JSON raises DataFormatError.
The CSV boundary, csv_records, checks the header and each record's field
count, skips blank records and numbers each record by the physical line it
starts on. The one cell conversion it owns is a series row, timed_values:
a `timestamp,<value>` row of power or carbon intensity. Any other cell is
left to its loader, and whether a value is in range to the loader or the
dataclass it builds, which raises DomainError. A carbon-intensity profile
of plain `stamp,number` lines is first read column-wise, timed_columns, to
the same stamps and values; every other file, and every error, goes through
csv_records.

The encoder, to_json, works recursively: a dataclass becomes an object of its
fields in declaration order, an enum its value, a datetime format_timestamp's
text, a tuple or list an array and a dict an object. Anything else is returned
unchanged.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import repeat
from operator import attrgetter, is_not
from pathlib import Path

from .errors import DataFormatError, DomainError
from .timestamps import format_timestamp, parse_timestamp

BUILTIN_PREFIX = "builtin:"


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file, named by its bare file name;
    a name with a directory part (`..`, an absolute path, `sub/`) names none."""
    path = Path(__file__).parent / "data" / name
    if Path(name).name != name or not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def resolve_input_path(arg: str) -> Path:
    """Resolve a CLI path argument; 'builtin:NAME' maps to a bundled file."""
    if arg.startswith(BUILTIN_PREFIX):
        return data_path(arg[len(BUILTIN_PREFIX):])
    return Path(arg)


def read_json(path: str | Path):
    """Parse a JSON file. Python's NaN and Infinity literals are accepted here
    and left to the range checks of whatever the document builds; an integer
    past Python's int-string digit limit is invalid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None


def csv_records(path: str | Path, header: list[str]):
    """The records of a UTF-8 CSV file whose first record is header, as
    (line, row) pairs: line is the physical line the record starts on, which
    is not the record's index once a quoted field holds a newline. Blank
    records are skipped; every other record has one field per header column.

    A wrong header or field count, a byte that is not UTF-8, or a line the
    reader rejects (such as a field over csv's size limit) raises
    DataFormatError naming the file and, past the header, the line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first != header:
                raise DataFormatError(
                    f"{path}: expected header {','.join(header)!r}, got {first!r}"
                )
            width = len(header)
            line = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != width:
                        raise DataFormatError(
                            f"{path}: line {line}: expected {width} fields, got {len(row)}"
                        )
                    yield line, row
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def timed_values(path: str | Path, column: str, what: str, unit: str):
    """The (line, ts, value) rows of a series CSV file with header
    timestamp,column: line as for csv_records, ts the UTC datetime of the
    ISO-8601 stamp and value the float of the cell, finite and >= 0. Each
    error names the file and the line, and calls the value `what`, in `unit`;
    the order of the stamps is left to the caller.
    """
    for line, (stamp, text) in csv_records(path, ["timestamp", column]):
        try:
            ts = parse_timestamp(stamp)
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: line {line}: {exc}") from None
        try:
            value = float(text)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line}: {what} is not a number: {text!r}"
            ) from None
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(
                f"{path}: line {line}: {what} must be finite and >= 0 {unit}, got {text!r}"
            )
        yield line, ts, value


# every byte but the comma, LF, quote, CR and NUL, which csv reads as structure
_PLAIN_BYTES = bytes(b for b in range(256) if b not in b',\n"\r\0')
_BLOCK = 1 << 16  # bytes per block of a column-wise read, which bounds its temporaries


def timed_columns(path: str | Path, column: str):
    """The (times, values) lists of a series CSV file with header
    timestamp,column whose every record is a plain `stamp,number` line, or
    None for any other file.

    Plain: UTF-8 text with LF line ends (the last one optional), one comma
    a line, no blank line, quote, CR or NUL, no field over csv's size limit,
    each stamp one that parse_timestamp reads without stripping it and
    whose offset is zero, and each value one that float reads. The values
    are not range-checked nor the times order-checked: whoever builds from
    the columns checks both, once. A file that passes gives the (ts, value)
    pairs that timed_values would; any other file is left to timed_values,
    the source of every error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header = f"timestamp,{column}\n".encode()
    if not data.startswith(header):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    # one comma and one LF a line, in that order, and nothing csv reads as structure
    kept = data.translate(None, _PLAIN_BYTES)
    if kept != b",\n" * (len(kept) // 2):
        return None
    limit = csv.field_size_limit()
    times: list[datetime] = []
    values: list[float] = []
    start = len(header)
    while start < len(data):
        # a block ends at a line end, which no multi-byte UTF-8 character holds
        end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        try:
            text = data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            return None
        start = end
        if len(text) > limit and max(map(len, text.replace("\n", ",").split(","))) > limit:
            return None
        # parse_timestamp's own Z rule, which a value that float reads never holds
        cells = text.replace("Z", "+00:00").replace("\n", ",").split(",")
        cells.pop()  # the empty cell after the last line end
        try:
            stamps = list(map(datetime.fromisoformat, cells[0::2]))
            values += map(float, cells[1::2])
        except ValueError:
            return None
        if any(map(is_not, map(attrgetter("tzinfo"), stamps), repeat(timezone.utc))):
            return None
        times += stamps
    return times, values


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number"}


def _json_type(value) -> str:
    return "boolean" if isinstance(value, bool) else _JSON_TYPES.get(type(value), "null")


def check_object(doc, where: str) -> dict:
    """Return doc if it is a JSON object."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"{where}: expected an object, got {_json_type(doc)}")
    return doc


def check_fields(doc, where: str, required, optional=()) -> dict:
    """Return doc if it is a JSON object holding every required field and no
    field outside required and optional."""
    check_object(doc, where)
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise DataFormatError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
    missing = set(required) - set(doc)
    if missing:
        raise DataFormatError(f"{where}: missing field(s): {', '.join(sorted(missing))}")
    return doc


def _field(doc: dict, key: str, where: str, kinds, what: str, default=None):
    """doc[key] if it is one of kinds; an absent key gives the default, if any."""
    if default is not None and key not in doc:
        return default
    value = doc[key]
    # bool is a subclass of int, but JSON's true is not a number
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DataFormatError(f"{where}: {key!r} must be {what}, got {_json_type(value)}")
    return value


def number(doc: dict, key: str, where: str, default: float | None = None) -> float:
    """doc[key] as a float; NaN and infinities pass, for the range checks."""
    value = _field(doc, key, where, (int, float), "a number", default)
    try:
        return float(value)
    except OverflowError:
        raise DataFormatError(f"{where}: {key!r} is too large for a float") from None


def integer(doc: dict, key: str, where: str) -> int:
    """doc[key] as an int; a float such as 2.0 or 2.7 is not an integer."""
    return _field(doc, key, where, int, "an integer")


def string(doc: dict, key: str, where: str, default: str | None = None) -> str:
    """doc[key] as a str that a file name and UTF-8 output can hold: one with
    a NUL character or a lone surrogate (a JSON escape such as \\ud800) is
    rejected."""
    value = _field(doc, key, where, str, "a string", default)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DataFormatError(f"{where}: {key!r} holds a lone surrogate") from None
    if "\0" in value:
        raise DataFormatError(f"{where}: {key!r} holds a NUL character")
    return value


def to_json(value):
    """The JSON form of value, by the rules in the module docstring."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, datetime):
        return format_timestamp(value)
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    return value
