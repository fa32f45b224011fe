"""Hostile JSON and CSV inputs through the CLI.

Each JSON input of the CLI gets a document with one field changed, dropped or
added, and each CSV input a table with one cell replaced, dropped or added.
The command must either exit 0 with strict output on stdout, or exit 1 or 2
with nothing on stdout and one `error:` line on stderr: no traceback, no
warning and no NaN or Infinity. Each JSON input, a scenario's threshold sweep
and each CSV command must also end the same way in table format as in JSON.
"""

import copy
import io
import json
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattplan.cli import main
from wattplan.datafiles import data_path

NAN, INF = float("nan"), float("inf")


_SCENARIO = json.loads(data_path("stacked_scenario.json").read_text())
_SCENARIO.update(
    model=str(data_path("archer2_system.json")), benchmarks=str(data_path("table4_freq.csv"))
)
_APPS = sorted(
    {row.split(",")[0] for row in data_path("table4_freq.csv").read_text().splitlines()[1:]}
)

# Each JSON input the CLI reads: its reference document, and the command that
# reads it from FILE (OUT is a scratch output path).
INPUTS = {
    "model": (
        json.loads(data_path("archer2_system.json").read_text()),
        ["power", "FILE", "-u", "0.92"],
    ),
    "scenario": (_SCENARIO, ["simulate", "FILE"]),
    "recipe": (
        json.loads(data_path("recipe_bios_step.json").read_text()),
        ["synth", "FILE", "-o", "OUT"],
    ),
    "embodied": (
        {"total_kgco2e": 2.0e7, "service_lifetime_hours": 52560.0},
        ["emissions", "--intensity", "120", "--power-kw", "2530", "--hours", "24",
         "--embodied", "FILE"],
    ),
    "weights": (
        {app: 1.0 / len(_APPS) for app in _APPS},
        ["policy", "builtin:table4_freq.csv", "--weights", "FILE"],
    ),
}

HOSTILE = [NAN, INF, -INF, 1e308, -1, 0, True, "x", None, [], {}, 2.7, 10**30,
           "\ud800", "a\u0000b"]
# keys an added field gets: one no loader knows, and the optional ones
ADDED_KEYS = ["extra", "name", "bios_factor", "embodied", "series_csv"]


def _containers(value, path=()):
    if isinstance(value, (dict, list)):
        yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _containers(item, path + (key,))


def _mutations(name):
    """(input, op, path, value): set the value at path, or drop what is there."""
    existing, new = [], []
    for path, container in _containers(INPUTS[name][0]):
        keys = container if isinstance(container, dict) else range(len(container))
        existing += [path + (key,) for key in keys]
        if isinstance(container, dict):
            new += [path + (key,) for key in ADDED_KEYS if key not in container]
        else:
            new.append(path + (len(container),))
    return st.one_of(
        st.tuples(st.just(name), st.just("set"), st.sampled_from(existing + new),
                  st.sampled_from(HOSTILE)),
        st.tuples(st.just(name), st.just("drop"), st.sampled_from(existing), st.none()),
    )


def _apply(doc, op, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value
    return doc


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning would be a second line on stderr
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_mutated(mutation, *tails):
    """Write the mutated input once and run its command with each argument tail."""
    name, op, path, value = mutation
    reference, command = INPUTS[name]
    with tempfile.TemporaryDirectory() as scratch:
        file = Path(scratch) / "input.json"
        # json.dumps writes nan and inf as the NaN and Infinity literals
        file.write_text(json.dumps(_apply(reference, op, path, value)))
        argv = [
            {"FILE": str(file), "OUT": str(Path(scratch) / "out.csv")}.get(arg, arg)
            for arg in command
        ]
        return [_run_cli(argv + tail) for tail in tails]


def _assert_clean_exit(code, out, err):
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@settings(max_examples=400, deadline=None)
@given(mutation=st.sampled_from(sorted(INPUTS)).flatmap(_mutations))
# inputs that printed a traceback or NaN before the boundary was shared
@example(mutation=("scenario", "set", ("bios_factor",), "x"))
@example(mutation=("recipe", "set", ("segments", 0, "n_samples"), NAN))
@example(mutation=("recipe", "set", ("start",), 0))
@example(mutation=("embodied", "set", ("total_kgco2e",), "x"))
@example(mutation=("model", "set", ("components", 0, "idle_kw_per_unit"), NAN))
@example(mutation=("weights", "set", (_APPS[0],), NAN))
@example(mutation=("recipe", "set", ("segments", 0, "n_samples"), 10**30))
# integers past the float range, which no draw or sample step can take
@example(mutation=("model", "set", ("components", 0, "count"), 10**400))
@example(mutation=("recipe", "set", ("segments", 0, "n_samples"), 10**400))
# strings that are not Unicode text, or that no file name can hold
@example(mutation=("scenario", "set", ("name",), "\ud800"))
@example(mutation=("scenario", "set", ("model",), "a\u0000b"))
@example(mutation=("model", "set", ("components", 1, "name"), "\ud800"))
def test_hostile_json_inputs_exit_cleanly(mutation):
    # in table format too, as JSON escapes a string (a lone surrogate) that a
    # table cannot print
    table, as_json = _run_mutated(mutation, [], ["--format", "json"])
    for code, out, err in (table, as_json):
        _assert_clean_exit(code, out, err)
    code, out, err = as_json
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    assert table[0] == code


@settings(max_examples=100, deadline=None)
@given(mutation=_mutations("scenario"))
# emissions overflowed to inf unseen: the sweep table has no emissions column
@example(mutation=("scenario", "set", ("carbon", "constant_g_per_kwh"), 1e308))
def test_hostile_scenario_sweep_table_ends_as_json_does(mutation):
    sweep = ["--sweep", "0,0.1"]
    table, as_json = _run_mutated(mutation, sweep, sweep + ["--format", "json"])
    code, out, err = table
    _assert_clean_exit(code, out, err)
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
    assert (code, err) == (as_json[0], as_json[2])


# Each CSV input the CLI reads: its reference rows, header first, and the
# command that reads it from FILE.
CSV_INPUTS = {
    "benchmarks": (
        [row.split(",") for row in data_path("table4_freq.csv").read_text().splitlines()],
        ["policy", "FILE"],
    ),
    "profile": (
        [["timestamp", "intensity_g_per_kwh"]]
        + [[f"2022-06-01T{h:02d}:00:00Z", str(v)] for h, v in ((0, 120.0), (6, 95.5), (12, 40))],
        ["emissions", "--profile", "FILE", "--power-kw", "2530", "--hours", "24"],
    ),
    "series": (
        # written as write_series writes, so that the vectorized reader takes it
        [["timestamp", "power_kw"]]
        + [[f"2022-06-01T{h:02d}:00:00Z", "3220.5" if h < 4 else "3010.25"] for h in range(8)],
        ["telemetry", "FILE", "--detect"],
    ),
}

HOSTILE_CELLS = [
    "nan", "1e400", "-1", "", "x", "9" * 5000,
    # stamps outside the years 1 to 9999, as written and in UTC
    "0000-01-01T00:00:00Z", "10000-01-01T00:00:00Z", "-0001-01-01T00:00:00Z",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "9999-12-31T23:59:59Z",
    # a quoted cell that holds a newline: one record over two lines
    "\"1\n2\"",
]


def _cell_edits(name):
    """(input, op, row, column, value): replace the cell, add one before it,
    or drop it. A row's column may be one past its last cell, to add there."""
    rows = CSV_INPUTS[name][0]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    ends = [(r, len(row)) for r, row in enumerate(rows)]
    value = st.sampled_from(HOSTILE_CELLS)
    return st.one_of(
        st.tuples(st.just(name), st.just("set"), st.sampled_from(cells), value),
        st.tuples(st.just(name), st.just("add"), st.sampled_from(cells + ends), value),
        st.tuples(st.just(name), st.just("drop"), st.sampled_from(cells), st.none()),
    ).map(lambda edit: (edit[0], edit[1], *edit[2], edit[3]))


def _edit_rows(rows, op, row, column, value):
    rows = [list(cells) for cells in rows]
    if op == "set":
        rows[row][column] = value
    elif op == "add":
        rows[row].insert(column, value)
    else:
        del rows[row][column]
    return rows


def _run_edited_csv(edit, *tails):
    """Write the edited table once and run its command with each argument tail.
    Also returns the text cells the command prints as given: the app names."""
    name, op, row, column, value = edit
    reference, command = CSV_INPUTS[name]
    rows = _edit_rows(reference, op, row, column, value)
    with tempfile.TemporaryDirectory() as scratch:
        file = Path(scratch) / "input.csv"
        file.write_text("".join(",".join(cells) + "\n" for cells in rows))
        argv = [str(file) if arg == "FILE" else arg for arg in command]
        runs = [_run_cli(argv + tail) for tail in tails]
    names = [cells[0] for cells in rows[1:] if cells] if name == "benchmarks" else []
    return runs, names


@settings(max_examples=400, deadline=None)
@given(edit=st.sampled_from(sorted(CSV_INPUTS)).flatmap(_cell_edits))
# a nodes count past int()'s digit limit, a stamp that leaves the datetime
# range only once moved to UTC, a profile whose last step starts at the end of
# that range, a power that overflows the float range, and one whose square does
@example(edit=("benchmarks", "set", 1, 1, "9" * 5000))
@example(edit=("series", "set", 1, 0, "0001-01-01T00:00:00+01:00"))
@example(edit=("profile", "set", 3, 0, "9999-12-31T23:59:59Z"))
@example(edit=("series", "set", 8, 1, "1e400"))
@example(edit=("series", "set", 1, 1, "1e200"))
# a field over csv's size limit
@example(edit=("series", "set", 2, 1, "9" * 200_000))
@example(edit=("benchmarks", "set", 1, 0, "9" * 200_000))
@example(edit=("profile", "set", 2, 1, "9" * 200_000))
def test_hostile_csv_inputs_exit_cleanly(edit):
    (table, as_json), names = _run_edited_csv(edit, [], ["--format", "json"])
    for code, out, err in (table, as_json):
        _assert_clean_exit(code, out, err)
    if as_json[0] == 0:
        json.loads(as_json[1], parse_constant=_reject_constant)
    if table[0] == 0:
        # an app may be named nan; only the numbers must be finite
        numbers = table[1]
        for app in names:
            numbers = numbers.replace(app, "")
        assert not re.search(r"\b(inf|nan)\b", numbers, re.IGNORECASE), table[1]
    assert (table[0], table[2]) == (as_json[0], as_json[2])


@pytest.mark.parametrize("name", sorted(CSV_INPUTS))
def test_a_field_over_the_csv_limit_names_its_file_and_line(name):
    # row 2 is the file's line 3
    [(code, out, err)], _ = _run_edited_csv((name, "set", 2, 1, "9" * 200_000), [])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: .*input\.csv: line 3: field larger than field limit \(\d+\)\n",
                        err), err


# the canonical parse casted a row of n bytes through about 132 n bytes
MEGABYTE_VALUE_PEAK_BYTES = 16_000_000


def test_a_megabyte_power_value_is_rejected_in_bounded_memory():
    with tempfile.TemporaryDirectory() as scratch:
        file = Path(scratch) / "input.csv"
        file.write_text(
            "timestamp,power_kw\n2022-06-01T00:00:00Z,3220.5\n"
            f"2022-06-01T00:01:00Z,{'9' * 1_000_000}\n"
        )
        tracemalloc.start()
        try:
            code, out, err = _run_cli(["telemetry", str(file), "--detect"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.endswith(": line 3: field larger than field limit (131072)\n"), err
    assert peak < MEGABYTE_VALUE_PEAK_BYTES
