"""Hostile JSON inputs through the CLI.

Each JSON input of the CLI gets a document with one field changed, dropped or
added. The command must either exit 0 with strict JSON on stdout, or exit 1
or 2 with nothing on stdout and one `error:` line on stderr: no traceback, no
warning and no NaN or Infinity. A scenario's threshold sweep must also end the
same way in table format as in JSON.
"""

import copy
import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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

HOSTILE = [NAN, INF, -INF, 1e308, -1, 0, True, "x", None, [], {}, 2.7, 10**30]
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
def test_hostile_json_inputs_exit_cleanly(mutation):
    [(code, out, err)] = _run_mutated(mutation, ["--format", "json"])
    _assert_clean_exit(code, out, err)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


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
