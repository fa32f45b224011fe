"""Command-line front end.

Subcommands: power, policy, telemetry, emissions, simulate, synth. Each
subcommand returns one document, and main prints it as JSON with --format
json or, by default, as the plain-text table its subparser names, in which
`_cell` shows each value by its key: text as it is, a flag as yes or no, a
pct_ fraction as a percentage and kW, kWh, kg, hours and g/kWh to 1
decimal, any other integer as it is and any other number to 4 decimals. A
product past the float range is refused by the library step that makes it;
any other result that is not finite gives the same single error line in
either format. Exit codes: 0 success, 1 validation/domain error, 2 I/O or
parse error.

Each subcommand imports the modules it runs inside its function, and this
module imports only what every subcommand needs (datafiles, errors and
timestamps), so that a call loads no module it does not run: numpy, for one,
loads only with telemetry and synth.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import timedelta
from pathlib import Path

from .datafiles import check_fields, integer, number, read_json, resolve_input_path, string
from .datafiles import to_json
from .errors import DataFormatError, DomainError, check_nonnegative
from .timestamps import parse_timestamp


def _check_finite(value) -> None:
    """Raise for the first float in value that is not finite, in document order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _check_finite(item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"a result is not finite ({value})")


def _cell(key: str, value) -> str:
    """How a table shows a document value, decided by its key. A flag and a
    unit go before an integer: a bool reads yes or no, an int 0 kW reads 0.0."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if key.startswith("pct_"):
        return f"{100.0 * value:.1f}%"
    if key.endswith(("_kw", "_kwh", "_kg", "_hours", "_g_per_kwh")):
        return f"{value:.1f}"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}"


def _kv_table(pairs: list[tuple]) -> str:
    width = max(len(key) for key, _ in pairs) + 2
    return "\n".join(f"{key:<{width}}{_cell(key, value)}" for key, value in pairs)


def _columns(spec: list[tuple], rows: list[dict]) -> str:
    """A header of the keys in spec and one line per row. Each (key, align,
    width) in spec lays out a column; a width of None fits the column to its
    longest cell plus 2."""
    columns = []
    for key, align, width in spec:
        cells = [key] + [_cell(key, row[key]) for row in rows]
        width = max(map(len, cells)) + 2 if width is None else width
        columns.append([f"{cell:{align}{width}}" for cell in cells])
    return "\n".join(map("".join, zip(*columns)))


def _breakdown_table(per_component: dict[str, float], total_kw: float) -> str:
    named = [*per_component.items(), ("total", total_kw)]
    rows = [{"component": name, "power_kw": kw} for name, kw in named]
    return _columns([("component", "<", None), ("power_kw", ">", 10)], rows)


def _parse_factor(text: str) -> tuple:
    from .power_model import FactorMode

    mode = FactorMode.WHOLE_DRAW
    body = text
    if text.endswith(":dynamic"):
        mode = FactorMode.DYNAMIC_ONLY
        body = text[: -len(":dynamic")]
    name, sep, value_text = body.partition("=")
    if not sep or not name:
        raise DomainError(f"factor must look like component=value[:dynamic], got {text!r}")
    try:
        value = float(value_text)
    except ValueError:
        raise DomainError(f"factor value is not a number: {value_text!r}") from None
    return name, value, mode


def _cmd_power(args: argparse.Namespace) -> dict:
    from .power_model import apply_power_factor, load_model, system_power

    model = load_model(resolve_input_path(args.model_file))
    for spec in args.factor or []:
        name, value, mode = _parse_factor(spec)
        model = apply_power_factor(model, name, value, mode)
    breakdown = system_power(model, args.utilization)
    return {"model": model.name, "utilization": args.utilization, **to_json(breakdown)}


def _cmd_policy(args: argparse.Namespace) -> dict:
    from .freq_policy import JobMix, PolicyRule, fleet_ratios, load_benchmark_table

    benchmarks = load_benchmark_table(resolve_input_path(args.benchmarks_file))
    if not benchmarks:
        raise DomainError("benchmark table is empty")
    rule = PolicyRule(args.threshold)
    if args.weights:
        path = resolve_input_path(args.weights)
        weights = JobMix.from_dict(read_json(path), str(path)).weights
    else:
        weights = JobMix.equal(sorted(benchmarks.rows)).weights
    fleet = fleet_ratios(benchmarks, weights, rule)
    # the threshold first and each decision with its weight, then the ratios
    return {
        "threshold": args.threshold,
        "decisions": [{**to_json(d), "weight": weights[d.app_name]} for d in fleet.decisions],
        "fleet_power_ratio": fleet.fleet_power_ratio,
        "fleet_throughput_ratio": fleet.fleet_throughput_ratio,
    }


def _policy_table(doc: dict) -> str:
    spec = [("app_name", "<", None), ("default", "<", 15), ("reverted", "<", 10),
            ("perf_loss", ">", 10), ("energy_saving", ">", 15), ("weight", ">", 8)]
    rows = [{**d, "default": d["default_setting"]} for d in doc["decisions"]]
    ratios = [(key, doc[key]) for key in ("fleet_power_ratio", "fleet_throughput_ratio")]
    return _columns(spec, rows) + "\n\n" + _kv_table(ratios)


def _cmd_telemetry(args: argparse.Namespace) -> dict:
    from .telemetry import detect_changepoint, intervention_impact, parse_series

    try:
        gap = timedelta(hours=args.gap)
    except (ValueError, OverflowError):
        raise DomainError(f"guard gap is out of range: {args.gap} hours") from None
    series = parse_series(resolve_input_path(args.series_file))
    score = {}
    if args.detect:
        found = detect_changepoint(series)
        change_time = found.change_time
        score = {"score": found.score}
    else:
        change_time = parse_timestamp(args.change_time)
    report = to_json(intervention_impact(series, change_time, gap))
    for side in ("before", "after"):  # the document calls a window's count samples
        report[side] = {"samples" if k == "count" else k: v for k, v in report[side].items()}
    return {"change_time": report.pop("change_time"), **score, **report}


def _telemetry_table(doc: dict) -> str:
    """The document with each window shown as its count, mean and deviation."""
    pairs = []
    for key, value in doc.items():
        if isinstance(value, dict):
            pairs += [(f"{key}_{k}", value[k]) for k in ("samples", "mean_kw", "stddev_kw")]
        else:
            pairs.append((key, value))
    return _kv_table(pairs)


def _cmd_emissions(args: argparse.Namespace) -> dict:
    from .emissions import CarbonIntensityProfile, classify_scenario
    from .emissions import embodied_from_dict, priced_emissions, recommended_objective
    from .emissions import run_intensity

    if args.intensity is not None:
        profile = CarbonIntensityProfile.constant(args.intensity)
    else:
        profile = CarbonIntensityProfile.from_csv(resolve_input_path(args.profile))
    embodied = None
    if args.embodied:
        path = resolve_input_path(args.embodied)
        embodied = embodied_from_dict(read_json(path), str(path))
    energy_kwh = args.power_kw * args.hours
    # the power is named first when several inputs are out of range
    check_nonnegative(args.power_kw, "mean power", "kW")
    mean_intensity = run_intensity(profile, args.hours)
    breakdown = priced_emissions(args.power_kw, args.hours, mean_intensity, embodied)
    scenario = classify_scenario(mean_intensity)
    objective = recommended_objective(scenario)
    return {
        "mean_intensity_g_per_kwh": mean_intensity,
        "scenario": scenario,
        "objective": objective,
        "energy_kwh": energy_kwh,
        "scope2_kg": breakdown.scope2_kg,
        "scope3_kg": breakdown.scope3_kg,
        "scope3_unset": embodied is None,
        "total_kg": breakdown.total_kg,
    }


def _scope3_text(emissions: dict) -> str:
    """The scope-3 cell, with a note when no embodied emissions were given."""
    text = _cell("scope3_kg", emissions["scope3_kg"])
    return text + " (embodied unset)" if emissions["scope3_unset"] else text


def _emissions_table(doc: dict) -> str:
    """The document with the scope-3 flag as a note on its cell."""
    shown = {**doc, "scope3_kg": _scope3_text(doc)}
    del shown["scope3_unset"]
    return _kv_table(list(shown.items()))


def _reverted(run: dict) -> int:
    return sum(1 for d in run["decisions"] if d["reverted"])


def _result_table(doc: dict) -> str:
    emissions = doc["emissions"]
    pairs = [
        ("scenario", doc["name"]),
        ("mean_power_kw", doc["mean_power_kw"]),
        ("energy_kwh", doc["energy_kwh"]),
        ("duration_hours", doc["duration_hours"]),
        ("scope2_kg", emissions["scope2_kg"]),
        ("scope3_kg", _scope3_text(emissions)),
        ("total_emissions_kg", emissions["total_kg"]),
        ("throughput_index", doc["throughput_index"]),
        ("reverted_apps", f"{_reverted(doc)}/{len(doc['decisions'])}"),
    ]
    breakdown = _breakdown_table(doc["per_component"], doc["mean_power_kw"])
    return _kv_table(pairs) + "\n\n" + breakdown


def _sweep_table(runs: list[dict]) -> str:
    spec = [("threshold", ">", 9), ("mean_power_kw", ">", 15), ("energy_kwh", ">", 13),
            ("throughput_index", ">", 18), ("reverted", ">", 10)]
    return _columns(spec, [{**run, "reverted": _reverted(run)} for run in runs])


def _cmd_simulate(args: argparse.Namespace) -> dict:
    from .simulator import load_scenario_config, result_to_dict, run_scenario, sweep_threshold

    config = load_scenario_config(resolve_input_path(args.config_file))
    if args.sweep is None:
        return result_to_dict(run_scenario(config))
    try:
        thresholds = [float(part) for part in args.sweep.split(",") if part != ""]
    except ValueError:
        thresholds = []
    if not thresholds:
        raise DomainError(f"--sweep must be a comma-separated list of numbers: {args.sweep!r}")
    runs = sweep_threshold(config, thresholds)
    sweep = [{"threshold": t, **result_to_dict(result)} for t, result in runs]
    return {"scenario": config.name, "sweep": sweep}


def _load_recipe(path: Path) -> tuple:
    from .telemetry import SeriesSegment

    where = str(path)
    doc = check_fields(read_json(path), where, ("start", "seed", "segments"))
    start = parse_timestamp(string(doc, "start", where))
    seed = integer(doc, "seed", where)
    if not isinstance(doc["segments"], list) or not doc["segments"]:
        raise DataFormatError(f"{where}: 'segments' must be a non-empty list")
    segments = []
    for i, seg in enumerate(doc["segments"], start=1):
        seg_where = f"{where}: segment #{i}"
        check_fields(seg, seg_where, ("duration_hours", "n_samples", "mean_kw", "noise_sd_kw"))
        segments.append(
            SeriesSegment(
                duration_hours=number(seg, "duration_hours", seg_where),
                n_samples=integer(seg, "n_samples", seg_where),
                mean_kw=number(seg, "mean_kw", seg_where),
                noise_sd_kw=number(seg, "noise_sd_kw", seg_where),
            )
        )
    return start, seed, segments


def _cmd_synth(args: argparse.Namespace) -> dict:
    from .telemetry import synth_series, write_series

    start, seed, segments = _load_recipe(resolve_input_path(args.recipe_file))
    if args.seed is not None:
        seed = args.seed
    series = synth_series(segments, seed=seed, start=start)
    write_series(series, args.output)
    return {"path": str(args.output), "samples": len(series)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wattplan",
        description=(
            "Model the power draw, energy and emissions of a large HPC system "
            "and plan CPU-frequency operating policies. Paths may use "
            "'builtin:NAME' to reference bundled data files."
        ),
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", parents=[shared], help="system power breakdown")
    p_power.add_argument("model_file", help="system model JSON")
    p_power.add_argument("--utilization", "-u", type=float, required=True)
    p_power.add_argument(
        "--factor",
        action="append",
        metavar="COMPONENT=VALUE[:dynamic]",
        help="scale a component's draw (append :dynamic to scale only loaded-minus-idle)",
    )
    p_power.set_defaults(
        func=_cmd_power, table=lambda doc: _breakdown_table(doc["per_component"], doc["total_kw"])
    )

    p_policy = sub.add_parser("policy", parents=[shared], help="frequency policy decisions")
    p_policy.add_argument("benchmarks_file", help="benchmark table CSV")
    p_policy.add_argument("--threshold", type=float, default=0.10)
    p_policy.add_argument("--weights", help="JSON file mapping app to mix weight")
    p_policy.set_defaults(func=_cmd_policy, table=_policy_table)

    p_tel = sub.add_parser("telemetry", parents=[shared], help="intervention impact analysis")
    p_tel.add_argument("series_file", help="power series CSV")
    group = p_tel.add_mutually_exclusive_group(required=True)
    group.add_argument("--change-time", help="ISO-8601 UTC change time")
    group.add_argument("--detect", action="store_true", help="detect the changepoint")
    p_tel.add_argument("--gap", type=float, default=0.0, help="guard gap in hours")
    p_tel.set_defaults(func=_cmd_telemetry, table=_telemetry_table)

    p_em = sub.add_parser("emissions", parents=[shared], help="emissions breakdown and regime")
    group = p_em.add_mutually_exclusive_group(required=True)
    group.add_argument("--intensity", type=float, help="constant intensity in gCO2/kWh")
    group.add_argument("--profile", help="intensity series CSV")
    p_em.add_argument("--power-kw", type=float, required=True)
    p_em.add_argument("--hours", type=float, required=True)
    p_em.add_argument("--embodied", help="embodied-emissions JSON")
    p_em.set_defaults(func=_cmd_emissions, table=_emissions_table)

    p_sim = sub.add_parser("simulate", parents=[shared], help="run a scenario")
    p_sim.add_argument("config_file", help="scenario configuration JSON")
    p_sim.add_argument("--sweep", help="comma-separated revert thresholds")
    p_sim.set_defaults(
        func=_cmd_simulate,
        table=lambda doc: _sweep_table(doc["sweep"]) if "sweep" in doc else _result_table(doc),
    )

    p_synth = sub.add_parser("synth", parents=[shared], help="generate a synthetic series")
    p_synth.add_argument("recipe_file", help="recipe JSON")
    p_synth.add_argument("--output", "-o", required=True, help="output CSV path")
    p_synth.add_argument("--seed", type=int, help="override the recipe seed")
    p_synth.set_defaults(func=_cmd_synth, table="wrote {samples} samples to {path}".format_map)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = to_json(args.func(args))
        _check_finite(doc)
        if args.format == "json":
            print(json.dumps(doc, indent=2, allow_nan=False))
        else:
            print(args.table(doc))
    except (DataFormatError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
