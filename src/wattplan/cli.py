"""Command-line front end.

Subcommands: power, policy, telemetry, emissions, simulate, synth. Output is
a plain-text table by default or JSON with --format json; power is printed in
kW to 1 decimal, ratios to 4 decimals and percentages to 1 decimal. Exit
codes: 0 success, 1 validation/domain error, 2 I/O or parse error.

Only telemetry and synth import the telemetry module, and with it numpy; the
other subcommands start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import timedelta
from pathlib import Path

from .datafiles import check_fields, integer, number, read_json, resolve_input_path, string
from .emissions import (
    CarbonIntensityProfile,
    classify_scenario,
    embodied_from_dict,
    lifetime_emissions,
    recommended_objective,
)
from .errors import DataFormatError, DomainError
from .freq_policy import FleetRatios, JobMix, PolicyRule, fleet_ratios, load_benchmark_table
from .power_model import FactorMode, apply_power_factor, load_model, system_power
from .simulator import load_scenario_config, result_to_dict, run_scenario, sweep_threshold
from .timestamps import format_timestamp, parse_timestamp


def _finite(value: float) -> float:
    """value, if finite; a table shows no inf or nan, as JSON output does not."""
    if not math.isfinite(value):
        raise DomainError(f"a result is not finite ({value})")
    return value


def _kw(value: float) -> str:
    return f"{_finite(value):.1f}"


def _ratio(value: float) -> str:
    return f"{_finite(value):.4f}"


def _pct(fraction: float) -> str:
    return f"{100.0 * _finite(fraction):.1f}%"


def _emit_json(doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"a result is not finite ({exc})") from None
    print(text)


def _kv_table(pairs: list[tuple[str, str]]) -> str:
    width = max(len(key) for key, _ in pairs) + 2
    return "\n".join(f"{key:<{width}}{value}" for key, value in pairs)


def _breakdown_table(per_component: dict[str, float], total_kw: float) -> str:
    names = list(per_component) + ["total"]
    width = max(len(name) for name in names + ["component"]) + 2
    lines = [f"{'component':<{width}}{'power_kw':>10}"]
    for name, value in per_component.items():
        lines.append(f"{name:<{width}}{_kw(value):>10}")
    lines.append(f"{'total':<{width}}{_kw(total_kw):>10}")
    return "\n".join(lines)


def _parse_factor(text: str) -> tuple[str, float, FactorMode]:
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


def _cmd_power(args: argparse.Namespace) -> int:
    model = load_model(resolve_input_path(args.model_file))
    for spec in args.factor or []:
        name, value, mode = _parse_factor(spec)
        model = apply_power_factor(model, name, value, mode)
    breakdown = system_power(model, args.utilization)
    if args.format == "json":
        _emit_json(
            {
                "model": model.name,
                "utilization": args.utilization,
                "per_component": breakdown.per_component,
                "total_kw": breakdown.total_kw,
            }
        )
    else:
        print(_breakdown_table(breakdown.per_component, breakdown.total_kw))
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    benchmarks = load_benchmark_table(resolve_input_path(args.benchmarks_file))
    if not benchmarks:
        raise DomainError("benchmark table is empty")
    rule = PolicyRule(args.threshold)
    if args.weights:
        path = resolve_input_path(args.weights)
        weights = JobMix.from_dict(read_json(path), str(path)).weights
    else:
        weights = JobMix.equal(sorted({b.app_name for b in benchmarks})).weights
    fleet = fleet_ratios(benchmarks, weights, rule)
    if args.format == "json":
        _emit_json(_policy_doc(args.threshold, weights, fleet))
    else:
        print(_policy_table(weights, fleet))
    return 0


def _policy_doc(threshold: float, weights: dict[str, float], fleet: FleetRatios) -> dict:
    return {
        "threshold": threshold,
        "decisions": [
            {
                "app_name": d.app_name,
                "default_setting": d.default_setting.value,
                "reverted": d.reverted,
                "perf_loss": d.perf_loss,
                "energy_saving": d.energy_saving,
                "weight": weights[d.app_name],
            }
            for d in fleet.decisions
        ],
        "fleet_power_ratio": fleet.fleet_power_ratio,
        "fleet_throughput_ratio": fleet.fleet_throughput_ratio,
    }


def _policy_table(weights: dict[str, float], fleet: FleetRatios) -> str:
    apps = [d.app_name for d in fleet.decisions] + ["app_name"]
    width = max(len(app) for app in apps) + 2
    lines = [
        f"{'app_name':<{width}}{'default':<15}{'reverted':<10}"
        f"{'perf_loss':>10}{'energy_saving':>15}{'weight':>8}"
    ]
    for decision in fleet.decisions:
        lines.append(
            f"{decision.app_name:<{width}}{decision.default_setting.value:<15}"
            f"{('yes' if decision.reverted else 'no'):<10}"
            f"{_ratio(decision.perf_loss):>10}{_ratio(decision.energy_saving):>15}"
            f"{_ratio(weights[decision.app_name]):>8}"
        )
    lines.append("")
    lines.append(f"{'fleet_power_ratio':<24}{_ratio(fleet.fleet_power_ratio)}")
    lines.append(f"{'fleet_throughput_ratio':<24}{_ratio(fleet.fleet_throughput_ratio)}")
    return "\n".join(lines)


def _window_doc(stats) -> dict:
    return {
        "start": format_timestamp(stats.start),
        "end": format_timestamp(stats.end),
        "samples": stats.count,
        "mean_kw": stats.mean_kw,
        "stddev_kw": stats.stddev_kw,
    }


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import detect_changepoint, intervention_impact, parse_series

    try:
        gap = timedelta(hours=args.gap)
    except (ValueError, OverflowError):
        raise DomainError(f"guard gap is out of range: {args.gap} hours") from None
    series = parse_series(resolve_input_path(args.series_file))
    score = None
    if args.detect:
        found = detect_changepoint(series)
        change_time = found.change_time
        score = found.score
    else:
        change_time = parse_timestamp(args.change_time)
    report = intervention_impact(series, change_time, gap)
    if args.format == "json":
        doc = {"change_time": format_timestamp(report.change_time)}
        if score is not None:
            doc["score"] = score
        doc.update(
            {
                "before": _window_doc(report.before),
                "after": _window_doc(report.after),
                "delta_kw": report.delta_kw,
                "pct_change": report.pct_change,
            }
        )
        _emit_json(doc)
    else:
        pairs = [("change_time", format_timestamp(report.change_time))]
        if score is not None:
            pairs.append(("score", _ratio(score)))
        pairs.extend(
            [
                ("before_samples", str(report.before.count)),
                ("before_mean_kw", _kw(report.before.mean_kw)),
                ("before_stddev_kw", _kw(report.before.stddev_kw)),
                ("after_samples", str(report.after.count)),
                ("after_mean_kw", _kw(report.after.mean_kw)),
                ("after_stddev_kw", _kw(report.after.stddev_kw)),
                ("delta_kw", _kw(report.delta_kw)),
                ("pct_change", _pct(report.pct_change)),
            ]
        )
        print(_kv_table(pairs))
    return 0


def _cmd_emissions(args: argparse.Namespace) -> int:
    if args.intensity is not None:
        profile = CarbonIntensityProfile.constant(args.intensity)
    else:
        profile = CarbonIntensityProfile.from_csv(resolve_input_path(args.profile))
    embodied = None
    if args.embodied:
        path = resolve_input_path(args.embodied)
        embodied = embodied_from_dict(read_json(path), str(path))
    energy_kwh = args.power_kw * args.hours
    breakdown = lifetime_emissions(args.power_kw, args.hours, profile, embodied)

    if profile.is_constant:
        mean_intensity = profile.constant_g_per_kwh
    else:
        anchor = profile.start_time()
        mean_intensity = profile.mean_intensity(
            anchor, anchor + timedelta(hours=args.hours if args.hours > 0 else 1.0)
        )
    scenario = classify_scenario(mean_intensity)
    objective = recommended_objective(scenario)

    if args.format == "json":
        _emit_json(
            {
                "mean_intensity_g_per_kwh": mean_intensity,
                "scenario": scenario.value,
                "objective": objective.value,
                "energy_kwh": energy_kwh,
                "scope2_kg": breakdown.scope2_kg,
                "scope3_kg": breakdown.scope3_kg,
                "scope3_unset": embodied is None,
                "total_kg": breakdown.total_kg,
            }
        )
    else:
        scope3_text = _kw(breakdown.scope3_kg)
        if embodied is None:
            scope3_text += " (embodied unset)"
        print(
            _kv_table(
                [
                    ("mean_intensity_g_per_kwh", _kw(mean_intensity)),
                    ("scenario", scenario.value),
                    ("objective", objective.value),
                    ("energy_kwh", _kw(energy_kwh)),
                    ("scope2_kg", _kw(breakdown.scope2_kg)),
                    ("scope3_kg", scope3_text),
                    ("total_kg", _kw(breakdown.total_kg)),
                ]
            )
        )
    return 0


def _result_table(result) -> str:
    reverted = sum(1 for d in result.decisions if d.reverted)
    scope3_text = _kw(result.emissions.scope3_kg)
    if result.scope3_unset:
        scope3_text += " (embodied unset)"
    pairs = [
        ("scenario", result.name),
        ("mean_power_kw", _kw(result.mean_power_kw)),
        ("energy_kwh", _kw(result.energy_kwh)),
        ("duration_hours", _kw(result.duration_hours)),
        ("scope2_kg", _kw(result.emissions.scope2_kg)),
        ("scope3_kg", scope3_text),
        ("total_emissions_kg", _kw(result.emissions.total_kg)),
        ("throughput_index", _ratio(result.throughput_index)),
        ("reverted_apps", f"{reverted}/{len(result.decisions)}"),
    ]
    return (
        _kv_table(pairs)
        + "\n\n"
        + _breakdown_table(result.breakdown.per_component, result.breakdown.total_kw)
    )


def _sweep_table(runs) -> str:
    lines = [
        f"{'threshold':>9}{'mean_power_kw':>15}{'energy_kwh':>13}"
        f"{'throughput_index':>18}{'reverted':>10}"
    ]
    for threshold, result in runs:
        reverted = sum(1 for d in result.decisions if d.reverted)
        lines.append(
            f"{_ratio(threshold):>9}{_kw(result.mean_power_kw):>15}"
            f"{_kw(result.energy_kwh):>13}{_ratio(result.throughput_index):>18}"
            f"{reverted:>10}"
        )
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_scenario_config(resolve_input_path(args.config_file))
    if args.sweep:
        try:
            thresholds = [float(part) for part in args.sweep.split(",") if part != ""]
        except ValueError:
            raise DomainError(f"--sweep must be a comma-separated list of numbers: {args.sweep!r}")
        runs = sweep_threshold(config, thresholds)
        if args.format == "json":
            _emit_json(
                {
                    "scenario": config.name,
                    "sweep": [
                        {"threshold": threshold, **result_to_dict(result)}
                        for threshold, result in runs
                    ],
                }
            )
        else:
            print(_sweep_table(runs))
    else:
        result = run_scenario(config)
        if args.format == "json":
            _emit_json(result_to_dict(result))
        else:
            print(_result_table(result))
    return 0


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


def _cmd_synth(args: argparse.Namespace) -> int:
    from .telemetry import synth_series, write_series

    start, seed, segments = _load_recipe(resolve_input_path(args.recipe_file))
    if args.seed is not None:
        seed = args.seed
    series = synth_series(segments, seed=seed, start=start)
    write_series(series, args.output)
    if args.format == "json":
        _emit_json({"path": str(args.output), "samples": len(series)})
    else:
        print(f"wrote {len(series)} samples to {args.output}")
    return 0


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
    p_power.set_defaults(func=_cmd_power)

    p_policy = sub.add_parser("policy", parents=[shared], help="frequency policy decisions")
    p_policy.add_argument("benchmarks_file", help="benchmark table CSV")
    p_policy.add_argument("--threshold", type=float, default=0.10)
    p_policy.add_argument("--weights", help="JSON file mapping app to mix weight")
    p_policy.set_defaults(func=_cmd_policy)

    p_tel = sub.add_parser("telemetry", parents=[shared], help="intervention impact analysis")
    p_tel.add_argument("series_file", help="power series CSV")
    group = p_tel.add_mutually_exclusive_group(required=True)
    group.add_argument("--change-time", help="ISO-8601 UTC change time")
    group.add_argument("--detect", action="store_true", help="detect the changepoint")
    p_tel.add_argument("--gap", type=float, default=0.0, help="guard gap in hours")
    p_tel.set_defaults(func=_cmd_telemetry)

    p_em = sub.add_parser("emissions", parents=[shared], help="emissions breakdown and regime")
    group = p_em.add_mutually_exclusive_group(required=True)
    group.add_argument("--intensity", type=float, help="constant intensity in gCO2/kWh")
    group.add_argument("--profile", help="intensity series CSV")
    p_em.add_argument("--power-kw", type=float, required=True)
    p_em.add_argument("--hours", type=float, required=True)
    p_em.add_argument("--embodied", help="embodied-emissions JSON")
    p_em.set_defaults(func=_cmd_emissions)

    p_sim = sub.add_parser("simulate", parents=[shared], help="run a scenario")
    p_sim.add_argument("config_file", help="scenario configuration JSON")
    p_sim.add_argument("--sweep", help="comma-separated revert thresholds")
    p_sim.set_defaults(func=_cmd_simulate)

    p_synth = sub.add_parser("synth", parents=[shared], help="generate a synthetic series")
    p_synth.add_argument("recipe_file", help="recipe JSON")
    p_synth.add_argument("--output", "-o", required=True, help="output CSV path")
    p_synth.add_argument("--seed", type=int, help="override the recipe seed")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
