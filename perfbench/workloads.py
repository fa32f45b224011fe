"""The four benchmark workloads, their seeded inputs and their output checks.

Every reference a check compares against is computed here with numpy or plain
Python, never with wattplan. Each workload is a closed loop with one client:
the next op starts only when the previous one has finished.

A workload offers `setup()`, which may run several times and leaves the inputs
in place, and `cycle()`, the ops of one pass of the loop in order. An op's
`run` is timed; its `check` is not, and raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import numpy as np

import wattplan
from wattplan import (
    CarbonIntensityProfile,
    EmbodiedEmissions,
    FactorMode,
    JobMix,
    PolicyRule,
    SeriesSegment,
    apply_power_factor,
    detect_changepoint,
    fleet_ratios,
    intervention_impact,
    lifetime_emissions,
    load_benchmark_table,
    load_model,
    load_scenario_config,
    parse_series,
    run_scenario,
    scope2_emissions,
    sweep_threshold,
    synth_series,
    system_power,
    window_mean,
    write_series,
)

import hostspeed
from tracing import Tracer

YEAR_START = datetime(2022, 1, 1, tzinfo=timezone.utc)
YEAR_MINUTES = 525_600
YEAR_HALF_HOURS = 17_520
# minute offsets of the first instant of each calendar month of 2022
MONTH_START_MINUTES = [
    (datetime(2022, m, 1, tzinfo=timezone.utc) - YEAR_START) // timedelta(minutes=1)
    for m in range(1, 13)
]
BIOS_STEP = 0.935  # -6.5 %
FREQ_CAP_STEP = 0.84  # -16 %
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATA_DIR = Path(wattplan.__file__).resolve().parent / "data"


class CheckFailed(Exception):
    """An output of wattplan differs from the benchmark's own reference."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    probe: Callable[[], float] = hostspeed.KERNEL  # what host speed its time is scaled by


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    scale: float
    tracer: Tracer


def expect_close(what: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r} (rel tol {rel})")


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def iso_minutes(start: datetime, n: int, step_s: int) -> list[str]:
    """ISO-8601 second-resolution strings, without zone, for n instants."""
    base = np.datetime64(start.replace(tzinfo=None), "s")
    instants = base + np.arange(n, dtype=np.int64) * step_s
    return np.datetime_as_string(instants, unit="s").tolist()


def year_shape(rng: np.random.Generator, n: int) -> tuple[float, float, int, int]:
    """A year shaped like ARCHER2's 2022, on n equal steps.

    Returns the base draw in kW, the noise sd, and the indices at which the
    BIOS step and the frequency-cap step take effect.
    """
    base = 3220.0 + rng.uniform(-40.0, 40.0)
    sd = rng.uniform(15.0, 30.0)
    bios = int(n * rng.uniform(0.29, 0.41))  # mid-April to end of May
    cap = int(n * rng.uniform(0.88, 0.96))  # mid-November to mid-December
    return base, sd, bios, cap


def two_segment_sse(y: np.ndarray, k: int) -> float:
    left, right = y[:k], y[k:]
    return float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())


class InProcess:
    """A workload whose every op is the same call sequence, run in this process.

    `op_p50_ms` and `items_per_s` both come from its one op kind, and its
    peak memory is this process's.
    """

    primary_kind = "op"
    throughput_kind = "op"

    def cycle(self) -> list[Op]:
        return [Op("op", "op", self.run, self.check)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TelemetryYear(InProcess):
    """Read path: a year of 1-min cabinet power parsed and analysed."""

    name = "telemetry-year"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.path = ctx.work / "telemetry_year.csv"

    def setup(self) -> None:
        ctx = self.ctx
        rng = np.random.default_rng([ctx.seed, 1])
        n = max(1000, round(YEAR_MINUTES * ctx.scale))
        base, sd, bios, cap = year_shape(rng, n)
        level = np.full(n, base)
        level[bios:] *= BIOS_STEP
        level[cap:] *= FREQ_CAP_STEP
        milli_kw = np.rint((level + rng.normal(0.0, sd, n)) * 1000.0).astype(np.int64)
        # k/1000 and float(f"{k/1000:.3f}") are the same double, so the file
        # holds these values exactly
        values = milli_kw / 1000.0
        stamps = iso_minutes(YEAR_START, n, 60)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("timestamp,power_kw\n")
            handle.writelines([f"{t}Z,{v:.3f}\n" for t, v in zip(stamps, values.tolist())])
        self.n = n
        self.values = values
        self.bytes = self.path.stat().st_size
        self.change_index = min((bios, cap), key=lambda k: two_segment_sse(values, k))
        k = self.change_index
        self.before_mean = float(values[: k - 60].mean())
        self.after_mean = float(values[k + 60 :].mean())
        bounds = [round(m * ctx.scale) for m in MONTH_START_MINUTES] + [n]
        self.months = [
            (YEAR_START + timedelta(minutes=lo), YEAR_START + timedelta(minutes=hi),
             hi - lo, float(values[lo:hi].mean()))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        self.checked_series = False

    def run(self):
        call = self.ctx.tracer.call
        counts = self.ctx.tracer.counts
        counts["telemetry.samples"] = self.n
        counts["telemetry.bytes_read"] = self.bytes
        series = call("telemetry.parse_series", parse_series, self.path)
        found = call("telemetry.detect_changepoint", detect_changepoint, series)
        report = call(
            "telemetry.intervention_impact",
            intervention_impact, series, found.change_time, timedelta(hours=1),
        )
        months = [
            call("telemetry.window_mean", window_mean, series, start, end)
            for start, end, _, _ in self.months
        ]
        return series, found, report, months

    def check(self, out) -> None:
        series, found, report, months = out
        if not self.checked_series:
            expect_equal("parsed sample count", len(series), self.n)
            if not np.array_equal(np.asarray(series.values_kw), self.values):
                raise CheckFailed("parsed power values differ from the values written")
            expect_equal("first timestamp", series.timestamps[0], YEAR_START)
            expect_equal(
                "last timestamp", series.timestamps[-1],
                YEAR_START + timedelta(minutes=self.n - 1),
            )
            self.checked_series = True
        expect_equal("changepoint index", found.index, self.change_index)
        expect_equal("before-window samples", report.before.count, self.change_index - 60)
        expect_equal("after-window samples", report.after.count, self.n - self.change_index - 60)
        expect_close("before mean", report.before.mean_kw, self.before_mean, 1e-12)
        expect_close("after mean", report.after.mean_kw, self.after_mean, 1e-12)
        expect_close(
            "pct change", report.pct_change,
            (self.after_mean - self.before_mean) / self.before_mean, 1e-12,
        )
        for got, (start, _, count, mean) in zip(months, self.months):
            expect_equal(f"samples in month from {start}", got.count, count)
            expect_close(f"mean of month from {start}", got.mean_kw, mean, 1e-12)

    def items_per_op(self) -> int:
        return self.n

    def sizes(self) -> dict:
        return {"samples": self.n, "bytes_read": self.bytes}


class FixtureYear(InProcess):
    """Write path: a seeded year of 1-min segments synthesized and written.

    The year goes in twelfths of 730 h (43,800 samples), one op each, so a run
    holds some eighty ops rather than seven year-sized ones and its median
    settles; a cycle is the whole year.
    """

    name = "fixture-year"
    blocks = 12

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        ctx = self.ctx
        rng = np.random.default_rng([ctx.seed, 2])
        hours = max(20, round(8760 * ctx.scale))
        base, sd, bios_h, cap_h = year_shape(rng, hours)
        means = [base, base * BIOS_STEP, base * BIOS_STEP * FREQ_CAP_STEP]
        spans_h = [bios_h, cap_h - bios_h, hours - cap_h]
        # the whole year as one recipe: its file is the one golden/ records
        self.year = [SeriesSegment(float(h), h * 60, m, sd) for h, m in zip(spans_h, means)]
        self.year_seed = int(rng.integers(2**31))
        block_h = hours // self.blocks
        self.block_n = block_h * 60
        self.recipes = []  # per block: (start, segments, seed, values)
        for b in range(self.blocks):
            lo, hi = b * block_h, (b + 1) * block_h
            cuts = sorted({lo, hi} | {c for c in (bios_h, cap_h) if lo < c < hi})
            segments = [
                SeriesSegment(float(h1 - h0), (h1 - h0) * 60,
                              means[(h0 >= bios_h) + (h0 >= cap_h)], sd)
                for h0, h1 in zip(cuts, cuts[1:])
            ]
            seed = int(rng.integers(2**31))
            ref = np.random.default_rng(seed)
            values = np.concatenate([
                np.maximum(seg.mean_kw + ref.normal(0.0, sd, seg.n_samples), 0.0)
                for seg in segments
            ])
            self.recipes.append((YEAR_START + timedelta(hours=lo), segments, seed, values))
        self.digests = [None] * self.blocks

    def path(self, block: int) -> Path:
        return self.ctx.work / f"fixture_{block:02d}.csv"

    def cycle(self) -> list[Op]:
        return [
            Op("op", f"block{b:02d}", (lambda b=b: self.run(b)),
               (lambda out, b=b: self.check(b, out)))
            for b in range(self.blocks)
        ]

    def run(self, block: int):
        call = self.ctx.tracer.call
        start, segments, seed, _ = self.recipes[block]
        series = call("telemetry.synth_series", synth_series, segments, seed, start)
        path = self.path(block)
        call("telemetry.write_series", write_series, series, path)
        counts = self.ctx.tracer.counts
        counts["telemetry.samples"] = self.block_n
        counts["telemetry.bytes_written"] = path.stat().st_size
        return series

    def check(self, block: int, series) -> None:
        path = self.path(block)
        digest = sha256_of(path)
        if self.digests[block] is not None:
            expect_equal(f"sha256 of the file of block {block}", digest, self.digests[block])
            return
        start, _, _, values = self.recipes[block]
        expect_equal(f"synthesized sample count of block {block}", len(series), self.block_n)
        if not np.array_equal(np.asarray(series.values_kw), values):
            raise CheckFailed(f"values of block {block} differ from the numpy reference")
        stamps = np.array([t.timestamp() for t in series.timestamps])
        if not np.array_equal(stamps, start.timestamp() + 60.0 * np.arange(self.block_n)):
            raise CheckFailed(f"timestamps of block {block} are not 1-min steps from {start}")
        back = parse_series(path)
        if back.values_kw != series.values_kw or back.timestamps != series.timestamps:
            raise CheckFailed(f"file of block {block} does not round-trip to its series")
        if block == 0 and self.ctx.seed == 0 and self.ctx.scale == 1.0:
            # recorded from the initial implementation of write_series
            recorded = (GOLDEN_DIR / "fixture-year-seed0.sha256").read_text().strip()
            expect_equal("sha256 of the seed-0 year file", sha256_of(self.write_year()), recorded)
        self.digests[block] = digest

    def write_year(self) -> Path:
        """Synthesize and write the whole year as one recipe; returns the file."""
        path = self.ctx.work / "fixture_year.csv"
        write_series(synth_series(self.year, self.year_seed, YEAR_START), path)
        return path

    def items_per_op(self) -> int:
        return self.block_n

    def sizes(self) -> dict:
        return {
            "samples": self.block_n * self.blocks,
            "samples_per_op": self.block_n,
            "bytes_written": sum(self.path(b).stat().st_size for b in range(self.blocks)),
        }


def write_carbon_year(path: Path, seed: int, n: int) -> np.ndarray:
    """Half-hourly grid intensity with seasonal and daily swings, `+00:00` stamps."""
    rng = np.random.default_rng([seed, 3])
    day = np.arange(n) / 48.0
    level = (
        170.0
        + rng.uniform(40.0, 80.0) * np.cos(2 * np.pi * (day - 15.0) / 365.0)
        + rng.uniform(20.0, 45.0) * np.sin(2 * np.pi * (day % 1.0 - 7.0 / 24.0))
        + rng.normal(0.0, 12.0, n)
    )
    tenths = np.rint(np.maximum(level, 5.0) * 10.0).astype(np.int64)
    values = tenths / 10.0
    stamps = iso_minutes(YEAR_START, n, 1800)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp,intensity_g_per_kwh\n")
        handle.writelines([f"{t}+00:00,{v:.1f}\n" for t, v in zip(stamps, values.tolist())])
    return values


class CarbonYear(InProcess):
    """Emissions layer: one seeded day accounted against a year of intensity."""

    name = "carbon-year"
    intervals = 24
    lookups = 48

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.path = ctx.work / "carbon_year.csv"

    def setup(self) -> None:
        ctx = self.ctx
        self.n = max(144, round(YEAR_HALF_HOURS * ctx.scale))
        values = write_carbon_year(self.path, ctx.seed, self.n)
        self.profile = ctx.tracer.call(
            "emissions.from_csv", CarbonIntensityProfile.from_csv, self.path
        )
        self.values = values
        self.times_s = YEAR_START.timestamp() + 1800.0 * np.arange(self.n)
        self.cum = np.concatenate(([0.0], np.cumsum(values * 1800.0)))
        rng = np.random.default_rng([ctx.seed, 4])
        self.embodied = EmbodiedEmissions(rng.uniform(1.0e7, 2.0e7), 6 * 8760.0)
        self.days = np.random.default_rng([ctx.seed, 5])
        ctx.tracer.counts["emissions.profile_points"] = self.n
        ctx.tracer.counts["emissions.intervals"] = self.intervals

    def integral(self, t_s: np.ndarray) -> np.ndarray:
        """Step-hold integral of intensity from the first point to t (g/kWh * s)."""
        i = np.searchsorted(self.times_s, t_s, side="right") - 1
        return self.cum[i] + self.values[i] * (t_s - self.times_s[i])

    def cycle(self) -> list[Op]:
        days = self.days
        day = int(days.integers(0, self.n // 48 - 1))
        start = YEAR_START + timedelta(days=day, minutes=int(days.integers(0, 60)))
        kwh = days.uniform(2400.0, 3400.0, self.intervals).tolist()
        offsets = days.integers(0, 86400, self.lookups).tolist()
        inputs = (start, kwh, [start + timedelta(seconds=s) for s in offsets])
        return [Op("op", "op", lambda: self.run(*inputs), lambda out: self.check(inputs, out))]

    def run(self, start, kwh, instants):
        call = self.ctx.tracer.call
        hour = timedelta(hours=1)
        pairs = [((start + h * hour, start + (h + 1) * hour), e) for h, e in enumerate(kwh)]
        scope2 = call("emissions.scope2_emissions", scope2_emissions, pairs, self.profile)
        looked_up = [
            call("emissions.intensity_at", self.profile.intensity_at, t) for t in instants
        ]
        mean_kw = sum(kwh) / len(kwh)
        life = call(
            "emissions.lifetime_emissions",
            lifetime_emissions, mean_kw, 24.0, self.profile, self.embodied, start,
        )
        return scope2, looked_up, life

    def check(self, inputs, out) -> None:
        start, kwh, instants = inputs
        scope2, looked_up, life = out
        t0 = start.timestamp()
        edges = self.integral(t0 + 3600.0 * np.arange(self.intervals + 1))
        want = float((np.asarray(kwh) * np.diff(edges) / 3600.0).sum() / 1000.0)
        expect_close(f"scope-2 kg for the day from {start}", scope2, want, 1e-9)
        at = np.array([t.timestamp() for t in instants])
        i = np.searchsorted(self.times_s, at, side="right") - 1
        for t, got, ref in zip(instants, looked_up, self.values[i].tolist()):
            expect_equal(f"intensity at {t}", got, ref)
        mean_kw = sum(kwh) / len(kwh)
        day_g = float(np.diff(self.integral(np.array([t0, t0 + 86400.0])))[0])
        want2 = mean_kw * 24.0 * day_g / 86400.0 / 1000.0
        want3 = self.embodied.total_kgco2e * 24.0 / self.embodied.service_lifetime_hours
        expect_close("lifetime scope-2 kg", life.scope2_kg, want2, 1e-9)
        expect_close("lifetime scope-3 kg", life.scope3_kg, want3, 1e-9)
        expect_close("lifetime total kg", life.total_kg, want2 + want3, 1e-9)

    def items_per_op(self) -> int:
        return self.intervals

    def sizes(self) -> dict:
        return {
            "profile_points": self.n,
            "intervals_per_op": self.intervals,
            "lookups_per_op": self.lookups,
            "bytes_read": self.path.stat().st_size,
        }


CLI_ENTRY = "from wattplan.cli import entrypoint; entrypoint()"
# The subcommand cycle, in order; synth writes the file telemetry reads. Each
# call's stdout must equal golden/<label>.out, captured at the initial commit.
CLI_CYCLE = [
    ("synth", ["synth", "builtin:recipe_full_timeline.json", "-o", "full_timeline.csv"]),
    ("telemetry_detect",
     ["telemetry", "full_timeline.csv", "--detect", "--gap", "24", "--format", "json"]),
    ("power", ["power", "builtin:archer2_system.json", "-u", "0.92",
               "--factor", "compute_nodes=0.935"]),
    ("policy", ["policy", "builtin:table4_freq.csv", "--threshold", "0.10", "--format", "json"]),
    ("simulate", ["simulate", "builtin:stacked_scenario.json"]),
    ("simulate_sweep", ["simulate", "builtin:stacked_scenario.json",
                        "--sweep", "0,0.05,0.1,0.15,0.2,0.3", "--format", "json"]),
    ("emissions_intensity",
     ["emissions", "--intensity", "50", "--power-kw", "2530", "--hours", "24"]),
    ("emissions_profile",
     ["emissions", "--profile", "carbon_profile.csv", "--power-kw", "3010", "--hours", "8760",
      "--embodied", "embodied.json", "--format", "json"]),
]
# Interpreter start-up floors, measured in traced runs only.
CLI_PROBES = [
    ("bare", "pass"),
    ("numpy_import", "import numpy"),
    ("import", "import wattplan"),
]
# The carbon profile `emissions --profile` reads has a fixed seed, so that its
# golden output holds for every workload seed.
CLI_PROFILE_SEED = 0
SWEEP_THRESHOLDS = 1001


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # an installed package starts from cached bytecode; without this an
    # inherited PYTHONDONTWRITEBYTECODE would make every cold call compile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def write_cli_inputs(work: Path) -> None:
    write_carbon_year(work / "carbon_profile.csv", CLI_PROFILE_SEED, YEAR_HALF_HOURS)
    (work / "embodied.json").write_text(
        json.dumps({"total_kgco2e": 1.6e7, "service_lifetime_hours": 52560.0}) + "\n"
    )


class Planning:
    """What a planner runs: cold CLI calls, each followed by an in-process round."""

    name = "planning"
    primary_kind = "cli"
    throughput_kind = "round"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.env = cli_env(ctx.root)
        self.golden = {
            label: (GOLDEN_DIR / f"{label}.out").read_bytes() for label, _ in CLI_CYCLE
        }
        self.synth_sha = (GOLDEN_DIR / "synth.csv.sha256").read_text().strip()
        self.start_probe = hostspeed.StartProbe(self.env, ctx.work)

    def setup(self) -> None:
        ctx = self.ctx
        write_cli_inputs(ctx.work)
        # fresh interpreters compile and cache wattplan's bytecode on first import
        subprocess.run(
            [sys.executable, "-c", "import wattplan.cli"],
            env=self.env, cwd=ctx.work, check=True, timeout=120,
        )
        rng = np.random.default_rng([ctx.seed, 6])
        with open(DATA_DIR / "table4_freq.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        self.table = {r["app_name"]: (float(r["perf_ratio"]), float(r["energy_ratio"])) for r in rows}
        shares = rng.dirichlet(np.ones(len(self.table))).tolist()
        self.weights = dict(zip(self.table, shares))
        model_doc = json.loads((DATA_DIR / "archer2_system.json").read_text(encoding="utf-8"))
        self.compute = model_doc["compute_component"]
        self.components = [
            (c["name"], c["count"], c["idle_kw_per_unit"], c["loaded_kw_per_unit"],
             c["load_response"] == "constant")
            for c in model_doc["components"]
        ]
        scenario = json.loads((DATA_DIR / "stacked_scenario.json").read_text(encoding="utf-8"))
        self.base = (scenario["utilization"], scenario["bios_factor"])
        self.hours = scenario["duration_hours"]
        self.carbon = scenario["carbon"]["constant_g_per_kwh"]
        self.thresholds = np.linspace(0.0, 1.0, SWEEP_THRESHOLDS).tolist()
        self.grid = [
            (u, b, t)
            for u in rng.uniform(0.5, 1.0, 5).tolist()
            for b in rng.uniform(0.9, 1.0, 4).tolist()
            for t in rng.uniform(0.0, 0.3, 10).tolist()
        ]
        ctx.tracer.counts["simulator.scenarios"] = self.items_per_op()

    # -- independent reference of the scenario model ------------------------

    def ref_fleet(self, threshold: float) -> tuple[float, float, tuple]:
        power = throughput = 0.0
        reverted = []
        for app, weight in self.weights.items():
            perf, energy = self.table[app]
            if 1.0 - perf > threshold:
                power += weight
                throughput += weight
                reverted.append(app)
            else:
                power += weight * energy * perf
                throughput += weight * perf
        return power, throughput, tuple(reverted)

    def ref_total_kw(self, utilization: float, bios: float, ratio: float) -> float:
        total = 0.0
        for name, count, idle, loaded, constant in self.components:
            if name == self.compute:
                idle, loaded = idle * bios, loaded * bios
                loaded = idle + (loaded - idle) * ratio
            total += count * (idle if constant else idle + utilization * (loaded - idle))
        return total

    # -- ops -----------------------------------------------------------------

    def cycle(self) -> list[Op]:
        # a round after every second call spreads the in-process samples over
        # the run and leaves time for more calls, whose median is the noisier
        ops = []
        for i, (label, argv) in enumerate(CLI_CYCLE):
            ops.append(Op("cli", label, (lambda a=argv, l=label: self.run_cli(l, a)),
                          (lambda out, l=label: self.check_cli(l, out)), self.start_probe))
            if i % 2:
                ops.append(Op("round", "round", self.run_round, self.check_round))
        if self.ctx.tracer.enabled:
            ops += [
                Op("probe", name, (lambda n=name, c=code: self.run_probe(n, c)),
                   (lambda out, n=name: self.check_exit(n, out)), self.start_probe)
                for name, code in CLI_PROBES
            ]
        return ops

    def run_cli(self, label: str, argv: list[str]):
        return self.ctx.tracer.call(
            f"cli.{label}.cold", subprocess.run,
            [sys.executable, "-c", CLI_ENTRY, *argv],
            env=self.env, cwd=self.ctx.work, capture_output=True, timeout=120,
        )

    def run_probe(self, name: str, code: str):
        return self.ctx.tracer.call(
            f"cli.{name}", subprocess.run, [sys.executable, "-c", code],
            env=self.env, cwd=self.ctx.work, capture_output=True, timeout=120,
        )

    def check_exit(self, label: str, proc) -> None:
        if proc.returncode != 0:
            self.ctx.tracer.errors["cli"] += 1
            raise CheckFailed(
                f"{label} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}"
            )

    def check_cli(self, label: str, proc) -> None:
        self.check_exit(label, proc)
        if proc.stdout != self.golden[label]:
            raise CheckFailed(f"cli {label}: stdout differs from golden/{label}.out")
        if label == "synth":
            expect_equal("sha256 of synth output", sha256_of(self.ctx.work / "full_timeline.csv"),
                         self.synth_sha)

    def run_round(self):
        call = self.ctx.tracer.call
        config = call(
            "simulator.load_scenario_config", load_scenario_config,
            DATA_DIR / "stacked_scenario.json",
        )
        benchmarks = call(
            "freq_policy.load_benchmark_table", load_benchmark_table, DATA_DIR / "table4_freq.csv"
        )
        model = call("power_model.load_model", load_model, DATA_DIR / "archer2_system.json")
        config = replace(config, mix=JobMix(self.weights))
        sweep = call("simulator.sweep_threshold", sweep_threshold, config, self.thresholds)
        grid = []
        for utilization, bios, threshold in self.grid:
            rule = PolicyRule(threshold)
            result = call(
                "simulator.run_scenario", run_scenario,
                replace(config, utilization=utilization, bios_factor=bios, rule=rule),
            )
            staged = call(
                "power_model.apply_power_factor",
                apply_power_factor, model, self.compute, bios, FactorMode.WHOLE_DRAW,
            )
            fleet = call("freq_policy.fleet_ratios", fleet_ratios, benchmarks, self.weights, rule)
            staged = call(
                "power_model.apply_power_factor", apply_power_factor,
                staged, self.compute, fleet.fleet_power_ratio, FactorMode.DYNAMIC_ONLY,
            )
            breakdown = call("power_model.system_power", system_power, staged, utilization)
            grid.append((result, fleet, breakdown))
        return sweep, grid

    def check_round(self, out) -> None:
        sweep, grid = out
        expect_equal("sweep points", len(sweep), len(self.thresholds))
        utilization, bios = self.base
        distinct = set()
        for (threshold, result), want_t in zip(sweep, self.thresholds):
            expect_equal("sweep threshold order", threshold, want_t)
            power, throughput, reverted = self.ref_fleet(threshold)
            distinct.add(reverted)
            kw = self.ref_total_kw(utilization, bios, power)
            got_reverted = tuple(d.app_name for d in result.decisions if d.reverted)
            expect_equal(f"reverted apps at threshold {threshold}", set(got_reverted), set(reverted))
            expect_close(f"sweep kW at threshold {threshold}", result.mean_power_kw, kw, 1e-9)
            expect_close(f"sweep throughput at {threshold}", result.throughput_index, throughput, 1e-9)
            expect_close(
                f"sweep scope-2 at {threshold}", result.emissions.scope2_kg,
                kw * self.hours * self.carbon / 1000.0, 1e-9,
            )
        self.ctx.tracer.counts["simulator.sweep.distinct_ratio"] = len(distinct) / len(sweep)
        for (utilization, bios, threshold), (result, fleet, breakdown) in zip(self.grid, grid):
            power, throughput, _ = self.ref_fleet(threshold)
            kw = self.ref_total_kw(utilization, bios, power)
            where = f"u={utilization:.4f} bios={bios:.4f} t={threshold:.4f}"
            expect_close(f"fleet power ratio at {where}", fleet.fleet_power_ratio, power, 1e-9)
            expect_close(f"scenario kW at {where}", result.mean_power_kw, kw, 1e-9)
            expect_close(f"staged kW at {where}", breakdown.total_kw, kw, 1e-9)
            expect_close(f"throughput at {where}", result.throughput_index, throughput, 1e-9)
            expect_close(f"energy at {where}", result.energy_kwh, kw * self.hours, 1e-9)

    def items_per_op(self) -> int:
        """Scenario evaluations per round: sweep points plus each grid point twice."""
        return len(self.thresholds) + 2 * len(self.grid)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def sizes(self) -> dict:
        return {
            "cli_calls_per_cycle": len(CLI_CYCLE),
            "sweep_thresholds": len(self.thresholds),
            "grid_points": len(self.grid),
            "profile_points": YEAR_HALF_HOURS,
        }


WORKLOADS = {w.name: w for w in (TelemetryYear, FixtureYear, CarbonYear, Planning)}
