"""Run one wattplan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload telemetry-year --seed 0 --seconds 20 --trace 0

Run from any directory; the repository root is the parent of this file's
directory, and wattplan is imported from its `src`. Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones listed in BENCHMARK.json, measured with tracing off. With
`--trace 1` every other cycle is traced, the spans are written to
`.perfbench/traces/` when the run ends, and the metrics are the per-layer
ones, derived from that file. Every time is scaled by the host speed measured
just before and after it (hostspeed.py). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CYCLES = 4  # two traced and two untraced cycles in a traced run
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0  # set up again until this much set-up time is measured
MAX_SETUPS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="fraction of a year for the series workloads; below 1 only for the self-test",
    )
    return parser.parse_args(argv)


def quantile_ms(times_s: list[float], pct: int) -> float:
    if pct == 50 or len(times_s) < 2:
        return statistics.median(times_s) * 1000.0
    return statistics.quantiles(times_s, n=100)[pct - 1] * 1000.0


def tail(times_s: list[float]) -> tuple[int, float]:
    """Highest of p99/p90/p75 with at least ten samples beyond it, else the median."""
    for pct in (99, 90, 75):
        if len(times_s) * (100 - pct) / 100 >= 10:
            return pct, quantile_ms(times_s, pct)
    return 50, quantile_ms(times_s, 50)


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "wattplan").rglob("*.py"))
    )


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Timer:
    """Wall time of a step, and that time scaled to the reference host's speed.

    A step names its probe (hostspeed.KERNEL unless it says otherwise). The
    probe is read after every step, and before a step unless the step before
    it used the same probe; a step's scale is the probe's reference time over
    the mean of its readings on either side of the step. Each step starts
    after a full garbage collection, so that it does not pay for the garbage
    of the step before it.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.last = {}  # probe -> its latest reading in s
        self.previous = hostspeed.KERNEL  # the probe read last
        self.speeds = []  # reference / reading, for every kernel reading
        self.read(hostspeed.KERNEL)

    def read(self, probe) -> float:
        value = self.last[probe] = probe()
        self.previous = probe
        if probe is hostspeed.KERNEL:
            self.speeds.append(probe.reference_s / value)
        return value

    def time(self, name: str, fn, probe=hostspeed.KERNEL):
        """Run fn in a span; return (its result or the exception, wall s, reference s)."""
        before = self.last[probe] if probe is self.previous else self.read(probe)
        gc.collect()
        start = perf_counter()
        try:
            with self.tracer.span(name):
                out = fn()
        except Exception as exc:  # noqa: BLE001 - the caller reports it
            out = exc
        wall = perf_counter() - start
        factor = probe.reference_s / ((before + self.read(probe)) / 2.0)
        self.tracer.scales[self.tracer.op_id] = factor
        return out, wall, wall * factor


class Runner:
    """Times the ops of one workload; counts ops attempted and failed."""

    def __init__(self, workload, timer: Timer) -> None:
        self.workload = workload
        self.timer = timer
        self.tracer = timer.tracer
        self.attempted = 0
        self.failed = 0
        self.untraced = defaultdict(list)  # kind -> op times in reference s
        self.traced = defaultdict(list)
        self.wall = defaultdict(list)  # kind -> untraced op wall times in s

    def run_op(self, op, index: int, record: bool) -> None:
        tracer = self.tracer
        self.attempted += 1
        tracer.op_id = f"{op.label}-{self.attempted}"
        out, wall, elapsed = self.timer.time(f"op.{op.kind}", op.run, op.probe)
        try:
            if isinstance(out, Exception):
                raise out
            op.check(out)
        except Exception:
            self.failed += 1
            print(f"op {op.label} in cycle {index} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        if record:
            (self.traced if tracer.enabled else self.untraced)[op.kind].append(elapsed)
            if not tracer.enabled:
                self.wall[op.kind].append(wall)

    def run(self, seconds: float, trace: bool) -> int:
        # one untimed, untraced cycle first: caches fill and the slow full checks run
        self.tracer.enabled = False
        for op in self.workload.cycle():
            self.run_op(op, 0, record=False)
        cycles = 0
        start = perf_counter()
        while cycles < MIN_CYCLES or perf_counter() - start < seconds:
            self.tracer.enabled = trace and cycles % 2 == 0
            for op in self.workload.cycle():
                self.run_op(op, cycles + 1, record=True)
            cycles += 1
        self.tracer.enabled = False
        return cycles


def end_to_end(workload, setup_times, times) -> dict:
    op = times[workload.primary_kind]
    per = times[workload.throughput_kind]
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(op) * 1000.0,
        "items_per_s": workload.items_per_op() / statistics.median(per),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def per_layer(names, summary, runner, workload, spans: int) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from the trace summary.

    A name is a derived figure, a count, `<module>.errors`, or a span name
    followed by `.ms`/`_ms`/`.us`/`_us` (median duration per call). A count
    the workload never records, or a span it never opens, reads 0.
    """
    layers = summary["layers"]

    def span_p50(name: str, ns_per_unit: float, key: str = "p50_ns") -> float:
        return layers[name][key] / ns_per_unit if name in layers else 0.0

    kind = workload.primary_kind
    traced, untraced = runner.traced, runner.untraced
    everything = traced[kind] + untraced[kind]
    tail_pct, tail_ms = tail(everything)
    op_traced = statistics.median(traced[kind]) * 1000.0
    op_untraced = statistics.median(untraced[kind]) * 1000.0
    items = workload.throughput_kind
    items_traced = 1.0 / statistics.median(traced[items])
    items_untraced = 1.0 / statistics.median(untraced[items])
    derived = {
        "host.speed": statistics.median(runner.timer.speeds),
        "op.p50_wall_ms": statistics.median(runner.wall[kind]) * 1000.0,
        "emissions.scope2.us_per_interval":
            span_p50("emissions.scope2_emissions", 1e3)
            / summary["counts"].get("emissions.intervals", 1),
        "op.p50_ms": op_untraced,
        "op.tail_ms": tail_ms,
        "op.tail_pct": tail_pct,
        "op.samples": len(everything),
        "op.self_ms": span_p50(f"op.{kind}", 1e6, "self_p50_ns"),
        "trace.overhead_ms": op_traced - op_untraced,
        "trace.overhead_pct": 100.0 * (op_traced - op_untraced) / op_untraced,
        "trace.items_overhead_pct": 100.0 * (items_untraced - items_traced) / items_untraced,
        "trace.spans": spans,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name in summary["counts"]:
            values[name] = summary["counts"][name]
        elif name.endswith(".errors"):
            values[name] = summary["errors"].get(name[: -len(".errors")], 0)
        else:
            match = re.fullmatch(r"(.+)[._](ms|us)", name)
            if match is None:
                values[name] = 0
            else:
                values[name] = span_p50(match[1], 1e6 if match[2] == "ms" else 1e3)
    return values


ALIASES = {
    "telemetry-year": {"items_per_s": "samples_per_s"},
    "fixture-year": {"items_per_s": "samples_per_s"},
    "carbon-year": {"items_per_s": "intervals_per_s"},
    "planning": {"items_per_s": "scenarios_per_s", "op_p50_ms": "cli_p50_ms"},
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wattplan").is_dir():
        print(f"error: no wattplan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from tracing import Tracer, summarize
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    ctx = Context(root=ROOT, work=work, seed=args.seed, scale=args.scale, tracer=tracer)
    try:
        workload = WORKLOADS[args.workload](ctx)
        timer = Timer(tracer)
        setup_times = []  # reference s
        while len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
        ):
            tracer.op_id = f"setup-{len(setup_times)}"
            out, _, elapsed = timer.time("setup", workload.setup)
            if isinstance(out, Exception):
                raise out
            setup_times.append(elapsed)
        runner = Runner(workload, timer)
        cycles = runner.run(args.seconds, bool(args.trace))
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(ROOT),
            "src_lines": src_lines(ROOT),
            "sizes": workload.sizes(),
            "setups": len(setup_times),
            "cycles": cycles,
        }
        try:
            if args.trace:
                trace_path = out_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
                tracer.write(trace_path, meta)
                summary = summarize(trace_path)
                names = [m["name"] for m in bench["per_layer"]]
                metrics = per_layer(names, summary, runner, workload, len(tracer.spans))
                units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            else:
                metrics = end_to_end(workload, setup_times, runner.untraced)
                units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        except statistics.StatisticsError:
            print("error: too few successful ops to compute the metrics", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"meta {json.dumps(meta)}")
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        also = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:<40}{value:>16.6g} {units[name]}{also}")
    error_rate = runner.failed / runner.attempted
    print(f"{'error_rate':<40}{error_rate:>16.6g} ratio  ({runner.failed}/{runner.attempted} ops)")
    if not args.trace:
        op_times = runner.untraced[workload.primary_kind]
        pct, ms = tail(op_times)
        label = f"op_p{pct}_ms" if pct > 50 else "op_p50_ms (too few ops for a tail)"
        print(f"{label:<40}{ms:>16.6g} ms  (n={len(op_times)} ops)")
        wall_ms = statistics.median(runner.wall[workload.primary_kind]) * 1000.0
        speed = statistics.median(timer.speeds)
        print(f"{'op_p50_wall_ms':<40}{wall_ms:>16.6g} ms  (unscaled; host speed {speed:.3g})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
