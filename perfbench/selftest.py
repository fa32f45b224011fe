"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at 1 % of its year-sized inputs for one second, untraced
and traced, and checks the result line against BENCHMARK.json; checks that a
wrong output fails a check and that the command fails without src/wattplan.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CarbonYear, CheckFailed, Context, TelemetryYear  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench" / "selftest"


def run_bench(script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, timeout=300,
    )


def tiny(kind, tracer: Tracer | None = None):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    ctx = Context(ROOT, SCRATCH, seed=3, scale=0.01, tracer=tracer or Tracer())
    workload = kind(ctx)
    workload.setup()
    return workload


class SelfTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_every_workload_reports_every_metric(self):
        nonzero = set()
        for workload in BENCH_WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(HERE / "run.py", workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {m["name"]: m["unit"] for m in BENCH[section]}
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)
                        elif metric["value"] != 0:
                            nonzero.add(name)
        # each per-layer metric is measured by some workload; error counts stay 0
        never = {m["name"] for m in BENCH["per_layer"]} - nonzero
        self.assertEqual({n for n in never if not n.endswith(".errors")}, set())

    def test_summary_takes_children_out_of_self_time(self):
        tracer = Tracer(enabled=True)
        tracer.spans = [
            ["op.op", 0, 100, None, "op-1"],
            ["telemetry.parse_series", 10, 40, 0, "op-1"],
            ["telemetry.parse_series", 50, 60, 0, "op-1"],
        ]
        tracer.counts["telemetry.samples"] = 7
        path = SCRATCH / "summary.jsonl"
        tracer.write(path, {"workload": "none"})
        summary = summarize(path)
        self.assertEqual(summary["layers"]["op.op"]["self_p50_ns"], 60)
        self.assertEqual(summary["layers"]["telemetry.parse_series"]["calls"], 2)
        self.assertEqual(summary["layers"]["telemetry.parse_series"]["p50_ns"], 20)
        self.assertEqual(summary["counts"], {"telemetry.samples": 7})
        # an op's scale applies to each of its spans
        tracer.scales["op-1"] = 0.5
        tracer.write(path, {"workload": "none"})
        summary = summarize(path)
        self.assertEqual(summary["layers"]["op.op"]["self_p50_ns"], 30)
        self.assertEqual(summary["layers"]["telemetry.parse_series"]["p50_ns"], 10)

    def test_wrong_outputs_fail_their_checks(self):
        carbon = tiny(CarbonYear)
        (op,) = carbon.cycle()
        scope2, looked_up, life = op.run()
        op.check((scope2, looked_up, life))
        with self.assertRaises(CheckFailed):
            op.check((scope2 * (1 + 1e-8), looked_up, life))
        telemetry = tiny(TelemetryYear)
        series, found, report, months = telemetry.run()
        telemetry.check((series, found, report, months))
        moved = type(found)(found.change_time, found.index + 1, found.score)
        with self.assertRaises(CheckFailed):
            telemetry.check((series, moved, report, months))

    def test_calls_that_raise_count_against_their_module(self):
        tracer = Tracer()
        with self.assertRaises(ZeroDivisionError):
            tracer.call("emissions.scope2_emissions", lambda: 1 / 0)
        self.assertEqual(tracer.errors["emissions"], 1)

    def test_fails_without_the_package(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare / HERE.name / "run.py", "telemetry-year", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


BENCH_WORKLOADS = [w["name"] for w in BENCH["workloads"]]
assert set(BENCH_WORKLOADS) == set(WORKLOADS), "BENCHMARK.json and workloads.py disagree"

if __name__ == "__main__":
    unittest.main()
