"""Run workloads over several seeds, one run at a time, and report the spread.

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/baseline
    python3 perfbench/spread.py --workloads carbon-year --seeds 1-5 --out .perfbench/try

Each run is `run.py --workload W --seed N --seconds <run_seconds> --trace 0`.
Writes `<out>/<workload>.jsonl`, one line per run with its seed, its length
in seconds and its result, and prints, per end-to-end metric, the median, the
quartiles and the spread: (q3 - q1) / median, the quartiles from
statistics.quantiles(n=4). With `--summary` the same figures also go to
`<out>/summary.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        with open(args.out / f"{workload}.jsonl", "w", encoding="utf-8") as log:
            for seed in args.seeds:
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    capture_output=True, text=True, timeout=600,
                )
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                run_s = round(perf_counter() - start, 1)
                log.write(json.dumps({"seed": seed, "run_s": run_s, "result": result}) + "\n")
                log.flush()
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": round((q3 - q1) / median, 4)}
            print(f"{workload:<16}{name:<14}median {median:<12.6g}spread {rows[name]['spread']}")
        summary[workload] = {"runs": len(args.seeds), "failed": failed, "metrics": rows}
    if args.summary:
        note = (f"untraced runs, seeds {args.seeds[0]}-{args.seeds[-1]}, --seconds "
                f"{args.seconds}, one run at a time; spread is (q3 - q1) / median")
        (args.out / "summary.json").write_text(
            json.dumps({"note": note, "workloads": summary}, indent=1) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
