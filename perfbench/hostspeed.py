"""How fast the host runs right now, measured by probes that never call wattplan.

On a shared host the same op can take twice as long a minute later, in CPU
time as much as in wall time, because neighbours compete for the cores and
caches. The benchmark reads a probe before the first op and after every op,
and scales each op's wall time by the host speed measured around it:

    normalized = wall * reference_s / mean(probe before, probe after)

so a slow minute of the host cancels out, while a change to wattplan does
not: the kernel never calls wattplan. Normalized times read as the wall time
the op would take on the reference host, the 2-vCPU Intel Xeon VM the
benchmark was calibrated on, when it is quiet.

The kernel does what the ops do, on a small fixed input: CSV rows split by
the csv module, ISO-8601 timestamps and floats parsed, rows sorted and
looked up with bisect, and lines formatted back with f-strings. The garbage
collector is off while it runs, so that its time does not depend on how many
objects the workload holds at that moment.

A cold CLI call is mostly process start-up, which a loaded host slows unlike
Python code already running, so CLI calls are scaled by a second probe, the
start of a bare interpreter (`StartProbe`).
"""

from __future__ import annotations

import bisect
import csv
import gc
import io
import statistics
import subprocess
import sys
from datetime import datetime
from pathlib import Path
from time import perf_counter

# one pass of the kernel on the reference host, quiet: the tenth percentile
# of 500 passes, Python 3.11
REFERENCE_S = 0.0143
# `python -c pass` on the reference host, quiet
START_REFERENCE_S = 0.047
PASSES = 5  # kernel passes per probe; the probe is their mean

_ROWS = 4000
_TEXT = "".join(
    f"2021-{1 + i % 12:02d}-{1 + i % 28:02d}T{i % 24:02d}:{i % 60:02d}:00+00:00,"
    f"{(i * 7919) % 100000 / 10:.1f}\n"
    for i in range(_ROWS)
)


def kernel() -> tuple[float, int]:
    rows = [(datetime.fromisoformat(t), float(v)) for t, v in csv.reader(io.StringIO(_TEXT))]
    rows.sort()
    keys = [t for t, _ in rows]
    acc = 0.0
    for t, v in rows:
        acc += v * keys[bisect.bisect_right(keys, t) - 1].minute
    text = "\n".join(f"{t.isoformat()},{v!r}" for t, v in rows)
    return acc, len(text)


EXPECTED = kernel()


class KernelProbe:
    """Host speed for Python code: the mean of PASSES kernel passes, now."""

    reference_s = REFERENCE_S

    def __call__(self) -> float:
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(PASSES):
                start = perf_counter()
                out = kernel()
                times.append(perf_counter() - start)
                if out != EXPECTED:
                    raise RuntimeError("host-speed kernel gave a different result")
        finally:
            if enabled:
                gc.enable()
        return statistics.fmean(times)


KERNEL = KernelProbe()


class StartProbe:
    """Host speed for process start-up: the faster of two bare interpreter starts."""

    reference_s = START_REFERENCE_S

    def __init__(self, env: dict, cwd: Path) -> None:
        self.env = env
        self.cwd = cwd

    def __call__(self) -> float:
        times = []
        for _ in range(2):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd,
                           check=True, timeout=60)
            times.append(perf_counter() - start)
        return min(times)
