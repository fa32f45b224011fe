"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/capture_golden.py

Writes perfbench/golden/: the stdout of each CLI call in the planning cycle,
the sha256 of the file `synth` writes, and the sha256 of the file
fixture-year writes for --seed 0. These were captured once, from the commit
that added the benchmark; re-capture only when a change to CLI output or to
the written CSV format is intended, and say so in the change.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLI_CYCLE, CLI_ENTRY, GOLDEN_DIR, Context, FixtureYear, cli_env, sha256_of, write_cli_inputs,
)


def main() -> int:
    work = ROOT / ".perfbench" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        write_cli_inputs(work)
        for label, argv in CLI_CYCLE:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                env=cli_env(ROOT), cwd=work, capture_output=True, timeout=120, check=True,
            )
            (GOLDEN_DIR / f"{label}.out").write_bytes(proc.stdout)
        (GOLDEN_DIR / "synth.csv.sha256").write_text(sha256_of(work / "full_timeline.csv") + "\n")
        fixture = FixtureYear(Context(ROOT, work, seed=0, scale=1.0, tracer=Tracer()))
        fixture.setup()
        (GOLDEN_DIR / "fixture-year-seed0.sha256").write_text(
            sha256_of(fixture.write_year()) + "\n"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
