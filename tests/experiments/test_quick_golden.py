"""The quick-size paper record, regenerated and compared line by line.

``experiments_output_quick.txt`` at the repository root is the printed
output of ``python -m repro.experiments.runner --quick --seed 0`` (default
performance flags: serial backend, fusion off) with the per-figure
``[... regenerated in ...]`` timing lines removed.  Every run is
deterministic, so any drift in a printed number is a behaviour change:
a change that moves a number on purpose regenerates this file (and the
full-size ``experiments_output.txt`` and EXPERIMENTS.md) in the same
change.  Regenerate it with::

    PYTHONPATH=src python -m repro.experiments.runner --quick --seed 0 \\
        | grep -v '^\\[.* regenerated in .*s\\]$' > experiments_output_quick.txt
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "experiments_output_quick.txt"
TIMING_LINE = re.compile(r"^\[.* regenerated in .*s\]$")


def _record(text: str) -> list:
    return [line for line in text.splitlines() if not TIMING_LINE.match(line)]


def test_quick_suite_matches_the_committed_golden():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "--quick", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    fresh = _record(run.stdout)
    golden = _record(GOLDEN.read_text())
    assert len(fresh) == len(golden)
    for number, (got, want) in enumerate(zip(fresh, golden), start=1):
        assert got == want, f"line {number} drifted from {GOLDEN.name}"
