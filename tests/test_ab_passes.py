"""tools/ab_passes.py times two checkouts against each other in one
interpreter; an A/A run of this checkout prints a pair ratio near 1."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_an_a_a_run_prints_the_median_pair_ratio():
    argv = ["tools/ab_passes.py", "--a", ".", "--b", ".", "--models", "A1", "--seconds", "1"]
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    line = re.fullmatch(
        r"B/A wall ratio (\S+) \[(\S+), (\S+)\] over (\d+) pairs,"
        r" median pass A (\S+) ms, B (\S+) ms \(nproc \d+, Python \S+\)\n",
        out.stdout,
    )
    assert line is not None, out.stdout
    median, q1, q3 = map(float, line.groups()[:3])
    assert q1 <= median <= q3
    assert 0.5 < median < 2
    assert int(line[4]) >= 2
    a_ms, b_ms = float(line[5]), float(line[6])
    assert a_ms > 0 and b_ms > 0
