"""Checks on the benchmark itself.

Run from the root of a source checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts that later claims may rest on: they must not depend on the seed
COUNTS = ["rank.calls", "rank.nnz_sum", "hom.calls", "monomials.calls", "cache.bytes_written"]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(seed, trace, workload="verify-atoms"):
    out = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _result(1, 1), _result(2, 1)


def test_traced_counts_repeat_across_seeds(traced):
    a, b = traced
    assert a["correct"] and b["correct"]
    for name in COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
        assert a["metrics"][name]["value"] > 0, name


def test_traced_run_reports_every_layer_and_accounts_for_wall(traced):
    metrics = traced[0]["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.absent"]["value"] == 0
    # one traced pass at --seconds 1: layer self times plus the remainder
    # outside any span add up to that pass's wall time
    parts = [v["value"] for k, v in metrics.items()
             if k.endswith("self_s") or k in ("cache.load_s", "cache.store_s")]
    assert metrics["other.self_s"]["value"] >= 0
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(3, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "verify-atoms", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
