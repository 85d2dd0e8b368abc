"""tools/scale_runs.py times each run in a fresh interpreter, reads its peak
resident memory and checks its output."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _scale_runs():
    spec = importlib.util.spec_from_file_location("scale_runs", ROOT / "tools" / "scale_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_and_checks_a_small_model():
    scale_runs = _scale_runs()
    runs = scale_runs.run([("verify", "A2")])
    assert list(runs) == ["wall_s", "peak_rss_mb"]
    for metric in runs.values():
        assert list(metric) == ["verify A2"] and metric["verify A2"] > 0
    assert list(scale_runs.run([("period", "A2+A2", 3, 36)])["wall_s"]) == ["period A2+A2 periods=3"]
    with pytest.raises(RuntimeError, match="total 36, expected 35"):
        scale_runs.run([("period", "A2+A2", 3, 35)])


def test_runs_and_checks_matrix_mode():
    scale_runs = _scale_runs()
    runs = scale_runs.run([("matrix", "[[3,0],[1,2]]", "1/3,1/3")])  # D4
    for metric in runs.values():
        assert list(metric) == ["verify --matrix [[3,0],[1,2]] --group 1/3,1/3"]
        assert next(iter(metric.values())) > 0
    # D5 is an honest mismatch: exit 1 fails the run's check
    with pytest.raises(RuntimeError, match="exit code 1"):
        scale_runs.run([("matrix", "[[4,0],[1,2]]", "1/4,3/8")])
