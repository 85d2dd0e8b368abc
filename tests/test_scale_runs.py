"""tools/scale_runs.py times each run in a fresh interpreter and checks its
output."""

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
    walls = scale_runs.run([("verify", "A2")])
    assert list(walls) == ["verify A2"] and walls["verify A2"] > 0
    assert list(scale_runs.run([("period", "A2+A2", 3, 36)])) == ["period A2+A2 periods=3"]
    with pytest.raises(RuntimeError, match="total 36, expected 35"):
        scale_runs.run([("period", "A2+A2", 3, 35)])


def test_runs_and_checks_matrix_mode():
    scale_runs = _scale_runs()
    walls = scale_runs.run([("matrix", "[[3,0],[1,2]]", "1/3,1/3")])
    assert list(walls) == ["verify --matrix [[3,0],[1,2]] --group 1/3,1/3"]
    # D5 is an honest mismatch: exit 1 fails the run's check
    with pytest.raises(RuntimeError, match="exit code 1"):
        scale_runs.run([("matrix", "[[4,0],[1,2]]", "1/4,3/8")])
