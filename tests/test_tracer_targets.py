"""The benchmark's tracer wraps hmskit callables by name from outside the
package; a rename or deletion there would only show up as a nonzero
`trace.absent` in a traced run, and a call site that no longer looks a
wrapped name up where the tracer rebinds it would only drop out of the
counts.  These tests make both a tier-1 failure."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from hmskit import hmscli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_tracer_target_resolves(monkeypatch):
    missing = []
    for module, attr, _, _ in _layers(monkeypatch).TARGETS:
        owner = importlib.import_module("hmskit." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def _traced_counts(monkeypatch, cache_dir, argv):
    """The tracer's counters over one in-process cold CLI run."""
    tracer = _layers(monkeypatch).Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hmscli.main([*argv, "--cache-dir", str(cache_dir), "--quiet"])
    finally:
        tracer.uninstall()
    assert (code, tracer.absent) == (0, [])
    return tracer.counts


# calls per layer of a cold verify of A2+D4t and of matrix-mode D4 over
# Q(i); a call site that no longer looks a traced name up where the tracer
# rebinds it lowers one of them
_KEYS = (
    "hom", "brank", "rank", "assembly", "monomials",
    "collection.build", "collection.tensor", "collection.validate", "polyforms", "cli",
)
_A2_D4T = (576, 1152, 228, 228, 2376, 1, 3, 7, 6, 1)
_MATRIX_D4 = (144, 288, 80, 80, 211, 1, 0, 4, 1, 1)


def test_the_tracer_sees_every_layer_of_a_verify(monkeypatch, tmp_path):
    counts = _traced_counts(monkeypatch, tmp_path / "sum", ["verify", "A2+D4t"])
    assert tuple(counts[key] for key in _KEYS) == _A2_D4T
    argv = ["verify", "--matrix", "[[3,0],[1,2]]", "--group", "1/3,1/3"]
    counts = _traced_counts(monkeypatch, tmp_path / "matrix", argv)
    assert tuple(counts[key] for key in _KEYS) == _MATRIX_D4
    assert counts["intcols"] == 60  # the Q(i) boundaries are realified
