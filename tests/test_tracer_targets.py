"""The benchmark's tracer wraps hmskit callables by name from outside the
package; a rename or deletion there would only show up as a nonzero
`trace.absent` in a traced run.  This test makes it a tier-1 failure."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _tracer_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_every_tracer_target_resolves(monkeypatch):
    missing = []
    for module, attr, _, _ in _tracer_targets(monkeypatch):
        owner = importlib.import_module("hmskit." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
