"""tools/bench_record.py flags what got worse between two records, not
what the host's speed did, and names the code each record measured."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(ref_s, values):
    """A record of one workload whose traced run reports `values`."""
    metrics = {name: {"value": v} for name, v in values.items()}
    metrics["host.ref_s"] = {"value": ref_s}
    return {"workloads": {"verify-warm": {"host.ref_s": ref_s, "trace1": {"metrics": metrics}}}}


def _base():
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    base = {m["name"]: 1.0 for m in layers if m["name"] != "host.ref_s"}
    base["rank.calls"] = 100
    base["trace.overhead_s"] = -0.002
    return base


def test_flags_see_through_host_speed_but_not_a_count():
    flags = _bench_record().flags
    base = _base()
    old = _record(0.15, base)
    # the same program on a host running at half speed: every time doubles
    slow = {name: v * 2 if name.endswith("_s") else v for name, v in base.items()}
    assert flags(_record(0.30, slow), old) == []
    slow["rank.calls"] = 200
    assert flags(_record(0.30, slow), old) == ["verify-warm rank.calls: 100 -> 200"]
    # a ratio that falls is flagged too
    assert flags(_record(0.15, dict(base, **{"memo.hit_ratio": 0.5})), old) == [
        "verify-warm memo.hit_ratio: 1 -> 0.5"
    ]


def test_a_time_is_never_flagged():
    flags = _bench_record().flags
    base = _base()
    old = _record(0.15, base)
    # on the same host, a doubled time and a tracer overhead of a fifth of
    # the traced wall stay in the record without a flag
    same = dict(base, **{"rank.self_s": 2.0, "trace.overhead_s": 0.2})
    assert flags(_record(0.15, same), old) == []


def _git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_a_record_names_the_code_it_measured(tmp_path):
    # the commit alone names a clean tree; an edited file or a new one makes
    # the tree dirty, and each change gives its own digest
    source_state = _bench_record().source_state
    _git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("out/\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "seed")
    clean = source_state(tmp_path)
    assert set(clean) == {"commit", "dirty"} and len(clean["commit"]) == 40
    assert clean["dirty"] is False
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run.log").write_text("ignored\n")
    assert source_state(tmp_path) == clean
    (tmp_path / "code.py").write_text("x = 2\n")
    edited = source_state(tmp_path)
    assert (edited["commit"], edited["dirty"]) == (clean["commit"], True)
    assert len(edited["diff_sha256"]) == 64
    (tmp_path / "new.py").write_text("y = 1\n")
    added = source_state(tmp_path)
    assert added["dirty"] and added["diff_sha256"] != edited["diff_sha256"]
    (tmp_path / "new.py").write_text("y = 2\n")
    assert source_state(tmp_path)["diff_sha256"] != added["diff_sha256"]
