"""tools/bench_record.py flags what got worse between two records, not
what the host's speed did."""

import importlib.util
import json
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


def test_flags_see_through_host_speed_but_not_a_count():
    flags = _bench_record().flags
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    base = {m["name"]: 1.0 for m in layers if m["name"] != "host.ref_s"}
    base["rank.calls"] = 100
    old = _record(0.15, base)
    # the same program on a host running at half speed: every time doubles
    slow = {name: v * 2 if name.endswith("_s") else v for name, v in base.items()}
    assert flags(_record(0.30, slow), old) == []
    slow["rank.calls"] = 200
    assert flags(_record(0.30, slow), old) == ["verify-warm rank.calls: 100 -> 200"]
    # on the same host, a time that doubles is flagged
    same = dict(base, **{"rank.self_s": 2.0})
    assert flags(_record(0.15, same), old) == ["verify-warm rank.self_s / host.ref_s: 6.667 -> 13.33"]


def test_tracer_overhead_is_flagged_as_a_share_of_the_traced_wall():
    flags = _bench_record().flags
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    base = {m["name"]: 1.0 for m in layers if m["name"] != "host.ref_s"}
    base["trace.overhead_s"] = -0.002
    old = _record(0.15, base)
    # a difference of two medians near zero: a small rise is no slower tracer
    assert flags(_record(0.15, dict(base, **{"trace.overhead_s": 0.003})), old) == []
    # a rise of a fifth of the traced wall is
    assert flags(_record(0.15, dict(base, **{"trace.overhead_s": 0.2})), old) == [
        "verify-warm trace.overhead_s / trace.wall_s: -0.002 -> 0.2"
    ]
