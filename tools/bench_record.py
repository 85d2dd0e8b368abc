"""Record one BENCH_<n>.json: the benchmark's final JSON lines per workload.

Runs `perfbench/run.py --trace 0` and `--trace 1` for each workload of
BENCHMARK.json in a source checkout and writes their last stdout lines,
together with nproc, the Python version, the checkout's source state (see
source_state) and the traced run's `host.ref_s`, to one JSON file:

    python3 tools/bench_record.py --n 6
    python3 tools/bench_record.py --n 0 --root ../parent-checkout --out BENCH_0.json

Every record uses seed 7 and BENCHMARK.json's `run_seconds`, so any two
records compare.  Per-layer counters and ratios more than 10% worse than
in the latest BENCH_<m>.json of this checkout with m < n are listed under
"flags" and printed; times are recorded but not flagged, since the host's
speed drifts between records.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 7


def run(root, workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1])


def source_state(root):
    """The checkout's `commit` (HEAD, or "unknown" outside a repository)
    and `dirty`: whether any tracked file differs from HEAD or any file is
    untracked and not ignored.  A dirty tree, whose HEAD is not the code
    measured, also gets `diff_sha256`: the SHA-256 of `git diff --binary
    HEAD`, then of each untracked file in path order as its path, a NUL
    byte and its bytes."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True).stdout

    commit = git("rev-parse", "HEAD").decode().strip()
    if not commit:
        return {"commit": "unknown"}
    diff = git("diff", "--binary", "HEAD")
    untracked = sorted(p for p in git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0") if p)
    state = {"commit": commit, "dirty": bool(diff or untracked)}
    if state["dirty"]:
        digest = hashlib.sha256(diff)
        for path in untracked:
            digest.update(path + b"\0" + (Path(root) / path.decode()).read_bytes())
        state["diff_sha256"] = digest.hexdigest()
    return state


def previous_record(n):
    """The latest BENCH_<m>.json of this checkout with m < n, or None."""
    found = []
    for path in HERE.glob("BENCH_*.json"):
        m = path.stem[len("BENCH_"):]
        if m.isdigit() and int(m) < n:
            found.append((int(m), path))
    return json.loads(max(found)[1].read_text()) if found else None


def flags(current, previous):
    """Counters and ratios more than 10% worse than in the previous record.

    Times are kept in the record but not flagged: the host's speed drifts
    between records by more than a layer's own change, and no divisor
    (one or a median of `host.ref_s` readings) was found to cancel it.
    """
    layers = json.loads((HERE / "BENCHMARK.json").read_text())["per_layer"]
    counters = [m for m in layers if m["unit"] != "s"]
    out = []
    for workload, cur in current["workloads"].items():
        old = previous["workloads"].get(workload)
        if old is None:
            continue
        for m in counters:
            name = m["name"]
            a = old["trace1"]["metrics"].get(name, {}).get("value")
            b = cur["trace1"]["metrics"].get(name, {}).get("value")
            if not a or b is None:
                continue
            change = (b - a) / abs(a) if m["better"] == "lower" else (a - b) / abs(a)
            if change > 0.10:
                out.append(f"{workload} {name}: {a:.4g} -> {b:.4g}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="record number, names BENCH_<n>.json")
    ap.add_argument("--root", default=str(HERE), help="source checkout to measure")
    ap.add_argument("--out", help="output file (default: BENCH_<n>.json in this checkout)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "n": args.n,
        **source_state(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(root, name, seconds, 0)
        traced = run(root, name, seconds, 1)
        record["workloads"][name] = {
            "host.ref_s": traced["metrics"]["host.ref_s"]["value"],
            "trace0": plain,
            "trace1": traced,
        }
        print(f"{name}: wall_s {plain['metrics']['wall_s']['value']:.4g} s", file=sys.stderr)
    previous = previous_record(args.n)
    if previous is not None:
        record["flags"] = flags(record, previous)
        for line in record["flags"]:
            print("flag: " + line, file=sys.stderr)
    out = Path(args.out) if args.out else HERE / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
