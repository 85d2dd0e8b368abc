"""Time cold passes of two source checkouts against each other in one
interpreter, alternating pass by pass.

    python3 tools/ab_passes.py --a ../parent --b . --workload sums --seconds 120
    python3 tools/ab_passes.py --a ../parent --b . --models D4t+D4t --seconds 60

Copies `src/hmskit` of checkout A and of checkout B into a temporary
directory as the packages `hmskit_a` and `hmskit_b`; hmskit imports itself
only relatively, so each copy runs on its own code.  Then it runs pairs of
cold passes, one of each side, until `--seconds` are spent, with A first in
even pairs and B first in odd ones.  A pass is a cold `verify` of each
model (a fresh cache directory each), or the period total of `--workload
period`; both sides' outputs must agree, pass by pass.  The workloads'
models and the period total are read from `perfbench/run.py` of the
checkout that holds this tool.  Prints the median of
the pairs' B/A wall-time ratios with its quartiles, the pair count, each
side's median pass time in ms, nproc and the Python version.

Both sides share the interpreter, the heap and the host's drift, which
cancels in each pair's ratio: an A/A run reads about 1.00, while separate
benchmark runs of one tree can differ by 30%.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_bench():
    """perfbench/run.py of this checkout, whose model lists the passes time."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


BENCH = load_bench()
WORKLOADS = {"atoms": BENCH.ATOMS, "sums": BENCH.SUMS}
PERIOD = (BENCH.PERIOD_MODEL, BENCH.PERIOD_PERIODS, BENCH.PERIOD_TOTAL)


def load(root, name, tmp):
    """hmskit of the checkout `root`, imported as the package `name`."""
    shutil.copytree(Path(root) / "src" / "hmskit", Path(tmp) / name)
    for module in ("hmscli", "matfac", "polyforms"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def verify_pass(hmscli, models, tmp):
    """Reports of a cold verify of each model."""
    out = []
    for m in models:
        cache = tempfile.mkdtemp(dir=tmp)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = hmscli.main(["verify", m, "--cache-dir", cache, "--quiet"])
        shutil.rmtree(cache)
        if code != 0:
            raise SystemExit(f"verify {m} exited {code}")
        out.append(text.getvalue())
    return out


def period_pass(hmskit):
    model, periods, total = PERIOD
    matfac = hmskit.matfac
    got = matfac.one_period_end_total(matfac.generator_E(hmskit.polyforms.parse_model(model)), periods=periods)
    if got != total:
        raise SystemExit(f"period total {got}, expected {total}")
    return got


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="checkout A, the baseline")
    ap.add_argument("--b", required=True, help="checkout B")
    ap.add_argument("--workload", choices=(*WORKLOADS, "period"), default="sums")
    ap.add_argument("--models", help="comma-separated models to verify instead of a workload")
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [load(args.a, "hmskit_a", tmp), load(args.b, "hmskit_b", tmp)]
            if args.models or args.workload != "period":
                models = args.models.split(",") if args.models else WORKLOADS[args.workload]
                passes = [lambda s=s: verify_pass(s.hmscli, models, tmp) for s in sides]
            else:
                passes = [lambda s=s: period_pass(s) for s in sides]
            walls = ([], [])
            start = time.perf_counter()
            while len(walls[0]) < 2 or time.perf_counter() - start < args.seconds:
                order = (0, 1) if len(walls[0]) % 2 == 0 else (1, 0)
                outs = [None, None]
                for side in order:
                    wall, outs[side] = timed(passes[side])
                    walls[side].append(wall)
                if outs[0] != outs[1]:
                    raise SystemExit("the two checkouts disagree on a pass's output")
        finally:
            sys.path.remove(tmp)
    ratios = [b / a for a, b in zip(*walls)]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    a_ms, b_ms = (statistics.median(w) * 1e3 for w in walls)
    print(
        f"B/A wall ratio {med:.3f} [{q1:.3f}, {q3:.3f}] over {len(ratios)} pairs,"
        f" median pass A {a_ms:.1f} ms, B {b_ms:.1f} ms"
        f" (nproc {os.cpu_count()}, Python {platform.python_version()})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
