"""hmskit benchmark: named workloads, exact output checks, end-to-end metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-sums --seed 1 --seconds 15 --trace 0

The package is imported from ./src.  With --trace 0 the last line of stdout
is one JSON object holding the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of traced passes (see perfbench/README.md).
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

ATOMS = ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3"]
SUMS = ["A2+D4t", "A2+A2+A2", "A3+D4t"]
PERIOD_MODEL = "A2+A2+A2"
PERIOD_PERIODS = 3
PERIOD_TOTAL = 216
WINDOW = 4

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# import until ready, timed inside a fresh interpreter
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hmskit.hmscli, hmskit.matfac\n"
    "print(time.perf_counter() - t)\n"
)
SETUP_SAMPLES = 9

# workloads whose operations take seconds measure at least this many passes
MIN_PASSES = 2

# The host's speed drifts by tens of percent over tens of seconds, and CPU
# time drifts with wall time (see perfbench/README.md).  So each run also
# times a fixed reference computation between operations, spending about
# REFERENCE_SHARE of the run on it, and reports its times scaled by
# REFERENCE_NOMINAL_S over the reference's median: a run on a host running
# slow reads about the same as on a quiet one, while a slower program still
# reads slower by its full amount.
REFERENCE_MATRICES = 20
REFERENCE_NOMINAL_S = 0.15
REFERENCE_SHARE = 0.1


def reference_work():
    """Fixed pure-Python work of the program's kind: fraction-free
    elimination of sparse dict rows, modulo a prime so numbers stay small."""
    rng = random.Random(5)
    rank = 0
    for _ in range(REFERENCE_MATRICES):
        rows = [{j: rng.choice((-1, 1)) for j in rng.sample(range(60), 6)} for _ in range(60)]
        while rows:
            pivot = rows.pop()
            col, pv = next(iter(pivot.items()))
            rest = []
            for row in rows:
                a = row.get(col)
                if a is None:
                    rest.append(row)
                    continue
                out = {}
                for c in row.keys() | pivot.keys():
                    if c != col:
                        v = (pv * row.get(c, 0) - a * pivot.get(c, 0)) % 1000003
                        if v:
                            out[c] = v
                if out:
                    rest.append(out)
            rows = rest
            rank += 1
    return rank


class HostSpeed:
    """Timings of the reference work, taken between the measured steps."""

    def __init__(self):
        self.walls = []
        self.cpus = []
        self.start = None

    def catch_up(self):
        """Sample until the reference has had its share of the time so far;
        after a long operation that is several samples in a row."""
        if self.start is None:
            self.start = time.perf_counter()
            self.sample()
        while sum(self.walls) < REFERENCE_SHARE * (time.perf_counter() - self.start):
            self.sample()

    def sample(self):
        # with the collector off, the program's heap cannot slow the reference
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0, t0 = _cpu(), time.perf_counter()
            reference_work()
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(_cpu() - c0)
        finally:
            if enabled:
                gc.enable()

    def wall_scale(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.walls)

    def cpu_scale(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.cpus)


def measure_setup():
    """Median probe time, and the host speed measured between the probes."""
    host = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        host.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    host.sample()
    return statistics.median(samples), host


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def machine_facts():
    try:
        from hmskit import _backend
        backend = getattr(_backend, "BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
        "backend": backend,
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run: operations, their checks and the tallies."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def check(self, what, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"perfbench: check failed: {what}: {problem}", file=sys.stderr)

    def guarded(self, what, fn):
        """Run fn(); an exception is a failed check, not a crash."""
        try:
            return fn()
        except Exception:
            self.check(what, traceback.format_exc())
            return None


def cli_verify(model, cache_dir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hmscli.main(["verify", model, "--cache-dir", cache_dir, "--quiet"])
    return code, out.getvalue()


def expected_entries(model):
    quivers = [quivercat.dynkin_quiver(a) for a in polyforms.parse_model(model).atoms]
    table = quivercat.tensor_model(quivers).restrict_window(WINDOW)
    return [list(e) for e in table.entries()]


def verify_problem(code, text, expected, reference):
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "stdout is not a JSON report"
    if report.get("verdict") != "match":
        return f"verdict {report.get('verdict')!r}"
    if report.get("bside", {}).get("entries") != expected:
        return "b-side entries differ from tensor_model"
    if reference is not None and text != reference:
        return "stdout differs from the reference run"
    return None


class VerifyWorkload:
    """`hmskit verify` of each model; cold passes use a fresh cache each."""

    def __init__(self, models, warm, rng):
        self.models = list(models)
        rng.shuffle(self.models)
        self.warm = warm
        self.expected = {}
        self.reference = {}
        self.cache_dir = None

    def prepare(self, run):
        for m in self.models:
            self.expected[m] = expected_entries(m)
        if self.warm:
            # the cold pass that fills the cache is the warm passes' reference
            self.cache_dir = tempfile.mkdtemp(dir=run.tmp)
            for m in self.models:
                res = run.guarded(m, lambda: cli_verify(m, self.cache_dir))
                if res is not None:
                    code, text = res
                    run.check(f"cold {m}", verify_problem(code, text, self.expected[m], None))
                    self.reference[m] = text

    def run_pass(self, run, host):
        cache_dir = self.cache_dir or tempfile.mkdtemp(dir=run.tmp)
        wall = cpu = 0.0
        try:
            for m in self.models:
                host.catch_up()
                c0, t0 = _cpu(), time.perf_counter()
                res = run.guarded(m, lambda: cli_verify(m, cache_dir))
                wall += time.perf_counter() - t0
                cpu += _cpu() - c0
                if res is None:
                    continue
                code, text = res
                if run.tracer is not None:
                    run.tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
                run.check(m, verify_problem(code, text, self.expected[m], self.reference.get(m)))
                self.reference.setdefault(m, text)
        finally:
            if not self.warm:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, cpu


class PeriodWorkload:
    """one_period_end_total over generator_E of a sum, gens in seed order."""

    def __init__(self, rng):
        self.rng = rng
        self.order = None

    def prepare(self, run):
        p = polyforms.parse_model(PERIOD_MODEL)
        self.order = list(range(len(matfac.generator_E(p))))
        self.rng.shuffle(self.order)
        product = 1
        for atom in PERIOD_MODEL.split("+"):
            product *= matfac.one_period_end_total(
                matfac.generator_E(polyforms.parse_model(atom)), periods=PERIOD_PERIODS
            )
        run.check("factor product", None if product == PERIOD_TOTAL else f"product {product}")

    def op(self):
        gens = matfac.generator_E(polyforms.parse_model(PERIOD_MODEL))
        gens = [gens[i] for i in self.order]
        return matfac.one_period_end_total(gens, periods=PERIOD_PERIODS)

    def run_pass(self, run, host):
        c0, t0 = _cpu(), time.perf_counter()
        total = run.guarded(PERIOD_MODEL, self.op)
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        if total is not None:
            run.check(PERIOD_MODEL, None if total == PERIOD_TOTAL else f"total {total}")
        return wall, cpu


WORKLOADS = {
    "verify-atoms": lambda rng: VerifyWorkload(ATOMS, False, rng),
    "verify-sums": lambda rng: VerifyWorkload(SUMS, False, rng),
    "period-total": PeriodWorkload,
    "verify-warm": lambda rng: VerifyWorkload(ATOMS + SUMS, True, rng),
}


def measure(workload, run, seconds, tracer, host):
    """Passes until `seconds` are spent; traced passes alternate with plain ones."""
    walls, cpus, traced_walls, layer = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        host.catch_up()
        trace_this = tracer is not None and n % 2 == 0
        if trace_this:
            tracer.reset()
            tracer.install()
            run.tracer = tracer
        try:
            wall, cpu = workload.run_pass(run, host)
        finally:
            if trace_this:
                tracer.uninstall()
                run.tracer = None
        if trace_this:
            traced_walls.append(wall)
            layer.append(tracer.metrics(wall))
        else:
            walls.append(wall)
            cpus.append(cpu)
        last = wall
        n += 1
    host.catch_up()
    return walls, cpus, traced_walls, layer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hmskit" / "__init__.py").is_file():
        print(f"perfbench: no hmskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # every cache directory is passed explicitly; the probes inherit this too
    os.environ.pop("HMSKIT_CACHE_DIR", None)
    global hmscli, matfac, polyforms, quivercat
    from hmskit import hmscli, matfac, polyforms, quivercat
    import layers

    facts = machine_facts()
    setup_s, setup_host = (None, None) if args.trace else measure_setup()
    host = HostSpeed()
    # every cache directory lives under this one, removed at the end
    run = Run(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = layers.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    try:
        workload.prepare(run)
        walls, cpus, traced_walls, layer = measure(workload, run, args.seconds, tracer, host)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    peak = _peak_rss_mb()

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls) + len(traced_walls)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    if tracer is not None:
        print("absent layers: " + json.dumps(tracer.absent))
        # counts repeat exactly across passes; times take the median
        metrics = {
            name: (statistics.median_low if isinstance(layer[0][name], int) else statistics.median)(
                [m[name] for m in layer])
            for name in layer[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics["host.ref_s"] = statistics.median(host.walls)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        tracer.write(str(OUT / f"spans-{args.workload}.json.gz"))
    else:
        measured = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
        }
        scale = {
            "wall_s": host.wall_scale(),
            "cpu_s": host.cpu_scale(),
            "setup_s": setup_host.wall_scale(),
        }
        for name, value in measured.items():
            print(f"measured {name} {value} s, host scale {scale[name]}")
        metrics = {name: value * scale[name] for name, value in measured.items()}
        metrics["peak_rss_mb"] = peak
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"error_rate {run.failed / run.attempted if run.attempted else 1.0} "
          f"({run.failed}/{run.attempted})")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
