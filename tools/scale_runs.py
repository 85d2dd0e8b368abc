"""Time the larger models, each in a fresh interpreter, from ./src.

    python3 tools/scale_runs.py

Runs cold `hmskit verify A2+A2+A2+A2`, cold `hmskit verify D4t+D4t`, cold
`hmskit verify A128` (one large atom: per-call overhead in the hom layer and
the A-side table of 128 objects), cold
`hmskit verify --matrix '[[159,0],[1,2]]' --group '1/159,79/159'` (matrix
mode, D160; each verify with an empty cache directory) and
`one_period_end_total(generator_E(A2+A2+A2+A2), periods=4)`, one subprocess
each.  A verify must exit 0 with the verdict "match"; the period total must
be 1296.  Prints one JSON line: the wall time of each run in seconds
(interpreter start to exit), the peak resident memory of each run in MB (the
child's own `ru_maxrss`, read from `os.wait4` as it is reaped), nproc and the
Python version.  A failed check raises, so the script exits 1.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ("verify", model), ("matrix", exponent matrix, group) for verify --matrix,
# or ("period", model, periods, expected total)
SCALE = [
    ("verify", "A2+A2+A2+A2"),
    ("verify", "D4t+D4t"),
    ("verify", "A128"),
    ("matrix", "[[159,0],[1,2]]", "1/159,79/159"),
    ("period", "A2+A2+A2+A2", 4, 1296),
]

_VERIFY = "import sys; from hmskit.hmscli import main; sys.exit(main(sys.argv[1:]))"
_PERIOD = (
    "import sys; from hmskit.matfac import generator_E, one_period_end_total; "
    "from hmskit.polyforms import parse_model; "
    "print(one_period_end_total(generator_E(parse_model(sys.argv[1])), periods=int(sys.argv[2])))"
)


def label(job):
    kind, model, *rest = job
    if kind == "matrix":
        return f"verify --matrix {model} --group {rest[0]}"
    return f"{kind} {model}" + (f" periods={rest[0]}" if rest else "")


def _problem(job, out):
    """What is wrong with a run's output, or None."""
    if out.returncode != 0:
        return f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"
    if job[0] != "period":
        try:
            verdict = json.loads(out.stdout).get("verdict")
        except ValueError:
            return "stdout is not a JSON report"
        return None if verdict == "match" else f"verdict {verdict!r}"
    total = out.stdout.strip()
    return None if total == str(job[3]) else f"total {total}, expected {job[3]}"


def run(jobs):
    """{"wall_s": {label: seconds}, "peak_rss_mb": {label: MB}} of each job,
    each run in a fresh interpreter; raises RuntimeError when a run's output
    fails its check."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    walls, peaks = {}, {}
    for job in jobs:
        with tempfile.TemporaryDirectory() as scratch:
            cache_dir = os.path.join(scratch, "cache")
            if job[0] == "period":
                argv = ["-c", _PERIOD, job[1], str(job[2])]
            else:
                target = [job[1]] if job[0] == "verify" else ["--matrix", job[1], "--group", job[2]]
                argv = ["-c", _VERIFY, "verify", *target, "--cache-dir", cache_dir, "--quiet"]
            # output goes to files, not pipes, so that no reader has to reap
            # the child before os.wait4 reads its rusage
            with open(os.path.join(scratch, "out"), "w+") as out, open(os.path.join(scratch, "err"), "w+") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                result = subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read())
        problem = _problem(job, result)
        if problem is not None:
            raise RuntimeError(f"{label(job)}: {problem}")
        walls[label(job)] = round(wall, 3)
        # ru_maxrss is in KiB on Linux
        peaks[label(job)] = round(usage.ru_maxrss / 1024.0, 1)
    return {"wall_s": walls, "peak_rss_mb": peaks}


def main():
    print(json.dumps({**run(SCALE), "nproc": os.cpu_count(), "python": platform.python_version()}))


if __name__ == "__main__":
    main()
