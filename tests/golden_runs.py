"""Golden digests of CLI runs: reports, exit codes, refusals and cache files.

Each run calls `hmscli.main` in process and records the SHA-256 of its
stdout and its exit code; a refusal also records its last stderr line, and a
`verify` the name of its cache file (the request key) and the SHA-256 of the
file's bytes.  Timings go to stderr and are not recorded.

The runs:
- `verify` of the 13 bench models over windows 4 and 2, each cold (a fresh
  cache directory) and then warm, plus `generators` and `grade` of each;
- matrix-mode `verify` of D4-D10 with their J groups, cold and warm (odd n
  is an honest mismatch, exit 1);
- examples of `transpose`, `gmax` and `mutate`;
- refusals for exit codes 2, 3 and 4 (4 through a lowered
  `factorization.MAX_OBJECTS`, and a `gmax` above
  `symmetry.MAX_GROUP_ORDER`).

Standard library only, so that any interpreter can run it:

    python tests/golden_runs.py            # compare with golden_digests.json
    python tests/golden_runs.py --write    # rewrite golden_digests.json

The module imports hmskit from the `src` directory next to `tests`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from hashlib import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_digests.json")
_SRC = os.path.join(os.path.dirname(HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hmskit import factorization, hmscli  # noqa: E402

BENCH_MODELS = ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t"]

EXAMPLES = [
    ["transpose", "[[3,1],[0,2]]", "--group", "1/2,1/2"],
    ["transpose", "[[3,0],[1,2]]", "--group", "1/3,1/3"],
    ["transpose", "[[3]]", "--group", ""],
    ["transpose", "[[3]]", "--group", "1/3"],
    ["transpose", "[[6,0],[0,6]]", "--group", "0,0"],
    ["gmax", "D4t"],
    ["gmax", "A2+A3"],
    ["gmax", "[[3,1],[0,2]]"],
    ["gmax", "[[300,0],[0,300]]"],
    ["transpose", "[[30,0],[0,30]]", "--group", "0,0"],
    ["transpose", "[[300,0],[0,300]]", "--group", "0,0"],
    ["transpose", "[[3,0,0],[0,3,0],[0,0,3]]", "--group", ""],
    ["mutate", "A5", "1", "2", "3"],
    ["mutate", "D5", "2", "2", "--direction", "left"],
    ["mutate", "D5", "1", "2"],
]

# (argv, {factorization attribute: value} set for the run)
REFUSALS = [
    (["grade", "Q7"], {}),
    (["verify", "A2", "--window", "-1"], {}),
    (["mutate", "A2+A2", "1"], {}),
    (["verify", "D4"], {}),
    (["verify", "A2+D4t"], {"MAX_OBJECTS": 7}),
    (["gmax", "[[1000,0],[0,1000]]"], {}),
]


def _file_digest(path):
    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()


def _run(argv, cache_dir=None, bounds=None):
    if cache_dir is not None:
        argv = [*argv, "--cache-dir", cache_dir]
    saved = {name: getattr(factorization, name) for name in bounds or {}}
    out, err = io.StringIO(), io.StringIO()
    try:
        for name, value in (bounds or {}).items():
            setattr(factorization, name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hmscli.main(argv)
    finally:
        for name, value in saved.items():
            setattr(factorization, name, value)
    record = {"exit": code, "stdout": sha256(out.getvalue().encode("utf-8")).hexdigest()}
    if code not in (0, 1):
        record["error"] = err.getvalue().splitlines()[-1]
    if cache_dir is not None:
        files = sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []
        record["cache"] = [[name, _file_digest(os.path.join(cache_dir, name))] for name in files]
    return record


def _matrix_argv(n):
    """verify of D_n as x^(n-1) + x y^2 with its J group."""
    j = (Fraction(1, n - 1), Fraction(n - 2, 2 * (n - 1)))
    return ["verify", "--matrix", f"[[{n - 1},0],[1,2]]", "--group", ",".join(map(str, j))]


def run_all():
    """Digest of every run, by a name built from its argv."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:

        def cold_and_warm(argv):
            cache_dir = os.path.join(tmp, str(len(digests)))
            for phase in ("cold", "warm"):
                digests[f"{' '.join(argv)} ({phase})"] = _run(argv, cache_dir)

        for model in BENCH_MODELS:
            for window in ("4", "2"):
                cold_and_warm(["verify", model, "--window", window])
            for command in ("generators", "grade"):
                digests[f"{command} {model}"] = _run([command, model])
        for n in range(4, 11):
            cold_and_warm(_matrix_argv(n))
        for argv in EXAMPLES:
            digests[" ".join(argv)] = _run(argv)
        for argv, bounds in REFUSALS:
            name = " ".join(argv) + "".join(f" [{k}={v}]" for k, v in bounds.items())
            digests[name] = _run(argv, os.path.join(tmp, "refused") if argv[0] == "verify" else None, bounds)
    return digests


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def differences(digests, golden):
    """Names of the runs whose digests differ from the golden ones, or that
    only one side has."""
    return sorted(name for name in digests.keys() | golden.keys() if digests.get(name) != golden.get(name))


def main(argv):
    digests = run_all()
    if argv == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(digests, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return 0
    if argv:
        print("usage: golden_runs.py [--write]", file=sys.stderr)
        return 2
    diff = differences(digests, load_golden())
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(digests) - len(diff)} of {len(digests)} runs agree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
