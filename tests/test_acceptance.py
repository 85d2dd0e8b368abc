"""Acceptance suite: eight end-to-end checks, one verdict line each.

Each check records a `criterion N PASS/FAIL` line; conftest.py replays them
in the terminal summary so they are visible in any pytest run, captured or
not.  Details live in the assertions.  Every comparison here is exact
integer or exact rational equality; there are no tolerances.
"""

import functools
import json
import random
import sys
import time

from hmskit.exactmat import (
    Poly,
    det_int,
    int_kernel,
    mat_mul,
    mat_transpose,
    smith_normal_form,
    snf_diagonal,
)
from hmskit.factorization import koszul_mf, mf_from_pair
from hmskit.hmscli import main as cli_main
from hmskit.matfac import (
    ext_table,
    generator_E,
    generator_collection,
    one_period_end_total,
    residue_mf_D,
)
from hmskit.polyforms import atom_from_name, build, parse_model
from hmskit.quivercat import (
    dynkin_quiver,
    euler_matrix,
    mutate_collection,
    coxeter_polynomial,
    simple_hom_dims,
    tensor_model,
)
from hmskit.symmetry import gmax, krawitz_transpose

from reference_exact import rat_kernel, rat_rank, subgroups


# verdict lines accumulated here; conftest.pytest_terminal_summary prints them
VERDICTS = []


def _verdict(line):
    VERDICTS.append(line)
    print(line, file=sys.__stderr__)


def criterion(num, label, budget):
    """Wrap a test so it always reports a single verdict line and a runtime."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - started
                _verdict(f"criterion {num} FAIL: {label} [{elapsed:.1f}s]")
                raise
            elapsed = time.perf_counter() - started
            _verdict(f"criterion {num} PASS: {label} [{elapsed:.1f}s]")
            assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"

        return wrapper

    return deco


def _run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def _collection_equals_quiver(name, window=4):
    p = parse_model(name)
    col = generator_collection(p)
    tab = ext_table(col, window)
    q = dynkin_quiver(p.atoms[0])
    assert len(col) == q.rank
    for i in range(len(col)):
        for j in range(len(col)):
            for k in range(-window, window + 1):
                assert tab.dims.get((i, j, k), 0) == simple_hom_dims(q, i, j, k), (
                    f"{name}: entry ({i},{j},{k}) differs"
                )


@criterion(1, "four-vertex model: table equals the quiver table exactly", 10)
def test_criterion_1_four_vertex_equivalence(tmp_path, capsys):
    code, out = _run_cli(
        capsys, "verify", "D4t", "--cache-dir", str(tmp_path), "--quiet"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "match"
    assert report["window"] == [-4, 4]
    assert report["object_assignment"] == {
        "R/(y)": "v1",
        "R/(x^3+y)": "v2",
        "R/m(0)": "v3",
        "R/m(-1)": "v4",
    }
    # independent in-process check of the same equality, zero tolerance
    _collection_equals_quiver("D4t")


@criterion(2, "remaining one-atom models match their quiver tables", 60 * 7)
def test_criterion_2_family_equivalences(tmp_path, capsys):
    for name in ("D5t", "D6t", "A1", "A2", "A3", "A4", "A5"):
        started = time.perf_counter()
        code, out = _run_cli(
            capsys, "verify", name, "--cache-dir", str(tmp_path), "--quiet"
        )
        assert code == 0, f"{name}: verify exited {code}"
        assert json.loads(out)["verdict"] == "match", f"{name}: table mismatch"
        assert time.perf_counter() - started < 60, f"{name}: over 60s"


@criterion(3, "sums: tensor tables agree and one-period totals multiply", 600)
def test_criterion_3_tensor_factorization():
    factor_total = {}
    for name in ("A2", "D4t"):
        factor_total[name] = one_period_end_total(generator_E(parse_model(name)))
    assert factor_total == {"A2": 6, "D4t": 24}

    for name, parts in (("A2+A2", ("A2", "A2")), ("A2+D4t", ("A2", "D4t"))):
        started = time.perf_counter()
        p = parse_model(name)
        col = generator_collection(p)
        tab = ext_table(col, 4)
        model = tensor_model([dynkin_quiver(a) for a in p.atoms])
        for i in range(len(col)):
            for j in range(len(col)):
                for k in range(-4, 5):
                    assert tab.dims.get((i, j, k), 0) == model.dims.get((i, j, k), 0), (
                        f"{name}: entry ({i},{j},{k}) differs"
                    )
        total = one_period_end_total(generator_E(p))
        want = factor_total[parts[0]] * factor_total[parts[1]]
        assert total == want, f"{name}: total {total} != {want}"
        assert time.perf_counter() - started < 300, f"{name}: over five minutes"


@criterion(4, "every constructed factorization passes the exact audit", 30)
def test_criterion_4_factorization_identities():
    atoms = [f"A{m}" for m in range(1, 7)]
    atoms += [f"D{n}" for n in range(3, 7)]
    atoms += [f"D{n}t" for n in range(3, 7)]
    for name in atoms:
        p = build(atom_from_name(name).template())
        koszul_mf(p).validate()
        if name.startswith("A"):
            m = int(name[1:])
            x = Poly.variable(1, 0)
            mf_from_pair(p.ctx, p.poly, x, Poly.monomial(1, (m,))).validate()
        if name.endswith("t"):
            n = int(name[1:-1])
            residue_mf_D(n, ctx=p.ctx).validate()
            for _, k in generator_collection(p):
                k.validate()

    # randomized splitting choices: any assignment of each monomial to one
    # of its variables must still produce a valid factorization
    pool = atoms + ["A1+A1", "A2+A3", "A2+D4t"]
    rng = random.Random(20260825)
    for _ in range(50):
        p = parse_model(rng.choice(pool))
        choice = {}
        for exps, _coeff in sorted(p.poly.terms.items()):
            divisors = [i for i, e in enumerate(exps) if e > 0]
            choice[exps] = rng.choice(divisors)
        k = koszul_mf(p, gamma_choice=choice)
        k.validate()
        assert k.rank0 == k.rank1 == 2 ** (p.nvars - 1)


@criterion(5, "two-variable worked example, including the quotient-graded table", 60)
def test_criterion_5_worked_example(tmp_path, capsys):
    code, out = _run_cli(
        capsys, "transpose", "[[3,1],[0,2]]", "--group", "1/2,1/2", "--quiet"
    )
    assert code == 0
    r = json.loads(out)
    assert r["transpose"]["poly"] == "x^3 + x*y^2"
    assert r["transpose"]["group"] == ["0,0", "1/3,1/3", "2/3,2/3"]
    assert r["input"]["is_sl"] is True
    assert r["m_grading"] == {"rank": 1, "torsion": [], "deg": [1, 1], "degc": 3}

    code, out = _run_cli(
        capsys,
        "verify",
        "--matrix", "[[3,0],[1,2]]",
        "--group", "1/3,1/3",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    report = json.loads(out)
    # expected to match the four-vertex quiver; over the rationals the
    # two residue objects refuse to split (x^2 + y^2 stays irreducible),
    # so this clause records an honest failure rather than a weakened check
    assert code == 0 and report["verdict"] == "match", (
        f"quotient-graded table disagrees with the quiver at "
        f"{report['first_difference']}; splitting the residue objects needs "
        f"a square root of -1, which the rationals do not have"
    )


@criterion(6, "transposing a subgroup twice returns the subgroup, exhaustively", 60)
def test_criterion_6_double_transpose_is_identity():
    matrices = []
    for m in range(1, 12):  # det = m + 1 <= 12
        matrices.append(atom_from_name(f"A{m}").template())
    for n in range(3, 8):  # det = 2(n - 1) <= 12
        matrices.append(atom_from_name(f"D{n}").template())
        matrices.append(atom_from_name(f"D{n}t").template())
    checked = 0
    for a in matrices:
        assert abs(det_int(a)) <= 12
        at = mat_transpose(a)
        for h in subgroups(gmax(a)):
            hdd = krawitz_transpose(at, krawitz_transpose(a, h))
            assert hdd.elements == h.elements
            checked += 1
    # divisor-count bookkeeping: 34 subgroups across the cyclic chain
    # groups, 42 across both two-variable orientations
    assert checked == 76


@criterion(7, "mutations: braid relation, double mutation, spectrum", 5)
def test_criterion_7_mutation_shadow():
    for name in ("A5", "D5"):
        e = euler_matrix(dynkin_quiver(name))
        cox = coxeter_polynomial(e)
        n = len(e)
        for i in range(1, n):
            for direction in ("left", "right"):
                once = mutate_collection(e, i, direction)
                back = "right" if direction == "left" else "left"
                assert mutate_collection(once, i, back) == e
                assert coxeter_polynomial(once) == cox
        for i in range(1, n - 1):
            lhs, rhs = e, e
            for step in (i, i + 1, i):
                lhs = mutate_collection(lhs, step, "left")
            for step in (i + 1, i, i + 1):
                rhs = mutate_collection(rhs, step, "left")
            assert lhs == rhs
            assert coxeter_polynomial(lhs) == cox


@criterion(8, "normal form and kernel properties on 1000 random matrices", 30)
def test_criterion_8_normal_form_properties():
    rng = random.Random(8)
    for trial in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert det_int(u) in (1, -1)
        assert det_int(v) in (1, -1)
        diag = snf_diagonal(d)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0
        assert rat_rank(a) + len(rat_kernel(a)) == cols
        rank = sum(1 for x in diag if x)
        kernel = int_kernel(a)
        assert len(kernel) == cols - rank
        for vec in kernel:
            assert all(
                sum(a[i][j] * vec[j] for j in range(cols)) == 0 for i in range(rows)
            )
