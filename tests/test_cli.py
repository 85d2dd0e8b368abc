"""Tests for the command line front end and the table cache."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmskit import cache as cache_module
from hmskit import factorization, hmscli, matfac, polyforms, symmetry
from hmskit.cache import TableCache, canonical_json, request_key, resolve_cache_dir
from hmskit.factorization import shift_mf
from hmskit.hmscli import CLIError, _build_model, _parse_matrix, _table_json, main
from hmskit.matfac import ext_table, generator_collection
from hmskit.polyforms import parse_model
from hmskit.symmetry import SymmetryError, parse_group_string


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ cache


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'
    assert request_key({"x": 1}) == request_key({"x": 1})
    assert request_key({"x": 1}) != request_key({"x": 2})


def test_cache_round_trip(tmp_path):
    cache = TableCache(str(tmp_path / "store"))
    key = request_key({"probe": 1})
    assert cache.load(key) is None
    cache.store(key, {"entries": [[0, 0, 0, 1]], "objects": ["X"]})
    assert cache.load(key) == {"entries": [[0, 0, 0, 1]], "objects": ["X"]}
    # corrupt entries act as misses
    with open(cache.path_for(key), "w") as fh:
        fh.write("{not json")
    assert cache.load(key) is None


def test_cache_rejects_entries_without_a_matching_stamp(tmp_path):
    cache = TableCache(str(tmp_path))
    key = request_key({"probe": 2})
    table = {"entries": [[0, 0, 0, 1]], "objects": ["X"], "window": [0, 0]}
    cache.store(key, table)
    assert cache.load(key) == table and cache.rejected is None
    with open(cache.path_for(key), encoding="utf-8") as fh:
        entry = json.load(fh)
    assert set(entry["stamp"]) == {"key", "schema", "revision", "sha256"}
    assert entry["stamp"]["key"] == key

    def rewrite(data):
        with open(cache.path_for(key), "w", encoding="utf-8") as fh:
            fh.write(canonical_json(data))

    rewrite(table)  # an unstamped entry, as older builds wrote them
    assert cache.load(key) is None and cache.rejected == "malformed"
    for field, value in [
        ("key", request_key({"probe": 3})),
        ("schema", cache_module.SCHEMA + 1),
        ("revision", cache_module.BSIDE_REVISION + 1),
        ("sha256", "0" * 64),
    ]:
        rewrite({**entry, "stamp": {**entry["stamp"], field: value}})
        assert cache.load(key) is None and cache.rejected == "stale", field
    rewrite({**entry, "entries": [[0, 0, 0, 2]]})  # a partial edit
    assert cache.load(key) is None and cache.rejected == "stale"
    assert cache.load(request_key({"absent": 1})) is None and cache.rejected is None


def test_request_key_pins_the_bside_revision(monkeypatch):
    request = {"command": "ext_table", "window": [-4, 4]}
    expected = canonical_json({"request": request, "revision": cache_module.BSIDE_REVISION})
    assert request_key(request) == hashlib.sha256(expected.encode("utf-8")).hexdigest()
    before = request_key(request)
    monkeypatch.setattr(cache_module, "BSIDE_REVISION", cache_module.BSIDE_REVISION + 1)
    assert request_key(request) != before


# request_key({"x": 1}) under BSIDE_REVISION 1: the choice of SHA-256 module
# must not move a key
_KEY_X1 = "0c4320e9542862c422309eb0f129668e1d6ef094b8b0d46a095c755fda0c691e"

# an interpreter without the built-in SHA-256 module: the cache falls back to
# hashlib.  Loads the entry that argv[2] holds and stores it again under argv[3]
_FALLBACK = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
    "import hashlib; from hmskit import cache; "
    "key = cache.request_key({'x': 1}); table = cache.TableCache(sys.argv[2]).load(key); "
    "cache.TableCache(sys.argv[3]).store(key, table); "
    "print(json.dumps({'fallback': cache.sha256 is hashlib.sha256, 'key': key, 'table': table}))"
)


def test_the_hashlib_fallback_keys_and_stamps_as_the_built_in_module(tmp_path):
    table = {"entries": [[0, 0, 0, 1], [0, 1, -1, 2]], "window": [-4, 4]}
    key = request_key({"x": 1})
    assert key == _KEY_X1
    builtin, fallback = tmp_path / "builtin", tmp_path / "fallback"
    TableCache(str(builtin)).store(key, table)
    stored = (builtin / f"{key}.json").read_bytes()
    src = str(Path(cache_module.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-B", "-S", "-c", _FALLBACK, src, str(builtin), str(fallback)],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"fallback": True, "key": _KEY_X1, "table": table}
    # loading left the entry as it was; the fallback's entry is the same
    # file, and a hit here
    assert (builtin / f"{key}.json").read_bytes() == stored
    assert sorted(p.name for p in fallback.iterdir()) == [f"{key}.json"]
    assert (fallback / f"{key}.json").read_bytes() == stored
    assert TableCache(str(fallback)).load(key) == table


def test_verify_recomputes_tables_of_another_revision(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    code, cold, _ = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir), "--quiet")
    assert code == 0
    (old,) = cache_dir.iterdir()
    monkeypatch.setattr(cache_module, "BSIDE_REVISION", cache_module.BSIDE_REVISION + 1)
    code, out, err = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert "computed" in err and "from cache" not in err
    (new,) = set(cache_dir.iterdir()) - {old}
    assert json.loads(new.read_text())["stamp"]["revision"] == cache_module.BSIDE_REVISION


def test_cache_dir_resolution(monkeypatch):
    monkeypatch.delenv("HMSKIT_CACHE_DIR", raising=False)
    assert resolve_cache_dir("given") == "given"
    assert resolve_cache_dir(None) == os.path.join(".", ".hmskit-cache")
    monkeypatch.setenv("HMSKIT_CACHE_DIR", "/tmp/somewhere")
    assert resolve_cache_dir(None) == "/tmp/somewhere"
    assert resolve_cache_dir("flag-wins") == "flag-wins"


# ------------------------------------------------------------------ grade


def test_grade_atom(capsys):
    code, out, _ = run_cli(capsys, "grade", "D4t", "--quiet")
    assert code == 0
    r = json.loads(out)
    assert r["schema"] == 1
    assert (r["rank"], r["torsion"], r["deg"], r["degc"]) == (1, [], [1, 3], 6)


def test_grade_more_models(capsys):
    code, out, _ = run_cli(capsys, "grade", "A2", "--quiet")
    assert code == 0 and json.loads(out)["degc"] == 3
    code, out, _ = run_cli(capsys, "grade", "A1+A1", "--quiet")
    assert code == 0 and json.loads(out)["torsion"] == [2]


def test_grade_matrix_input(capsys):
    code, out, _ = run_cli(capsys, "grade", "[[3,1],[0,2]]", "--quiet")
    assert code == 0
    assert json.loads(out)["deg"] == [1, 3]


def test_grade_error_codes(capsys):
    code, _, err = run_cli(capsys, "grade", "Q7")
    assert code == 2 and "cannot parse" in err
    code, _, _ = run_cli(capsys, "grade", "[[1,2],[2,4]]")
    assert code == 3  # singular matrix parses but has no grading
    code, _, _ = run_cli(capsys, "grade", "[[1,2],[2")
    assert code == 2


# ------------------------------------------------------------- generators


def test_generators_counts(capsys):
    for model, count in (("D4t", 4), ("A3", 3), ("D4t+A2", 8)):
        code, out, _ = run_cli(capsys, "generators", model, "--quiet")
        assert code == 0
        r = json.loads(out)
        assert r["count"] == count == len(r["objects"])
    code, out, _ = run_cli(capsys, "generators", "D4t", "--quiet")
    labels = [o["label"] for o in json.loads(out)["objects"]]
    assert labels == ["R/(y)", "R/(x^3+y)", "R/m(0)", "R/m(-1)"]


def test_generators_rejects_untransposed_orientation(capsys):
    code, _, err = run_cli(capsys, "generators", "D5")
    assert code == 3 and "transpose" in err


# ----------------------------------------------------------------- verify


def test_verify_match_and_cache_determinism(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    code, cold, _ = run_cli(
        capsys, "verify", "D4t", "--cache-dir", cache_dir, "--quiet"
    )
    assert code == 0
    code, warm, _ = run_cli(
        capsys, "verify", "D4t", "--cache-dir", cache_dir, "--quiet"
    )
    assert code == 0
    assert warm == cold  # byte-identical report on a warm cache
    assert len(os.listdir(cache_dir)) == 1

    r = json.loads(cold)
    assert r["verdict"] == "match"
    assert r["first_difference"] is None
    assert r["object_assignment"] == {
        "R/(y)": "v1",
        "R/(x^3+y)": "v2",
        "R/m(0)": "v3",
        "R/m(-1)": "v4",
    }
    assert "limitations" in r and "idempotent completion" in r["limitations"]


def test_verify_report_of_a_repeated_atom_is_the_pairwise_table(tmp_path, capsys):
    # the orbit-filled b side of a sum with a repeated atom, as printed,
    # equals the table of the same objects without coordinates, whose pairs
    # are each their own orbit; the generators report carries no coordinates
    code, out, _ = run_cli(capsys, "verify", "A2+A2+A2", "--cache-dir", str(tmp_path), "--quiet")
    assert code == 0
    col = generator_collection(parse_model("A2+A2+A2"))
    bare = [(label, shift_mf(mf, 0)) for label, mf in col]
    assert all(mf.coords is None for _, mf in bare)
    table = ext_table(bare, 4)
    assert json.loads(out)["bside"] == _table_json(table.objects, 4, table)
    code, out, _ = run_cli(capsys, "generators", "A2+A2")
    assert code == 0
    objects = json.loads(out)["objects"]
    assert len(objects) == 4 and all(set(o) == {"label", "w", "p0", "p1", "d0", "d1"} for o in objects)


def test_verify_respects_cache_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HMSKIT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, err = run_cli(capsys, "verify", "A1")
    assert code == 0
    assert os.path.isdir(str(tmp_path / "envcache"))
    assert "computed" in err
    code, _, err = run_cli(capsys, "verify", "A1")
    assert "cache" in err


def test_verify_report_shape(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "A1+A1", "--cache-dir", str(tmp_path), "--quiet"
    )
    assert code == 0
    r = json.loads(out)
    assert r["window"] == [-4, 4]
    assert r["bside"]["objects"] == ["R/m(0)|R/m(0)"]
    assert r["aside"]["objects"] == ["v1|v1"]
    assert r["bside"]["entries"] == [[0, 0, 0, 1]]
    assert r["aside"]["entries"] == [[0, 0, 0, 1]]


def test_verify_window_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "A2", "--window", "2", "--cache-dir", str(tmp_path), "--quiet"
    )
    assert code == 0
    assert json.loads(out)["window"] == [-2, 2]
    code, _, _ = run_cli(capsys, "verify", "A2", "--window", "-1")
    assert code == 2


def test_verify_exit_codes(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "verify", "D4", "--cache-dir", str(tmp_path))
    assert code == 3  # untransposed orientation has no intrinsic collection
    code, _, _ = run_cli(capsys, "verify", "bogus!", "--cache-dir", str(tmp_path))
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--cache-dir", str(tmp_path))
    assert code == 2  # neither expression nor matrix
    code, _, _ = run_cli(
        capsys, "verify", "A1", "--matrix", "[[2]]", "--cache-dir", str(tmp_path)
    )
    assert code == 2  # both at once
    code, _, _ = run_cli(
        capsys, "verify", "--matrix", "[[3,0],[1,2]]", "--cache-dir", str(tmp_path)
    )
    assert code == 2  # matrix without group
    code, _, err = run_cli(capsys, "verify", "A2", "--group", "1/3", "--cache-dir", str(tmp_path))
    assert code == 2  # group without matrix: it would be ignored
    assert "verify --group needs --matrix" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:  # argparse usage error, the option is gone
        main(["verify", "D5t", "--threads", "4", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 4" in err
    assert "usage: hmskit verify" in err  # the subcommand's usage, not the top-level one


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process; a usage error on it leaves
    # nothing behind for the next call
    def calls(cache_dir):
        return [
            ["grade", "D4t"],
            ["verify", "A2", "--bogus", "--cache-dir", cache_dir],
            ["verify", "A2", "--cache-dir", cache_dir, "--quiet"],
        ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [run(argv) for argv in calls(str(tmp_path / "shared"))]
    assert hmscli._build_parser() is hmscli._build_parser()
    fresh = []
    for argv in calls(str(tmp_path / "fresh")):
        hmscli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert "unrecognized arguments: --bogus" in shared[1][2]
    assert shared == fresh


def test_main_runs_a_rebound_subcommand(capsys, monkeypatch):
    # the parser is built, and cached, before the rebinding; main still
    # calls the function that hmscli.cmd_grade names when it is called
    hmscli._build_parser()
    calls = []
    monkeypatch.setattr(hmscli, "cmd_grade", lambda args: calls.append(args.input) or 0)
    assert main(["grade", "A2"]) == 0
    assert calls == ["A2"]
    assert capsys.readouterr().out == ""


def test_verify_quotient_graded_matrix_mode(tmp_path, capsys):
    # same polynomial the intrinsic route refuses, graded by an explicit
    # symmetry group; for even n the cofactor splits over the Gaussian
    # integers and the table matches the four-vertex quiver over Q(i)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--matrix", "[[3,0],[1,2]]",
        "--group", "1/3,1/3",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    assert code == 0
    r = json.loads(out)
    assert r["verdict"] == "match"
    assert r["first_difference"] is None
    assert r["input"]["field"] == "Q(i)"
    assert r["bside"]["objects"] == [
        "R/(x+i*y)", "R/(x-i*y)", "R/(x)(-1)", "R/(x^2+y^2)(-2)"
    ]
    _, warm, _ = run_cli(
        capsys,
        "verify",
        "--matrix", "[[3,0],[1,2]]",
        "--group", "1/3,1/3",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    assert warm == out  # the Q(i) table replays byte for byte
    # for odd n the cofactor stays irreducible even over C: the route keeps
    # its rational collection, and the table is an honest mismatch
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--matrix", "[[4,0],[1,2]]",
        "--group", "1/4,3/8",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    assert code == 1
    r = json.loads(out)
    assert r["verdict"] == "mismatch"
    assert r["input"]["field"] == "Q"
    assert r["bside"]["objects"] == [
        "R/(x)", "R/(x^3+y^2)", "R/m(0)", "R/m(-1)", "R/m(-2)"
    ]
    # no document predicts a quiver for a group other than the one J
    # generates: the route refuses it instead of comparing against D4
    code, out, err = run_cli(
        capsys,
        "verify",
        "--matrix", "[[3,0],[1,2]]",
        "--group", "1/3,1/3;0,1/2",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    assert code == 3
    assert out == ""
    assert "no A side is known for the group" in err
    assert "generated by J = 1/3,1/3" in err


def test_verify_cache_key_names_the_field(tmp_path, capsys):
    # a table stored under the request without a coefficient field (the key
    # a rational-only build used) is never replayed for the Q(i) table
    from hmskit import __version__

    group = ["0,0", "1/3,1/3", "2/3,2/3"]
    stale = {
        "command": "ext_table",
        "version": __version__,
        "input": {"matrix": [[3, 0], [1, 2]], "group": group},
        "window": [-4, 4],
    }
    cache = TableCache(str(tmp_path))
    poisoned = {"objects": [], "window": [-4, 4], "entries": [[0, 2, 0, 1]]}
    cache.store(request_key(stale), poisoned)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--matrix", "[[3,0],[1,2]]",
        "--group", "1/3,1/3",
        "--cache-dir", str(tmp_path),
        "--quiet",
    )
    assert code == 0
    r = json.loads(out)
    assert r["input"] == {"matrix": [[3, 0], [1, 2]], "group": group, "field": "Q(i)"}
    fresh = dict(stale, input=r["input"])
    assert cache.load(request_key(fresh)) == r["bside"]


@pytest.mark.parametrize(
    "entry",
    [
        b'{"x":1}',
        b'{"objects":[],"window":[-4,4],"entries":[[0,0,0,5]]}',
        b"\xff\xfe not utf-8",
    ],
    ids=["missing-keys", "poisoned-entries", "not-utf8"],
)
def test_verify_replaces_malformed_cache_entry(tmp_path, capsys, entry):
    cache_dir = tmp_path / "cache"
    code, cold, _ = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir), "--quiet")
    assert code == 0
    (path,) = cache_dir.iterdir()
    stored = path.read_bytes()
    path.write_bytes(entry)

    code, out, err = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir))
    assert code == 0
    assert out == cold
    assert json.loads(out)["verdict"] == "match"
    if entry.startswith(b"{"):
        assert err.count("malformed cache entry") == 1
    assert "Traceback" not in err
    assert path.read_bytes() == stored  # the entry was overwritten

    code, warm, err = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir))
    assert code == 0
    assert warm == cold
    assert "from cache" in err and "malformed" not in err


def test_verify_recomputes_a_cached_table_that_mismatches(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, cold, _ = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir), "--quiet")
    assert code == 0
    (path,) = cache_dir.iterdir()
    stored = path.read_bytes()
    cache, key = TableCache(str(cache_dir)), path.stem
    payload = cache.load(key)
    payload["entries"][0][3] = 5  # well shaped, wrong value
    cache.store(key, payload)  # restamped, so the entry is loaded
    assert cache.load(key) == payload

    code, out, err = run_cli(capsys, "verify", "A2", "--cache-dir", str(cache_dir))
    assert code == 0
    assert out == cold
    assert json.loads(out)["verdict"] == "match"
    lines = err.splitlines()
    assert f"hmskit: cached table disagrees with the a side (key {key[:12]}), recomputing" in lines
    assert not any("stamp" in line or "malformed" in line for line in lines)
    assert "computed" in err
    assert path.read_bytes() == stored  # the entry was overwritten


def test_verify_of_an_oversized_cell_exits_with_the_resource_code(tmp_path, capsys, monkeypatch):
    # with the bound lowered below D4t's largest cell, the table stops
    # before that cell is assembled: exit 4, one line on stderr, no report
    # and no cache entry
    monkeypatch.setattr(matfac, "MAX_CELL_DIM", 8)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "verify", "D4t", "--cache-dir", str(cache_dir))
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    (line,) = [l for l in err.splitlines() if l.startswith("hmskit: error:")]
    assert "above the limit 8" in line
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


def test_verify_of_an_oversized_walk_exits_with_the_resource_code(tmp_path, capsys, monkeypatch):
    # the largest walk of the D4t table lays out cells of 170 dimensions in
    # all; with the bound one below, the walk stops before it assembles a
    # boundary: exit 4, one line on stderr, no report and no cache entry
    monkeypatch.setattr(matfac, "MAX_ROW_DIM", 169)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "verify", "D4t", "--cache-dir", str(cache_dir))
    assert (code, out) == (4, "")
    assert "Traceback" not in err
    (line,) = [l for l in err.splitlines() if l.startswith("hmskit: error:")]
    assert line == "hmskit: error: hom walk over 9 shifts reaches dimension 170, above the limit 169"
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


def test_verify_of_a_huge_window_exits_before_any_cell_key(tmp_path, capsys, monkeypatch):
    # --window 10**30 asks for walks of 2 * 10**30 + 3 cells, more than
    # len() can count: exit 4, one line on stderr, no report and no cache
    # entry, and no cell key is derived
    def refuse(*args):
        raise AssertionError("a cell key was derived")

    monkeypatch.setattr(matfac, "_cell_key", refuse)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "verify", "A1", "--window", str(10**30), "--cache-dir", str(cache_dir))
    assert (code, out) == (4, "")
    assert err.splitlines() == [f"hmskit: error: hom walk of more than {matfac.MAX_ROW_DIM} cells"]
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


def test_verify_of_too_many_objects_exits_before_the_a_side(tmp_path, capsys, monkeypatch):
    # A99999 is refused from its atom's collection size: exit 4, one line on
    # stderr, no report and no cache entry, and no A side is built
    def refuse(quivers):
        raise AssertionError("the A side was built")

    monkeypatch.setattr(hmscli, "tensor_model", refuse)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "verify", "A99999", "--cache-dir", str(cache_dir))
    assert (code, out) == (4, "")
    assert err.splitlines() == ["hmskit: error: collection has 99999 objects, above the limit 256"]
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


def test_matrix_mode_of_too_many_objects_exits_before_grading(tmp_path, capsys, monkeypatch):
    # D301 has 301 objects, a count known from the matrix alone: exit 4,
    # one line on stderr, no report and no cache entry, and no grading
    def refuse(*args):
        raise AssertionError("m_grading was called")

    monkeypatch.setattr(factorization, "m_grading", refuse)
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(
        capsys, "verify", "--matrix", "[[300,0],[1,2]]", "--group", "1/300,299/600", "--cache-dir", str(cache_dir)
    )
    assert (code, out) == (4, "")
    assert err.splitlines() == ["hmskit: error: collection has 301 objects, above the limit 256"]
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


@pytest.mark.parametrize("limit, code", [(8, 0), (7, 4)])
def test_generators_of_too_many_objects_exits_with_the_resource_code(limit, code, capsys, monkeypatch):
    # A2+D4t has 2 * 4 = 8 objects
    monkeypatch.setattr(factorization, "MAX_OBJECTS", limit)
    got, out, err = run_cli(capsys, "generators", "A2+D4t")
    assert got == code
    if code:
        assert out == "" and err == "hmskit: error: collection has 8 objects, above the limit 7\n"
    else:
        assert json.loads(out)["count"] == 8


@pytest.mark.parametrize("limit, code", [(3, 0), (2, 4)])
def test_transpose_of_too_large_a_group_exits_with_the_resource_code(limit, code, capsys, monkeypatch):
    # the dual group of 1/2,1/2 on x^3 y + y^2 has 3 elements, and no more
    # than MAX_GROUP_ORDER are listed
    monkeypatch.setattr(symmetry, "MAX_GROUP_ORDER", limit)
    got, out, err = run_cli(capsys, "transpose", "[[3,1],[0,2]]", "--group", "1/2,1/2")
    assert got == code
    if code:
        assert out == "" and err == "hmskit: error: group has 3 elements, above the limit 2\n"
    else:
        assert json.loads(out)["m_grading"]["degc"] == 3


_BENCH_MODELS = ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t"]


@pytest.fixture(scope="module")
def bench_cache(tmp_path_factory):
    """A cache filled by a cold verify of each bench model, and its reports."""
    cache_dir = str(tmp_path_factory.mktemp("bench-cache"))
    reports = {}
    for name in _BENCH_MODELS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", name, "--cache-dir", cache_dir, "--quiet"]) == 0
        reports[name] = out.getvalue()
    return cache_dir, reports


def _count_builds(monkeypatch):
    """Count factorizations constructed, tensor_mf calls and model
    polynomials computed from now on.  A model polynomial starts from the
    zero polynomial that polyforms builds."""
    counts = {"objects": 0, "tensors": 0, "polys": 0}
    init, tensor = factorization.MatrixFactorization.__init__, matfac.tensor_mf
    poly = polyforms.Poly

    class CountedPoly(poly):
        @classmethod
        def zero(cls, nvars):
            counts["polys"] += 1
            return poly.zero(nvars)

    def counted_init(self, *args, **kwargs):
        counts["objects"] += 1
        init(self, *args, **kwargs)

    def counted_tensor(*args):
        counts["tensors"] += 1
        return tensor(*args)

    monkeypatch.setattr(factorization.MatrixFactorization, "__init__", counted_init)
    monkeypatch.setattr(matfac, "tensor_mf", counted_tensor)
    monkeypatch.setattr(polyforms, "Poly", CountedPoly)
    return counts


@pytest.mark.parametrize("name", _BENCH_MODELS)
def test_warm_verify_builds_no_factorization(name, bench_cache, capsys, monkeypatch):
    cache_dir, cold = bench_cache
    counts = _count_builds(monkeypatch)
    code, warm, err = run_cli(capsys, "verify", name, "--cache-dir", cache_dir)
    assert code == 0 and warm == cold[name]
    assert "from cache" in err
    assert counts == {"objects": 0, "tensors": 0, "polys": 0}


# even n only: an odd n is an honest mismatch, which is never served from cache
@pytest.mark.parametrize("matrix, group", [("[[3,0],[1,2]]", "1/3,1/3"), ("[[5,0],[1,2]]", "1/5,2/5")])
def test_warm_matrix_mode_verify_builds_no_factorization(matrix, group, tmp_path, capsys, monkeypatch):
    argv = ["verify", "--matrix", matrix, "--group", group, "--cache-dir", str(tmp_path)]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    counts, gradings = _count_builds(monkeypatch), []
    grade = factorization.m_grading
    monkeypatch.setattr(factorization, "m_grading", lambda *args: gradings.append(args) or grade(*args))
    code, warm, err = run_cli(capsys, *argv)
    assert code == 0 and warm == cold
    assert "from cache" in err
    assert counts == {"objects": 0, "tensors": 0, "polys": 0} and gradings == []


@pytest.mark.parametrize(
    "damage", ["absent", "unreadable", "other-labels", "other-window", "extra-key", "dropped-entry", "stale", "disagrees"]
)
def test_a_table_computed_in_the_run_builds_the_collection_once(damage, tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    code, cold, _ = run_cli(capsys, "verify", "A2+D4t", "--cache-dir", str(cache_dir), "--quiet")
    assert code == 0
    (path,) = cache_dir.iterdir()
    cache = TableCache(str(cache_dir))
    table = cache.load(path.stem)
    entry = json.loads(path.read_text(encoding="utf-8"))
    if damage == "absent":
        path.unlink()
    elif damage == "unreadable":
        path.write_bytes(b"{not json")
    elif damage == "other-labels":  # stamped, but not this request's objects
        cache.store(path.stem, {**table, "objects": table["objects"][::-1]})
    elif damage == "other-window":  # stamped, but not this request's window
        cache.store(path.stem, {**table, "window": [-3, 3]})
    elif damage == "extra-key":  # stamped, with a key no table has
        cache.store(path.stem, {**table, "note": 1})
    elif damage == "dropped-entry":  # stamped, with one entry left out
        cache.store(path.stem, {**table, "entries": table["entries"][1:]})
    elif damage == "stale":
        path.write_text(json.dumps({**entry, "stamp": {**entry["stamp"], "sha256": "0" * 64}}), encoding="utf-8")
    else:  # stamped and well shaped, but not the a side's table
        entries = [list(e) for e in table["entries"]]
        entries[0][3] += 1
        cache.store(path.stem, {**table, "entries": entries})
    builds, namings = [], []
    build, name_atom = hmscli.generator_collection, matfac.atom_collection
    monkeypatch.setattr(hmscli, "generator_collection", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(matfac, "atom_collection", lambda atom: namings.append(atom) or name_atom(atom))

    code, out, err = run_cli(capsys, "verify", "A2+D4t", "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert "computed" in err and "from cache" not in err
    assert {
        "absent": "cache entry" not in err,
        "unreadable": "malformed cache entry" in err,
        "other-labels": "disagrees with the a side" in err,
        "other-window": "disagrees with the a side" in err,
        "extra-key": "disagrees with the a side" in err,
        "dropped-entry": "disagrees with the a side" in err,
        "stale": "disagrees with its stamp" in err,
        "disagrees": "disagrees with the a side" in err,
    }[damage]
    # built once, and its objects named once: two atoms, one naming each
    assert len(builds) == 1 and len(namings) == 2
    assert json.loads(path.read_text(encoding="utf-8")) == entry  # the entry was rewritten


@pytest.mark.parametrize("matrix, group", [("[[4,0],[1,2]]", "1/4,3/8"), ("[[6,0],[1,2]]", "1/6,5/12")])
def test_odd_matrix_mode_reports_its_first_difference(matrix, group, tmp_path, capsys):
    # the honest mismatch of odd n: the first (i, j, k) where the tables
    # differ, with the b-side and a-side dimensions there
    code, out, _ = run_cli(
        capsys, "verify", "--matrix", matrix, "--group", group, "--cache-dir", str(tmp_path), "--quiet"
    )
    assert code == 1
    assert json.loads(out)["first_difference"] == [0, 2, 0, 1, 0]


def test_cached_table_cannot_turn_a_mismatch_into_a_match(tmp_path, capsys):
    # an entry whose entries were replaced by the A side's would replay as
    # a match if it were trusted; its stamp no longer fits, so it is redone
    cache_dir = tmp_path / "cache"
    args = ["verify", "--matrix", "[[4,0],[1,2]]", "--group", "1/4,3/8", "--cache-dir", str(cache_dir)]
    code, cold, _ = run_cli(capsys, *args, "--quiet")
    assert code == 1 and json.loads(cold)["verdict"] == "mismatch"
    (path,) = cache_dir.iterdir()
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["entries"] = json.loads(cold)["aside"]["entries"]
    path.write_text(json.dumps(entry), encoding="utf-8")

    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == cold
    assert "disagrees with its stamp" in err and "computed" in err


def test_verify_json_flag_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "A1", "--json", str(target),
        "--cache-dir", str(tmp_path / "c"), "--quiet",
    )
    assert code == 0
    assert target.read_text() == out


def test_verify_json_to_an_unwritable_path_is_unsupported(tmp_path, capsys):
    # exit 1 would read as a mismatch; the report still goes to stdout
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(tmp_path / "c")
    _, report, _ = run_cli(capsys, "verify", "A1", "--cache-dir", cache_dir)
    code, out, err = run_cli(capsys, "verify", "A1", "--json", str(blocker / "r.json"), "--cache-dir", cache_dir)
    assert code == 3
    assert out == report
    assert f"cannot write report to {blocker / 'r.json'}" in err and "Traceback" not in err


@pytest.mark.parametrize("with_json", [False, True])
def test_verify_to_a_closed_stdout_is_unsupported(with_json, tmp_path):
    # the reader closes the pipe before the report is written, as `| head
    # -c 0` can: exit 3, not 1 (a mismatch) or 120 (a failed flush at exit),
    # one error line and no traceback; a --json report is still written
    src = Path(hmscli.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); from hmskit.hmscli import main; sys.exit(main(sys.argv[1:]))"
    report = tmp_path / "report.json"
    argv = ["verify", "D4t", "--cache-dir", str(tmp_path / "c"), "--quiet"] + (["--json", str(report)] if with_json else [])
    proc = subprocess.Popen(
        [sys.executable, "-I", "-B", "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3
    assert err == "hmskit: error: cannot write report to stdout: Broken pipe\n"
    assert report.exists() == with_json
    if with_json:
        assert json.loads(report.read_text(encoding="utf-8"))["verdict"] == "match"


def test_verify_with_an_unusable_cache_dir_reports_as_with_a_cache(tmp_path, capsys):
    # a cache directory under a regular file can neither hold nor give an
    # entry: a plain miss, and a store that fails without touching the verdict
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, _ = run_cli(capsys, "verify", "A2+A2", "--cache-dir", str(tmp_path / "c"))
    bad_code, bad_out, err = run_cli(capsys, "verify", "A2+A2", "--cache-dir", str(blocker / "c"))
    assert (bad_code, bad_out) == (code, out) == (0, out)
    assert "cannot write cache entry" in err and "Traceback" not in err
    assert "malformed" not in err


# -------------------------------------------------------------- transpose


def test_transpose_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "transpose", "[[3,1],[0,2]]", "--group", "1/2,1/2", "--quiet"
    )
    assert code == 0
    r = json.loads(out)
    assert r["input"]["poly"] == "x^3*y + y^2"
    assert r["input"]["is_sl"] is True
    assert r["transpose"]["poly"] == "x^3 + x*y^2"
    assert r["transpose"]["group"] == ["0,0", "1/3,1/3", "2/3,2/3"]
    assert r["m_grading"] == {"rank": 1, "torsion": [], "deg": [1, 1], "degc": 3}


def test_transpose_degenerate_groups(capsys):
    code, out, _ = run_cli(capsys, "transpose", "[[3]]", "--group", "", "--quiet")
    assert code == 0
    r = json.loads(out)
    assert r["transpose"]["group_order"] == 3  # trivial group dualizes to everything

    code, out, _ = run_cli(capsys, "transpose", "[[3]]", "--group", "1/3", "--quiet")
    assert code == 0
    r = json.loads(out)
    assert r["transpose"]["group_order"] == 1  # and the full group to the trivial one
    assert r["m_grading"] is None  # no quotient grading when the input is not SL


def test_transpose_error_codes(capsys):
    code, _, _ = run_cli(capsys, "transpose", "[[3]]", "--group", "1/2")
    assert code == 3  # not a symmetry of x^3
    code, _, _ = run_cli(capsys, "transpose", "[[3]]", "--group", "1/2,1/2")
    assert code == 2  # wrong arity
    code, _, _ = run_cli(capsys, "transpose", "[[0]]", "--group", "")
    assert code == 3  # singular


# ------------------------------------------------------------------- gmax


def test_gmax_report(capsys):
    code, out, _ = run_cli(capsys, "gmax", "D4t", "--quiet")
    assert code == 0
    r = json.loads(out)
    assert r["order"] == 6
    assert r["j"] == "1/6,1/2"
    assert r["is_sl"] is False
    assert len(r["elements"]) == 6


# ----------------------------------------------------------------- mutate


def test_mutate_preserves_coxeter_polynomial(capsys):
    code, out, _ = run_cli(capsys, "mutate", "A5", "1", "2", "3", "--quiet")
    assert code == 0
    r = json.loads(out)
    assert r["coxeter_invariant"] is True
    assert r["coxeter_before"] == r["coxeter_after"]
    assert r["euler_before"] != r["euler_after"]

    code, out, _ = run_cli(
        capsys, "mutate", "D5", "2", "2", "--direction", "left", "--quiet"
    )
    assert code == 0
    r = json.loads(out)
    # left mutation twice at one slot undoes itself only for involutive
    # coefficients; the coxeter class is still preserved
    assert r["coxeter_invariant"] is True


def test_mutate_error_codes(capsys):
    code, _, _ = run_cli(capsys, "mutate", "A5", "9")
    assert code == 3
    code, _, _ = run_cli(capsys, "mutate", "A2+A2", "1")
    assert code == 3


# ------------------------------------------------------------ determinism


def test_reports_are_deterministic(tmp_path, capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(
            capsys, "verify", "A2+A2", "--cache-dir", str(tmp_path), "--quiet"
        )
        outs.add(out)
    assert len(outs) == 1


_SCALAR = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
)
_INT_ROW = st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=4)


@st.composite
def _table(draw):
    """Equal-length int rows, as lists or tuples, sometimes with a bool."""
    width = draw(st.integers(0, 4))
    row = st.lists(st.integers(-(10**20), 10**20), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=5))
    if rows and width and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = [draw(st.booleans()), *rows[at][1:]]
    return rows


_VALUE = st.recursive(
    st.one_of(_SCALAR, _table(), _INT_ROW),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_VALUE)
@example({"entries": [[0, 0, 0, 1], [0, 1, 1, 2]], "": {}, "\u00e9\x00": [[], ()], "t": [[True, 1], [2, 3]]})
def test_indented_report_text_is_jsons(value):
    assert hmscli._dumps_indented(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["grade", "A2+D4t"],
        ["generators", "D4t"],
        ["verify", "A2+A2", "--quiet"],
        ["verify", "--matrix", "[[4,0],[1,2]]", "--group", "1/4,3/8", "--quiet"],
        ["transpose", "[[3,0],[1,2]]", "--group", "1/3,1/3"],
        ["gmax", "A2+A3"],
        ["mutate", "D5", "1", "2"],
    ],
)
def test_every_report_is_jsons_indented_text(argv, tmp_path, capsys):
    if argv[0] == "verify":
        argv = [*argv, "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------- fuzz

# junk without digits can never be a well-formed model, so the verify runs
# below stay tiny; the digit alphabets stay short, so no group is huge.
# Lowered bounds on objects, cells and walks make the tiny runs reach exit 4.
_JUNK = st.text(alphabet="ADt+[]{},;:/ -xy\"\\\u00e9\x00", max_size=10)
_ATOM = st.builds("{}{}{}".format, st.sampled_from("AD"), st.integers(0, 4), st.sampled_from(["", "t"]))
_SUM = st.lists(_ATOM, min_size=1, max_size=2).map("+".join)
_MODEL = st.one_of(_SUM, _SUM, _JUNK)
_MATRIX = st.one_of(
    st.lists(st.lists(st.integers(-1, 4), min_size=1, max_size=2), min_size=1, max_size=2).map(json.dumps),
    st.text(alphabet="[],0123-. ", max_size=9),
    _JUNK,
)
_FRACTION = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/8", "-1/5", "1/0", "x"])
_GROUP = st.one_of(
    st.lists(st.lists(_FRACTION, min_size=1, max_size=2).map(",".join), max_size=2).map(";".join),
    st.text(alphabet="0123456789/,; -.", max_size=5),
)
_WINDOW = st.sampled_from(["-1", "0", "1", "2", "x"])
_PAIRS = [("[[3,0],[1,2]]", "1/3,1/3"), ("[[4,0],[1,2]]", "1/4,3/8")]
_LIMITS = st.sampled_from(
    [
        {},
        {},
        {"MAX_OBJECTS": 1},
        {"MAX_CELL_DIM": 2},
        {"MAX_OBJECTS": 3, "MAX_CELL_DIM": 12},
        {"MAX_ROW_DIM": 16},
        {"MAX_GROUP_ORDER": 2},
    ]
)
_BOUND_OWNERS = {
    "MAX_OBJECTS": factorization, "MAX_CELL_DIM": matfac, "MAX_ROW_DIM": matfac, "MAX_GROUP_ORDER": symmetry,
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["grade", "gmax", "generators", "transpose", "verify"]))
    if command in ("grade", "gmax", "generators"):
        argv = [command, draw(st.one_of(_MODEL, _MATRIX))]
    elif command == "transpose":
        argv = [command, draw(_MATRIX), "--group", draw(_GROUP)]
    elif draw(st.booleans()):
        argv = [command, draw(_MODEL), "--window", draw(_WINDOW)]
    else:
        # the pairs of the matrix-mode tests (a match over Q(i) and an
        # honest mismatch), or random ones
        matrix, group = draw(st.one_of(st.sampled_from(_PAIRS), st.tuples(_MATRIX, _GROUP)))
        argv = [command, "--matrix", matrix, "--group", group, "--window", draw(_WINDOW)]
    argv += draw(st.sampled_from([[], [], [], ["--quiet"], ["--bogus"], ["--group"]]))
    # report paths and cache directories stand in as names until the test
    # places them: a writable one, or one under a regular file
    argv += draw(st.sampled_from([[], [], ["--json", "REPORT"], ["--json", "UNDER_FILE"]]))
    if command == "verify":
        argv += ["--cache-dir", draw(st.sampled_from(["CACHE", "CACHE", "UNDER_FILE"]))]
    return argv


def _exit_code(call):
    """Exit code of a CLI call, with stdout and stderr captured; any
    exception other than SystemExit escapes and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(st.one_of(_MODEL, _MATRIX), _GROUP, st.integers(1, 3))
def test_parsers_fail_only_with_cli_errors(text, group, n):
    for parse in (_build_model, _parse_matrix):
        try:
            parse(text)
        except CLIError as exc:
            assert exc.code in (2, 3)
    try:
        parse_group_string(group, n)
    except SymmetryError:
        pass


@settings(max_examples=150, deadline=None)
@given(_argv(), _LIMITS)
# one refusal of each kind on every run: too many objects (of a model and
# of matrix mode), an oversized cell, an oversized walk, too large a group
@example(["generators", "A2+A2"], {"MAX_OBJECTS": 3})
@example(["verify", "--matrix", "[[3,0],[1,2]]", "--group", "1/3,1/3", "--cache-dir", "CACHE"], {"MAX_OBJECTS": 3})
@example(["verify", "D4t", "--window", "1", "--cache-dir", "CACHE"], {"MAX_CELL_DIM": 2})
@example(["verify", "A2+A2", "--window", "1", "--cache-dir", "CACHE"], {"MAX_ROW_DIM": 16})
@example(["transpose", "[[3,1],[0,2]]", "--group", "1/2,1/2"], {"MAX_GROUP_ORDER": 2})
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, argv, limits):
    base = tmp_path_factory.getbasetemp()
    blocker = base / "fuzz-file"
    blocker.write_text("")
    places = {
        "REPORT": str(base / "fuzz-report.json"),
        "CACHE": str(base / "fuzz-cache"),
        "UNDER_FILE": str(blocker / "x"),
    }
    argv = [places.get(a, a) for a in argv]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in limits.items():
            mp.setattr(_BOUND_OWNERS[name], name, value)
        code = _exit_code(lambda: main(argv))
    assert code in range(5), argv
    # the models drawn here are far below the package's own bounds
    assert code != 4 or limits, argv
