"""Command line front end.

Subcommands: grade, generators, verify, transpose, gmax, mutate.  Reports are
deterministic JSON on stdout; timings and cache notes go to stderr so that the
same input always produces byte-identical report text.
"""

import argparse
import functools
import itertools
import json
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .cache import TableCache, request_key, resolve_cache_dir
from .factorization import MFError, ResourceLimitError, element_to_json, mf_to_json, quotient_graded_collection
from .grading import GradingError, m_grading
from .matfac import collection_plan, ext_table, generator_collection
from .polyforms import PolyFormError, build, parse_model
from .polyforms import transpose as transpose_model
from .quivercat import (
    QuiverError,
    coxeter_polynomial,
    dynkin_quiver,
    euler_matrix,
    mutate_collection,
    tensor_model,
)
from .symmetry import (
    SymmetryError,
    format_element,
    gmax,
    is_sl,
    j_element,
    krawitz_transpose,
    parse_group_string,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4

# stated in every verification report: what a "match" does and does not claim
LIMITATIONS = (
    "tables compare hom dimensions over a finite shift window between fixed "
    "generator collections; a match is a dimension-level witness, not a proof "
    "of the underlying equivalence, and collections are compared without "
    "passing to idempotent completion; dimensions are over the field named "
    "by input.field: Q, or Q(i) when a collection object has Gaussian-integer "
    "coefficients"
)

_EXPR_RE = re.compile(r"^[AD]\d+t?(\+[AD]\d+t?)*$")


class CLIError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_matrix(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(EXIT_PARSE, f"cannot parse matrix: {exc}") from None
    if (
        not isinstance(data, list)
        or not data
        or not all(isinstance(row, list) for row in data)
    ):
        raise CLIError(EXIT_PARSE, "matrix must be a JSON list of rows")
    out = []
    for row in data:
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise CLIError(EXIT_PARSE, "matrix entries must be integers")
        out.append([int(e) for e in row])
    return out


def _build_model(text):
    """Atom expression like 'A2+D4t', or a JSON exponent matrix."""
    text = text.strip()
    if text.startswith("["):
        a = _parse_matrix(text)
        try:
            return build(a), {"matrix": a}
        except PolyFormError as exc:
            # well-formed JSON but not a usable model (singular, wrong shape)
            raise CLIError(EXIT_UNSUPPORTED, str(exc)) from None
    expr = re.sub(r"\s+", "", text)
    if not _EXPR_RE.match(expr):
        raise CLIError(EXIT_PARSE, f"cannot parse model expression: {text!r}")
    try:
        return parse_model(expr), {"model": expr}
    except PolyFormError as exc:
        raise CLIError(EXIT_UNSUPPORTED, str(exc)) from None


def _dumps_indented(o, indent="\n"):
    """json.dumps(o, sort_keys=True, indent=2), byte for byte, for dicts with
    str keys, lists, tuples and json scalars.  Each row of a table of
    equal-length rows of plain ints is written with one %-format; a single
    format over the whole table raised the peak resident memory of a few
    thousand reports by 0.5-1 MB."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:
        return "%d" % o
    inner = indent + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps_indented(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(o, (list, tuple)):
        return json.dumps(o)
    if not o:
        return "[]"
    if {*map(type, o)} <= {list, tuple} and len({*map(len, o)}) == 1 and {*map(type, itertools.chain(*o))} == {int}:
        deeper = inner + "  "
        row = "[" + deeper + ("%d," + deeper) * (len(o[0]) - 1) + "%d" + inner + "]"
        return "[" + inner + ("," + inner).join([row % tuple(r) for r in o]) + indent + "]"
    return "[" + inner + ("," + inner).join([_dumps_indented(v, inner) for v in o]) + indent + "]"


def _emit(report, json_path):
    """Write the report to stdout and, if asked, to json_path.  Either write
    failing is exit 3, after both are tried: a closed stdout still gets its
    --json file."""
    text = _dumps_indented(report) + "\n"
    failed = None
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader has gone; as the Python docs advise for SIGPIPE, point
        # stdout at devnull so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        failed = f"cannot write report to stdout: {exc.strerror}"
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            failed = f"cannot write report to {json_path}: {exc.strerror or exc}"
    if failed:
        raise CLIError(EXIT_UNSUPPORTED, failed)


def _diag(args, message):
    if not getattr(args, "quiet", False):
        print(f"hmskit: {message}", file=sys.stderr)


def _grading_json(ctx):
    return {
        "rank": ctx.free_rank,
        "torsion": list(ctx.torsion),
        "deg": [element_to_json(d) for d in ctx.deg_x],
        "degc": element_to_json(ctx.deg_c),
    }


# ----------------------------------------------------------------- grade


def cmd_grade(args):
    p, desc = _build_model(args.input)
    report = {"schema": 1, "version": __version__, "input": desc}
    report.update(_grading_json(p.ctx))
    _emit(report, args.json)
    return EXIT_OK


# ------------------------------------------------------------ generators


def cmd_generators(args):
    p, desc = _build_model(args.input)
    col = generator_collection(p)
    report = {
        "schema": 1,
        "version": __version__,
        "input": desc,
        "count": len(col),
        "objects": [{"label": label, **mf_to_json(k)} for label, k in col],
    }
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _table_json(objects, window, table):
    """A table over the shifts |k| <= window as reports and cache entries
    hold it: object names, the window and sorted entries (i, j, k, d)."""
    return {
        "objects": list(objects),
        "window": [-window, window],
        "entries": [list(e) for e in table.entries()],
    }


def cmd_verify(args):
    if (args.input is None) == (args.matrix is None):
        raise CLIError(EXIT_PARSE, "verify needs a model expression or --matrix, not both")
    if args.window < 0:
        raise CLIError(EXIT_PARSE, "--window must be non-negative")

    if args.matrix is not None:
        if args.group is None:
            raise CLIError(EXIT_PARSE, "verify --matrix also needs --group")
        matrix = _parse_matrix(args.matrix)
        try:
            group = parse_group_string(args.group, len(matrix))
        except SymmetryError as exc:
            raise CLIError(EXIT_PARSE, str(exc)) from None
        plan, quiver = quotient_graded_collection(matrix, group)
        quivers = [quiver]
        desc = {"matrix": matrix, "group": [format_element(g) for g in group.elements()]}
    else:
        if args.group is not None:
            raise CLIError(EXIT_PARSE, "verify --group needs --matrix")
        p, desc = _build_model(args.input)
        plan = collection_plan(p)
        quivers = [dynkin_quiver(atom) for atom in p.atoms]

    # named now, built only if the table is computed in this run
    labels = plan.labels
    desc["field"] = plan.field
    model = tensor_model(quivers).restrict_window(args.window)
    aside_objects = ["|".join(obj) for obj in model.objects]
    if len(aside_objects) != len(labels):
        raise CLIError(EXIT_UNSUPPORTED, "generator and vertex counts disagree")
    aside = _table_json(aside_objects, args.window, model)
    # the b-side table that a match needs; a cached table is used only when
    # it is this one, so a mismatch is only reported from a table computed
    # in this run
    predicted = {**aside, "objects": list(labels)}

    request = {
        "command": "ext_table",
        "version": __version__,
        "input": desc,
        "window": aside["window"],
    }
    key = request_key(request)
    cache = TableCache(resolve_cache_dir(args.cache_dir))
    payload = cache.load(key)
    if cache.rejected == "malformed":
        _diag(args, f"ignoring malformed cache entry (key {key[:12]}), recomputing")
    elif cache.rejected == "stale":
        _diag(args, f"cache entry disagrees with its stamp (key {key[:12]}), recomputing")
    elif payload == predicted:
        _diag(args, f"b-side table from cache (key {key[:12]})")
    elif payload is not None:
        _diag(args, f"cached table disagrees with the a side (key {key[:12]}), recomputing")
    if payload != predicted:
        started = time.perf_counter()
        table = ext_table(generator_collection(None, plan), args.window)
        payload = _table_json(table.objects, args.window, table)
        try:
            cache.store(key, payload)
        except OSError as exc:
            # the table is still exact; only the next run loses the entry
            _diag(args, f"cannot write cache entry (key {key[:12]}): {exc.strerror or exc}")
        _diag(args, f"b-side table computed in {time.perf_counter() - started:.2f}s (key {key[:12]})")

    first = None
    if payload["entries"] != aside["entries"]:
        adims = {(i, j, k): d for i, j, k, d in aside["entries"]}
        bdims = {(i, j, k): d for i, j, k, d in payload["entries"]}
        first = next(
            [*ijk, bdims.get(ijk, 0), adims.get(ijk, 0)]
            for ijk in sorted(bdims.keys() | adims.keys())
            if bdims.get(ijk, 0) != adims.get(ijk, 0)
        )

    report = {
        "schema": 1,
        "version": __version__,
        "input": desc,
        "window": aside["window"],
        "bside": payload,
        "aside": aside,
        "object_assignment": {
            label: aside_objects[idx] for idx, label in enumerate(labels)
        },
        "verdict": "match" if first is None else "mismatch",
        "first_difference": first,
        "limitations": LIMITATIONS,
    }
    _emit(report, args.json)
    return EXIT_OK if first is None else EXIT_MISMATCH


# ------------------------------------------------------------- transpose


def cmd_transpose(args):
    a = _parse_matrix(args.matrix)
    n = len(a)
    try:
        group = parse_group_string(args.group, n)
    except SymmetryError as exc:
        raise CLIError(EXIT_PARSE, str(exc)) from None
    p = build(a)
    gstar = krawitz_transpose(a, group)
    pt = transpose_model(p)
    try:
        grading = _grading_json(m_grading(pt.matrix, gstar))
    except GradingError:
        # the transposed pair only carries this grading when the input
        # group lies in the special linear part
        grading = None
    report = {
        "schema": 1,
        "version": __version__,
        "input": {
            "matrix": a,
            "poly": p.poly.format(),
            "group": [format_element(g) for g in group.elements()],
            "group_order": group.order,
            "is_sl": is_sl(group),
        },
        "transpose": {
            "matrix": pt.matrix,
            "poly": pt.poly.format(),
            "group": [format_element(g) for g in gstar.elements()],
            "group_order": gstar.order,
        },
        "m_grading": grading,
    }
    _emit(report, args.json)
    return EXIT_OK


# ------------------------------------------------------------------ gmax


def cmd_gmax(args):
    p, desc = _build_model(args.input)
    g = gmax(p.matrix)
    j = j_element(p.matrix)
    report = {
        "schema": 1,
        "version": __version__,
        "input": desc,
        "order": g.order,
        "elements": [format_element(e) for e in g.elements()],
        "j": format_element(j),
        "is_sl": is_sl(g),
    }
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- mutate


def cmd_mutate(args):
    p, desc = _build_model(args.input)
    if len(p.atoms) != 1:
        raise CLIError(EXIT_UNSUPPORTED, "mutations act on a single atom's collection")
    q = dynkin_quiver(p.atoms[0])
    before = euler_matrix(q)
    after = before
    for pos in args.positions:
        after = mutate_collection(after, pos, args.direction)
    cox_before = coxeter_polynomial(before)
    cox_after = coxeter_polynomial(after)
    report = {
        "schema": 1,
        "version": __version__,
        "input": {**desc, "positions": list(args.positions), "direction": args.direction},
        "euler_before": before,
        "euler_after": after,
        "coxeter_before": cox_before,
        "coxeter_after": cox_after,
        "coxeter_invariant": cox_before == cox_after,
    }
    _emit(report, args.json)
    return EXIT_OK


# ------------------------------------------------------------------ main


def _add_common(sp):
    sp.add_argument("--json", metavar="PATH", default=None, help="also write the report to PATH")
    sp.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
    sp.set_defaults(parser=sp)


@functools.cache  # parsing writes only to the namespace, so one parser serves every call
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hmskit",
        description="Exact verification of hom-dimension tables for graded "
        "matrix factorizations against quiver models.",
    )
    ap.add_argument("--version", action="version", version=f"hmskit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grade", help="grading group of a model")
    g.add_argument("input", help="atom expression (e.g. D4t, A2+A2) or JSON exponent matrix")
    _add_common(g)

    gen = sub.add_parser("generators", help="serialized generator collection")
    gen.add_argument("input", help="atom expression or JSON exponent matrix")
    _add_common(gen)

    v = sub.add_parser("verify", help="compare both hom tables over a shift window")
    v.add_argument("input", nargs="?", default=None, help="atom expression")
    v.add_argument("--matrix", metavar="JSON", default=None, help="exponent matrix (with --group)")
    v.add_argument("--group", metavar="GENS", default=None, help="symmetry group generators: ';' between generators, ',' between coordinates, each an integer or a/b, e.g. '1/3,1/3'")
    v.add_argument("--window", type=int, default=4, help="compare |k| <= WINDOW (default 4)")
    v.add_argument("--cache-dir", metavar="DIR", default=None, help="table cache directory")
    _add_common(v)

    t = sub.add_parser("transpose", help="transposed polynomial and dual group")
    t.add_argument("matrix", help="JSON exponent matrix")
    t.add_argument("--group", metavar="GENS", required=True, help="symmetry group generators, as for verify --group ('' for the trivial group)")
    _add_common(t)

    gm = sub.add_parser("gmax", help="full diagonal symmetry group")
    gm.add_argument("input", help="atom expression or JSON exponent matrix")
    _add_common(gm)

    m = sub.add_parser("mutate", help="braid mutations of an Euler matrix")
    m.add_argument("input", help="single-atom expression, e.g. A5 or D5")
    m.add_argument("positions", nargs="+", type=int, help="1-based adjacent slot positions")
    m.add_argument("--direction", choices=("left", "right"), default="right")
    _add_common(m)

    return ap


def main(argv=None):
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        # reported with the usage of the subcommand, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # looked up at each call, so that a rebound cmd_* is the one that runs
    commands = {
        "grade": cmd_grade, "generators": cmd_generators, "verify": cmd_verify,
        "transpose": cmd_transpose, "gmax": cmd_gmax, "mutate": cmd_mutate,
    }
    try:
        return commands[args.command](args)
    except CLIError as exc:
        print(f"hmskit: error: {exc}", file=sys.stderr)
        return exc.code
    except ResourceLimitError as exc:
        print(f"hmskit: error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MFError, GradingError, QuiverError, SymmetryError, PolyFormError) as exc:
        print(f"hmskit: error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
