"""Per-layer tracing for the benchmark, installed from outside the package.

The traced run rebinds module attributes of hmskit to thin wrappers that
record one span per call (layer, start, end, parent span) plus a few
counters.  Nothing inside the package changes; uninstalling restores the
original attributes.  A target whose module or attribute no longer exists,
or whose arguments a counter hook no longer understands, is reported as
absent instead of failing the run.
"""

import gzip
import importlib
import json
import os
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span layer, counter key).  hmscli binds its own copies
# of the names it imports, so those are rebound in hmscli, where they are
# looked up; matfac looks its helpers up as module globals at call time.
TARGETS = [
    ("hmscli", "parse_model", "polyforms", "polyforms"),
    ("hmscli", "build", "polyforms", "polyforms"),
    ("polyforms", "parse_model", "polyforms", "polyforms"),
    ("polyforms", "build", "polyforms", "polyforms"),
    ("polyforms", "grading_group", "polyforms", "polyforms"),
    ("matfac", "build", "polyforms", "polyforms"),
    ("matfac", "grading_group", "polyforms", "polyforms"),
    ("grading", "grading_group", "polyforms", "polyforms"),
    ("hmscli", "generator_collection", "collection", "collection.build"),
    ("matfac", "generator_E", "collection", "collection.build"),
    ("matfac", "tensor_mf", "collection", "collection.tensor"),
    ("matfac", "MatrixFactorization.validate", "collection.validate", "collection.validate"),
    ("matfac", "monomials_of_degree", "monomials", "monomials"),
    ("matfac", "_boundary_columns", "assembly", "assembly"),
    ("matfac", "_int_columns", "intcols", "intcols"),
    ("matfac", "hom_dim", "hom", "hom"),
    ("matfac", "_boundary_rank", "hom", "brank"),
    ("matfac", "int_rank", "rank", "rank"),
    ("hmscli", "tensor_model", "aside", "aside"),
    ("quivercat", "BigradedTable.restrict_window", "aside", "aside"),
    ("cache", "TableCache.load", "cache.load", "cache.load"),
    ("cache", "TableCache.store", "cache.store", "cache.store"),
    ("hmscli", "cmd_verify", "cli", "cli"),
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})

# name -> unit and direction, in the order the traced run reports them
PER_LAYER = {
    "rank.self_s": ("s", "lower"),
    "rank.calls": ("count", "lower"),
    "rank.rows_max": ("count", "lower"),
    "rank.cols_max": ("count", "lower"),
    "rank.nnz_sum": ("count", "lower"),
    "rank.nnz_max": ("count", "lower"),
    "rank.useful_ratio": ("ratio", "higher"),
    "assembly.self_s": ("s", "lower"),
    "assembly.cols": ("count", "lower"),
    "intcols.self_s": ("s", "lower"),
    "monomials.calls": ("count", "lower"),
    "monomials.self_s": ("s", "lower"),
    "monomials.hit_ratio": ("ratio", "higher"),
    "hom.calls": ("count", "lower"),
    "hom.self_s": ("s", "lower"),
    "memo.hit_ratio": ("ratio", "higher"),
    "collection.self_s": ("s", "lower"),
    "collection.validate_s": ("s", "lower"),
    "collection.objects": ("count", "lower"),
    "polyforms.self_s": ("s", "lower"),
    "aside.self_s": ("s", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.bytes_read": ("B", "lower"),
    "cache.bytes_written": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
    "host.ref_s": ("s", "lower"),
}


def _file_size(cache, key):
    try:
        return os.path.getsize(cache.path_for(key))
    except (AttributeError, OSError):
        return 0


def _before_monomials(counts, args):
    # a hit is a degree already in the context's memo when the call starts
    ctx, delta = args[0], args[1]
    memo = getattr(ctx, "_mono_cache", None)
    if memo is not None and delta in memo:
        counts["monomials.hits"] += 1


def _after_rank(counts, args, result):
    rows = args[0]
    nnz = sum(len(r) for r in rows)
    cols = max((max(r) + 1 for r in rows if r), default=0)
    counts["rank.rows_sum"] += len(rows)
    counts["rank.rank_sum"] += result
    counts["rank.nnz_sum"] += nnz
    counts["rank.nnz_max"] = max(counts["rank.nnz_max"], nnz)
    counts["rank.rows_max"] = max(counts["rank.rows_max"], len(rows))
    counts["rank.cols_max"] = max(counts["rank.cols_max"], cols)


def _after_assembly(counts, args, result):
    cols = result[0] if isinstance(result, tuple) else result
    counts["assembly.cols"] += len(cols)


def _after_collection(counts, args, result):
    counts["collection.objects"] += len(result)


def _after_load(counts, args, result):
    if result is None:
        counts["cache.misses"] += 1
    else:
        counts["cache.hits"] += 1
        counts["cache.bytes_read"] += _file_size(args[0], args[1])


def _after_store(counts, args, result):
    counts["cache.bytes_written"] += _file_size(args[0], args[1])


BEFORE = {"monomials": _before_monomials}
AFTER = {
    "rank": _after_rank,
    "assembly": _after_assembly,
    "collection.build": _after_collection,
    "cache.load": _after_load,
    "cache.store": _after_store,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    Spans live in flat arrays rather than one list per span: arrays are
    invisible to the cyclic garbage collector, so keeping a pass's spans
    does not slow the collections the program itself triggers.
    """

    def __init__(self):
        self.absent = []
        self._saved = []
        self.reset()

    def reset(self):
        self.layer = array("b")  # index into LAYERS
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # span index, or -1 for a root span
        self.stack = []
        self.counts = Counter()

    def _wrap(self, fn, layer, key):
        lid = LAYERS.index(layer)
        before = BEFORE.get(key)
        after = AFTER.get(key)
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[key] += 1
            if before is not None:
                tracer.hook(before, key, args)
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.layer.append(lid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                tracer.hook(after, key, args, result)
            return result

        return traced

    def hook(self, fn, key, *args):
        """Update counters; a hook that no longer fits the program's
        signatures marks its counters absent instead of failing the call."""
        try:
            fn(self.counts, *args)
        except Exception:
            if f"{key} counters" not in self.absent:
                self.absent.append(f"{key} counters")

    def install(self):
        self.absent = []
        for module, attr, layer, key in TARGETS:
            try:
                owner = importlib.import_module("hmskit." + module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, key))

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []

    def self_times(self):
        """Self time per layer, and the summed duration of the root spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for d, p in zip(dur, self.parent):
            if p >= 0:
                child[p] += d
        own = [0.0] * len(LAYERS)
        roots = 0.0
        for lid, d, inner, p in zip(self.layer, dur, child, self.parent):
            own[lid] += d - inner
            if p < 0:
                roots += d
        return dict(zip(LAYERS, own)), roots

    def metrics(self, wall):
        """Per-layer metrics of the pass just traced, which took `wall` s."""
        c = self.counts
        own, roots = self.self_times()
        brank = c["brank"]
        return {
            "rank.self_s": own["rank"],
            "rank.calls": c["rank"],
            "rank.rows_max": c["rank.rows_max"],
            "rank.cols_max": c["rank.cols_max"],
            "rank.nnz_sum": c["rank.nnz_sum"],
            "rank.nnz_max": c["rank.nnz_max"],
            "rank.useful_ratio": c["rank.rank_sum"] / c["rank.rows_sum"] if c["rank.rows_sum"] else 0.0,
            "assembly.self_s": own["assembly"],
            "assembly.cols": c["assembly.cols"],
            "intcols.self_s": own["intcols"],
            "monomials.calls": c["monomials"],
            "monomials.self_s": own["monomials"],
            "monomials.hit_ratio": c["monomials.hits"] / c["monomials"] if c["monomials"] else 0.0,
            "hom.calls": c["hom"],
            "hom.self_s": own["hom"],
            "memo.hit_ratio": 1 - c["rank"] / brank if brank else 0.0,
            "collection.self_s": own["collection"] + own["collection.validate"],
            "collection.validate_s": own["collection.validate"],
            "collection.objects": c["collection.objects"],
            "polyforms.self_s": own["polyforms"],
            "aside.self_s": own["aside"],
            "cache.load_s": own["cache.load"],
            "cache.store_s": own["cache.store"],
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.bytes_read": c["cache.bytes_read"],
            "cache.bytes_written": c["cache.bytes_written"],
            "cli.self_s": own["cli"],
            "cli.report_bytes": c["cli.report_bytes"],
            "other.self_s": wall - roots,
            "trace.wall_s": wall,
            "trace.absent": len(self.absent),
        }

    def write(self, path):
        """Write the spans of the last pass as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        spans = [
            [LAYERS[lid], s - origin, e - origin, p]
            for lid, s, e, p in zip(self.layer, self.start, self.end, self.parent)
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"absent": self.absent, "spans": spans}, fh, separators=(",", ":"))
