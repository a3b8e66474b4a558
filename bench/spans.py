"""Layer tracing from outside the package, and the self-time arithmetic.

The benchmark never edits the program.  Instead it replaces the names that
each caller module imports (``cli.enumerate_mis``, ``harness.well_covered_space``,
``wcspace.nullspace_basis``, the entries of the harness check tables, ...)
with wrappers that record a span around the call.  Spans are kept in memory
and written out once, after the op has finished.  CPython's garbage
collector is traced through ``gc.callbacks`` as the ``runtime`` layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span in the same list, or -1.  A span's self time is its duration
minus the part of that interval its children cover.  The layer of a span is
the first dotted component of its name.
"""

from __future__ import annotations

import functools
import gc
import time

# (module, attribute, span name).  Every wrapped name must exist: a refactor
# that renames one fails the traced run instead of silently zeroing a layer.
# Helpers called once per MIS (is_mis, split_cliques_by_neighborhood, ...)
# are left unwrapped on purpose; their time is the caller's self time.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_edge_list", "graph.parse"),
    ("cli", "simplicial_report", "graph.structure"),
    ("cli", "is_sccg", "graph.structure"),
    ("cli", "is_chordal", "graph.structure"),
    ("cli", "enumerate_mis", "mis.enumerate"),
    ("cli", "sccg_mis_count_formula", "mis.formula"),
    ("cli", "well_covered_space", "wcspace.space"),
    ("cli", "scs_compose", "families.compose"),
    ("cli", "scs_split", "families.compose"),
    ("cli", "run_suite", "harness.run_suite"),
    ("harness", "named_corpus", "families.compose"),
    ("harness", "scs_compose", "families.compose"),
    ("harness", "sierpinski", "families.build"),
    ("harness", "simplicial_report", "graph.structure"),
    ("harness", "is_sccg", "graph.structure"),
    ("harness", "is_chordal", "graph.structure"),
    ("harness", "enumerate_mis", "mis.enumerate"),
    ("harness", "sccg_mis_count_formula", "mis.formula"),
    ("harness", "well_covered_space", "wcspace.space"),
    ("harness", "span_equal", "linalg.span"),
    ("wcspace", "enumerate_mis", "mis.enumerate"),
    ("wcspace", "nullspace_basis", "linalg.nullspace"),
)

# The harness checks.  The module-level function and its entry in the check
# tables are replaced by the same wrapper, so identity tests such as
# ``fn is check_sccg_dimension`` inside the harness still hold.
CHECK_IDS = (
    "lower_bound", "sccg_dimension", "mis_structure", "mis_count",
    "weighting_lemmas", "neighbor_swap", "scs_mis_structure", "scs_count",
    "scs_dimension", "sierpinski", "path_cycle_citations",
)
CHECK_TABLES = ("_GRAPH_CHECKS", "_SPEC_CHECKS")

COUNTS = frozenset({"mis.calls", "mis.sets", "wcspace.calls",
                    "wcspace.rows_examined", "wcspace.rows_reduced",
                    "linalg.calls", "linalg.cells", "harness.tasks",
                    "runtime.gc_gen2"})
RATIOS = frozenset({"wcspace.keep_ratio", "wcspace.reduce_passes",
                    "harness.enum_per_graph", "harness.space_per_graph_field"})
LAYERS = ("cli", "graph", "families", "mis", "wcspace", "linalg", "harness",
          "runtime")
FIELD_KEYS = ("Q", "GF2", "GF3")


class Recorder:
    """In-memory span store with a stack of open spans, plus counters taken
    at the same boundaries."""

    def __init__(self, op: int = 0, clock=time.perf_counter) -> None:
        self.op = op
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._open: list[tuple[str, float, int]] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1][2] if self._open else -1
        # reserve the slot now so that children can name it as parent
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._open.append((name, self.clock(), len(self.spans) - 1))

    def end(self) -> float:
        end = self.clock()
        name, start, index = self._open.pop()
        self.spans[index] = (name, start, end, self.spans[index][3], self.op)
        return end - start

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def distinct(self, key: str, item) -> None:
        self.keys.setdefault(key, set()).add(item)

    def all_counts(self) -> dict[str, float]:
        """Counters, with each distinct-key set replaced by its size."""
        return {**self.counts, **{k: len(v) for k, v in self.keys.items()}}

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.begin("runtime.gc")
            if info.get("generation") == 2:
                self.add("runtime.gc_gen2")
        elif self._open and self._open[-1][0] == "runtime.gc":
            self.end()


def unit(metric: str) -> str:
    if metric in COUNTS:
        return "count"
    if metric in RATIOS:
        return "ratio"
    return "1/s" if metric == "mis.sets_per_s" else "s"


def _field_key(field) -> str:
    return "Q" if field.is_rationals else f"GF{field.p}"


def _observe(rec: Recorder, name: str, caller: str, args: tuple, result,
             elapsed: float) -> None:
    """Counters taken at a layer boundary from the call's arguments and
    result."""
    if name == "mis.enumerate":
        rec.add("mis.calls")
        rec.add("mis.sets", len(result))
        if caller == "harness":
            rec.add("harness.enumerations")
            rec.distinct("harness.enum_graphs", args[0])
    elif name == "wcspace.space":
        rec.add("wcspace.calls")
        rec.add("wcspace.rows_examined", result.mis_count - 1)
        rec.add("wcspace.space_s." + _field_key(result.field), elapsed)
        if caller == "harness":
            rec.add("harness.spaces")
            rec.distinct("harness.space_keys", (result.graph, result.field))
    elif name == "linalg.nullspace":
        matrix = args[0]
        rec.add("linalg.calls")
        rec.add("linalg.cells", matrix.rows * matrix.cols)
        rec.add("wcspace.rows_reduced", matrix.rows)


def _wrap(rec: Recorder, fn, name: str, caller: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = rec.end()
        _observe(rec, name, caller, args, result, elapsed)
        return result

    return wrapper


def install(modules: dict, rec: Recorder) -> None:
    """Wrap every traced name in ``modules`` (short name -> module object)
    and hook the garbage collector.  Raises before wrapping anything if a
    name is missing."""
    harness = modules["harness"]
    missing = [f"{m}.{a}" for m, a, _ in WRAPPED if not hasattr(modules[m], a)]
    missing += [f"harness.check_{c}" for c in CHECK_IDS
                if not hasattr(harness, "check_" + c)]
    missing += [f"harness.{t}" for t in CHECK_TABLES if not hasattr(harness, t)]
    if missing:
        raise RuntimeError("traced names missing: " + ", ".join(missing))

    checks = {getattr(harness, "check_" + c): c for c in CHECK_IDS}
    for table in CHECK_TABLES:
        untraced = [cid for cid, fn in getattr(harness, table) if fn not in checks]
        if untraced:
            raise RuntimeError(f"harness.{table} has untraced checks: {untraced}")

    for mod, attr, name in WRAPPED:
        module = modules[mod]
        setattr(module, attr, _wrap(rec, getattr(module, attr), name, mod))
    wrapped = {fn: _wrap(rec, fn, "harness.check." + c, "harness")
               for fn, c in checks.items()}
    for fn, check_id in checks.items():
        setattr(harness, "check_" + check_id, wrapped[fn])
    for table in CHECK_TABLES:
        setattr(harness, table, tuple((cid, wrapped[fn])
                                      for cid, fn in getattr(harness, table)))
    gc.callbacks.append(rec.gc_callback)


def uninstall(rec: Recorder) -> None:
    gc.callbacks.remove(rec.gc_callback)


# --- arithmetic on finished spans ---------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of it that its
    children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - _covered(children.get(i, []), start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def busy_time(spans, name: str) -> float:
    """Time spent inside spans of this name, counting a nested span of the
    same name only once."""
    total = 0.0
    for name_i, start, end, parent, op in spans:
        if name_i != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def merge(traces) -> tuple[list, dict]:
    """Concatenate the (spans, counts) of several ops into one trace,
    shifting parent indices, and add up their counters."""
    spans: list = []
    counts: dict[str, float] = {}
    for op_spans, op_counts in traces:
        base = len(spans)
        spans.extend((name, start, end, parent + base if parent >= 0 else -1, op)
                     for name, start, end, parent, op in op_spans)
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def layer_metrics(spans, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its merged spans and
    counters."""
    selfs = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, *_), s in zip(spans, selfs):
        out[name.split(".", 1)[0] + ".self_s"] += s

    def busy(name: str) -> float:
        return busy_time(spans, name)

    def count(key: str) -> float:
        return counts.get(key, 0)

    out["graph.parse_s"] = busy("graph.parse")
    out["graph.structure_s"] = busy("graph.structure")
    out["families.compose_s"] = busy("families.compose")
    out["mis.enumerate_s"] = busy("mis.enumerate")
    out["mis.calls"] = count("mis.calls")
    out["mis.sets"] = count("mis.sets")
    out["mis.sets_per_s"] = (out["mis.sets"] / out["mis.enumerate_s"]
                             if out["mis.enumerate_s"] else 0.0)
    out["wcspace.space_s"] = busy("wcspace.space")
    for key in FIELD_KEYS:
        out["wcspace.space_s." + key] = count("wcspace.space_s." + key)
    out["wcspace.calls"] = count("wcspace.calls")
    out["wcspace.rows_examined"] = count("wcspace.rows_examined")
    out["wcspace.rows_reduced"] = count("wcspace.rows_reduced")
    out["wcspace.keep_ratio"] = (out["wcspace.rows_reduced"]
                                 / out["wcspace.rows_examined"]
                                 if out["wcspace.rows_examined"] else 0.0)
    out["wcspace.reduce_passes"] = (count("linalg.calls") / out["wcspace.calls"]
                                    if out["wcspace.calls"] else 0.0)
    out["linalg.nullspace_s"] = busy("linalg.nullspace")
    out["linalg.calls"] = count("linalg.calls")
    out["linalg.cells"] = count("linalg.cells")
    out["linalg.span_s"] = busy("linalg.span")
    for check_id in CHECK_IDS:
        out["harness.check_s." + check_id] = busy("harness.check." + check_id)
    out["harness.tasks"] = sum(1 for s in spans
                               if s[0].startswith("harness.check."))
    enum_graphs = count("harness.enum_graphs")
    out["harness.enum_per_graph"] = (count("harness.enumerations") / enum_graphs
                                     if enum_graphs else 0.0)
    space_keys = count("harness.space_keys")
    out["harness.space_per_graph_field"] = (count("harness.spaces") / space_keys
                                            if space_keys else 0.0)
    out["runtime.gc_s"] = out.pop("runtime.self_s")
    out["runtime.gc_gen2"] = count("runtime.gc_gen2")
    return out
