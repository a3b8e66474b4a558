"""Executable checks for every dimension theorem, counting formula, and
structural lemma, over the named corpus and a seeded random corpus.

Each check returns a structured Verdict.  Failing verdicts always carry a
witness that can be re-verified from the primitive operations alone.  Two
checks (mis_structure, mis_count) are report-only: the counting statements
they test are known to disagree with enumeration on some corpus graphs, so
the suite records the numbers verbatim instead of asserting agreement.

The checks read a MIS list through its sets, the ascending member tuples,
and test a MIS on bitmasks: mis_structure classifies each one with a single
per-clique test (_classify_mis), scs_mis_structure compares composite MISs
as masks, and its decompose direction asks is_mis of each part.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterable, Sequence

from .families import (ScsSpec, ScsValidationError, figure6_spec, named_corpus,
                       scs_compose, sierpinski, triangle_pendant_spec)
from .graph import (DisconnectedGraphError, Graph, _Record, adjacency_masks,
                    is_chordal, is_sccg, simplicial_report)
from .linalg import DEFAULT_FIELDS, FieldSpec, QQ, span_equal
from .mis import (DEFAULT_MIS_CAP, MisCapExceededError, enumerate_mis, is_mis,
                  sccg_mis_count_formula, scs_mis_count, swap_pairs)
from .wcspace import indicator_weighting, well_covered_space
from . import families

REPORT_ONLY_CHECKS = frozenset({"mis_structure", "mis_count"})

_SELECTION_CAP = 10**6  # guard for the exhaustive sum-selection search


class Verdict(_Record):
    """Outcome of one check on one input: holds, fails, or not_applicable.

    A fails verdict always carries witness data sufficient to re-run the
    underlying primitive; a not_applicable verdict names the precondition
    that did not hold.
    """

    __slots__ = ("check_id", "graph_ids", "status", "details", "witness")

    check_id: str
    graph_ids: tuple[str, ...]
    status: str
    details: dict
    witness: dict | None

    def __init__(self, check_id: str, graph_ids: tuple[str, ...], status: str,
                 details: dict | None = None,
                 witness: dict | None = None) -> None:
        super().__init__(check_id, graph_ids, status,
                         {} if details is None else details, witness)

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "inputs": list(self.graph_ids),
            "status": self.status,
            "details": self.details,
            "witness": self.witness,
        }


def _holds(check: str, ids: Sequence[str], ok: bool, details: dict,
           witness: dict | None = None) -> Verdict:
    return Verdict(check_id=check, graph_ids=tuple(ids),
                   status="holds" if ok else "fails",
                   details=details, witness=None if ok else witness)


def _na(check: str, ids: Sequence[str], reason: str,
        details: dict | None = None) -> Verdict:
    d = dict(details or {})
    d["reason"] = reason
    return Verdict(check_id=check, graph_ids=tuple(ids),
                   status="not_applicable", details=d)


# The MIS lists and spaces of the open run, keyed by graph and by (graph,
# field): a run has one cap, so no key holds it.  Only run_suite opens it,
# and it drops it when the run returns or raises, so within a run each
# graph is enumerated at most once and nothing outlives the run.  Outside a
# run nothing is cached: each check fetches each graph's MIS list once and
# passes it to _space for every field.
_cache: dict | None = None


def _mis(g: Graph, cap: int):
    if _cache is None:
        return enumerate_mis(g, cap)
    if g not in _cache:
        _cache[g] = enumerate_mis(g, cap)
    return _cache[g]


def _space(mis, fld: FieldSpec):
    if _cache is None:
        return well_covered_space(mis, fld)
    key = (mis.graph, fld)
    if key not in _cache:
        _cache[key] = well_covered_space(mis, fld)
    return _cache[key]


# --- per-graph checks ---------------------------------------------------------

def check_lower_bound(g: Graph, graph_id: str,
                      cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """wcdim over the rationals is at least the simplicial clique number."""
    rep = simplicial_report(g)
    dim = _space(_mis(g, cap), QQ).dimension
    return _holds("lower_bound", [graph_id], dim >= rep.sc,
                  {"wcdim_q": dim, "sc": rep.sc},
                  witness={"wcdim_q": dim, "sc": rep.sc})


def check_sccg_dimension(g: Graph, graph_id: str,
                         fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
                         cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """On an SCCG, wcdim equals sc over every configured field."""
    if not is_sccg(g):
        return _na("sccg_dimension", [graph_id], "not an SCCG")
    rep = simplicial_report(g)
    mis = _mis(g, cap)
    dims = {f.label(): _space(mis, f).dimension for f in fields}
    ok = all(d == rep.sc for d in dims.values())
    return _holds("sccg_dimension", [graph_id], ok,
                  {"sc": rep.sc, "wcdim": dims},
                  witness={"sc": rep.sc, "wcdim": dims})


def _mask(vs: Iterable[int]) -> int:
    return sum(1 << v for v in vs)


def _classify_mis(adj: Sequence[int], simp: int, conn: int,
                  cliques: Sequence[int], members: Iterable[int]) -> str:
    """The kind of a MIS of an SCCG, from the bitmasks of the simplicial
    vertices, the connection set and the simplicial cliques: its seed is
    its part in the connection set, and its rest the other members.

    Every simplicial vertex lies in exactly one simplicial clique, so both
    kinds are one condition: the rest is simplicial, and each clique meets
    it in one vertex if N[seed] leaves the clique uncovered and in none
    otherwise.  With an empty seed every clique is uncovered: one
    simplicial vertex per clique.  The kind is seeded exactly when the seed
    is not empty."""
    closed = rest = 0  # N[seed], empty exactly when the seed is
    for v in members:
        if conn >> v & 1:
            closed |= adj[v] | 1 << v
        else:
            rest |= 1 << v
    if rest & ~simp or any((rest & c).bit_count() != bool(c & ~closed)
                           for c in cliques):
        return "neither"
    return "seeded" if closed else "one-per-clique"


def check_mis_structure(g: Graph, graph_id: str,
                        cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Report-only: every MIS of an SCCG should be either one simplicial
    vertex per clique, or a connection-set seed plus one simplicial vertex
    per clique left uncovered by the seed's closed neighborhood."""
    if not is_sccg(g):
        return _na("mis_structure", [graph_id], "not an SCCG")
    rep = simplicial_report(g)
    masks = (adjacency_masks(g), _mask(rep.simplicial_vertices),
             _mask(rep.connection_set), list(map(_mask, rep.cliques)))
    counts = {"one-per-clique": 0, "seeded": 0, "neither": 0}
    unclassifiable = []
    for m in _mis(g, cap).sets:
        kind = _classify_mis(*masks, m)
        counts[kind] += 1
        if kind == "neither":
            unclassifiable.append(list(m))
    ok = counts["neither"] == 0
    return _holds("mis_structure", [graph_id], ok,
                  {"counts": counts},
                  witness={"unclassifiable": unclassifiable})


def check_mis_count(g: Graph, graph_id: str,
                    cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Report-only: the closed-form MIS count against true enumeration,
    under both residual and simplicial-only clique sizing."""
    if not is_sccg(g):
        return _na("mis_count", [graph_id], "not an SCCG")
    residual, simplicial = sccg_mis_count_formula(g)
    enumerated = len(_mis(g, cap))
    details = {
        "formula_residual": residual.total,
        "formula_simplicial": simplicial.total,
        "enumerated": enumerated,
        "breakdown_residual": {
            "i_count": residual.i_count,
            "product_term": residual.product_term,
            "sum_term": residual.sum_term,
        },
    }
    ok = enumerated in (residual.total, simplicial.total)
    return _holds("mis_count", [graph_id], ok, details, witness=details)


def _constant_on(values: Sequence, vertices: Iterable[int]) -> bool:
    vals = {values[v] for v in vertices}
    return len(vals) <= 1


def check_weighting_lemmas(g: Graph, graph_id: str,
                           cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Every basis weighting of an SCCG is constant on each clique residual,
    and each connection vertex's weight is some selection sum of simplicial
    weights, one per clique swallowed by its closed neighborhood."""
    if not is_sccg(g):
        return _na("weighting_lemmas", [graph_id], "not an SCCG")
    rep = simplicial_report(g)
    space = _space(_mis(g, cap), QQ)
    for b_index, w in enumerate(space.basis):
        for clique in rep.cliques:
            residual = clique - rep.connection_set
            if not _constant_on(w, residual):
                return _holds(
                    "weighting_lemmas", [graph_id], False,
                    {"basis_size": space.dimension},
                    witness={"clause": "constant-on-residual",
                             "basis_vector": b_index, "clique": sorted(clique),
                             "values": [str(w[v]) for v in sorted(residual)]})
        for conn in sorted(rep.connection_set):
            closed = g.closed_neighborhood([conn])
            pools = [sorted(c & rep.simplicial_vertices)
                     for c in rep.cliques if c <= closed]
            total = 1
            for p in pools:
                total *= max(len(p), 1)
            if total > _SELECTION_CAP:
                return _na("weighting_lemmas", [graph_id],
                           f"selection search above {_SELECTION_CAP}")
            target = w[conn]
            found = any(sum(w[v] for v in pick) == target
                        for pick in product(*pools))
            if not found:
                return _holds(
                    "weighting_lemmas", [graph_id], False,
                    {"basis_size": space.dimension},
                    witness={"clause": "connection-sum", "basis_vector": b_index,
                             "vertex": conn, "target": str(target)})
    return _holds("weighting_lemmas", [graph_id], True,
                  {"basis_size": space.dimension, "sc": rep.sc})


def check_neighbor_swap(g: Graph, graph_id: str,
                        cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Whenever two MISs differ in a single vertex, every basis weighting
    agrees on the swapped pair.

    The pairs come from mis.swap_pairs, which counts one search state per
    edge and lists no MIS; the space's MIS list is the only one read.  The
    pairs are asked of that list's graph, equal to g, which recorded its
    MIS count when the list was built, so its root is not counted again."""
    mis = _mis(g, cap)
    space = _space(mis, QQ)
    pairs = swap_pairs(mis.graph, cap)
    for u, v in pairs:
        for b_index, w in enumerate(space.basis):
            if w[u] != w[v]:
                return _holds(
                    "neighbor_swap", [graph_id], False,
                    {"pairs": len(pairs)},
                    witness={"pair": [u, v], "basis_vector": b_index,
                             "values": [str(w[u]), str(w[v])]})
    return _holds("neighbor_swap", [graph_id], True,
                  {"pairs": len(pairs), "vacuous": not pairs})


# --- clique-sum checks ---------------------------------------------------------

def check_scs_mis_structure(spec: ScsSpec, spec_id: str,
                            cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Composite MISs are exactly the unions of part MISs meeting in one
    shared vertex; both directions checked exhaustively."""
    try:
        comp = scs_compose(spec)
    except ScsValidationError as exc:
        return _na("scs_mis_structure", [spec_id], f"invalid clique sum: {exc}")
    # the composite keeps g1's labels, so only g2's vertices are mapped
    to_c = comp.g2_to_composite
    back2 = {c: i for i, c in enumerate(to_c)}
    g1, g2, gc = spec.g1, spec.g2, comp.graph
    shared = _mask(comp.shared)
    mis_c = _mis(gc, cap)
    for m in mis_c.sets:
        inter = [v for v in m if shared >> v & 1]
        m1 = [v for v in m if v < g1.n]
        m2 = [back2[v] for v in m if v in back2]
        if len(inter) != 1 or not is_mis(g1, m1) or not is_mis(g2, m2):
            return _holds("scs_mis_structure", [spec_id], False,
                          {"composite_mis": len(mis_c)},
                          witness={"direction": "decompose", "mis": sorted(m),
                                   "shared_overlap": sorted(inter)})
    composite_sets = set(map(_mask, mis_c.sets))
    composed = 0
    # each g2 MIS is mapped into composite labels once, not once per g1 MIS
    mapped2 = [(b, _mask(to_c[v] for v in b)) for b in _mis(g2, cap).sets]
    for a in _mis(g1, cap).sets:
        mask_a = _mask(a)
        ia = mask_a & shared
        if ia.bit_count() != 1:
            continue
        for b, mapped_b in mapped2:
            if ia == mapped_b & shared:
                composed += 1
                if mask_a | mapped_b not in composite_sets:
                    return _holds(
                        "scs_mis_structure", [spec_id], False,
                        {"composite_mis": len(mis_c)},
                        witness={"direction": "compose",
                                 "m1": sorted(a), "m2": sorted(b)})
    ok = composed == len(mis_c)
    return _holds("scs_mis_structure", [spec_id], ok,
                  {"composite_mis": len(mis_c), "composed_pairs": composed},
                  witness={"composite_mis": len(mis_c), "composed_pairs": composed})


def check_scs_count(spec: ScsSpec, spec_id: str,
                    cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Composite MIS count equals the sum over shared vertices of the product
    of per-part MIS counts through that vertex."""
    try:
        comp = scs_compose(spec)
    except ScsValidationError as exc:
        return _na("scs_count", [spec_id], f"invalid clique sum: {exc}")
    # within a run the parts' MIS lists are cached (scs_mis_structure), and
    # their graphs have recorded their MIS counts: counted under them, no
    # part's root is counted again
    g1, g2 = (_cache[g].graph if _cache is not None and g in _cache else g
              for g in (spec.g1, spec.g2))
    predicted = scs_mis_count(g1, g2, spec.glue_map(), cap=cap)
    enumerated = len(_mis(comp.graph, cap))
    details = {"predicted": predicted.total, "enumerated": enumerated,
               "per_vertex": [list(row) for row in predicted.per_vertex]}
    return _holds("scs_count", [spec_id], predicted.total == enumerated,
                  details, witness=details)


def check_scs_dimension(spec: ScsSpec, spec_id: str,
                        fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
                        cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """wcdim of the composite is wcdim(g1) + wcdim(g2) - 1 over every field;
    when one part is an SCCG and the other chordal, it also equals sc."""
    try:
        comp = scs_compose(spec)
    except ScsValidationError as exc:
        return _na("scs_dimension", [spec_id], f"invalid clique sum: {exc}")
    gc = comp.graph
    mis = [_mis(g, cap) for g in (spec.g1, spec.g2, gc)]
    details: dict = {"per_field": {}}
    ok = True
    for f in fields:
        d1, d2, dc = (_space(m, f).dimension for m in mis)
        details["per_field"][f.label()] = {"g1": d1, "g2": d2, "composite": dc}
        ok = ok and dc == d1 + d2 - 1
    mixed = (is_sccg(spec.g1) and is_chordal(spec.g2)) or \
            (is_chordal(spec.g1) and is_sccg(spec.g2))
    details["sccg_chordal_pair"] = mixed
    if mixed:
        sc = simplicial_report(gc).sc
        details["composite_sc"] = sc
        ok = ok and all(
            per["composite"] == sc for per in details["per_field"].values())
    return _holds("scs_dimension", [spec_id], ok, details, witness=details)


# --- family checks --------------------------------------------------------------

def check_sierpinski(order: int, fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
                     cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Sierpinski gasket graphs have wcdim 1 at order 1 and 3 afterwards;
    from order 3 on, every basis weighting vanishes off the corner cliques
    and is constant on each of them."""
    ids = [f"sierpinski_{order}"]
    sg = sierpinski(order)
    expected = 1 if order == 1 else 3
    try:
        mis = _mis(sg.graph, cap)
    except MisCapExceededError:
        return _na("sierpinski", ids, f"MIS count exceeds cap {cap}")
    details: dict = {"order": order, "vertices": sg.graph.n,
                     "mis_count": len(mis), "expected": expected,
                     "wcdim": {}}
    outside = set(sg.graph.vertices)
    for c in sg.corner_cliques:
        outside -= c
    for f in fields:
        space = _space(mis, f)
        details["wcdim"][f.label()] = space.dimension
        if space.dimension != expected:
            return _holds("sierpinski", ids, False, details, witness=details)
        if order >= 3:
            for b_index, w in enumerate(space.basis):
                bad_outside = [v for v in sorted(outside) if w[v] != 0]
                if bad_outside:
                    return _holds(
                        "sierpinski", ids, False, details,
                        witness={"clause": "zero-outside-corners",
                                 "field": f.label(), "basis_vector": b_index,
                                 "vertices": bad_outside})
                for c in sg.corner_cliques:
                    if not _constant_on(w, c):
                        return _holds(
                            "sierpinski", ids, False, details,
                            witness={"clause": "constant-on-corner",
                                     "field": f.label(), "basis_vector": b_index,
                                     "clique": sorted(c)})
    return _holds("sierpinski", ids, True, details)


def check_path_cycle_citations(n: int,
                               fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
                               cap: int = DEFAULT_MIS_CAP) -> Verdict:
    """Long paths have wcdim 2 with basis spanned by the two end-edge
    indicators; cycles of length at least 8 have zero well-covered space."""
    ids = [f"n_{n}"]
    if n < 5:
        return _na("path_cycle_citations", ids, "needs n >= 5")
    details: dict = {"n": n, "path_wcdim": {}, "cycle_wcdim": {}}
    ok = True
    pg = families.path(n)
    mis = _mis(pg, cap)
    spaces = {f: _space(mis, f) for f in fields}
    for f, space in spaces.items():
        details["path_wcdim"][f.label()] = space.dimension
        ok = ok and space.dimension == 2
    q_space = spaces[QQ] if QQ in spaces else _space(mis, QQ)
    ends = [indicator_weighting(pg, {0, 1}),
            indicator_weighting(pg, {n - 2, n - 1})]
    span_ok = span_equal(q_space.basis_vectors(), [list(e) for e in ends], QQ,
                         length=pg.n)
    details["path_basis_is_end_edges"] = span_ok
    ok = ok and span_ok
    if n >= 8:
        mis = _mis(families.cycle(n), cap)
        for f in fields:
            space = _space(mis, f)
            details["cycle_wcdim"][f.label()] = space.dimension
            ok = ok and space.dimension == 0
    return _holds("path_cycle_citations", ids, ok, details, witness=details)


# --- random corpus and suites ----------------------------------------------------

def random_connected_graphs(count: int, seed: int,
                            max_n: int = 10) -> list[tuple[str, Graph]]:
    """Seeded Erdos-Renyi sampler filtered to connected graphs; the edge
    probability cycles through 0.3, 0.5 and 0.7."""
    rng = random.Random(seed)
    out: list[tuple[str, Graph]] = []
    while len(out) < count:
        n = rng.randint(4, max_n)
        p = (0.3, 0.5, 0.7)[len(out) % 3]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            g = Graph(n, edges)
        except DisconnectedGraphError:
            continue
        out.append((f"random_{seed}_{len(out):03d}_n{n}_p{p}", g))
    return out


_GRAPH_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("lower_bound", check_lower_bound),
    ("sccg_dimension", check_sccg_dimension),
    ("mis_structure", check_mis_structure),
    ("mis_count", check_mis_count),
    ("weighting_lemmas", check_weighting_lemmas),
    ("neighbor_swap", check_neighbor_swap),
)

_SPEC_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("scs_mis_structure", check_scs_mis_structure),
    ("scs_count", check_scs_count),
    ("scs_dimension", check_scs_dimension),
)

SUITE_NAMES = ("default", "full")


def default_scs_specs() -> dict[str, ScsSpec]:
    return {"triangle_pendant_pair": triangle_pendant_spec(),
            "figure6_pair": figure6_spec()}


def run_suite(suite: str = "default", seed: int = 0,
              fields: Sequence[FieldSpec] = DEFAULT_FIELDS,
              cap: int = DEFAULT_MIS_CAP, random_count: int = 120) -> dict:
    """Run a named suite and assemble an order-normalized report.

    The report is a plain JSON-ready dict with verdicts sorted by check id
    and inputs.  Checks run serially.  A check that exceeds the MIS cap is
    not_applicable, and one that raises fails with the exception's repr.
    The MIS lists and spaces cached during the run are released when it
    returns or raises.
    """
    global _cache
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r} (one of {SUITE_NAMES})")
    fields = tuple(fields)
    verdicts: list[Verdict] = []

    def run(check_id: str, ids: tuple[str, ...], fn: Callable, *args) -> None:
        try:
            verdicts.append(fn(*args))
        except MisCapExceededError as exc:
            verdicts.append(Verdict(check_id, ids, "not_applicable",
                                    {"reason": str(exc)}))
        except Exception as exc:  # a crashed check must surface, not abort the suite
            verdicts.append(Verdict(check_id, ids, "fails", {"error": repr(exc)},
                                    {"error": repr(exc)}))

    _cache = {}
    try:
        corpus = named_corpus()
        if suite == "default":
            corpus.pop("sierpinski_4", None)
        for name in sorted(corpus):
            for check_id, fn in _GRAPH_CHECKS:
                extra = (fields,) if fn is check_sccg_dimension else ()
                run(check_id, (name,), fn, corpus[name], name, *extra, cap)
        for spec_id, spec in sorted(default_scs_specs().items()):
            for check_id, fn in _SPEC_CHECKS:
                extra = (fields,) if fn is check_scs_dimension else ()
                run(check_id, (spec_id,), fn, spec, spec_id, *extra, cap)
        for order in (1, 2, 3, 4) if suite == "full" else (1, 2, 3):
            run("sierpinski", (f"sierpinski_{order}",), check_sierpinski,
                order, fields, cap)
        for n in range(5, 13):
            run("path_cycle_citations", (f"n_{n}",),
                check_path_cycle_citations, n, fields, cap)
        for name, g in random_connected_graphs(random_count, seed):
            run("lower_bound", (name,), check_lower_bound, g, name, cap)
            run("neighbor_swap", (name,), check_neighbor_swap, g, name, cap)
    finally:
        _cache = None
    verdicts.sort(key=lambda v: (v.check_id, v.graph_ids))
    counts = {"holds": 0, "fails": 0, "not_applicable": 0}
    asserting_failures = []
    for v in verdicts:
        counts[v.status] += 1
        if v.status == "fails" and v.check_id not in REPORT_ONLY_CHECKS:
            asserting_failures.append(
                {"check_id": v.check_id, "inputs": list(v.graph_ids)})
    return {
        "suite": suite,
        "seed": seed,
        "fields": [f.label() for f in fields],
        "summary": {**counts, "asserting_failures": asserting_failures},
        "verdicts": [v.to_json() for v in verdicts],
    }


def suite_passed(report: dict) -> bool:
    return not report["summary"]["asserting_failures"]


def summary_table(report: dict) -> str:
    """Plain-text one-line-per-verdict summary."""
    lines = [f"suite={report['suite']} seed={report['seed']} "
             f"fields={','.join(report['fields'])}"]
    for v in report["verdicts"]:
        tier = "report-only" if v["check_id"] in REPORT_ONLY_CHECKS else "asserting"
        lines.append(f"{v['status']:<15} {v['check_id']:<22} "
                     f"{','.join(v['inputs']):<40} [{tier}]")
    s = report["summary"]
    lines.append(f"holds={s['holds']} fails={s['fails']} "
                 f"not_applicable={s['not_applicable']} "
                 f"asserting_failures={len(s['asserting_failures'])}")
    return "\n".join(lines) + "\n"
