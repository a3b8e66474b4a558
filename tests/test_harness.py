import gc
import hashlib
import json
import weakref
from collections import Counter

import pytest

from wellcovered import harness, mis as mis_module, wcspace
from wellcovered.families import (ScsSpec, complete, cycle, figure1,
                                  figure6_spec, named_corpus, path,
                                  scs_compose, sierpinski,
                                  triangle_pendant_spec, vertex_bowtie)
from wellcovered.harness import (REPORT_ONLY_CHECKS,
                                 check_lower_bound,
                                 check_mis_count, check_mis_structure,
                                 check_neighbor_swap,
                                 check_path_cycle_citations,
                                 check_sccg_dimension, check_scs_count,
                                 check_scs_dimension, check_scs_mis_structure,
                                 check_sierpinski, check_weighting_lemmas,
                                 random_connected_graphs, run_suite,
                                 suite_passed, summary_table)
from wellcovered.graph import adjacency_masks, is_sccg, simplicial_report
from wellcovered.linalg import QQ, FieldSpec
from wellcovered.mis import MisList, enumerate_mis, is_mis
from wellcovered.wcspace import wcdim, well_covered_space

from oracles import classify_mis_frozensets


def test_lower_bound_examples():
    assert check_lower_bound(figure1(), "figure1").status == "holds"
    v = check_lower_bound(cycle(8), "c8")
    assert v.status == "holds" and v.details == {"wcdim_q": 0, "sc": 0}


def test_lower_bound_random_sweep():
    for name, g in random_connected_graphs(40, seed=7):
        assert check_lower_bound(g, name).status == "holds"


def test_sccg_dimension_examples():
    assert check_sccg_dimension(figure1(), "figure1").details["wcdim"]["Q"] == 3
    assert check_sccg_dimension(complete(5), "k5").details["sc"] == 1
    assert check_sccg_dimension(cycle(9), "c9").status == "not_applicable"
    for k in (1, 2, 3, 4, 5):
        from wellcovered.families import figure2_family
        v = check_sccg_dimension(figure2_family(k), f"figure2_k{k}")
        assert v.status == "holds" and v.details["sc"] == 2


def test_mis_structure_verdicts():
    v = check_mis_structure(vertex_bowtie(), "vertex_bowtie")
    assert v.status == "holds"
    assert v.details["counts"] == {"one-per-clique": 4, "seeded": 1, "neither": 0}

    v = check_mis_structure(figure1(), "figure1")
    assert v.status == "fails"
    assert v.details["counts"] == {"one-per-clique": 4, "seeded": 0, "neither": 20}
    # witnesses re-verify: each unclassifiable set is indeed a MIS holding a
    # vertex that is neither simplicial nor in the (empty) connection set
    g = figure1()
    simplicial = {0, 1, 5, 8, 9}
    for members in v.witness["unclassifiable"]:
        assert is_mis(g, members)
        assert any(m not in simplicial for m in members)

    assert check_mis_structure(complete(4), "k4").status == "holds"
    assert check_mis_structure(cycle(8), "c8").status == "not_applicable"


def test_mask_classifier_matches_the_frozenset_one():
    # every MIS of every corpus SCCG and of the SCCGs among 2400 seeded
    # random graphs gets the kind the two-branch frozenset classifier gives
    graphs = list(named_corpus().values())
    for seed in range(40):
        graphs += [g for _, g in random_connected_graphs(60, seed, max_n=11)]
    graphs = [g for g in graphs if is_sccg(g)]
    kinds = Counter()
    for g in graphs:
        rep = simplicial_report(g)
        clique_index = {v: i for i, c in enumerate(rep.cliques)
                        for v in c & rep.simplicial_vertices}
        masks = (adjacency_masks(g), harness._mask(rep.simplicial_vertices),
                 harness._mask(rep.connection_set),
                 list(map(harness._mask, rep.cliques)))
        for m in enumerate_mis(g).sets:
            want = classify_mis_frozensets(g, rep, clique_index, frozenset(m))
            assert harness._classify_mis(*masks, m) == want, (g, m)
            kinds[want] += 1
    assert (len(graphs), sum(kinds.values())) == (572, 2501)
    assert set(kinds) == {"one-per-clique", "seeded", "neither"}


def test_mis_count_verdicts():
    v = check_mis_count(figure1(), "figure1")
    assert v.status == "fails"
    assert v.details["formula_residual"] == 36
    assert v.details["formula_simplicial"] == 4
    assert v.details["enumerated"] == 24

    assert check_mis_count(complete(6), "k6").status == "holds"
    from wellcovered.families import star
    assert check_mis_count(star(3), "star_3").status == "holds"
    assert check_mis_count(vertex_bowtie(), "vertex_bowtie").status == "holds"


def test_weighting_lemmas_verdicts():
    assert check_weighting_lemmas(figure1(), "figure1").status == "holds"
    assert check_weighting_lemmas(vertex_bowtie(), "vertex_bowtie").status == "holds"
    from wellcovered.families import star
    assert check_weighting_lemmas(star(5), "star_5").status == "holds"
    assert check_weighting_lemmas(cycle(8), "c8").status == "not_applicable"


def test_weighting_lemmas_selection_cap_is_not_applicable(monkeypatch):
    monkeypatch.setattr(harness, "_SELECTION_CAP", 0)
    # figure1 has no connection vertex, so no selection search is run
    assert check_weighting_lemmas(figure1(), "figure1").status == "holds"
    v = check_weighting_lemmas(vertex_bowtie(), "vertex_bowtie")
    assert v.status == "not_applicable"
    assert v.details == {"reason": "selection search above 0"}


def test_neighbor_swap_verdicts():
    v = check_neighbor_swap(cycle(4), "c4")
    assert v.status == "holds" and v.details["vacuous"]
    v = check_neighbor_swap(path(5), "p5")
    assert v.status == "holds" and v.details["pairs"] >= 2
    assert check_neighbor_swap(figure1(), "figure1").status == "holds"


def test_scs_checks_on_both_specs():
    for spec_id, spec in (("triangle_pendant_pair", triangle_pendant_spec()),
                          ("figure6_pair", figure6_spec())):
        assert check_scs_mis_structure(spec, spec_id).status == "holds"
        count = check_scs_count(spec, spec_id)
        assert count.status == "holds"
        assert count.details["predicted"] == count.details["enumerated"]
        dim = check_scs_dimension(spec, spec_id)
        assert dim.status == "holds"
        assert dim.details["sccg_chordal_pair"]
    tp = check_scs_count(triangle_pendant_spec(), "tp")
    assert tp.details["enumerated"] == 3


def test_scs_checks_invalid_spec_is_not_applicable():
    p5 = path(5)
    bad = ScsSpec(p5, p5, {0: 3, 1: 4})
    assert check_scs_mis_structure(bad, "p5xp5").status == "not_applicable"
    assert check_scs_count(bad, "p5xp5").status == "not_applicable"
    assert check_scs_dimension(bad, "p5xp5").status == "not_applicable"


def _composite_mis_edited(monkeypatch, spec, edit):
    """Monkeypatch harness._mis so that the composite's MIS list comes back
    through edit(list of its member tuples), and every other graph's
    unchanged."""
    composite = scs_compose(spec).graph
    real = harness._mis

    def mis(g, cap):
        sets = real(g, cap)
        if g != composite:
            return sets
        return MisList(g, tuple(edit(list(sets.sets))))

    monkeypatch.setattr(harness, "_mis", mis)


def test_scs_mis_structure_fails_compose_on_a_lost_composite_mis(monkeypatch):
    spec = figure6_spec()
    comp = scs_compose(spec)
    lost = []
    _composite_mis_edited(monkeypatch, spec,
                          lambda sets: lost.append(sets.pop()) or sets)
    v = check_scs_mis_structure(spec, "f6")
    assert v.status == "fails" and v.witness["direction"] == "compose"
    m1, m2 = frozenset(v.witness["m1"]), frozenset(v.witness["m2"])
    assert is_mis(spec.g1, m1) and is_mis(spec.g2, m2)
    union = m1 | {comp.g2_to_composite[u] for u in m2}
    assert is_mis(comp.graph, union) and [union] == list(map(frozenset, lost))


def test_scs_mis_structure_fails_decompose_on_a_gained_non_mis(monkeypatch):
    spec = figure6_spec()
    comp = scs_compose(spec)
    first = enumerate_mis(comp.graph).sets[0]
    gained = first[1:]
    _composite_mis_edited(monkeypatch, spec, lambda sets: sets + [gained])
    v = check_scs_mis_structure(spec, "f6")
    assert v.status == "fails" and v.witness["direction"] == "decompose"
    witness = frozenset(v.witness["mis"])
    assert witness == frozenset(gained) and not is_mis(comp.graph, witness)


def test_scs_degenerate_full_overlap():
    spec = ScsSpec(complete(3), complete(3), {0: 0, 1: 1, 2: 2})
    assert check_scs_mis_structure(spec, "k3xk3").status == "holds"
    assert check_scs_count(spec, "k3xk3").status == "holds"


def test_sierpinski_checks_small_orders():
    v1 = check_sierpinski(1)
    assert v1.status == "holds" and v1.details["wcdim"]["Q"] == 1
    for order in (2, 3):
        v = check_sierpinski(order)
        assert v.status == "holds"
        assert set(v.details["wcdim"].values()) == {3}


def test_sierpinski_cap_gives_not_applicable():
    v = check_sierpinski(3, cap=10)
    assert v.status == "not_applicable"
    assert "cap" in v.details["reason"]


def test_path_cycle_citations():
    v = check_path_cycle_citations(5)
    assert v.status == "holds"
    assert v.details["path_wcdim"]["Q"] == 2
    assert v.details["path_basis_is_end_edges"]
    assert v.details["cycle_wcdim"] == {}
    for n in (8, 12):
        v = check_path_cycle_citations(n)
        assert v.status == "holds"
        assert set(v.details["cycle_wcdim"].values()) == {0}
    assert check_path_cycle_citations(4).status == "not_applicable"


def test_random_sampler_is_deterministic_and_connected():
    a = random_connected_graphs(30, seed=3)
    b = random_connected_graphs(30, seed=3)
    assert [(name, g.edges) for name, g in a] == [(name, g.edges) for name, g in b]
    assert all(g.n <= 10 for _, g in a)
    different = random_connected_graphs(30, seed=4)
    assert [g.edges for _, g in a] != [g.edges for _, g in different]


def test_run_suite_default_passes_and_is_deterministic():
    r1 = run_suite("default", seed=0, random_count=20)
    r2 = run_suite("default", seed=0, random_count=20)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert suite_passed(r1)
    failed_checks = {v["check_id"] for v in r1["verdicts"]
                     if v["status"] == "fails"}
    assert failed_checks <= REPORT_ONLY_CHECKS
    # figure1 report-only protocol: the published pair and witness list
    by_key = {(v["check_id"], tuple(v["inputs"])): v for v in r1["verdicts"]}
    count_verdict = by_key[("mis_count", ("figure1",))]
    assert count_verdict["details"]["formula_residual"] == 36
    assert count_verdict["details"]["enumerated"] == 24
    structure_verdict = by_key[("mis_structure", ("figure1",))]
    assert len(structure_verdict["witness"]["unclassifiable"]) == 20


def test_run_suite_output_is_deterministic():
    r1 = run_suite("default", seed=1, random_count=10)
    r2 = run_suite("default", seed=1, random_count=10)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def _track_cached_results(monkeypatch):
    """Weak references to every MIS list and space the harness builds, the
    number of times it enumerates each graph, and the number of spaces it
    builds for each (graph, field)."""
    made: list[weakref.ref] = []
    enumerated: Counter = Counter()
    built: Counter = Counter()

    def mis(g, cap):
        enumerated[g] += 1
        out = enumerate_mis(g, cap)
        made.append(weakref.ref(out))
        return out

    def space(mis, fld):
        built[mis.graph, fld] += 1
        out = well_covered_space(mis, fld)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(harness, "enumerate_mis", mis)
    monkeypatch.setattr(harness, "well_covered_space", space)
    return made, enumerated, built


def test_run_suite_releases_its_caches(monkeypatch):
    made, enumerated, _ = _track_cached_results(monkeypatch)
    run_suite("default", seed=1, random_count=5)
    gc.collect()
    assert made and set(enumerated.values()) == {1}
    assert all(ref() is None for ref in made)
    assert harness._cache is None


def test_direct_check_call_releases_its_cache(monkeypatch):
    made, enumerated, _ = _track_cached_results(monkeypatch)
    g = sierpinski(3).graph
    assert check_neighbor_swap(g, "s3").status == "holds"
    gc.collect()
    # the space reads one MIS list
    assert enumerated == {g: 1} and len(made) == 2
    assert all(ref() is None for ref in made)
    assert harness._cache is None


def test_a_run_builds_one_space_per_graph_and_field_it_reads(monkeypatch):
    # every space a check reads was built over the field it asked for, so
    # the run cache keeps the fields of one graph apart
    _, _, built = _track_cached_results(monkeypatch)
    asked, wrong = set(), []
    read = harness._space

    def space(mis, fld):
        out = read(mis, fld)
        asked.add((mis.graph, fld))
        if (out.graph, out.field) != (mis.graph, fld):
            wrong.append((fld, out.field))
        return out

    monkeypatch.setattr(harness, "_space", space)
    assert suite_passed(run_suite("default", seed=1, random_count=5))
    assert not wrong
    assert set(built) == asked and set(built.values()) == {1}
    assert {fld for _, fld in asked} == {QQ, FieldSpec(2), FieldSpec(3)}


def test_a_direct_check_enumerates_each_graph_it_reads_once(monkeypatch):
    # outside a run nothing is cached: each check reads one MIS list per
    # graph for all fields, and one space per (graph, field)
    _, enumerated, built = _track_cached_results(monkeypatch)
    calls = ((check_sccg_dimension, figure1(), "figure1"),
             (check_scs_dimension, figure6_spec(), "figure6_pair"),
             (check_sierpinski, 3),
             (check_path_cycle_citations, 8))
    for check, *args in calls:
        enumerated.clear()
        built.clear()
        assert check(*args).status == "holds", check.__name__
        assert enumerated and set(enumerated.values()) == {1}, check.__name__
        assert set(built.values()) == {1}, check.__name__
        assert len(built) == 3 * len(enumerated), check.__name__
    assert harness._cache is None


def test_a_run_counts_no_root_state_its_mis_lists_counted(monkeypatch):
    # every graph whose swap pairs or through counts a run asks for had its
    # MIS list built earlier in the run, which counted every MIS once and
    # recorded the total, so the engine never counts a root state (V, {})
    counted, roots = [], []
    count = mis_module._count_completions

    def spy(masks, memo, u, d, cap):
        counted.append(u)
        if u == (1 << len(masks[0])) - 1 and not d:
            roots.append(masks[0])
        return count(masks, memo, u, d, cap)

    monkeypatch.setattr(mis_module, "_count_completions", spy)
    assert suite_passed(run_suite("default", seed=1))
    assert counted and roots == []


def test_run_suite_drops_its_cache_when_it_raises(monkeypatch):
    opened = []

    def broken(count, seed):
        opened.append(harness._cache)
        raise RuntimeError("sampler failed")

    monkeypatch.setattr(harness, "random_connected_graphs", broken)
    with pytest.raises(RuntimeError, match="sampler failed"):
        run_suite("default", seed=1, random_count=5)
    # the corpus checks ran in the open cache before the sampler raised
    assert len(opened) == 1 and opened[0]
    assert harness._cache is None


def test_the_harness_reads_the_floor_free_listed_path(monkeypatch):
    # lower_bound tests dim >= sc, so no space the harness reads may take
    # sc as a floor: it samples nothing, and every row filter has floor 0
    sampled, floors = [], []
    sample = wcspace._ladder
    init = wcspace._RowFilter.__init__

    def sample_spy(*args):
        sampled.append(args)
        return sample(*args)

    def init_spy(self, first, n, p, floor=0):
        floors.append(floor)
        init(self, first, n, p, floor)

    monkeypatch.setattr(wcspace, "_ladder", sample_spy)
    monkeypatch.setattr(wcspace._RowFilter, "__init__", init_spy)
    run_suite("default", seed=1, random_count=5)
    assert floors and set(floors) == {0} and not sampled
    floors.clear()
    assert check_lower_bound(figure1(), "figure1").status == "holds"
    assert floors == [0] and not sampled


def test_full_suite_report_is_byte_stable():
    # the only test that runs neighbor_swap and mis_structure on S4; the
    # digest pins the report bytes they produce
    report = json.dumps(run_suite("full", seed=1), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "c6f7f77999b75fa7b7cadc559aa50c4261762f59c6c9f82a9588b4fe46b3db58"


def test_run_suite_report_shape():
    report = run_suite("default", seed=0, random_count=5)
    assert report["suite"] == "default"
    assert report["fields"] == ["Q", "GF(2)", "GF(3)"]
    for v in report["verdicts"]:
        assert v["status"] in ("holds", "fails", "not_applicable")
        if v["status"] == "fails":
            assert v["witness"] is not None
        if v["status"] == "not_applicable":
            assert "reason" in v["details"]
    table = summary_table(report)
    assert "asserting_failures=0" in table


def test_verdict_failure_carries_recheckable_witness():
    # manufacture a failing asserting check: feed a graph whose wcdim exceeds
    # its sc into the SCCG equality check via a doctored report
    g = cycle(4)  # wcdim 3, sc 0, not an SCCG: verdict must be not_applicable
    assert check_sccg_dimension(g, "c4").status == "not_applicable"
    assert wcdim(g) == 3
