"""Tests of the benchmark's own logic: every answer check rejects a
corrupted answer, and the span arithmetic gives the right self times.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
import os
import types

import pytest

import answers
import run
import spans
from inputs import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- answer checks -------------------------------------------------------------

# a 12-vertex stand-in for the relabelled S4: three corner cliques, the rest
# outside; the checks only look at the report's shape
CORNERS = [[0, 4, 8], [1, 5, 9], [2, 6, 10]]
N = 12


def _wcdim_payload() -> dict:
    basis = [[1 if v in c else 0 for v in range(N)] for c in CORNERS]
    fields = ({"kind": "rationals"}, {"kind": "prime_field", "p": 2},
              {"kind": "prime_field", "p": 3})
    return {"mis_count": answers.S4_MIS_COUNT, "fields_agree": True,
            "reports": [{"field": f, "dimension": 3, "basis": copy.deepcopy(basis)}
                        for f in fields]}


def test_wcdim_check_accepts_the_right_answer():
    assert answers.check_wcdim_s4(_wcdim_payload(), CORNERS, N) == []


def test_wcdim_check_rejects_basis_entry_off_the_corners():
    payload = _wcdim_payload()
    payload["reports"][1]["basis"][2][3] = 1
    problems = answers.check_wcdim_s4(payload, CORNERS, N)
    assert problems and "off the corner cliques at [3]" in problems[0]


def test_wcdim_check_rejects_basis_not_constant_on_a_corner():
    payload = _wcdim_payload()
    payload["reports"][0]["basis"][0][4] = 2
    assert any("not constant" in p
               for p in answers.check_wcdim_s4(payload, CORNERS, N))


def test_wcdim_check_rejects_count_off_by_one():
    payload = _wcdim_payload()
    payload["mis_count"] += 1
    assert answers.check_wcdim_s4(payload, CORNERS, N)


def test_wcdim_check_rejects_wrong_dimension_or_missing_field():
    payload = _wcdim_payload()
    payload["reports"][2]["dimension"] = 2
    assert answers.check_wcdim_s4(payload, CORNERS, N)
    payload = _wcdim_payload()
    del payload["reports"][2]
    assert answers.check_wcdim_s4(payload, CORNERS, N)


def _verify_report() -> dict:
    details = dict(answers.FIGURE1_MIS_COUNT)
    return {"summary": {"asserting_failures": []},
            "verdicts": [{"check_id": "mis_count", "inputs": ["figure1"],
                          "status": "fails", "details": details}]}


def test_verify_check_accepts_report_only_fails():
    assert answers.check_verify(_verify_report()) == []


def test_verify_check_rejects_an_asserting_failure():
    report = _verify_report()
    report["summary"]["asserting_failures"].append(
        {"check_id": "lower_bound", "inputs": ["figure1"]})
    assert answers.check_verify(report)


def test_verify_check_rejects_changed_figure1_numbers():
    report = _verify_report()
    report["verdicts"][0]["details"]["enumerated"] = 25
    assert answers.check_verify(report)
    report["verdicts"] = []
    assert answers.check_verify(report)


def test_mis_count_check_rejects_count_off_by_one():
    assert answers.check_mis_count({"count": 76725}, 76725) == []
    assert answers.check_mis_count({"count": 76726}, 76725)


def test_perrin_numbers():
    assert [answers.perrin(n) for n in range(3, 10)] == [3, 2, 5, 5, 7, 10, 12]
    assert (answers.perrin(38), answers.perrin(40)) == (43721, 76725)


def test_reference_count_matches_perrin_on_cycles():
    pytest.importorskip("networkx")
    for n in (5, 8, 13):
        edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
        assert answers.reference_mis_count(n, edges, 10**6) == answers.perrin(n)


def test_non_json_output_is_a_problem():
    payload, problems = answers.parse_json(b"graph x: mis_count=3\n")
    assert payload is None and problems


# --- span arithmetic -------------------------------------------------------------

# root [0, 10] holds a check [1, 6], which holds an enumeration [2, 3] (with
# a collection inside it) and a space [3.5, 5.5] whose nullspace is [4, 5]
SYNTHETIC = [
    ("cli.main", 0.0, 10.0, -1, 0),
    ("harness.check.neighbor_swap", 1.0, 6.0, 0, 0),
    ("mis.enumerate", 2.0, 3.0, 1, 0),
    ("runtime.gc", 2.5, 2.75, 2, 0),
    ("wcspace.space", 3.5, 5.5, 1, 0),
    ("linalg.nullspace", 4.0, 5.0, 4, 0),
]


def test_self_times_subtract_children():
    assert spans.self_times(SYNTHETIC) == [5.0, 2.0, 0.75, 0.25, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    trace = [("a.x", 0.0, 8.0, -1, 0), ("b.y", 1.0, 4.0, 0, 0),
             ("b.z", 3.0, 6.0, 0, 0), ("b.w", 7.0, 9.0, 0, 0)]
    assert spans.self_times(trace)[0] == 8.0 - 5.0 - 1.0


def test_busy_time_counts_nested_same_name_once():
    trace = [("mis.enumerate", 0.0, 4.0, -1, 0), ("mis.enumerate", 1.0, 2.0, 0, 0),
             ("mis.enumerate", 5.0, 6.0, -1, 0)]
    assert spans.busy_time(trace, "mis.enumerate") == 5.0


def test_layer_metrics_on_a_synthetic_trace():
    counts = {"mis.calls": 1, "mis.sets": 100, "wcspace.calls": 1,
              "wcspace.rows_examined": 99, "wcspace.rows_reduced": 9,
              "linalg.calls": 2}
    m = spans.layer_metrics(SYNTHETIC, counts)
    assert m["cli.self_s"] == 5.0
    assert m["harness.self_s"] == 2.0
    assert m["mis.self_s"] == 0.75
    assert m["runtime.gc_s"] == 0.25
    assert m["wcspace.self_s"] == 1.0
    assert m["linalg.nullspace_s"] == 1.0
    assert m["harness.check_s.neighbor_swap"] == 5.0
    assert m["harness.tasks"] == 1
    assert m["mis.sets_per_s"] == 100.0
    assert m["wcspace.keep_ratio"] == 9 / 99
    assert m["wcspace.reduce_passes"] == 2.0
    total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["runtime.gc_s"]
    assert total == 10.0


def test_merge_shifts_parents_and_adds_counts():
    one = ([("cli.main", 0.0, 1.0, -1, 0), ("mis.enumerate", 0.0, 0.5, 0, 0)],
           {"mis.calls": 1})
    two = ([("cli.main", 2.0, 3.0, -1, 1), ("mis.enumerate", 2.0, 2.5, 0, 1)],
           {"mis.calls": 1})
    merged, counts = spans.merge([one, two])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]
    assert counts == {"mis.calls": 2}


def test_recorder_nests_spans_and_gc():
    ticks = iter(range(100))
    rec = spans.Recorder(op=3, clock=lambda: float(next(ticks)))
    rec.begin("cli.main")
    rec.gc_callback("start", {"generation": 2})
    rec.gc_callback("stop", {"generation": 2})
    rec.begin("mis.enumerate")
    rec.end()
    rec.end()
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("cli.main", -1, 3), ("runtime.gc", 0, 3), ("mis.enumerate", 0, 3)]
    assert rec.counts == {"runtime.gc_gen2": 1}


# --- installing the wrappers ---------------------------------------------------------

def _fake_modules() -> dict:
    mods = {name: types.SimpleNamespace() for name in ("cli", "harness", "wcspace")}
    for mod, attr, _ in spans.WRAPPED:
        setattr(mods[mod], attr, lambda *a, **k: 0)
    checks = {}
    for check_id in spans.CHECK_IDS:
        def check(*a, **k):
            return "verdict"
        check.__name__ = "check_" + check_id
        checks[check_id] = check
        setattr(mods["harness"], check.__name__, check)
    mods["harness"]._GRAPH_CHECKS = (("lower_bound", checks["lower_bound"]),)
    mods["harness"]._SPEC_CHECKS = (("scs_count", checks["scs_count"]),)
    return mods


def test_install_wraps_names_and_check_tables():
    mods = _fake_modules()
    rec = spans.Recorder()
    spans.install(mods, rec)
    try:
        harness = mods["harness"]
        assert harness._GRAPH_CHECKS[0][1] is harness.check_lower_bound
        assert mods["cli"].main([]) == 0
        assert harness._SPEC_CHECKS[0][1]() == "verdict"
    finally:
        spans.uninstall(rec)
    assert [s[0] for s in rec.spans] == ["cli.main", "harness.check.scs_count"]


def test_install_fails_loudly_on_a_missing_name():
    mods = _fake_modules()
    del mods["wcspace"].nullspace_basis
    main_before = mods["cli"].main
    with pytest.raises(RuntimeError, match="wcspace.nullspace_basis"):
        spans.install(mods, spans.Recorder())
    assert mods["cli"].main is main_before


def test_install_rejects_an_untraced_check_table_entry():
    mods = _fake_modules()
    mods["harness"]._SPEC_CHECKS += (("new_check", lambda: None),)
    with pytest.raises(RuntimeError, match="untraced checks"):
        spans.install(mods, spans.Recorder())


# --- the pass loop ---------------------------------------------------------------

class _SlowRunner(run.Runner):
    """A runner whose ops take no real time but report ``op_s`` each."""

    def __init__(self, started: float, op_s: float) -> None:
        super().__init__(workdir="", started=started)
        self.op_s = op_s

    def op(self, op, trace, out):
        out.ops += 1
        out.wall_s += self.op_s


_ONE_OP = types.SimpleNamespace(ops=lambda state, workdir: ["op"])


def test_run_limit_cutting_a_minimum_pass_is_a_failure():
    # one pass of 200 s leaves no room for the second, same-seed pass
    runner = _SlowRunner(run.time.perf_counter(), op_s=200.0)
    done = runner.passes(_ONE_OP, {}, seconds=0, min_passes=2, trace=False)
    assert len(done) == 1
    assert runner.unrun == 1
    assert "1 of 2 passes" in runner.problems[0]


def test_run_limit_after_the_minimum_passes_is_no_failure():
    runner = _SlowRunner(run.time.perf_counter(), op_s=200.0)
    done = runner.passes(_ONE_OP, {}, seconds=1000, min_passes=1, trace=False)
    assert len(done) == 1
    assert runner.unrun == 0 and runner.problems == []


def test_timed_out_op_adds_its_time_to_the_pass(monkeypatch):
    def timeout(cmd, timeout, **kwargs):
        run.time.sleep(0.05)
        raise run.subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(run.subprocess, "run", timeout)
    runner = run.Runner(workdir="", started=run.time.perf_counter())
    out = run.Pass()
    runner.op(types.SimpleNamespace(argv=["wcdim", "x.g"]), False, out)
    assert out.failed == 1 and out.ops == 1
    assert out.wall_s >= 0.05


# --- rescaling by the reference loop --------------------------------------------

def test_rescale_takes_out_a_slow_core():
    # the core runs at full speed until t=10, then at half speed: reference
    # units take 2 ms, then 4 ms, and an op's CPU time doubles with them
    samples = [(t / 100, 0.002 if t < 1000 else 0.004) for t in range(2000)]
    fast, slow = run.rescale([(1.0, 4.0, 3.0), (12.0, 18.0, 6.0)], samples)
    assert fast == pytest.approx(3.0 * run.REF_UNIT_S / 0.002)
    assert slow == pytest.approx(fast)


def test_rescale_means_the_units_and_drops_the_tails():
    # a core that is slow for a quarter of the time costs an op a quarter
    # more; one unit stretched by an interrupt is dropped
    units = [0.002, 0.002, 0.002, 0.004] * 10
    units[5] = 1.0
    samples = [(t / 10, c) for t, c in enumerate(units)]
    [out] = run.rescale([(0.0, 4.0, 1.0)], samples)
    trimmed = sorted(units)[2:-2]
    assert out == pytest.approx(run.REF_UNIT_S / (sum(trimmed) / len(trimmed)))
    assert out == pytest.approx(run.REF_UNIT_S / 0.0025, rel=0.05)


def test_rescale_widens_a_short_interval_to_the_nearest_samples():
    samples = [(float(t), 0.001 * (t + 1)) for t in range(20)]
    # no unit ends inside it: the 8 units nearest t=10 are t=6..13
    [out] = run.rescale([(9.9, 10.1, 1.0)], samples)
    assert out == pytest.approx(run.REF_UNIT_S / 0.0105)


# --- the benchmark definition -----------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = set(spans.layer_metrics([], {}))
    layer_names |= {"families.gen_s", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: spans.unit(name) for name in layer_names}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "norm_cpu_s", "peak_rss_mb", "setup_s"]
