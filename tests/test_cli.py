import json
import os
import subprocess
import sys

import wellcovered
from wellcovered import cli, mis, wcspace
from wellcovered.cli import main
from wellcovered.families import corpus_file_text, corpus_names, star
from wellcovered.graph import format_edge_list, parse_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "s3.g"
    code, _, _ = run_cli(capsys, "gen", "sierpinski", "3", "-o", str(out))
    assert code == 0
    first = out.read_bytes()
    g = parse_edge_list(first.decode())
    assert g.n == 15
    code, _, _ = run_cli(capsys, "gen", "sierpinski", "3", "-o", str(out))
    assert code == 0
    assert out.read_bytes() == first  # idempotent


def test_gen_complete_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "complete", "4")
    assert code == 0
    assert out.count("\n") >= 7
    assert parse_edge_list(out).edges == ((0, 1), (0, 2), (0, 3),
                                          (1, 2), (1, 3), (2, 3))


def test_gen_figure1(capsys):
    code, out, _ = run_cli(capsys, "gen", "figure1")
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, len(g.edges)) == (10, 17)


def test_gen_corpus_directory(tmp_path, capsys):
    target = tmp_path / "corpus"
    code, _, _ = run_cli(capsys, "gen", "corpus", "--corpus", str(target))
    assert code == 0
    for name in corpus_names():
        path = target / f"{name}.g"
        assert path.read_text(encoding="utf-8") == corpus_file_text(name)


def test_gen_unknown_family_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "gen", "nonesuch")
    assert code == 3 and "unknown family" in err


def test_gen_out_of_range_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "sierpinski", "99")
    assert code == 3


def test_wcdim_text_and_json_agree(tmp_path, capsys):
    code, text, _ = run_cli(capsys, "wcdim", "figure1")
    assert code == 0
    assert "wcdim Q=3, GF(2)=3, GF(3)=3" in text
    assert "sc=3" in text and "mis_count=24" in text
    code, out, _ = run_cli(capsys, "wcdim", "figure1", "--json")
    payload = json.loads(out)
    assert payload["sc"] == 3 and payload["mis_count"] == 24
    assert all(r["dimension"] == 3 for r in payload["reports"])
    assert payload["fields_agree"]


def test_wcdim_single_field_flag(capsys):
    code, out, _ = run_cli(capsys, "wcdim", "c8", "--field", "q", "--json")
    payload = json.loads(out)
    assert payload["reports"][0]["dimension"] == 0
    assert payload["sc"] == 0


def test_wcdim_reads_files(tmp_path, capsys):
    target = tmp_path / "g.g"
    target.write_text(corpus_file_text("p5"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "wcdim", str(target))
    assert code == 0 and "wcdim Q=2" in out


def test_wcdim_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("n 3\n0 zero\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "wcdim", str(bad))
    assert code == 2 and "line 2" in err


def test_wcdim_huge_edgeless_header_is_validation_error(tmp_path, capsys):
    # rejected from the edge count, before any per-vertex state is built
    huge = tmp_path / "huge.g"
    huge.write_text("n 3000000\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "wcdim", str(huge))
    assert code == 3 and "not connected" in err


def test_mis_on_a_2000_leaf_star(tmp_path, capsys):
    target = tmp_path / "star2000.g"
    target.write_text(format_edge_list(star(2000)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "mis", str(target), "--json")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_wcdim_missing_graph(capsys):
    code, _, err = run_cli(capsys, "wcdim", "no_such_graph")
    assert code == 3


def test_file_errors_exit_three_without_traceback(tmp_path, capsys):
    code, out, err = run_cli(capsys, "wcdim", str(tmp_path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and str(tmp_path) in err
    missing = tmp_path / "no_such_dir" / "x.g"
    code, out, err = run_cli(capsys, "gen", "complete", "3", "-o", str(missing))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and str(missing) in err


def test_json_is_streamed_in_blocks_with_the_same_bytes(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_JSON_CHUNKS_PER_WRITE", 100)
    payload = {"b": list(range(1000)), "a": [{"y": [1, 2], "x": "s"}] * 50}

    class Args:
        json = True

    cli._emit(Args, payload, "unused")
    out = capsys.readouterr().out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_classify_outputs(capsys):
    code, out, _ = run_cli(capsys, "classify", "sierpinski_3")
    assert code == 0
    assert "chordal=False sccg=False" in out
    assert "scs_splittable=False" in out
    code, out, _ = run_cli(capsys, "classify", "figure6", "--json")
    payload = json.loads(out)
    assert payload["scs_splittable"] and payload["sc"] == 3
    code, out, _ = run_cli(capsys, "classify", "figure1", "--json")
    assert json.loads(out)["sccg"]


def test_mis_count_and_list(capsys):
    code, out, _ = run_cli(capsys, "mis", "c4")
    assert code == 0 and "mis_count=2" in out
    code, out, _ = run_cli(capsys, "mis", "k5", "--json")
    assert json.loads(out)["count"] == 5
    code, out, _ = run_cli(capsys, "mis", "figure1", "--mode", "list", "--json")
    payload = json.loads(out)
    assert payload["count"] == 24
    assert payload["formula_residual"] == 36
    assert not payload["formula_matches_enumeration"]
    assert len(payload["sets"]) == 24


def test_mis_cap_exit_code_in_count_mode(capsys):
    # enumeration stops once it has found more than the cap
    code, out, _ = run_cli(capsys, "mis", "c12", "--mis-cap", "5")
    assert code == 4
    assert out == "graph c12: mis_count=>5\n"
    code, out, _ = run_cli(capsys, "mis", "c12", "--mis-cap", "5", "--json")
    assert code == 4
    assert json.loads(out)["count"] == ">5"


def test_count_mode_and_single_pass_commands_build_no_mis_list(capsys,
                                                              monkeypatch):
    def no_list(*args, **kwargs):
        raise AssertionError("enumerate_mis called")
    monkeypatch.setattr(cli, "enumerate_mis", no_list)
    monkeypatch.setattr(mis, "enumerate_mis", no_list)
    monkeypatch.setattr(wcspace, "enumerate_mis", no_list)
    code, out, _ = run_cli(capsys, "mis", "figure1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 24
    assert payload["formula_residual"] == 36
    assert not payload["formula_matches_enumeration"]
    code, out, _ = run_cli(capsys, "mis", "c12", "--mis-cap", "5")
    assert code == 4 and out == "graph c12: mis_count=>5\n"
    code, out, _ = run_cli(capsys, "wcdim", "figure1", "--json")
    assert code == 0 and json.loads(out)["mis_count"] == 24
    code, out, _ = run_cli(capsys, "classify", "c4", "--json")
    assert code == 0 and json.loads(out)["well_covered"]
    code, out, _ = run_cli(capsys, "compose", "triangle_pendant_g1",
                           "triangle_pendant_g2", "--glue", "0:0",
                           "--glue", "1:1", "--glue", "2:2", "--json")
    assert code == 0 and json.loads(out)["wcdim"]["Q"]["additive"]


def test_single_pass_commands_keep_the_cap_exit(capsys):
    # the search is consumed to the end even once the answer is known
    for argv in (("classify", "p9", "--mis-cap", "5"),
                 ("wcdim", "c12", "--mis-cap", "28"),
                 ("compose", "triangle_pendant_g1", "triangle_pendant_g2",
                  "--glue", "0:0", "--glue", "1:1", "--glue", "2:2",
                  "--mis-cap", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == "", argv
        assert err.startswith("resource cap: more than"), argv


def test_mis_cap_list_mode_errors(capsys):
    code, _, err = run_cli(capsys, "mis", "c12", "--mis-cap", "5", "--mode", "list")
    assert code == 4 and "resource cap" in err


def test_mis_cap_below_one_is_usage_error(capsys):
    for argv in (("mis", "k3", "--mis-cap", "-1"), ("mis", "k3", "--mis-cap", "0"),
                 ("wcdim", "k3", "--mis-cap", "-5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == "usage error: argument --mis-cap: must be at least 1: " \
            f"{argv[-1]}\n"
    code, out, _ = run_cli(capsys, "mis", "k3", "--mis-cap", "3")
    assert code == 0 and out.startswith("graph k3: mis_count=3\n")


def test_negative_random_count_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "default", "--random-count", "-1")
    assert code == 1 and out == ""
    assert err == "usage error: argument --random-count: must be at least 0: -1\n"
    code, _, err = run_cli(capsys, "verify", "default", "--random-count", "x")
    assert code == 1
    assert err == "usage error: argument --random-count: invalid int value: 'x'\n"


def test_repeated_field_tokens_give_one_report_per_field(capsys):
    code, out, _ = run_cli(capsys, "wcdim", "k3", "--field", "q", "--field", "Q",
                           "--field", "gf:3", "--field", "q", "--json")
    assert code == 0
    fields = [r["field"] for r in json.loads(out)["reports"]]
    assert fields == [{"kind": "rationals"}, {"kind": "prime_field", "p": 3}]


def test_out_of_memory_is_resource_exit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "well_covered_spaces", exhausted)
    code, out, err = run_cli(capsys, "wcdim", "figure1")
    assert code == 4
    assert out == ""
    assert err == "resource cap: out of memory\n"


def test_compose_triangle_pendants(tmp_path, capsys):
    out_file = tmp_path / "comp.g"
    code, out, _ = run_cli(capsys, "compose", "triangle_pendant_g1",
                           "triangle_pendant_g2", "--glue", "0:0",
                           "--glue", "1:1", "--glue", "2:2",
                           "-o", str(out_file))
    assert code == 0
    assert "wcdim 2+2-1=3, computed=3, sc=3" in out
    composed = parse_edge_list(out_file.read_text(encoding="utf-8"))
    assert composed.n == 5


def test_compose_invalid_pair_names_clause(capsys):
    code, _, err = run_cli(capsys, "compose", "p5", "p5",
                           "--glue", "0:3", "--glue", "1:4")
    assert code == 3
    assert "not-simplicial-in-composite" in err


def test_compose_bad_glue_token_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compose", "p5", "p5", "--glue", "nonsense")
    assert code == 1


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "wcdim")[0] == 1
    assert run_cli(capsys, "verify", "bogus-suite")[0] == 1
    assert run_cli(capsys, "wcdim", "figure1", "--field", "gf:9")[0] == 3


def test_verify_default_passes_and_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "default", "--seed", "0",
                             "--json", "--random-count", "20")
    code2, out2, _ = run_cli(capsys, "verify", "default", "--seed", "0",
                             "--json", "--random-count", "20")
    code3, out3, _ = run_cli(capsys, "verify", "default", "--seed", "0",
                             "--json", "--random-count", "20", "--threads", "3")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    report = json.loads(out1)
    assert report["summary"]["asserting_failures"] == []


def test_verify_text_mode_contains_same_numbers(capsys):
    code, text, _ = run_cli(capsys, "verify", "default", "--seed", "0",
                            "--random-count", "5")
    assert code == 0
    code, raw, _ = run_cli(capsys, "verify", "default", "--seed", "0",
                           "--random-count", "5", "--json")
    report = json.loads(raw)
    s = report["summary"]
    assert f"holds={s['holds']} fails={s['fails']}" in text


def test_package_runs_as_a_module_without_installing():
    src = os.path.dirname(os.path.dirname(wellcovered.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "wellcovered", "wcdim", "k3",
                           "--json"], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["mis_count"] == 3
