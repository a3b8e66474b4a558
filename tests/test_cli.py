import argparse
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wellcovered
from wellcovered import cli, mis, wcspace
from wellcovered.cli import main
from wellcovered.families import (corpus_comments, corpus_graph, corpus_names,
                                  star)
from wellcovered.graph import format_edge_list, parse_edge_list


def _corpus_text(name):
    return format_edge_list(corpus_graph(name), corpus_comments(name))


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
        assert path.read_text(encoding="utf-8") == _corpus_text(name)


def test_gen_corpus_with_an_output_file_is_a_usage_error(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", "corpus", "-o", "out.g")
    assert code == 1 and out == "" and "-o/--out" in err
    assert list(tmp_path.iterdir()) == []  # neither out.g nor ./corpus


def test_gen_corpus_with_a_size_parameter_is_a_usage_error(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", "corpus", "5")
    assert code == 1 and out == "" and "size parameter" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_family_with_a_corpus_directory_is_a_usage_error(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["path", "3"], ["p5"], ["path", "3", "-o", "out.g"]):
        code, out, err = run_cli(capsys, "gen", *argv, "--corpus", "outdir")
        assert code == 1 and out == "" and "--corpus" in err, argv
    assert list(tmp_path.iterdir()) == []  # neither outdir nor out.g


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
    target.write_text(_corpus_text("p5"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "wcdim", str(target))
    assert code == 0 and "wcdim Q=2" in out


def test_wcdim_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("n 3\n0 zero\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "wcdim", str(bad))
    assert code == 2 and "line 2" in err


def test_wcdim_non_ascii_or_signed_indices_exit_code(tmp_path, capsys):
    # int() would read each of these as a number; the format takes ASCII
    # decimal digits only, so each is a parse error on its own line
    for text, line in (("n \u0663\n0 1\n1 2\n", 1), ("n 1_0\n0 1\n", 1),
                       ("n 3\n0 +1\n1 2\n", 2), ("n 3\n0 1\n1 -2\n", 3)):
        bad = tmp_path / "bad.g"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "wcdim", str(bad))
        assert code == 2 and f"line {line}" in err and not out, text


def test_wcdim_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    # byte 0xff starts no UTF-8 sequence: the format is UTF-8 text, so the
    # file is malformed, and the one error line names the line of the byte
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"n 3\n0 1\n1 \xff2\n")
    code, out, err = run_cli(capsys, "wcdim", str(bad))
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("parse error: line 3")


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark: the graph
    # reads as the same file without it, in every command
    plain, marked = tmp_path / "plain.g", tmp_path / "marked.g"
    text = _corpus_text("figure1").encode()
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    for command in ("wcdim", "classify", "mis"):
        want = run_cli(capsys, command, str(plain), "--json")
        got = run_cli(capsys, command, str(marked), "--json")
        assert want[0] == 0 and got == (0, want[1].replace(
            '"plain.g"', '"marked.g"'), ""), command
    marked.write_bytes(b"\xef\xbb\xbfn 2\n\xff0 1\n")
    code, out, err = run_cli(capsys, "wcdim", str(marked))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: not UTF-8: byte 0xff\n"


def test_corpus_names_read_the_corpus_directory_first(tmp_path, capsys):
    (tmp_path / "p5.g").write_text("n 3\n0 zero\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "wcdim", "p5", "--corpus", str(tmp_path))
    assert code == 2 and "line 2" in err
    # a name with no file in the directory falls back to the built-in graph
    code, out, _ = run_cli(capsys, "wcdim", "c8.g", "--corpus", str(tmp_path))
    assert code == 0 and out.startswith("graph c8: wcdim Q=0")


def test_corpus_names_are_built_without_a_corpus_directory(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)

    def no_read(text):
        raise AssertionError("a corpus name read a file")

    monkeypatch.setattr(cli, "parse_edge_list", no_read)
    code, out, _ = run_cli(capsys, "wcdim", "p5")
    assert code == 0 and out.startswith("graph p5: wcdim Q=2")


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
    monkeypatch.setattr(cli, "_JSON_BLOCK", 100)
    payload = {"b": list(range(1000)), "a": [{"y": [1, 2], "x": "s"}] * 50,
               "basis": [list(range(k, k + 50)) for k in range(300)]}
    document = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    class Args:
        json = True

    cli._emit(Args, payload, "unused")
    assert capsys.readouterr().out == document
    written = []
    cli._write_json(payload, written.append)
    assert "".join(written) == document
    assert len(written) > 5 and max(map(len, written)) < len(document) // 4


_STOCK_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _encoded(o) -> str:
    written = []
    cli._write_json(o, written.append)
    return "".join(written)


def test_json_matches_the_stdlib_encoder_on_every_payload(capsys,
                                                          monkeypatch):
    payloads = []
    emit = cli._emit

    def spy(args, payload, text):
        payloads.append(payload)
        emit(args, payload, text)

    monkeypatch.setattr(cli, "_emit", spy)
    commands = [
        ("wcdim", "figure1"),
        ("wcdim", "c4", "--field", "gf:5", "--field", "q"),
        ("classify", "figure1"),
        ("mis", "p5"),
        ("mis", "figure1", "--mode", "list"),
        ("mis", "c12", "--mis-cap", "3"),
        ("compose", "triangle_pendant_g1", "triangle_pendant_g2",
         "--glue", "0:0", "--glue", "1:1", "--glue", "2:2"),
        ("verify", "default", "--seed", "1", "--random-count", "5"),
    ]
    for argv in commands:
        _, out, _ = run_cli(capsys, *argv, "--json")
        assert out == _STOCK_JSON.encode(payloads[-1]) + "\n", argv
    assert len(payloads) == len(commands)


class _Small(int):
    pass


class _Name(str):
    pass


def test_json_matches_the_stdlib_encoder_on_edge_values():
    values = [
        {}, [], (), "", 0, -7, 10**40, True, False, None, 2.5,
        {"empty": [[], {}, ()], "nested": [[[]], [{}]]},
        {"caf\u00e9": "\u2603 \U0001F600 \"quoted\" \\ \n\t\x00"},
        {"bools": [True, False], "nones": [None, None], "mixed": [1, True,
         None, "s", 2.5, [1], {"k": 0}], "ints": list(range(-3, 40))},
        {3: "int", -1: "key", True: "bool", 2.5: "float"},
        {None: [None]}, {False: 0, 7: 1},
        {"floats": [0.1, -0.0, 1e300, float("nan"), float("inf"),
                    -float("inf")]},
        {"subclasses": [_Small(5), _Name("n\u00e9"), (1, (2, 3))],
         _Name("key"): _Small(-1)},
        [{"b": 1, "a": {"d": [1, 2], "c": []}}] * 3,
    ]
    for value in values:
        assert _encoded(value) == _STOCK_JSON.encode(value) + "\n", value
    for bad in ({"k": {1, 2}}, {"k": Fraction(1, 2)}, {(1,): 0},
                {1: 0, "a": 1}):
        with pytest.raises(TypeError):
            _STOCK_JSON.encode(bad)
        with pytest.raises(TypeError):
            _encoded(bad)


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


def test_field_primes_and_counts_are_ascii_decimal(capsys):
    # the edge-list rule: no space, sign, underscore, prefix or digit of
    # another script in a field's prime, and a sign only as a leading '-'
    # in a count
    for token in ("gf: 3", "gf:+3", "gf:1_1", "gf:\u0663", "gf:0x3", "gf:1",
                  "gf:", "gf:3.0"):
        code, out, err = run_cli(capsys, "wcdim", "k3", "--field", token)
        assert (code, out) == (3, ""), token
        assert err.startswith(f"validation error: bad field token {token!r}")
    for argv in (("mis", "k3", "--mis-cap"), ("wcdim", "k3", "--mis-cap"),
                 ("verify", "default", "--random-count")):
        for token in ("0x10", "\u0661\u0660", "+3", "1_0", "-", "-\u0661",
                      " 5"):
            code, out, err = run_cli(capsys, *argv, token)
            assert (code, out) == (1, ""), (argv, token)
            assert err == f"usage error: argument {argv[-1]}: invalid int " \
                f"value: {token!r}\n"
    code, out, _ = run_cli(capsys, "wcdim", "k3", "--field", "GF:03",
                           "--mis-cap", "007")
    assert code == 0 and out.startswith("graph k3: wcdim GF(3)=1 ")
    code, _, err = run_cli(capsys, "mis", "k3", "--mis-cap", "-0")
    assert (code, err) == (1, "usage error: argument --mis-cap: must be at "
                              "least 1: 0\n")


def test_sizes_seeds_and_glue_indices_are_ascii_decimal(capsys):
    # the count rule with no bound: ASCII digits after an optional '-'
    for argv in (("gen", "path"), ("verify", "--random-count", "0", "--seed"),
                 ("verify", "--random-count", "0", "--threads")):
        for token in ("\u0663", "1_0", "+3", "0x3", "-", " 3"):
            code, out, err = run_cli(capsys, *argv, token)
            assert (code, out) == (1, ""), (argv, token)
            name = "param" if argv[0] == "gen" else argv[-1]
            assert err == f"usage error: argument {name}: invalid int " \
                f"value: {token!r}\n"
    for glue, bad in ((("0:0", "1:1", "2:2_0"), "2:2_0"),
                      (("0:0", "1:+1", "2:2"), "1:+1"),
                      (("\u0660:0", "1:1", "2:2"), "\u0660:0"),
                      (("0:0", "1:1", "2:-2"), "2:-2")):
        argv = [arg for token in glue for arg in ("--glue", token)]
        code, out, err = run_cli(capsys, "compose", "k3", "k3", *argv)
        assert (code, out) == (1, ""), glue
        assert err == f"usage error: bad --glue token {bad!r}, expected " \
            "U2:U1\n"
    assert run_cli(capsys, "gen", "path", "-3")[0] == 3
    assert run_cli(capsys, "gen", "path", "03")[1] == \
        run_cli(capsys, "gen", "path", "3")[1]
    code, out, _ = run_cli(capsys, "verify", "--random-count", "0", "--seed",
                           "-1", "--threads", "-2", "--json")
    assert code == 0 and json.loads(out)["seed"] == -1


def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch):
    def commands(parser):
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    full = commands(cli._build_parser())
    assert list(full) == ["gen", "wcdim", "classify", "mis", "compose",
                          "verify"]
    made = []  # every subparsers action main constructs
    init = argparse._SubParsersAction.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(argparse._SubParsersAction, "__init__", spy)
    for name in ("bogus", "-h", "--help", "--"):
        made.clear()
        try:
            assert main([name]) == 1, name
        except SystemExit as exc:  # the help exits
            assert exc.code == 0, name
        [sub] = made
        assert list(sub.choices) == list(full), name
    runs = {"gen": ["path", "3"], "wcdim": ["k3"], "classify": ["k3"],
            "mis": ["k3"], "verify": ["--random-count", "0"],
            "compose": ["k3", "k3", "--glue", "0:0", "--glue", "1:1",
                        "--glue", "2:2"]}
    for name, parser in full.items():
        alone = cli._command_parser(name)
        assert alone.format_help() == parser.format_help()
        assert alone.format_usage() == parser.format_usage()
        made.clear()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == parser.format_help()
        assert main([name, *runs[name]]) == 0, name
        assert made == [], name


def test_help_and_unknown_commands_list_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{gen,wcdim,classify,mis,compose,verify}" in out
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (1, "")
    assert err == "usage error: argument command: invalid choice: 'bogus' " \
        "(choose from 'gen', 'wcdim', 'classify', 'mis', 'compose', " \
        "'verify')\n"


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


def test_compose_repeated_glue_vertex_is_usage_error(capsys):
    for first, again in (("2:99", "2:2"), ("2:2", "2:99"), ("2:2", "2:2")):
        code, out, err = run_cli(capsys, "compose", "triangle_pendant_g1",
                                 "triangle_pendant_g2", "--glue", "0:0",
                                 "--glue", "1:1", "--glue", first,
                                 "--glue", again)
        assert code == 1 and out == ""
        assert f"usage error: --glue token {again!r}" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "wcdim")[0] == 1
    assert run_cli(capsys, "verify", "bogus-suite")[0] == 1
    assert run_cli(capsys, "wcdim", "figure1", "--field", "gf:9")[0] == 3


def test_verify_takes_no_corpus_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "default", "--random-count",
                             "0", "--corpus", str(tmp_path / "missing"))
    assert code == 1 and out == "" and "--corpus" in err


def _options_read(tree: ast.Module, name: str) -> set[str]:
    """The attributes of its first parameter that the module function name
    reads, directly or in a module function it passes that parameter to."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo, seen, read = [(name, funcs[name].args.args[0].arg)], set(), set()
    while todo:
        fn, param = todo.pop()
        if (fn, param) in seen:
            continue
        seen.add((fn, param))
        for node in ast.walk(funcs[fn]):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and node.value.id == param:
                read.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and node.func.id in funcs:
                callee = funcs[node.func.id].args.args
                todo += [(node.func.id, callee[i].arg)
                         for i, a in enumerate(node.args)
                         if isinstance(a, ast.Name) and a.id == param]
    return read


def test_every_subcommand_reads_every_option_it_defines():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = {(command, action.dest)
              for command, parser in sub.choices.items()
              for action in parser._actions if action.dest != "help"
              and action.dest not in _options_read(tree, "_cmd_" + command)}
    # the README documents verify --threads as accepted and ignored
    assert unread == {("verify", "threads")}


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


def test_reader_closing_the_pipe_early_is_not_an_error():
    # the 80 840 listed sets overflow the pipe, so the write meets the close
    src = os.path.dirname(os.path.dirname(wellcovered.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "wellcovered", "mis",
                             "sierpinski_4", "--mode", "list", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
