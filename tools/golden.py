"""Golden manifest: the sha256 of each listed call's stdout, stderr and exit
code, kept in tests/golden.json, so that a change to any output byte names
the call it moved.

    python3 tools/golden.py            # list the calls whose hash moved
    python3 tools/golden.py --write    # record the manifest afresh

A call is a CLI argv, run in process through cli.main, or a named library
call whose stdout is its result as JSON.  The calls (see calls()):
  - `verify default --seed k --json` for k = 1..6;
  - on every corpus graph: `wcdim --json` with the default fields,
    `--field q`, `--field gf:2`, `--field gf:3` and
    `--field gf:5 --field q`; `mis --mode list --json` (sierpinski_4 aside,
    pinned by tests/test_mis.py); `classify --json`; and `compose --json` of
    the graph with itself, glued on its first simplicial clique;
  - certified_space on Sierpinski order 5 over Q, GF(2), GF(3) and GF(5);
  - usage errors, resource caps, and input files that are not UTF-8, start
    with a byte-order mark, end lines in CRLF, fail to parse or are missing.
`verify full` is pinned by tests/test_harness.py and left out.

The input files are written to a temporary directory that is the working
directory while the calls run, so no output names an absolute path.  The
exit status is 0 when every hash matches (or after --write) and 1
otherwise.  Standard library only; the package is imported from src/.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from io import StringIO
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MANIFEST = REPO / "tests" / "golden.json"
if str(REPO / "src") not in sys.path:  # run as a script, without PYTHONPATH
    sys.path.append(str(REPO / "src"))

from wellcovered import cli, wcspace  # noqa: E402
from wellcovered.families import (corpus_comments, corpus_graph,  # noqa: E402
                                  corpus_names, sierpinski)
from wellcovered.graph import format_edge_list, simplicial_report  # noqa: E402
from wellcovered.linalg import GF2, GF3, QQ, FieldSpec  # noqa: E402

_BOM = b"\xef\xbb\xbf"


def _figure1() -> bytes:
    return format_edge_list(corpus_graph("figure1"),
                            corpus_comments("figure1")).encode()


# the input files of the file cases, by name
FILES = {
    "figure1.g": _figure1,
    "bom.g": lambda: _BOM + _figure1(),
    "crlf.g": lambda: _figure1().replace(b"\n", b"\r\n"),
    "cr.g": lambda: _figure1().replace(b"\n", b"\r"),
    "not_utf8.g": lambda: b"n 3\n0 1\n1 \xff2\n",
    "bom_not_utf8.g": lambda: _BOM + b"n 2\n\xff0 1\n",
    "bad_token.g": lambda: b"n 3\n0 zero\n",
    "foreign_digit.g": lambda: "n ٣\n0 1\n1 2\n".encode(),
    "signed_index.g": lambda: b"n 3\n0 1\n1 -2\n",
    "huge_header.g": lambda: b"n 3000000\n",
}

FIELD_SETS = ((), ("--field", "q"), ("--field", "gf:2"), ("--field", "gf:3"),
              ("--field", "gf:5", "--field", "q"))

# argv cases of the error contract: usage errors exit 1, parse errors 2,
# validation and file errors 3, resource caps 4
ERROR_CASES = (
    [], ["bogus"], ["wcdim"], ["verify", "bogus-suite"],
    ["mis", "k3", "--mis-cap", "0"], ["mis", "k3", "--mis-cap", "-1"],
    ["wcdim", "k3", "--mis-cap", "-5"], ["mis", "k3", "--mis-cap", "-0"],
    ["mis", "k3", "--mis-cap", "1_0"], ["wcdim", "k3", "--mis-cap", "0x10"],
    ["verify", "default", "--random-count", "-1"],
    ["verify", "default", "--random-count", "x"],
    ["verify", "default", "--random-count", "0", "--corpus", "missing"],
    ["wcdim", "k3", "--field", "gf:9"], ["wcdim", "k3", "--field", "gf: 3"],
    ["wcdim", "k3", "--field", "gf:٣"], ["wcdim", "k3", "--field", "gf:1"],
    ["wcdim", "k3", "--field", "GF:03", "--mis-cap", "007"],
    ["gen", "path", "٣"], ["gen", "path", "-3"], ["gen", "bogus"],
    ["gen", "corpus", "-o", "out.g"], ["gen", "corpus", "5"],
    ["gen", "k3", "--corpus", "dir"],
    ["gen", "complete", "3", "-o", "no_such_dir/x.g"],
    ["compose", "p5", "p5", "--glue", "nonsense"],
    ["compose", "p5", "p5", "--glue", "0:3", "--glue", "1:4"],
    ["compose", "k3", "k3", "--glue", "0:0", "--glue", "1:+1"],
    ["compose", "triangle_pendant_g1", "triangle_pendant_g2", "--glue", "0:0",
     "--glue", "1:1", "--glue", "2:99", "--glue", "2:2"],
    ["mis", "c12", "--mis-cap", "5", "--mode", "list"],
    ["mis", "c12", "--mis-cap", "5", "--json"],
    ["wcdim", "c12", "--mis-cap", "5"],
    ["wcdim", "no_such_graph"], ["wcdim", "missing.g"], ["wcdim", "."],
    ["wcdim", "not_utf8.g"], ["wcdim", "bom_not_utf8.g"],
    ["wcdim", "bad_token.g"], ["wcdim", "foreign_digit.g"],
    ["wcdim", "signed_index.g"], ["wcdim", "huge_header.g"],
    ["wcdim", "crlf.g", "--json"], ["wcdim", "cr.g", "--json"],
) + tuple([command, name, "--json"] for name in ("figure1.g", "bom.g")
          for command in ("wcdim", "classify", "mis"))


def _self_compose(name: str) -> list[str]:
    """compose of the corpus graph with itself, glued on its first
    simplicial clique, or on vertex 0 where it has none."""
    cliques = simplicial_report(corpus_graph(name)).cliques
    glue = sorted(cliques[0]) if cliques else [0]
    return ["compose", name, name, "--json",
            *(arg for v in glue for arg in ("--glue", f"{v}:{v}"))]


def _certified(field: FieldSpec) -> str:
    """certified_space on Sierpinski order 5 over the field, as JSON."""
    cert = wcspace.certified_space(sierpinski(5).graph, field)
    if cert is not None:
        basis, samples, cliques = cert
        cert = [basis, samples, [sorted(c) for c in cliques]]
    return json.dumps(cert) + "\n"


def calls() -> dict[str, object]:
    """Every call by its name: an argv list, named as a shell command line,
    or a function that returns the stdout of a library call."""
    argvs = [["verify", "default", "--seed", str(k), "--json"]
             for k in range(1, 7)]
    for name in corpus_names():
        argvs += [["wcdim", name, "--json", *f] for f in FIELD_SETS]
        if name != "sierpinski_4":
            argvs.append(["mis", name, "--mode", "list", "--json"])
        argvs += [["classify", name, "--json"], _self_compose(name)]
    out: dict[str, object] = {shlex.join(["wellcovered", *argv]): argv
                              for argv in argvs + list(ERROR_CASES)}
    for field in (QQ, GF2, GF3, FieldSpec(5)):
        out[f"certified_space(sierpinski_5, {field.label()})"] = \
            lambda field=field: _certified(field)
    return out


def _run(call) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one call."""
    if callable(call):
        return call(), "", 0
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(call))
    return out.getvalue(), err.getvalue(), code


def digests() -> dict[str, str]:
    """The sha256 of every call's (stdout, stderr, exit code), run in a
    temporary working directory that holds FILES."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name, data in FILES.items():
            Path(tmp, name).write_bytes(data())
        os.chdir(tmp)
        try:
            return {name: sha256(json.dumps(_run(call)).encode()).hexdigest()
                    for name, call in calls().items()}
        finally:
            os.chdir(home)


def moved() -> list[str]:
    """The calls whose hash differs from the manifest's, or that only one
    side has, sorted."""
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = digests()
    return sorted(name for name in want.keys() | got.keys()
                  if want.get(name) != got.get(name))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        MANIFEST.write_text(json.dumps(digests(), indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
        return 0
    if argv:
        sys.stderr.write("usage: python3 tools/golden.py [--write]\n")
        return 1
    names = moved()
    for name in names:
        print(f"moved: {name}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
