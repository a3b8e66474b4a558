"""Seeded fuzzing of the CLI's input contract, in process.

Each case mutates a corpus graph file (a flipped byte, a byte-order mark,
CRLF line ends, a huge count or index, a digit of another script, a lost
or doubled line), runs one graph command on it through cli.main and
checks that:
  - the exit code is 0-4 and nothing raises (no traceback);
  - a failing case writes exactly one stderr line and no stdout;
  - a case that exits 0 writes the same stdout when run again.

The tier-1 run draws CASES cases from SEED.  A longer run:

    PYTHONPATH=src python tests/test_cli_fuzz.py <seed> <cases>
"""

import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from wellcovered.cli import main
from wellcovered.families import corpus_comments, corpus_graph, corpus_names
from wellcovered.graph import format_edge_list

SEED, CASES = 2024, 300

# the graph commands, with a cap that keeps every case small
COMMANDS = (["wcdim"], ["wcdim", "--json", "--field", "gf:3"], ["classify"],
            ["mis", "--mode", "list", "--json"])
CAP = ["--mis-cap", "5000"]

# digits of other scripts that str.isdigit() and int() accept
FOREIGN_DIGITS = ("٣", "３", "\U0001d7d1", "৩")


def _flip(rng, data: bytes) -> bytes:
    if not data:  # every line was dropped
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def _bom(rng, data: bytes) -> bytes:
    return b"\xef\xbb\xbf" + data


def _crlf(rng, data: bytes) -> bytes:
    return data.replace(b"\n", rng.choice((b"\r\n", b"\r")))


def _numbers(data: bytes) -> list[tuple[int, int]]:
    """The spans of the runs of ASCII digits outside comment lines."""
    return [m.span() for m in re.finditer(rb"[0-9]+", data)
            if data[data.rfind(b"\n", 0, m.start()) + 1:][:1] != b"#"]


def _huge(rng, data: bytes) -> bytes:
    # a count or an index far past any graph the cap lets through
    spans = _numbers(data)
    if not spans:
        return data
    i, j = rng.choice(spans)
    return data[:i] + str(rng.choice((10**6, 2**63, 10**40))).encode() + data[j:]


def _foreign_digit(rng, data: bytes) -> bytes:
    spans = _numbers(data)
    if not spans:
        return data
    i = rng.randrange(*rng.choice(spans))
    return data[:i] + rng.choice(FOREIGN_DIGITS).encode() + data[i + 1:]


def _line_edit(rng, data: bytes) -> bytes:
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    if rng.random() < 0.5:
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return b"\n".join(lines)


MUTATIONS = (_flip, _bom, _crlf, _huge, _foreign_digit, _line_edit)


def cases(seed: int, count: int):
    """count (argv prefix, file bytes, mutation names) cases from seed: one
    to three mutations of a corpus file each."""
    rng = random.Random(seed)
    texts = [format_edge_list(corpus_graph(name),
                              corpus_comments(name)).encode()
             for name in corpus_names() if name != "sierpinski_4"]
    for _ in range(count):
        data = rng.choice(texts)
        names = []
        for _ in range(rng.randint(1, 3)):
            mutate = rng.choice(MUTATIONS)
            data = mutate(rng, data)
            names.append(mutate.__name__)
        yield rng.choice(COMMANDS), data, names


def run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def contract_breaches(seed: int, count: int,
                      directory: Path) -> tuple[list[str], set[int]]:
    """One line per case that breaks the contract, and the exit codes seen."""
    target = directory / "case.g"
    breaches, codes = [], set()
    for i, (command, data, names) in enumerate(cases(seed, count)):
        target.write_bytes(data)
        argv = [command[0], str(target), *command[1:], *CAP]
        try:
            code, out, err = run(argv)
            again = run(argv) if code == 0 else None
        except Exception as exc:  # main let it through: a traceback
            breaches.append(f"case {i} {names} {argv[0]}: raised {exc!r}")
            continue
        codes.add(code)
        ok = code in range(5) and "Traceback" not in out + err
        if code:
            ok = ok and not out and err.count("\n") == 1 and err[-1] == "\n"
        else:
            ok = ok and again == (0, out, "")
        if not ok:
            breaches.append(f"case {i} {names} {argv[0]}: exit {code}, "
                            f"stderr {err!r}, data {data[:80]!r}")
    return breaches, codes


def test_mutated_graph_files_keep_the_cli_contract(tmp_path):
    breaches, codes = contract_breaches(SEED, CASES, tmp_path)
    assert breaches == []
    # the draw reaches the exit-0, parse-error and validation paths, and
    # every mutation, so the contract is held on each of them
    assert {0, 2, 3} <= codes
    assert {name for _, _, names in cases(SEED, CASES) for name in names} \
        == {m.__name__ for m in MUTATIONS}


if __name__ == "__main__":
    seed, count = map(int, sys.argv[1:3])
    with tempfile.TemporaryDirectory() as tmp:
        found, codes = contract_breaches(seed, count, Path(tmp))
    print("\n".join(found)
          or f"{count} cases, no breach, exit codes {sorted(codes)}")
    sys.exit(1 if found else 0)
