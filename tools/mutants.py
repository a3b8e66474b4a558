"""Mutation check for the row filter: each mutant is one (file, old, new)
edit that breaks a kernel, and the tests must fail on every one.

    python3 tools/mutants.py

Each mutant is applied alone to a copy of src/ and tests/ in a temporary
directory, and `python -m pytest -x -q tests/test_wcspace.py` runs there,
one process at a time.  A mutant is killed when pytest fails and survives
when it passes; the unmutated copy runs first and must pass.  The exit
status is 1 if it fails, if any mutant survived or if an `old` string no
longer occurs exactly once in its file, and 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
TESTS = "tests/test_wcspace.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    old: str
    new: str


WCSPACE = "src/wellcovered/wcspace.py"

MUTANTS = (
    # GF(2): the pivot's support no longer flips the failing slots
    Mutant("xor-packed-not-flipped", WCSPACE,
           "packed[low.bit_length() - 1] ^= x",
           "packed[low.bit_length() - 1] ^= 0"),
    # GF(2): the pivot is eliminated from the first other failing vector only
    Mutant("xor-first-other-only", WCSPACE,
           "others = x ^ low",
           "others = (x ^ low) & -(x ^ low)"),
    # odd p: a digit that is a nonzero multiple of p fails its vector
    Mutant("slot-mod-p-dropped", WCSPACE,
           "if not p or d % p]",
           "if not p or d]"),
    # the rationals: a slot is widened one bit too late
    Mutant("slot-width-one-bit-short", WCSPACE,
           "if l1 >> (width - 1):",
           "if l1 >> width:"),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old string occurs in its file."""
    return (REPO / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def tests_fail(mutant: Mutant | None) -> bool:
    """True when the tests fail on a copy with the mutant applied (it is
    killed); with None, on an unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = Path(tmp) / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", TESTS],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return done.returncode != 0


def main() -> int:
    # a copy that fails unmutated would count every mutant as killed
    if tests_fail(None):
        print(f"{TESTS} fails without a mutant; nothing was run")
        return 1
    status = 0
    for mutant in MUTANTS:
        if occurrences(mutant) != 1:
            print(f"{mutant.name}: stale, `{mutant.old}` occurs "
                  f"{occurrences(mutant)} times in {mutant.path}")
            status = 1
            continue
        killed = tests_fail(mutant)
        print(f"{mutant.name}: {'killed' if killed else 'survived'}",
              flush=True)
        status |= not killed
    return status


if __name__ == "__main__":
    sys.exit(main())
