"""Mutation check: each mutant is one (file, old, new) edit that breaks a
kernel, with the test file that must fail on it.

    python3 tools/mutants.py

Each mutant is applied alone to a copy of src/ and tests/ in a temporary
directory, and `python -m pytest -x -q <its test file>` runs there, one
process at a time.  A mutant is killed when pytest fails and survives when
it passes; the unmutated copy runs every named test file first and must
pass.  A mutant can also make the code loop forever (a sampling round that
draws no sample, say), so each mutant's pytest run gets three times the
wall time of the unmutated run of every named test file: past that the
child is killed and the mutant reported as "killed (timed out)".  The exit status is 1 if the
unmutated run fails, if any mutant survived or if an `old` string no longer
occurs exactly once in its file, and 0 otherwise.  Standard library only.

Not on the list, because it survives and is not shown equivalent: the odd-p
lane one bit short at construction,
`max(8, 1 << ((n * (p - 1)).bit_length() - 1).bit_length())`, the least
power of two (at least 8) not below bit_length(n(p - 1)) in place of the
least one above it.  The two differ only where bit_length(n(p - 1)) is 8,
16, 32 or 64, n(p - 1) in 128..255 for instance, and there a digit must
overflow to witness it.  The short lane's half-width
2**(bitlen(n(p - 1)) - 1) still exceeds n(p - 1)/2, and a digit is at most
(p - 1) times the independence number alpha, so an overflow needs alpha >
n/2.  The lane reduction also needs 2**(width - 1) >= p, and the short lane
breaks that only at n = 1, where no filter reads a MIS.  No witness showed
on 450 seeded random trees and spiders with alpha > n/2 and at most 30000
MISs, where the two widths differ (p = 3, 5 and 7; n 64 to 90, 32 to 63 and
22 to 42), each compared row for row with the unmutated filter.  Before the
width was rounded, no witness showed on the connected graphs among 3000
seeded G(n, q) draws (n 3 to 11, p = 3 and 5), on stars with up to 13
leaves, on 821 spider and sparse-tree cases at p = 3, 5 and 7, or on 300
more graphs (spiders of 2 to 8 legs of length 1 or 2, and random recursive
trees on 4 to 13 vertices) at each of p = 3, 5 and 7, each compared row for
row with the greedy oracle.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    old: str
    new: str
    tests: str  # the test file that must fail, relative to the root


WCSPACE, WCSPACE_TESTS = "src/wellcovered/wcspace.py", "tests/test_wcspace.py"
FAMILIES, FAMILIES_TESTS = "src/wellcovered/families.py", "tests/test_families.py"
GRAPH, GRAPH_TESTS = "src/wellcovered/graph.py", "tests/test_graph.py"
MIS, MIS_TESTS = "src/wellcovered/mis.py", "tests/test_mis.py"
HARNESS, HARNESS_TESTS = "src/wellcovered/harness.py", "tests/test_harness.py"

MUTANTS = (
    # GF(2): the pivot's support no longer flips the failing slots
    Mutant("xor-packed-not-flipped", WCSPACE,
           "packed[low.bit_length() - 1] ^= x",
           "packed[low.bit_length() - 1] ^= 0", WCSPACE_TESTS),
    # GF(2): the pivot is eliminated from the first other failing vector only
    Mutant("xor-first-other-only", WCSPACE,
           "others = x ^ low",
           "others = (x ^ low) & -(x ^ low)", WCSPACE_TESTS),
    # odd p: a digit that is a nonzero multiple of p fails its vector
    Mutant("slot-mod-p-dropped", WCSPACE,
           "enumerate(_lane_digits(diff, width, n)) if d % p]",
           "enumerate(_lane_digits(diff, width, n)) if d]", WCSPACE_TESTS),
    # odd p: a lane left at p or above after the add is not brought back
    Mutant("lanes-not-reduced", WCSPACE,
           "packed[v] = y - (((y + lift) & high) >> top) * p",
           "packed[v] = y", WCSPACE_TESTS),
    # odd p: the pivot's lane is not cleared, so its vector stays packed
    Mutant("lanes-pivot-kept", WCSPACE,
           "for i, gi in others) - (a << shift)",
           "for i, gi in others)", WCSPACE_TESTS),
    # the rationals: a slot is widened one bit too late
    Mutant("slot-width-one-bit-short", WCSPACE,
           "if l1 >> (width - 1):",
           "if l1 >> width:", WCSPACE_TESTS),
    # the rationals: the pivot is the highest failing slot, so the live
    # slots drift from the free columns and the live vectors are not the
    # free-column basis, though the same rows are selected
    Mutant("slots-pivot-not-lowest", WCSPACE,
           "(j, gj), *others = failing = list(",
           "*others, (j, gj) = failing = list(", WCSPACE_TESTS),
    # the rationals: a live vector is published without dividing by its
    # content or fixing the sign of its first nonzero entry
    Mutant("rational-basis-unnormalised", WCSPACE,
           "vectors.append([x // content for x in w])",
           "vectors.append(w)", WCSPACE_TESTS),
    # a filter with a floor publishes the clique indicators' basis in place
    # of its live vectors, also where its kernel is still above the floor
    Mutant("basis-indicators-above-floor", WCSPACE,
           "    if filt is None:\n",
           "    if filt is None or filt.floor:\n", WCSPACE_TESTS),
    # the listed path skips the second MIS: its row is never tested
    Mutant("listed-path-skips-a-mis", WCSPACE,
           "islice(mis.sets, 1, None)",
           "islice(mis.sets, 2, None)", WCSPACE_TESTS),
    # the certificate accepts a sampled kernel one vector above sc
    Mutant("certified-space-accepts-sc-plus-one", WCSPACE,
           "if len(filters[p].kernel) > rep.sc:",
           "if len(filters[p].kernel) > rep.sc + 1:", WCSPACE_TESTS),
    # the shared maximal-independence test drops its independence clause,
    # so the sampler passes a drawn set holding two adjacent vertices
    Mutant("sampler-independence-dropped", MIS,
           "== len(members) and not chosen & dominated",
           "== len(members)", WCSPACE_TESTS),
    # the shared maximal-independence test drops its domination clause, so
    # is_mis accepts an independent set that a vertex could still join
    Mutant("mis-domination-dropped", MIS,
           "\n            and chosen | dominated == (1 << len(adj)) - 1)",
           ")", MIS_TESTS),
    # a sampling round is not capped by the stall run left, so it draws
    # past the sample where one sample per read would have stopped
    Mutant("round-overdraws", WCSPACE,
           "k = min(max(len(filt.kernel) for filt in live) - floor, "
           "_STALL - stall)",
           "k = max(len(filt.kernel) for filt in live) - floor",
           WCSPACE_TESTS),
    # a rational filter is built while any prime filter is open, not only
    # where none reached its floor to certify the rationals
    Mutant("rational-filter-wrong-condition", WCSPACE,
           "if rationals and len(live) == len(filters):",
           "if rationals and live:", WCSPACE_TESTS),
    # a clique whose removal leaves one component counts as splitting
    Mutant("scs-split-one-component", FAMILIES,
           "if rest and _reach(masks, rest & -rest, rest) != rest:",
           "if rest:", FAMILIES_TESTS),
    # records compare and hash without their last field: a WcSpace ignores
    # its mis_count and a Graph its edges (a one-field FieldSpec keeps its
    # key)
    Mutant("record-key-drops-last-field", GRAPH,
           "cls._key = attrgetter(*cls._fields)",
           "cls._key = attrgetter(*cls._fields[:-1] or cls._fields)",
           "tests/test_records.py"),
    # the record binder takes more positional values than fields and drops
    # the surplus
    Mutant("record-binder-drops-arity-check", GRAPH,
           "if len(args) > len(fields) or kwargs.keys()",
           "if kwargs.keys()", "tests/test_records.py"),
    # the MIS classifier wants a vertex in every simplicial clique, the
    # ones N[seed] already covers included, so no seeded MIS is seeded
    Mutant("classifier-covered-clique-needs-a-vertex", HARNESS,
           "!= bool(c & ~closed)", "!= 1", HARNESS_TESTS),
    # the run cache keys a space by its graph alone: a graph's first space
    # is read back over every other field
    Mutant("run-cache-drops-the-field", HARNESS,
           "key = (mis.graph, fld)",
           "key = (mis.graph, QQ)", HARNESS_TESTS),
    # the count allows one completion past the cap before it raises
    Mutant("count-cap-one-late", MIS, "if total > cap:",
           "if total > cap + 1:", MIS_TESTS),
    # a MIS count recorded on the graph is returned without the cap check,
    # so a later query under a smaller cap does not raise
    Mutant("recorded-count-skips-the-cap", MIS,
           "    if mis_count > cap:  # recorded under a larger cap\n"
           "        raise MisCapExceededError(cap)\n", "", MIS_TESTS),
    # the D scan stops at a candidate of two vertices, not one, so a state
    # may branch more ways than it must
    Mutant("branch-scan-stops-at-two", MIS, "if k < 2:", "if k <= 2:",
           MIS_TESTS),
    # the greedy sampler ignores rng and takes the vertices in label
    # order, so every sample is the same MIS
    Mutant("sampler-order-ignores-rng", MIS,
           "for v in sorted(range(n), key=keys.__getitem__):",
           "for v in range(n):", MIS_TESTS),
    # a vertex is simplicial when one neighbor's closed neighborhood covers
    # its own, not every neighbor's
    Mutant("simplicial-any-neighbor", GRAPH,
           "all(closed & ~masks[u] == 1 << u",
           "any(closed & ~masks[u] == 1 << u", GRAPH_TESTS),
    # the simplicial test reads a vertex's neighbours outside keep, so a
    # neighbour already peeled away still counts
    Mutant("simplicial-reads-outside-keep", GRAPH,
           "closed = (masks[v] | 1 << v) & keep",
           "closed = masks[v] | 1 << v", GRAPH_TESTS),
    # chordal peeling re-tests every remaining vertex but the neighbours of
    # the vertices just deleted, the only ones whose status can change
    Mutant("peeling-skips-deleted-neighbours", GRAPH,
           "test &= keep",
           "test = keep & ~test", GRAPH_TESTS),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old string occurs in its file."""
    return (REPO / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run_tests(tests: list[str], mutant: Mutant | None = None,
              timeout: float | None = None) -> str:
    """"passed" or "failed" for the test files on a copy with the mutant
    applied (with no mutant, on an unmutated copy), or "timed out" when
    pytest runs past timeout seconds and is killed."""
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
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                 "no:cacheprovider", *tests],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:  # the child has been killed
            return "timed out"
    return "failed" if done.returncode else "passed"


VERDICTS = {"failed": "killed", "timed out": "killed (timed out)",
            "passed": "survived"}


def main() -> int:
    # a copy that fails unmutated would count every mutant as killed
    tests = sorted({mutant.tests for mutant in MUTANTS})
    start = time.monotonic()
    if run_tests(tests) != "passed":
        print(f"{' '.join(tests)} fails without a mutant; nothing was run")
        return 1
    timeout = 3 * (time.monotonic() - start)
    status = 0
    for mutant in MUTANTS:
        if occurrences(mutant) != 1:
            print(f"{mutant.name}: stale, `{mutant.old}` occurs "
                  f"{occurrences(mutant)} times in {mutant.path}")
            status = 1
            continue
        outcome = run_tests([mutant.tests], mutant, timeout)
        print(f"{mutant.name}: {VERDICTS[outcome]}", flush=True)
        status |= outcome == "passed"
    return status


if __name__ == "__main__":
    sys.exit(main())
