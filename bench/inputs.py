"""The three workloads: seeded inputs, the ops that consume them, and the
answer each op must produce.

Every input derives from the benchmark seed and reaches the program only as
a ``.g`` file or a ``--seed`` argument.  ``prepare`` does the untimed work
(choosing random graphs and counting their MISs with an independent
reference); ``generate`` writes the input files and is what ``setup_s``
times, so it uses only the package's generators and ``format_edge_list``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import answers


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], list[str]]
    # ops with the same key must print byte-identical reports
    same_as: str | None = None


@dataclass
class Workload:
    min_passes: int
    prepare: Callable[[int], dict]
    generate: Callable[[dict, str], None]
    ops: Callable[[dict, str], list[Op]]  # the ops of one pass


# --- wcdim_s4 ----------------------------------------------------------------

# Row selection's cost depends on the vertex order: over GF(2) it takes
# 1.14 to 1.31 million row reductions across relabellings.  A pass runs two
# relabellings, so one seed's luck moves a run's figure less.
S4_RELABELLINGS = 2


def _s4_generate(state: dict, workdir: str) -> None:
    import wellcovered as wc
    sg = wc.sierpinski(4)
    state["n"] = sg.graph.n
    state["corners"] = []
    for k in range(S4_RELABELLINGS):
        perm = list(range(sg.graph.n))
        random.Random(f"wcdim_s4:{state['seed']}:{k}").shuffle(perm)
        g = wc.relabel(sg.graph, perm)
        state["corners"].append([sorted(perm[v] for v in c)
                                 for c in sg.corner_cliques])
        text = wc.format_edge_list(
            g, (f"sierpinski_4 relabelled, seed {state['seed']}, {k}",))
        with open(os.path.join(workdir, f"s4_{k}.g"), "w", encoding="utf-8") as fh:
            fh.write(text)


def _s4_ops(state: dict, workdir: str) -> list[Op]:
    n = state["n"]
    return [Op(["wcdim", os.path.join(workdir, f"s4_{k}.g"), "--json"],
               lambda p, c=corners: answers.check_wcdim_s4(p, c, n))
            for k, corners in enumerate(state["corners"])]


# --- verify_default --------------------------------------------------------------

DEFAULT_SEEDS = 6  # a verify_default pass runs this many consecutive seeds


def _seed_only(seed: int) -> dict:
    return {"seed": seed}


def _no_files(state: dict, workdir: str) -> None:
    pass


def _default_ops(state: dict, workdir: str) -> list[Op]:
    seeds = range(state["seed"], state["seed"] + DEFAULT_SEEDS)
    return [Op(["verify", "default", "--seed", str(s), "--json"],
               answers.check_verify, same_as=f"default:{s}") for s in seeds]


# --- mis_enum ------------------------------------------------------------------------

RANDOM_GRAPHS = 12
CYCLES = (38, 40)
MIS_TARGET = 30_000           # expected MIS count each random graph aims at
# Enumeration time is close to proportional to the MIS count, so a narrow
# band of accepted counts keeps a pass's work nearly the same for every seed.
MIS_BAND = (26_000, 34_000)   # accepted reference counts, inside 10^4..8x10^4


def expected_mis_count(n: int, p: float) -> float:
    """Expected number of maximal independent sets of G(n, p)."""
    q = 1 - p
    return sum(comb(n, k) * q ** comb(k, 2) * (1 - q ** k) ** (n - k)
               for k in range(1, n + 1))


def _p_for_target(n: int, target: float) -> float:
    lo, hi = 0.15, 0.3
    for _ in range(40):
        mid = (lo + hi) / 2
        if expected_mis_count(n, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _mis_prepare(seed: int) -> dict:
    """Choose the random graphs and count their MISs with the reference."""
    graphs = []
    k = 0
    while len(graphs) < RANDOM_GRAPHS:
        rng = random.Random(f"mis_enum:{seed}:{k}")
        k += 1
        n = rng.randint(48, 64)
        p = _p_for_target(n, MIS_TARGET)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if not _connected(n, edges):
            continue
        count = answers.reference_mis_count(n, edges, MIS_BAND[1])
        if MIS_BAND[0] <= count <= MIS_BAND[1]:
            graphs.append({"name": f"gnp_{len(graphs)}_n{n}_p{p:.3f}", "n": n,
                           "edges": edges, "count": count})
    cycles = []
    for n in CYCLES:
        perm = list(range(n))
        random.Random(f"mis_enum:{seed}:cycle{n}").shuffle(perm)
        cycles.append({"name": f"c{n}", "n": n, "perm": perm,
                       "count": answers.perrin(n)})
    return {"seed": seed, "graphs": graphs, "cycles": cycles}


def _mis_generate(state: dict, workdir: str) -> None:
    import wellcovered as wc
    items = [(g["name"], wc.Graph(g["n"], g["edges"])) for g in state["graphs"]]
    items += [(c["name"], wc.relabel(wc.cycle(c["n"]), c["perm"]))
              for c in state["cycles"]]
    for name, g in items:
        with open(os.path.join(workdir, name + ".g"), "w", encoding="utf-8") as fh:
            fh.write(wc.format_edge_list(g, (name,)))


def _mis_ops(state: dict, workdir: str) -> list[Op]:
    ops = []
    for item in state["graphs"] + state["cycles"]:
        expected = item["count"]
        ops.append(Op(["mis", os.path.join(workdir, item["name"] + ".g"), "--json"],
                      lambda p, e=expected: answers.check_mis_count(p, e)))
    return ops


WORKLOADS = {
    "wcdim_s4": Workload(1, _seed_only, _s4_generate, _s4_ops),
    "verify_default": Workload(2, _seed_only, _no_files, _default_ops),
    "mis_enum": Workload(1, _mis_prepare, _mis_generate, _mis_ops),
}
