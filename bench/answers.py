"""Answer checks for the benchmark's ops.

Each check takes an op's parsed output plus what the benchmark knows about
the input, and returns a list of problems; an empty list means the answer is
correct.  None of them imports the package under test, so a check can never
share a defect with the code it checks.
"""

from __future__ import annotations

import json
from itertools import combinations

S4_MIS_COUNT = 80840
S4_DIMENSION = 3
FIELD_LABELS = ("Q", "GF(2)", "GF(3)")

# figure1's report-only discrepancy, published verbatim by every verify run
FIGURE1_MIS_COUNT = {"formula_residual": 36, "formula_simplicial": 4,
                     "enumerated": 24}


def perrin(n: int) -> int:
    """Perrin number P(n), the number of maximal independent sets of C_n."""
    a, b, c = 3, 0, 2
    for _ in range(n):
        a, b, c = b, c, a + b
    return a


def _field_label(field: dict) -> str:
    if field.get("kind") == "rationals":
        return "Q"
    return f"GF({field.get('p')})"


def check_wcdim_s4(payload: dict, corner_cliques: list[list[int]],
                   n: int) -> list[str]:
    """wcdim of a relabelled Sierpinski gasket of order 4: 80 840 MISs,
    dimension 3 over every field, and every basis vector zero off the
    corner cliques and constant on each of them."""
    problems = []
    if payload.get("mis_count") != S4_MIS_COUNT:
        problems.append(f"mis_count {payload.get('mis_count')} != {S4_MIS_COUNT}")
    if payload.get("fields_agree") is not True:
        problems.append("fields do not agree")
    reports = payload.get("reports", [])
    labels = [_field_label(r.get("field", {})) for r in reports]
    if sorted(labels) != sorted(FIELD_LABELS):
        problems.append(f"fields {labels} != {list(FIELD_LABELS)}")
    corners = [set(c) for c in corner_cliques]
    outside = set(range(n)).difference(*corners)
    for r in reports:
        label = _field_label(r.get("field", {}))
        if r.get("dimension") != S4_DIMENSION:
            problems.append(f"{label}: dimension {r.get('dimension')}")
        basis = r.get("basis", [])
        if len(basis) != S4_DIMENSION:
            problems.append(f"{label}: {len(basis)} basis vectors")
        for k, vec in enumerate(basis):
            if len(vec) != n:
                problems.append(f"{label} vector {k}: length {len(vec)}")
                continue
            off = sorted(v for v in outside if vec[v] != 0)
            if off:
                problems.append(f"{label} vector {k}: nonzero off the corner "
                                f"cliques at {off}")
            for c in corners:
                if len({vec[v] for v in c}) != 1:
                    problems.append(f"{label} vector {k}: not constant on "
                                    f"corner clique {sorted(c)}")
    return problems


def check_verify(report: dict) -> list[str]:
    """A verify report: no asserting failures, and figure1's report-only
    numbers published verbatim."""
    problems = []
    failures = report.get("summary", {}).get("asserting_failures")
    if failures != []:
        problems.append(f"asserting failures: {failures}")
    found = [v for v in report.get("verdicts", [])
             if v.get("check_id") == "mis_count" and v.get("inputs") == ["figure1"]]
    if len(found) != 1:
        problems.append("no mis_count verdict for figure1")
    else:
        details = found[0].get("details", {})
        for key, want in FIGURE1_MIS_COUNT.items():
            if details.get(key) != want:
                problems.append(f"figure1 {key} {details.get(key)} != {want}")
    return problems


def check_mis_count(payload: dict, expected: int) -> list[str]:
    if payload.get("count") != expected:
        return [f"count {payload.get('count')} != {expected}"]
    return []


def parse_json(text: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def reference_mis_count(n: int, edges: list[tuple[int, int]],
                        limit: int) -> int:
    """MIS count by an independent method: the maximal cliques of the
    complement, enumerated by networkx.  Stops counting past ``limit``."""
    import networkx as nx

    comp = nx.Graph()
    comp.add_nodes_from(range(n))
    present = set(edges)
    comp.add_edges_from(e for e in combinations(range(n), 2) if e not in present)
    count = 0
    for _ in nx.find_cliques(comp):
        count += 1
        if count > limit:
            break
    return count
