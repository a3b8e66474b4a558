"""Every module of the package uses each name it imports, only graph.py
reads a Graph's private slots, and every name the bench's layer tracing
wraps exists.

The bench keep-alive imports are the exceptions: bench/spans.py traces those
functions under the importing module's name, so the module imports them
without calling them.
"""

import ast
import importlib.util
from pathlib import Path

import wellcovered
from wellcovered import cli, harness, wcspace
from wellcovered.families import cycle

KEEP_ALIVE = {("cli", "well_covered_space"), ("wcspace", "nullspace_basis"),
              ("wcspace", "enumerate_mis")}

# read outside graph.py through adjacency_masks and simplicial_report
GRAPH_SLOTS = {"_masks", "_simplicial", "_hash"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_use_every_name_they_import():
    package = Path(wellcovered.__file__).parent
    unused = {(path.stem, name)
              for path in package.glob("*.py") if path.name != "__init__.py"
              for name in _unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == KEEP_ALIVE


def test_only_graph_reads_the_private_graph_slots():
    package = Path(wellcovered.__file__).parent
    readers = {(path.stem, node.attr)
               for path in package.glob("*.py") if path.name != "graph.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in GRAPH_SLOTS}
    assert readers == set()


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_traces_exists():
    # a rename here would stop the traced bench run on a missing name
    spans = _bench_spans()
    modules = {"cli": cli, "harness": harness, "wcspace": wcspace}
    missing = [f"{m}.{a}" for m, a, _ in spans.WRAPPED
               if not hasattr(modules[m], a)]
    missing += [f"harness.check_{c}" for c in spans.CHECK_IDS
                if not hasattr(harness, "check_" + c)]
    missing += [f"harness.{t}" for t in spans.CHECK_TABLES
                if not hasattr(harness, t)]
    assert missing == []
    checks = {getattr(harness, "check_" + c) for c in spans.CHECK_IDS}
    for table in spans.CHECK_TABLES:
        assert {fn for _, fn in getattr(harness, table)} <= checks, table
    # the bench reads these off every space it traces
    space = wcspace.well_covered_space(cycle(4), wellcovered.QQ)
    assert (space.graph, space.field, space.mis_count) == \
        (cycle(4), wellcovered.QQ, 2)
