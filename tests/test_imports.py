"""Every module of the package uses each name it imports, only graph.py
reads a Graph's private slots, every name the package exports has a caller
outside the tests, every name the bench's layer tracing wraps exists, and
importing the CLI loads neither dataclasses nor inspect.

The bench keep-alive imports are the exceptions: bench/spans.py traces those
functions under the importing module's name, so the module imports them
without calling them.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import wellcovered
from wellcovered import cli, harness, wcspace
from wellcovered.families import cycle
from wellcovered.mis import enumerate_mis

KEEP_ALIVE = {("cli", "well_covered_space"), ("wcspace", "nullspace_basis"),
              ("wcspace", "enumerate_mis")}

# read outside graph.py through adjacency_masks, simplicial_report and
# _memoised
GRAPH_SLOTS = {"_masks", "_simplicial", "_hash", "_engine", "_mis_count"}

# exported names that neither the package nor the bench reaches, each kept
# for a reader of the README or the ROADMAP
UNREFERENCED_EXPORTS = {
    "certified_space",  # the README's certificate for the sampled space
    "wcdim",  # the README's one-call dimension
    # ROADMAP item 11: the CLI reads graph files with it once the bench
    # traces graph.parse_edge_list in place of cli.parse_edge_list
    "load_graph",
}

REPO = Path(__file__).resolve().parents[1]


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


def test_every_export_has_a_caller_outside_the_tests():
    # a name counts as reached where a module of the package (other than
    # __init__.py) or of the bench loads it, reads it as an attribute, or
    # imports it; a name only tests reach is dead weight in the library
    package = Path(wellcovered.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    sources = [path for path in package.glob("*.py")
               if path.name != "__init__.py"]
    sources += (REPO / "bench").glob("*.py")
    reached = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reached.update(a.name for a in node.names)
    assert exported - reached == UNREFERENCED_EXPORTS


def _bench_spans():
    path = REPO / "bench" / "spans.py"
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
    space = wcspace.well_covered_space(enumerate_mis(cycle(4)), wellcovered.QQ)
    assert (space.graph, space.field, space.mis_count) == \
        (cycle(4), wellcovered.QQ, 2)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the two cost about a third of a cold start (with ast, dis and
    # tokenize); -S keeps the site hooks of the interpreter out of the count
    src = str(Path(wellcovered.__file__).resolve().parents[1])
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import wellcovered.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
