"""The golden manifest, tests/golden.json, still holds: every call that
tools/golden.py lists gives the stdout, stderr and exit code whose sha256
the manifest records.  A change that moves an output on purpose rewrites
the manifest (python3 tools/golden.py --write) and names the moved calls."""

import importlib.util
from pathlib import Path

import wellcovered  # noqa: F401  (the package under test, before the tool)

REPO = Path(__file__).resolve().parents[1]


def _golden():
    path = REPO / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_call_keeps_its_hash():
    golden = _golden()
    assert len(golden.calls()) > 300
    assert golden.moved() == []
