"""The mutant list in tools/mutants.py still applies: each edit's old
string occurs exactly once in its file, so a change to the code cannot
leave a mutant that edits nothing.  Running the mutants themselves
(python3 tools/mutants.py) is not part of this suite."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _mutants():
    path = REPO / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edit_occurs_exactly_once():
    mutants = _mutants()
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) > 0
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert mutants.occurrences(m) == 1, m.name
