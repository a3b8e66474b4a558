"""tools/loc.py counts the lines that hold code: blank lines, comments and
module, class and function docstrings are left out, and every line a
multi-line statement or a non-docstring string spans is counted."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function
    docstring."""

    text = """not a docstring:
counted"""
    return (x +
            os.sep.count(text))
'''


def _loc():
    path = REPO / "tools" / "loc.py"
    spec = importlib.util.spec_from_file_location("loc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_fixed_snippet():
    loc = _loc()
    # import, class, size, def, the two lines of text, the two of return
    assert loc.code_lines(SNIPPET) == 8
    assert loc.code_lines("") == 0
