"""The counting rule of tools/loc.py, which every code-line count the
ROADMAP quotes rests on."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

# 10 code lines: the import, the def, the four lines of the multi-line
# statement, the return, the class line and both lines of the string that
# is not a docstring.  Docstrings, comments and blank lines count nothing.
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    # a comment in the body
    total = (
        x
        + math.pi
    )

    return total


class C:
    """Class docstring
    on two lines."""

    y = """a string,
not a docstring"""
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert loc.code_lines(path) == 10


def test_docstring_only_module_counts_nothing(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert loc.code_lines(path) == 0


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    loc.main(["loc.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["10", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["11", "total"],
    ]
