"""scripts/code_lines.py, on a fixture module whose every kind of line is
known: code, docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment beside code counts

# A comment on its own line does not.


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, side):
        """Method docstring,

        with a blank line inside it."""
        note = """a string that is not
        a docstring counts"""
        return side * side  # code


def root(x):
    return math.sqrt(x)
'''

# import, sides = 4, class, def area, note (two lines), return, def root,
# return.
FIXTURE_CODE_LINES = 9


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_counts_code_lines_only():
    assert load_script().code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    assert load_script().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["pkg/empty.py", "0", "1"],
        ["pkg/shapes.py", str(FIXTURE_CODE_LINES), str(len(FIXTURE.splitlines()))],
        ["total", str(FIXTURE_CODE_LINES), str(len(FIXTURE.splitlines()) + 1)],
    ]
