import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = '''"""A module.

Its docstring has a blank line.
"""

import math  # a trailing comment is code

# a comment


class Box:
    """A class."""

    size = 2


def area(r):
    """A function.

    More.
    """
    # a comment in a body
    text = """a string
that is no docstring"""
    return math.pi * r * r, text
'''


def test_each_line_falls_in_one_kind():
    counts = src_lines.count(MODULE)
    assert counts == {"code": 7, "docstring": 9, "comment": 2, "blank": 7}
    assert sum(counts.values()) == len(MODULE.splitlines())


def test_a_docstring_edit_moves_only_the_docstring_count():
    edited = MODULE.replace('    More.\n', '    More.\n\n    And a paragraph\n    of two lines.\n')
    before, after = src_lines.count(MODULE), src_lines.count(edited)
    assert after["docstring"] == before["docstring"] + 3
    assert {k: after[k] for k in ("code", "comment", "blank")} == {
        k: before[k] for k in ("code", "comment", "blank")
    }
    assert sum(after.values()) == len(edited.splitlines())


def test_the_tool_prints_each_file_and_the_totals(tmp_path):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(MODULE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(_PATH), str(tmp_path / "a.py"), str(tmp_path / "b.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    header, *rows, total = proc.stdout.splitlines()
    assert header.split() == ["code", "docstring", "comment", "blank", "lines"]
    assert [row.split()[1:] for row in rows] == [["7", "9", "2", "7", "25"]] * 2
    assert total.split() == ["total", "14", "18", "4", "14", "50"]
