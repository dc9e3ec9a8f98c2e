#!/usr/bin/env python3
"""Count each Python module's code, docstring, comment and blank lines, with totals.

    python3 tools/src_lines.py [FILE ...]     # default: src/substat/*.py

Every line falls in one class.  A line of a module, class or function
docstring, its blank lines included, is a docstring line; of the rest a line
of whitespace is blank, a line whose first character other than whitespace
is ``#`` a comment, and every other line code.  So the four counts of a
module sum to its line count, and an edit of a docstring alone moves only
its count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one module's source text in each of ``KINDS``."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(Path("src/substat").glob("*.py"))
    width = max(len(str(p)) for p in [*paths, Path("total")])

    def row(name: str, counts: dict[str, int]) -> str:
        cells = [counts[k] for k in KINDS] + [sum(counts.values())]
        return f"{name:{width}}  " + "  ".join(f"{c:9d}" for c in cells)

    print(f"{'':{width}}  " + "  ".join(f"{k:>9}" for k in (*KINDS, "lines")))
    totals = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        totals = {k: totals[k] + counts[k] for k in KINDS}
        print(row(str(path), counts))
    print(row("total", totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
