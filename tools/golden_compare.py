#!/usr/bin/env python3
"""Largest relative difference of the numeric fields of two golden runs.

    tools/golden_compare.py A B

A and B are output directories of ``tools/golden.sh``.  Each line of each
file is split into numbers and the text between them.  For every file in
either directory the script prints the largest relative difference
|a - b| / max(|a|, |b|) over its pairs of numbers, ``identical`` when the
bytes agree, or what else differs: the text between numbers, the number of
lines or fields, or a file missing on one side.  Equal infinities and NaNs
count as equal.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

# a signed decimal or exponent number, or an infinity or NaN as Python prints them
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: Path, b: Path) -> tuple[float, str | None]:
    """The largest relative difference of two files' numbers, and what else differs."""
    lines_a = a.read_text(errors="replace").splitlines()
    lines_b = b.read_text(errors="replace").splitlines()
    if len(lines_a) != len(lines_b):
        return math.nan, f"{len(lines_a)} against {len(lines_b)} lines"
    worst = 0.0
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b):
            return worst, f"line {number}: the fields differ"
        # split() alternates text (even places) and numbers (odd places)
        if parts_a[0::2] != parts_b[0::2]:
            return worst, f"line {number}: the text differs"
        for x, y in zip(parts_a[1::2], parts_b[1::2]):
            worst = max(worst, relative(float(x), float(y)))
    return worst, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    roots = (args.a, args.b)
    names = sorted({str(p.relative_to(r)) for r in roots for p in r.rglob("*") if p.is_file()})
    overall = 0.0
    for name in names:
        a, b = args.a / name, args.b / name
        if not (a.is_file() and b.is_file()):
            print(f"{'missing in ' + ('B' if a.is_file() else 'A'):>12}  {name}")
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{'identical':>12}  {name}")
            continue
        worst, other = compare(a, b)
        overall = max(overall, worst)
        print(f"{worst:12.3g}  {name}" + (f"  ({other})" if other else ""))
    print(f"{overall:12.3g}  largest relative difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
