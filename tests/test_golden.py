"""The golden listing: every file the fixed-seed CLI run writes, by digest.

``tools/golden.sh`` runs the CLI steps against the package in ``src`` and
prints one sha256 line per output; ``tools/golden.expected`` holds the
listing of the current tree.  A listing made by another Python or numpy
may differ in its last bits, so the test skips when the toolchain line
differs.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_golden_listing_matches_the_expected_one(tmp_path):
    expected = (ROOT / "tools" / "golden.expected").read_text().splitlines()
    run = subprocess.run(
        ["bash", str(ROOT / "tools" / "golden.sh"), str(ROOT / "src"), str(tmp_path / "out")],
        env=dict(os.environ, PYTHON=sys.executable),
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    if got[0] != expected[0]:
        pytest.skip(f"the listing was made with {expected[0][2:]}, this run uses {got[0][2:]}")
    assert got == expected, "\n".join(difflib.unified_diff(expected, got, lineterm=""))


def test_golden_compare_reports_the_largest_relative_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, moved in ((a, "1.0000000000002"), (b, "1.0")):
        (root / "grids").mkdir(parents=True)
        (root / "same.csv").write_text("h,score\n0.05,-inf\n")
        (root / "grids" / "moved.csv").write_text(f"x,y\n2.5,{moved}\n")
    (b / "extra.txt").write_text("only here\n")
    tool = ROOT / "tools" / "golden_compare.py"
    run = subprocess.run([sys.executable, str(tool), str(a), str(b)], capture_output=True, text=True)
    lines = dict(line.split(None, 1)[::-1] for line in run.stdout.splitlines())
    assert lines["same.csv"] == "identical"
    assert abs(float(lines["grids/moved.csv"]) - 2e-13) < 1e-15
    assert "missing in A  extra.txt" in run.stdout
    assert lines["largest relative difference"].strip() == "2e-13"
