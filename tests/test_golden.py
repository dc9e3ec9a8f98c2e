"""The golden listing: every file the fixed-seed CLI run writes, by digest.

``tools/golden.sh`` runs the CLI steps against the package in ``src`` and
prints one sha256 line per output; ``tools/golden.expected`` holds the
listing of the current tree.  A listing made by another Python, numpy or
scipy may differ in its last bits, so the test skips when the toolchain
line differs.
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
