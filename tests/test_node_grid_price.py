import json
import subprocess
import sys
from pathlib import Path

from substat import kernels

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "node_grid_price.py"


def test_the_tool_times_both_ways_and_records_the_ratios_pick():
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "--sizes", "100", "--runs", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["grid_ratio"] == kernels._GRID_RATIO
    assert record["runs"] == 3
    settings = record["settings"]
    assert len(settings) == 2 * 4 * 3  # data kinds by bandwidths by angles, at one size
    for row in settings:
        assert row["n"] == 100
        assert row["pick"] == ("grid" if row["ratio"] > kernels._GRID_RATIO else "direct")
        for way in ("direct", "grid"):
            q1, q3 = row[way]["quartiles_us"]
            assert 0.0 < q1 <= row[way]["median_us"] <= q3
    lo, hi = record["least_time_ratios"]
    assert hi is None or lo < hi
    assert lo <= record["fitted_ratio"]
    assert record["summed_median_us"]["best"] <= record["summed_median_us"]["ratio"]
    assert record["largest_slowdown"] >= 0.0
