"""Times the node grid against the direct kernel sum, and fits the ratio that picks between them.

    python3 tools/node_grid_price.py [--sizes 100,300,1000,3000,10000] [--runs 9] [--seed 1]

A profile evaluation of ``SubstationaryIntensity`` takes its 1-D kernel sums at
the n data and at its plan's integral nodes, m targets in all, either directly
(n*m pairs) or from a node grid of G nodes over the projection range
(``kernels._node_grid``).  For each setting, data kind by n, h and angle, the
script times both ways of taking those sums, the grid's build included:
``--runs`` rounds, each timing the two ways once, the direct sum first at even
rounds and the grid first at odd ones, after one warm-up call of each.  The
data are n points at 100 per unit area in a z x 1 window, z = max(1, n/100),
uniform along it and Beta(3, 3) across it (``beta``), or the same with the
band 0.4 < y < 0.6 left empty (``gapped``), projected at 0, 3 and 45 degrees.

Each line gives the setting, the ratio n*m / (n + m + G), the median time of
each way in microseconds with its quartiles, and the pick of the old rule
(5e4 + 20n + 150G + 80m kernel pairs against n*m) and of today's
(n*m > ``kernels._GRID_RATIO`` * (n + m + G)).  A ``gate`` column reads
``slower`` where today's pick is the slower one of two different picks by more
than the spread, the larger of their two interquartile ranges.  Then come the
summed median times under each rule and under the best pick, the ratios c
that minimize the summed time (any c in a half-open interval between two
settings' ratios picks alike; the fitted c is the interval's geometric
middle, or its end if it is open), and the largest slowdown of each rule's
pick against the faster way.  The last line printed is one JSON record of
the run, with the tree's revision as ``tools/bench_pairs.py`` records it,
the form that ``BENCH_node_grid.json`` lists.

Every timing runs at one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is
set: the grid's convolutions are BLAS products, and a forked map runs them
at one thread.  Run from the repository root, with ``src`` importable.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_pairs import revision  # noqa: E402  (this script's directory leads sys.path)
from substat import kernels  # noqa: E402
from substat.geometry import Subspace, Window, project_xy  # noqa: E402

KINDS = ("beta", "gapped")
BANDWIDTHS = (0.01, 0.02, 0.05, 0.1)
ANGLES_DEG = (0.0, 3.0, 45.0)


def pattern(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, Window]:
    """n points at 100 per unit area: uniform along a z x 1 window, Beta(3, 3) across it."""
    rng = np.random.default_rng(seed)
    z = max(1.0, n / 100)
    x, y = rng.uniform(0.0, z, n), rng.beta(3.0, 3.0, n)
    if kind == "gapped":  # squeeze each half of [0, 1] by 0.8, away from the middle
        y = np.where(y < 0.5, 0.8 * y, 0.2 + 0.8 * y)
    return x, y, Window(z, 1.0)


def old_pick(n: int, m: int, nodes: int) -> bool:
    """The rule the ratio replaced: a grid where 5e4 + 20n + 150G + 80m pairs are below n*m."""
    return 50_000 + 20 * n + 150 * nodes + 80 * m < n * m


def time_setting(kind: str, n: int, h: float, deg: float, runs: int, seed: int) -> dict:
    x, y, window = pattern(kind, n, seed)
    subspace = Subspace.from_degrees(deg)
    plan = kernels._plan(subspace, window, h)
    _, points = project_xy(subspace, x, y)
    data = np.sort(points)

    def direct() -> None:
        kernels._gaussian_sums(h, data, points)
        kernels._gaussian_sums(h, data, plan.nodes)

    def grid() -> None:
        nodes = kernels._build_node_grid(h, data, plan.layout)
        kernels._gaussian_sums(h, data, points, nodes=nodes)
        kernels._gaussian_sums(h, data, plan.nodes, nodes=nodes)

    ways = {"direct": direct, "grid": grid}
    spent: dict[str, list[float]] = {name: [] for name in ways}
    for way in ways.values():
        way()
    for k in range(runs):
        for name in sorted(ways, reverse=bool(k % 2)):  # "direct" first at even rounds
            start = time.perf_counter()
            ways[name]()
            spent[name].append((time.perf_counter() - start) * 1e6)
    m, nodes = n + plan.nodes.size, plan.layout[2]
    row = {"kind": kind, "n": n, "h": h, "deg": deg, "m": m, "nodes": nodes,
           "ratio": n * m / (n + m + nodes)}
    for name, times in spent.items():
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
        row[name] = {"median_us": statistics.median(times), "quartiles_us": [q1, q3]}
    row["old"] = "grid" if old_pick(n, m, nodes) else "direct"
    row["new"] = "grid" if row["ratio"] > kernels._GRID_RATIO else "direct"
    row["gate"] = "ok"
    if row["old"] != row["new"]:
        new, old = row[row["new"]], row[row["old"]]
        spread = max(q3 - q1 for q1, q3 in (new["quartiles_us"], old["quartiles_us"]))
        if new["median_us"] > old["median_us"] + spread:
            row["gate"] = "slower"
    return row


def timing(way: dict) -> str:
    q1, q3 = way["quartiles_us"]
    return f"{way['median_us']:.0f} [{q1:.0f}-{q3:.0f}]"


def picked(rows: list[dict], grid) -> float:
    """The summed median time of the way that ``grid(row)`` picks at each row."""
    return sum(row["grid" if grid(row) else "direct"]["median_us"] for row in rows)


def worst(rows: list[dict], grid) -> float:
    """The largest time of the way ``grid(row)`` picks over the faster way's, less 1."""
    times = [(row["grid"]["median_us"], row["direct"]["median_us"], grid(row)) for row in rows]
    return max((g if pick else d) / min(g, d) - 1.0 for g, d, pick in times)


def fit_ratio(rows: list[dict]) -> tuple[float, float, float]:
    """The half-open interval [lo, hi) of c whose rule n*m > c*(n + m + G) sums the least time,
    and its fitted c: the geometric middle, or its finite end if it is open."""
    cuts = sorted({0.0, *(row["ratio"] for row in rows), math.inf})
    best = min(cuts[:-1], key=lambda c: (picked(rows, lambda row: row["ratio"] > c), c))
    lo, hi = best, cuts[cuts.index(best) + 1]
    if math.isinf(hi):
        return lo, hi, lo
    return lo, hi, math.sqrt(lo * hi) if lo > 0 else hi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", default="100,300,1000,3000,10000", help="comma-separated n")
    parser.add_argument("--runs", type=int, default=9, help="timed rounds per setting (>= 3)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.runs < 3 or min(sizes) < 2:
        parser.error("--runs must be at least 3 and every size at least 2")

    rows = []
    print(f"{'kind':7s} {'n':6s} {'h':5s} {'deg':4s} {'ratio':>7s}  {'direct_us [q1-q3]':>26s} "
          f"{'grid_us [q1-q3]':>26s} old    new    gate")
    for kind in KINDS:
        for n in sizes:
            for h in BANDWIDTHS:
                for deg in ANGLES_DEG:
                    row = time_setting(kind, n, h, deg, args.runs, args.seed)
                    rows.append(row)
                    print(f"{kind:7s} {n:<6d} {h:<5g} {deg:<4g} {row['ratio']:7.1f}  "
                          f"{timing(row['direct']):>26s} {timing(row['grid']):>26s} "
                          f"{row['old']:6s} {row['new']:6s} {row['gate']}", flush=True)

    ratio = kernels._GRID_RATIO
    rules = {
        "old": lambda row: old_pick(row["n"], row["m"], row["nodes"]),
        "new": lambda row: row["ratio"] > ratio,
        "best": lambda row: row["grid"]["median_us"] < row["direct"]["median_us"],
    }
    totals = {name: picked(rows, rule) for name, rule in rules.items()}
    slowest = {name: worst(rows, rule) for name, rule in rules.items() if name != "best"}
    lo, hi, fitted = fit_ratio(rows)
    slower = [row for row in rows if row["gate"] == "slower"]
    print(f"summed median us: old rule {totals['old']:.0f}, ratio {ratio} {totals['new']:.0f}, "
          f"best pick {totals['best']:.0f}")
    print(f"largest slowdown against the faster way: old rule {slowest['old']:.1%}, "
          f"ratio {ratio} {slowest['new']:.1%}")
    print(f"fitted ratio {fitted:.1f}: every c in [{lo:.1f}, {hi:.1f}) sums the least time")
    print(f"settings slower under ratio {ratio} than under the old rule beyond their spread: "
          f"{len(slower)}")
    record = {
        "note": "node grid against the direct sum: sums at the data and the integral nodes, "
                "grid build included",
        "tree": revision(ROOT),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "runs": args.runs, "seed": args.seed, "grid_ratio": ratio,
        "fitted_ratio": fitted, "least_time_ratios": [lo, hi if math.isfinite(hi) else None],
        "summed_median_us": totals, "largest_slowdown": slowest, "gate_slower": len(slower),
        "settings": rows,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
