"""Paired benchmark runs of two source trees, and their summary.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W[,W...]|all --seeds A-B [--seconds S]

For each workload named (``all``: every workload the change's
``BENCHMARK.json`` declares, in its order) and each seed from A to B, runs
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` in each
tree, one after the other: the parent first at even seeds, the change first
at odd ones, so neither tree always runs second.  It prints each run's
end-to-end metrics, then one summary block per workload: for each metric,
the parent's median and quartiles, the change's median and quartiles, the
relative change of the medians, the pairs the change won (a pair is one
seed's two runs; a win is strictly better in the direction ``BENCHMARK.json``
gives the metric) and a verdict against the metric's ``bound`` (``compare``).
Quartiles are ``statistics.quantiles(n=4, method="inclusive")``.  A workload
whose run fails gets no block, and the next workload runs.  The last line
printed is one JSON record of the whole invocation: each tree's ``git
rev-parse HEAD`` (null outside a git checkout) and whether its tracked files
differ from it, and for each summarized workload its seeds, run seconds,
command and summary rows, the form that ``BENCH_pairs.json`` lists.  Exits 1
if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return seeds


def workloads(text: str, declared: list[str]) -> list[str]:
    """The workloads of ``--workload``: a comma-separated list of declared ones, or ``all``."""
    if text.strip() == "all":
        return list(declared)
    names = [w.strip() for w in text.split(",") if w.strip()]
    unknown = [w for w in names if w not in declared]
    if not names or unknown:
        raise ValueError(f"expected all or workloads of {', '.join(declared)}, got {text!r}")
    return names


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary of its paired runs, ``better`` being "lower" or "higher" and
    ``bound`` the worsening it allows relative to the parent's median.

    The verdict is ``regression`` if the change's median is worse than the parent's by more
    than the bound; ``gain`` if there are at least ten pairs, the change won at least nine in
    ten, and its median is better than the parent's by more than the parent's interquartile
    range; ``unresolved`` if that range is wider than the bound and not every run of the
    change is better than every run of the parent; ``no change`` otherwise.
    """
    sign = -1.0 if better == "lower" else 1.0
    p, c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    won = sum(sign * (c_i - p_i) > 0 for p_i, c_i in zip(parent, change))
    if sign * (p - c) > bound * abs(p):
        verdict = "regression"
    elif len(parent) >= 10 and 10 * won >= 9 * len(parent) and sign * (c - p) > q3 - q1:
        verdict = "gain"
    elif q3 - q1 > bound * abs(p) and min(sign * v for v in change) <= max(sign * v for v in parent):
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "parent": p,
        "parent_quartiles": (q1, q3),
        "change": c,
        "change_quartiles": quartiles(change),
        "won": won,
        "pairs": len(parent),
        "verdict": verdict,
    }


def summarize(pairs: list[tuple[dict, dict]], declared: dict[str, dict]) -> list[dict]:
    """One row per metric of the parsed (parent, change) results of ``perfbench/run.py``.

    ``declared`` maps each metric to its entry in ``BENCHMARK.json``'s ``end_to_end``
    list, whose ``better`` and ``bound`` ``compare`` reads; the rows follow the order of
    the first parent result's metrics.
    """
    rows = []
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        entry = declared[name]
        rows.append({"metric": name, **compare(parent, change, entry["better"], entry["bound"])})
    return rows


def format_row(row: dict) -> str:
    p, c = row["parent"], row["change"]
    rel = f"{100.0 * (c - p) / p:+.1f}%" if p else "n/a"
    (p1, p3), (c1, c3) = row["parent_quartiles"], row["change_quartiles"]
    return (
        f"{row['metric']}: parent {p:.4g} [{p1:.4g}-{p3:.4g}] -> change {c:.4g} [{c1:.4g}-{c3:.4g}]"
        f" ({rel}), change better in {row['won']} of {row['pairs']} pairs: {row['verdict']}"
    )


def command(workload: str, seed, seconds: float) -> list[str]:
    """The arguments of one untraced ``perfbench/run.py`` run, after the interpreter."""
    return [
        "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip


def revision(tree: str) -> dict:
    """The tree's ``git rev-parse HEAD`` and whether its tracked files differ from it, or nulls."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
        except OSError:  # no git
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if head else None
    return {"head": head, "modified": None if status is None else bool(status)}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``; its last output line, parsed."""
    cmd = [sys.executable, *command(workload, seed, seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def pair_runs(args, workload: str, declared: dict[str, dict]) -> tuple[bool, dict | None]:
    """Run one workload's pairs and print its summary block.

    Returns False if a run fails or is not correct, and the workload's record
    for the final JSON line (None if a run fails).
    """
    pairs, ok = [], True
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            try:
                result[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return False, None
            ok &= result[side]["correct"] is True and result[side]["failed"] == 0
            values = {k: v["value"] for k, v in result[side]["metrics"].items()}
            print(f"{workload} seed {seed} {side}: correct={result[side]['correct']} {json.dumps(values)}")
        pairs.append((result["parent"], result["change"]))
    print(f"# {workload}, seeds {args.seeds.start}-{args.seeds.stop - 1}, {args.seconds} s runs")
    rows = summarize(pairs, declared)
    for row in rows:
        print(format_row(row))
    record = {
        "workload": workload,
        "seeds": list(args.seeds),
        "run_seconds": args.seconds,
        "command": " ".join(command(workload, "SEED", args.seconds)),
        "metrics": rows,
    }
    return ok, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's source tree")
    parser.add_argument("change", help="the change's source tree")
    parser.add_argument("--workload", required=True, help="W[,W...] that BENCHMARK.json names, or all")
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, or one seed")
    parser.add_argument("--seconds", type=float, default=6.0, help="each run's --seconds")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    try:
        names = workloads(args.workload, [w["name"] for w in benchmark["workloads"]])
    except ValueError as exc:
        parser.error(str(exc))
    ok, records = True, []
    for workload in names:
        passed, record = pair_runs(args, workload, declared)
        ok &= passed
        records += [record] if record else []
    trees = {side: revision(getattr(args, side)) for side in ("parent", "change")}
    print(json.dumps({**trees, "ok": ok, "workloads": records}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
