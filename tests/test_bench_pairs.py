import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result_line(session_cal, setup_s, rate):
    """One last output line of perfbench/run.py, as it prints it."""
    metrics = {
        "session_cal": {"value": session_cal, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "rate": {"value": rate, "unit": "1/s"},
    }
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


# (parent, change) lines of four seeds
CANNED = [
    (result_line(9.6, 0.50, 10.0), result_line(7.5, 0.52, 12.0)),
    (result_line(9.3, 0.48, 11.0), result_line(7.1, 0.47, 10.0)),
    (result_line(10.0, 0.55, 10.0), result_line(8.1, 0.55, 13.0)),
    (result_line(9.9, 0.46, 9.0), result_line(9.95, 0.50, 9.5)),
]
BETTER = {"session_cal": "lower", "setup_s": "lower", "rate": "higher"}
DECLARED_METRICS = {m: {"name": m, "better": b, "bound": 0.2} for m, b in BETTER.items()}


def test_the_summary_gives_medians_quartiles_and_pairs_won():
    pairs = [(json.loads(p), json.loads(c)) for p, c in CANNED]
    rows = {row["metric"]: row for row in bench_pairs.summarize(pairs, DECLARED_METRICS)}
    assert list(rows) == ["session_cal", "setup_s", "rate"]
    cal = rows["session_cal"]
    assert cal["parent"] == pytest.approx(9.75)  # the median of 9.3, 9.6, 9.9, 10.0
    assert cal["change"] == pytest.approx(7.8)
    # inclusive quartiles of 9.3, 9.6, 9.9, 10.0: 9.3 + 0.75 * 0.3 and 9.9 + 0.25 * 0.1
    assert cal["parent_quartiles"] == pytest.approx((9.525, 9.925))
    assert (cal["won"], cal["pairs"]) == (3, 4)  # 9.95 against 9.9 loses
    assert rows["setup_s"]["won"] == 1  # 0.47 < 0.48; equal and higher values do not win
    assert rows["rate"]["won"] == 3  # higher is better: 12 > 10, 13 > 10, 9.5 > 9
    line = bench_pairs.format_row(cal)
    assert line.startswith("session_cal: parent 9.75 [9.525-9.925] -> change 7.8")
    assert line.endswith("(-20.0%), change better in 3 of 4 pairs: no change")  # 3 < 0.9 * 4
    assert cal["verdict"] == "no change" and rows["rate"]["verdict"] == "no change"


def test_one_pair_is_its_own_quartiles():
    pairs = [(json.loads(CANNED[0][0]), json.loads(CANNED[0][1]))]
    (cal, *_) = bench_pairs.summarize(pairs, DECLARED_METRICS)
    assert cal["parent_quartiles"] == (9.6, 9.6)
    assert (cal["won"], cal["pairs"]) == (1, 1)
    assert cal["verdict"] == "no change"  # won, but a gain needs ten pairs


# ten parent runs: median 10.0, inclusive quartiles 9.9125 and 10.0875
TEN = [9.7, 9.8, 9.9, 9.95, 10.0, 10.0, 10.05, 10.1, 10.2, 10.3]
WIDE = [6.0, 8.0, 9.0, 10.0, 10.0, 10.0, 11.0, 12.0, 13.0, 15.0]  # quartiles 9.25 and 11.75


@pytest.mark.parametrize("better, parent, change, expected", [
    ("lower", TEN, [v - 1.0 for v in TEN], "gain"),  # 10 of 10, a gap of 1 against 0.175
    ("lower", TEN, [v - 1.0 for v in TEN[:9]] + [10.4], "gain"),  # 9 of 10
    ("lower", TEN, [v - 1.0 for v in TEN[:8]] + [10.25, 10.35], "no change"),  # 8 of 10
    ("lower", TEN, [v - 0.1 for v in TEN], "no change"),  # 10 of 10, a gap of 0.1 < 0.175
    ("higher", TEN, [v + 1.0 for v in TEN], "gain"),
    ("higher", TEN, [v - 1.0 for v in TEN], "no change"),  # 10% worse, within the bound
    ("lower", TEN, [v * 1.25 for v in TEN], "regression"),  # 25% worse
    ("lower", TEN, [v * 1.2 for v in TEN], "no change"),  # 20% worse: at the bound, not past it
    ("higher", TEN, [v * 0.75 for v in TEN], "regression"),
    ("lower", WIDE, [v * 1.1 for v in WIDE], "unresolved"),  # spread 25% of the median
    ("lower", WIDE, [v * 0.95 for v in WIDE], "unresolved"),
    ("lower", WIDE, [5.9] * 10, "gain"),  # a gap of 4.1 against 2.5
    ("lower", WIDE, [v * 1.3 for v in WIDE], "regression"),  # a regression is read first
    ("lower", [10.0, 10.0, 20.0, 20.0], [9.5] * 4, "no change"),  # separate, a gap of 5.5 < 10
    ("lower", TEN[:9], [v - 1.0 for v in TEN[:9]], "no change"),  # 9 of 9 by a wide gap: < 10 pairs
    ("lower", WIDE[:9], [5.9] * 9, "no change"),
])
def test_verdicts(better, parent, change, expected):
    assert bench_pairs.compare(parent, change, better, 0.2)["verdict"] == expected


@pytest.mark.parametrize("text, seeds", [("3-5", [3, 4, 5]), ("7", [7]), ("4-4", [4])])
def test_seed_ranges(text, seeds):
    assert list(bench_pairs._seeds(text)) == seeds


DECLARED = ["table2-z10", "table1-z1", "apply-open-n1e3", "apply-bounded-n1e4"]


@pytest.mark.parametrize("text, names", [
    ("all", DECLARED),
    (" all ", DECLARED),
    ("table1-z1", ["table1-z1"]),
    ("apply-open-n1e3,table2-z10", ["apply-open-n1e3", "table2-z10"]),
    ("table1-z1, apply-bounded-n1e4,", ["table1-z1", "apply-bounded-n1e4"]),
])
def test_workload_lists(text, names):
    assert bench_pairs.workloads(text, DECLARED) == names


@pytest.mark.parametrize("text", ["", ",", "table3", "table1-z1,al", "all,table1-z1"])
def test_a_workload_list_names_only_declared_workloads(text):
    with pytest.raises(ValueError, match="expected all or workloads of table2-z10, "):
        bench_pairs.workloads(text, DECLARED)


def fake_tree(tmp_path, names):
    """A tree whose BENCHMARK.json declares ``names`` and the canned lines' metrics."""
    benchmark = {
        "workloads": [{"name": w} for w in names],
        "end_to_end": list(DECLARED_METRICS.values()),
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return str(tmp_path)


def test_all_prints_one_block_per_declared_workload(tmp_path, monkeypatch, capsys):
    tree, runs = fake_tree(tmp_path, ["w1", "w2"]), []

    def run_once(side_tree, workload, seed, seconds):
        runs.append((workload, seed))
        return json.loads(CANNED[seed][0])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([tree, tree, "--workload", "all", "--seeds", "0-1", "--seconds", "1"]) == 0
    assert runs == [("w1", 0), ("w1", 0), ("w1", 1), ("w1", 1), ("w2", 0), ("w2", 0), ("w2", 1), ("w2", 1)]
    blocks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# ")]
    assert blocks == ["# w1, seeds 0-1, 1.0 s runs", "# w2, seeds 0-1, 1.0 s runs"]


def test_a_failed_or_incorrect_run_exits_1_and_the_next_workload_runs(tmp_path, monkeypatch, capsys):
    tree = fake_tree(tmp_path, ["fails", "wrong", "fine"])

    def run_once(side_tree, workload, seed, seconds):
        if workload == "fails":
            raise RuntimeError(f"{side_tree}: {workload} seed {seed} exited with code 1")
        result = json.loads(CANNED[seed][0])
        result["correct"] = workload != "wrong"
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([tree, tree, "--workload", "all", "--seeds", "2"]) == 1
    out = capsys.readouterr()
    assert "fails seed 2 exited with code 1" in out.err
    blocks = [line for line in out.out.splitlines() if line.startswith("# ")]
    assert blocks == ["# wrong, seeds 2-2, 6.0 s runs", "# fine, seeds 2-2, 6.0 s runs"]


def test_the_last_line_records_the_invocation(tmp_path, monkeypatch, capsys):
    parent, change = (tmp_path / "parent", tmp_path / "change")
    for tree in (parent, change):
        tree.mkdir()
        fake_tree(tree, ["w1", "w2"])
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    for args in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, cwd=change, check=True)
    (change / "BENCHMARK.json").write_text((change / "BENCHMARK.json").read_text() + "\n")

    def run_once(side_tree, workload, seed, seconds):
        return json.loads(CANNED[seed][side_tree == str(change)])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "w2", "--seeds", "0-3", "--seconds", "2"]
    assert bench_pairs.main(argv) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["parent"] == {"head": None, "modified": None}  # not a git checkout
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=change, capture_output=True, text=True)
    assert record["change"] == {"head": head.stdout.strip(), "modified": True}
    assert record["ok"] is True
    (workload,) = record["workloads"]
    assert workload["workload"] == "w2" and workload["seeds"] == [0, 1, 2, 3]
    assert workload["run_seconds"] == 2.0
    assert workload["command"] == "perfbench/run.py --workload w2 --seed SEED --seconds 2.0 --trace 0"
    cal = workload["metrics"][0]
    assert cal["metric"] == "session_cal" and (cal["won"], cal["pairs"]) == (3, 4)
    assert cal["verdict"] == "no change"
    assert cal["parent"] == pytest.approx(9.75) and cal["change"] == pytest.approx(7.8)
    assert cal["parent_quartiles"] == pytest.approx([9.525, 9.925])
    assert cal["change_quartiles"] == pytest.approx(bench_pairs.quartiles([7.5, 7.1, 8.1, 9.95]))
