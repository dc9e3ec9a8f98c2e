"""Tests of the benchmark itself, at smoke size (each workload in a few seconds)."""

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
SCHEMA = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SCHEMA["workloads"]]


def measure(name, tmp_path, trace, seed=3):
    return worker.measure(
        name, seed, 0.0, trace, str(tmp_path), time.monotonic(), smoke=True
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {name: measure(name, out, trace=True) for name in NAMES}


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.SPECS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, tmp_path, traced):
    report = measure(name, tmp_path, trace=False)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    for trace, rep, wanted in (
        (False, report, SCHEMA["end_to_end"]),
        (True, traced[name], SCHEMA["per_layer"]),
    ):
        metrics = run.assemble(rep, [] if trace else [run.scaled_setup(rep)], wanted, trace)
        assert list(metrics) == [m["name"] for m in wanted]
        for m in wanted:
            value = metrics[m["name"]]["value"]
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert math.isfinite(value) and (trace or value > 0)


@pytest.mark.parametrize("name", NAMES)
def test_self_time_never_exceeds_busy_time(name, traced):
    report = traced[name]
    assert report["correct"]
    layers = report["layers"]
    for key, value in layers.items():
        if key.endswith(".self_s"):
            assert 0.0 <= value <= layers[key[: -len("self_s")] + "busy_s"] + 1e-12
    doc = json.loads(Path(report["trace_file"]).read_text(encoding="utf-8"))
    selfs = tracing.self_times(doc["spans"])
    assert all(-1e-12 <= selfs[s["id"]] <= s["end"] - s["start"] + 1e-12 for s in doc["spans"])
    # the trace file alone yields the reported per-layer numbers
    again = tracing.layer_metrics(doc)
    assert all(again[k] == layers[k] for k in again)


def test_traced_run_attributes_the_kernel_sum(traced):
    for name in ("table2-z10", "apply-bounded-n1e4"):
        layers = traced[name]["layers"]
        assert layers["estimate.SubstationaryIntensity.evaluate.calls"] > 0
        assert 0.0 < layers["estimate.at_points.max_rel_err"] <= tracing.MAX_REL_ERR
    assert traced["table2-z10"]["layers"]["experiments.busy_frac"] > 0.0
    assert traced["apply-open-n1e3"]["layers"]["io.ingest_csv.rows_per_s"] > 0.0


def test_kernel_pairs_count_the_cv_scores(traced):
    from substat.estimate import SUBSTAT_INTEGRAL_CELLS

    report = traced["apply-open-n1e3"]
    doc = json.loads(Path(report["trace_file"]).read_text(encoding="utf-8"))
    n = report["environment"]["n"]
    per_candidate = n * n + n * SUBSTAT_INTEGRAL_CELLS
    cv = [s for s in doc["spans"] if s["name"] == "estimate.bandwidth_cv_scores"]
    assert cv and all(s["attrs"]["pairs"] == len(workloads.CANDIDATES) * per_candidate for s in cv)
    evaluated = sum(s["attrs"]["pairs"] for s in doc["spans"]
                    if s["name"] == tracing.SUBSTAT + "evaluate")
    n_ops = sum(op["traced"] for op in doc["ops"])
    cv_pairs = sum(s["attrs"]["pairs"] for s in cv)
    assert report["layers"]["estimate.kernel_pairs"] == pytest.approx(
        (evaluated + cv_pairs) / n_ops, rel=1e-12)


def _traced_pool_run(private_s):
    """A fake run_table2 whose pool threads do ``private_s`` of work outside
    any span between two traced calls; returns its per-layer metrics."""
    tracer = tracing.Tracer()
    public = tracer._wrap("geometry.v_range", lambda: time.sleep(0.01))

    def replicate(_):
        public()
        time.sleep(private_s)
        public()

    def run_table2(plan, threads=0):
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(replicate, range(4)))

    owner = tracer._wrap("experiments.run_table2", run_table2)
    start = time.perf_counter()
    owner(None, threads=2)
    op = {"start": start, "end": time.perf_counter(), "traced": True,
          "thread": threading.get_ident()}
    return tracing.layer_metrics(tracer.document([op], 2))


def test_unattributed_time_on_pool_threads_is_counted():
    busy = _traced_pool_run(0.0)
    idle = _traced_pool_run(0.02)
    assert busy["experiments.busy_frac"] > 0.5
    # pool threads: 20 of every 40 ms are private; the client thread is covered
    assert busy["trace.unattributed_frac"] < 0.1
    assert 0.2 < idle["trace.unattributed_frac"] < 0.5


def test_pool_owner_reads_threads_by_name():
    tracer = tracing.Tracer()
    owners = []

    def fit_theta(pattern, h, *, threads=1):
        owners.append(list(tracer._owners))
        return SimpleNamespace(trace=[(0.0, 1.0)], loglik=1.0, degenerate=False)

    wrapped = tracer._wrap("estimate.fit_theta", fit_theta)
    wrapped(None, 5.0)  # h must not be read as a thread count
    wrapped(None, 5.0, threads=2)
    assert owners[0] == [] and len(owners[1]) == 1


def test_oracle_matches_a_loop():
    data, targets, h = [0.1, 0.4, 0.45], [0.0, 0.42], 0.05
    want = [
        sum(math.exp(-0.5 * ((d - t) / h) ** 2) for d in data) / (h * math.sqrt(2 * math.pi))
        for t in targets
    ]
    assert tracing.direct_kernel_sums(data, targets, h) == pytest.approx(want, rel=1e-14)


def _corrupt_table(result):
    """Set the first replication's value in every cell to NaN."""
    for key, cell in list(result.cells.items()):
        samples = (math.nan,) + cell.samples[1:]
        result.cells[key] = type(cell)(cell.metric_value, cell.mc_standard_error,
                                       cell.replications, samples)
    return result


def _corrupt_session(result):
    """Write a negative intensity into the first exported grid."""
    grid = sorted(Path(result["dir"], "grids").iterdir())[0]
    lines = grid.read_text(encoding="utf-8").splitlines()
    first = next(i for i, ln in enumerate(lines) if ln and ln[0] not in "#v")
    v, _ = lines[first].split(",")
    lines[first] = f"{v},-1.0"
    grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result


@pytest.mark.parametrize("name, corrupt", [
    ("table1-z1", _corrupt_table),
    ("table2-z10", _corrupt_table),
    ("apply-open-n1e3", _corrupt_session),
])
def test_corrupted_output_raises_failed_frac(name, corrupt, tmp_path, monkeypatch):
    clean = measure(name, tmp_path, trace=False)
    run_op = workloads.Workload.run

    def corrupted(self, inputs):
        return corrupt(run_op(self, inputs))

    monkeypatch.setattr(workloads.Workload, "run", corrupted)
    broken = measure(name, tmp_path, trace=False)
    assert clean["failed"] == 0
    assert broken["failed"] > 0 and not broken["correct"]


def test_same_seed_gives_the_same_table_values(tmp_path):
    for name, key in (("table1-z1", "theta_rmse_deg"), ("table2-z10", "rmise_fitted")):
        first = measure(name, tmp_path, trace=False, seed=11)["quality"][key]
        second = measure(name, tmp_path, trace=False, seed=11)["quality"][key]
        other = measure(name, tmp_path, trace=False, seed=12)["quality"][key]
        assert first == second != other


def test_command_prints_the_result_last():
    # real size: MIN_OPS operations bound the cost of a 0.1 s run
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "table1-z1", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SCHEMA["end_to_end"])


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "table1-z1", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
