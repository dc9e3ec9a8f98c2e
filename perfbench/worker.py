"""The workload process: set up one workload, run its closed loop, report JSON.

run.py starts this file once per measurement and once per extra set-up
probe; it prints one JSON object as its last line.  One client runs the
operations back to back (a closed loop) from this single process, with
``workloads.THREADS`` threads, until ``--seconds`` have passed and at least
MIN_OPS operations have run; the calibration loop is timed before the first
operation and after each.  With tracing it alternates an untraced and a
traced operation on the same inputs, and derives the per-layer metrics from
the traced ones.

run.py sets OPENBLAS_NUM_THREADS=1 in this process's environment, so the
program's own ``threads`` is its only parallelism; the environment record
reads the setting back from the loaded OpenBLAS.

Set-up time runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC reading
just before it started this process) to the first timed call: interpreter
start, imports, one untimed warm-up and the first operation's inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 10  # check messages kept per run
CALIBRATION_ROUNDS = 8  # fewest rounds of the calibration loop per thread
# after an operation, calibrate for about this share of its wall time, so the
# yardstick of a long operation is as steady as the operation itself
CALIBRATION_SHARE = 0.05
# a median of at least three: the largest workload's operation outlasts a run's seconds
MIN_OPS = 3


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


_CAL_DATA = np.random.default_rng(0).random(1500)
_CAL_TARGETS = np.random.default_rng(1).random(400).reshape(10, 40, 1)


def _calibration_round() -> float:
    """A fixed mix of the work the package does: a dense Gaussian kernel sum
    in numpy, in chunks small enough not to move peak memory, and an
    interpreter-bound loop."""
    total = 0.0
    for targets in _CAL_TARGETS:
        d = (_CAL_DATA[None, :] - targets) / 0.05
        total += float(np.exp(-0.5 * d * d).sum())
    for i in range(60_000):
        total += (i * 0.5) % 7.0
    return total


def calibration_s(threads: int, rounds_per_thread: int = CALIBRATION_ROUNDS) -> float:
    """Median wall time of one calibration round, with ``threads`` threads
    running rounds at once: how fast the host runs at the moment."""
    rounds: list[float] = []  # list.append is atomic

    def work():
        for _ in range(rounds_per_thread):
            start = time.perf_counter()
            _calibration_round()
            rounds.append(time.perf_counter() - start)

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return statistics.median(rounds)


def environment(load: workloads.Workload) -> dict:
    import scipy

    spec = load.spec
    return {
        "workload": spec.name,
        "why": spec.why,
        "n": load.realised_n(0),
        "h": list(spec.h_values),
        "threads": workloads.THREADS,
        "seed": load.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": openblas_threads(),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    spawned_at: float,
    *,
    setup_only: bool = False,
    smoke: bool = False,
) -> dict:
    """Set up one workload, run its loop and return the report run.py reads.

    With ``setup_only`` the report holds only the set-up time and the
    calibration time right after it.  ``smoke`` shrinks the inputs for the
    tests.
    """
    spec = workloads.spec_for(name, smoke)
    load = workloads.Workload(spec, seed, os.path.join(out_dir, f"{name}-s{seed}"))
    load.warm_up()
    inputs = load.prepare(0)
    setup_s = time.monotonic() - spawned_at
    # how fast the host runs right after set-up: run.py scales setup_s by it
    setup_cal = None if trace else calibration_s(workloads.THREADS)
    if setup_only:
        shutil.rmtree(load.work_dir)
        return {"setup_s": setup_s, "setup_cal": setup_cal}

    samples: list[float] = []  # wall time of each untraced operation
    # calibration times around the untraced operations: one before the first,
    # then one after each
    calibration = [] if trace else [setup_cal]
    ops: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    quality: dict[str, float] = {}
    tracer = tracing.Tracer()
    schedule = (False, True) if trace else (False,)  # traced? for each operation of a round
    loop_start = time.perf_counter()
    k = 0  # operations run so far
    while True:
        for traced in schedule:
            if k > 0:  # a traced operation repeats its untraced twin's inputs
                inputs = load.prepare(k // 2 if trace else k)
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                result = load.run(inputs)
            except Exception as exc:  # a failed operation, counted by check()
                result = exc
            finally:
                end = time.perf_counter()
                if traced:
                    tracer.uninstall()
            outcome = load.check(result)
            attempted += outcome.attempted
            failed += outcome.failed
            errors.extend(outcome.errors[: MAX_ERRORS - len(errors)])
            if k == 0:
                quality = outcome.quality
            if not traced:
                samples.append(end - start)
            if not trace:
                share = CALIBRATION_SHARE * (end - start) / calibration[-1]
                rounds = max(CALIBRATION_ROUNDS, int(share))
                calibration.append(calibration_s(workloads.THREADS, rounds))
            ops.append(
                {"start": start, "end": end, "traced": traced, "thread": threading.get_ident()}
            )
            k += 1
        if time.perf_counter() - loop_start >= seconds and k >= MIN_OPS:
            break

    report = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "samples": samples,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "quality": quality,
        "replications": spec.replications,
        "environment": environment(load),
        "correct": failed == 0,
    }
    shutil.rmtree(load.work_dir)
    if trace:
        doc = tracer.document(ops, workloads.THREADS)
        layers = tracing.layer_metrics(doc)
        layers["experiments.theta_rmse_deg"] = quality.get("theta_rmse_deg", 0.0)
        layers["experiments.rmise_fitted"] = quality.get("rmise_fitted", 0.0)
        bad = [e for e in doc["probe_rel_errors"] if not e <= tracing.MAX_REL_ERR]
        if bad:
            report["correct"] = False
            errors.append(f"{len(bad)} sampled at_points calls exceed relative error 1e-8")
        path = os.path.join(out_dir, f"trace-{name}-s{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**doc, "environment": report["environment"], "layers": layers}, fh)
        report["layers"] = layers
        report["trace_file"] = path
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # the CLI's own basicConfig is then a no-op: no INFO line per ingested file
    logging.basicConfig(level=logging.WARNING)
    report = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.out,
        args.spawned_at,
        setup_only=args.setup_only,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
