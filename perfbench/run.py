"""Benchmark of the substat package: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is built or installed.  Without tracing the run starts
SETUP_PROBES processes that only set up, then one that sets up and measures;
it prints every end-to-end metric of BENCHMARK.json.  With ``--trace 1`` one
process measures, traced, and the run prints every per-layer metric.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
for a reader, plus the inputs and environment record.  Work files, the trace
and the record go to ``perfbench/.out/``.

Exit codes: 0 with a result, 2 if the checkout holds no package source or
no BENCHMARK.json, 1 if a workload process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
# setup_s is given in seconds on a host whose calibration round takes this long
REFERENCE_ROUND_S = 0.02
TIME_LIMIT_S = 170.0  # every run ends well within the 180 s the contract allows


def _spawn(args, extra: list[str], env: dict, deadline: float) -> dict:
    """Start one workload process, wait for it and return its JSON report."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(HERE / ".out"),
        *extra,
    ]  # fmt: skip
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_setup(report: dict) -> float:
    """Set-up time scaled to REFERENCE_ROUND_S by the calibration timed right
    after set-up in the same process."""
    return report["setup_s"] * REFERENCE_ROUND_S / report["setup_cal"]


def calibrated(report: dict) -> list[float]:
    """Each operation's wall time over the mean calibration time around it."""
    cal = report["calibration"]
    return [t / (0.5 * (a + b)) for t, a, b in zip(report["samples"], cal, cal[1:])]


def assemble(report: dict, setups: list[float], wanted: list[dict], trace: bool) -> dict:
    """The metrics of one run, named and with units as BENCHMARK.json lists them.

    ``setups`` holds the scaled set-up time of every process of the run.  Raises
    ValueError unless the run measured exactly the listed metrics.
    """
    if trace:
        values = report["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "session_cal": statistics.median(calibrated(report)),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise ValueError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + TIME_LIMIT_S

    schema_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "substat" / "__init__.py").is_file() or not schema_path.is_file():
        print(f"no substat source under {ROOT / 'src'} or no {schema_path.name}", file=sys.stderr)
        return 2
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    wanted = schema["per_layer" if args.trace else "end_to_end"]

    src = str(ROOT / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    (HERE / ".out").mkdir(exist_ok=True)
    try:
        probes = [
            _spawn(args, ["--setup-only"], env, deadline)
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        report = _spawn(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    probes.append(report)
    setups = [] if args.trace else [scaled_setup(p) for p in probes]
    try:
        metrics = assemble(report, setups, wanted, bool(args.trace))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print(f"environment: {json.dumps(report['environment'])}")
    for error in report["errors"]:
        print(f"check failed: {error}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"set-up wall time samples = {[p['setup_s'] for p in probes]}")
        print(f"set-up calibration_s samples = {[p['setup_cal'] for p in probes]}")
        print(f"setup_s samples = {setups} (scaled to a {REFERENCE_ROUND_S} s round)")
        session_s = statistics.median(report["samples"])
        print(f"session_s samples = {report['samples']}")
        print(f"calibration_s samples = {report['calibration']}")
        print(f"session_cal samples = {calibrated(report)}")
        print(f"session_s = {session_s!r} s (median wall time, not calibrated)")
        if report["replications"]:
            reps = report["replications"] / session_s
            print(f"reps_per_s = {reps!r} replications/s")
        for name, value in report["quality"].items():
            print(f"{name} = {value!r}")
    else:
        print(f"trace written to {report['trace_file']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
