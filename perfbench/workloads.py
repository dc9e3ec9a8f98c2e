"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Two workloads run one replication-table cell through ``run_table1`` or
``run_table2`` (an operation is one call of R replications); two run one
user session through ``substat.cli.main`` in process (an operation is
``select-bandwidth`` followed by ``apply``).  Each operation gets fresh
inputs derived from the run seed and the operation index, so no cache can
serve one operation from another's work.  ``check`` returns how many
operations the result holds and how many of them failed a check.

``substat`` is imported inside the methods, so that run.py can import this
module before it has checked that the package source is there.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

CANDIDATES = (0.02, 0.05, 0.1)
ORIGIN = (-117.0, 54.0)  # lon/lat-style corner of the region the CSV rows live in
OUTSIDE_FRAC = 0.02  # extra rows placed outside the region, for ingest to drop
GRID_ROWS = 512  # the apply command's default grid resolution
SEARCH_BOUND_DEG = 6.0  # the replication protocol's bounded search
WARM_UP_INDEX = 1_000_000  # operation index whose inputs the warm-up uses
THREADS = 2  # passed to the program explicitly: 0 would mean os.cpu_count()


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "table1", "table2" or "apply"
    why: str
    a: float
    z: float
    h_values: tuple[float, ...]
    replications: int = 0  # table workloads: R per operation
    apply_args: tuple[str, ...] = ()  # apply workloads: extra `apply` flags


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "table2-z10",
            "table2",
            "bulk of Table 2: the direct 1-D kernel sum of the profile point term "
            "and the fitted-direction MISE dominate",
            a=3.0,
            z=10.0,
            h_values=(0.05,),
            replications=8,
        ),
        Spec(
            "table1-z1",
            "table1",
            "weak-information cell of Table 1 at n near 100: per-call overhead, the "
            "boundary correction and golden refinement dominate",
            a=1.5,
            z=1.0,
            h_values=(0.01,),
            replications=32,
        ),
        Spec(
            "apply-open-n1e3",
            "apply",
            "CLI session on n=1000 with the open search: oblique projections make the "
            "integral term large; the only path through io, cli and CV scores",
            a=3.0,
            z=10.0,
            h_values=(0.05, 0.1),
        ),
        Spec(
            "apply-bounded-n1e4",
            "apply",
            "CLI session on n=10000 with a bounded search: the n-squared point term of "
            "the kernel sum dominates, larger than the L2 cache",
            a=3.0,
            z=100.0,
            h_values=(0.05,),
            apply_args=("--search-halfwidth", "6"),
        ),
    )
}

# smoke sizes: the same code paths at a fraction of the work, for the tests
SMOKE = {
    "table2-z10": {"z": 1.0, "replications": 2},
    "table1-z1": {"replications": 2},
    "apply-open-n1e3": {"apply_args": ("--search-halfwidth", "2")},
    "apply-bounded-n1e4": {"z": 10.0, "apply_args": ("--search-halfwidth", "2")},
}


def spec_for(name: str, smoke: bool = False) -> Spec:
    spec = SPECS[name]
    if smoke:
        spec = replace(spec, **SMOKE[name])
    return spec


def stream_seed(seed: int, index: int) -> int:
    """A 32-bit seed for operation ``index`` of a run with master ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What the checks found in one operation's result."""

    attempted: int
    failed: int
    errors: list[str]
    quality: dict[str, float]


class Workload:
    """Runs one workload's operations in this process; see the module docstring."""

    def __init__(self, spec: Spec, seed: int, work_dir: str):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.session_dir = os.path.join(work_dir, "session")
        os.makedirs(work_dir, exist_ok=True)
        if spec.kind == "apply":
            x0, y0 = ORIGIN
            self.region = f"{x0!r},{x0 + spec.z!r},{y0!r},{y0 + 1.0!r}"
            self.points = int(round(100 * spec.z))

    # -- inputs --------------------------------------------------------------

    def prepare(self, index: int, points: int | None = None):
        """Inputs of operation ``index``: a plan, or a CSV file written now."""
        from substat.experiments import ExperimentPlan

        spec = self.spec
        if spec.kind != "apply":
            return ExperimentPlan(
                process="poisson",
                a_values=(spec.a,),
                z_values=(spec.z,),
                h_values=spec.h_values,
                replications=spec.replications,
                master_seed=stream_seed(self.seed, index),
                target=spec.kind,
                search_halfwidth_deg=SEARCH_BOUND_DEG,
            )
        shutil.rmtree(self.session_dir, ignore_errors=True)
        os.makedirs(os.path.join(self.session_dir, "grids"))
        return self._write_pattern(index, points or self.points)

    def _write_pattern(self, index: int, n: int) -> str:
        """n points of the a-shaped vertical profile, shifted to the region.

        The count is fixed at n (a Poisson pattern conditioned on its count)
        so operations of a workload do equal work.
        """
        rng = np.random.default_rng(stream_seed(self.seed, index))
        x0, y0 = ORIGIN
        x = rng.uniform(0.0, self.spec.z, n) + x0
        y = rng.beta(self.spec.a, self.spec.a, n) + y0
        n_out = max(1, int(OUTSIDE_FRAC * n))
        x_out = x0 - rng.uniform(0.1, 1.0, n_out)  # left of the region
        y_out = rng.uniform(y0, y0 + 1.0, n_out)
        path = os.path.join(self.work_dir, f"pattern{index}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,y\n")
            for xs, ys in ((x, y), (x_out, y_out)):
                fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(xs, ys))
        return path

    def realised_n(self, index: int) -> int | list[int]:
        """Point count of operation ``index``: one per replication on tables."""
        if self.spec.kind == "apply":
            return self.points
        from substat.experiments import replication_stream
        from substat.geometry import Window
        from substat.simulate import PoissonBetaModel, simulate_poisson_beta

        plan, spec = self.prepare(index), self.spec
        model = PoissonBetaModel(spec.a, Window(spec.z, 1.0))
        return [
            simulate_poisson_beta(
                model,
                replication_stream(plan.master_seed, "poisson", spec.a, spec.z, spec.h_values[0], r),
            ).n
            for r in range(spec.replications)
        ]

    def warm_up(self) -> None:
        """One untimed operation on small inputs, so lazy set-up is paid."""
        if self.spec.kind == "apply":
            self.run(self.prepare(WARM_UP_INDEX, points=100))
            return
        plan = self.prepare(WARM_UP_INDEX)
        self._runner()(replace(plan, replications=2), threads=THREADS)

    # -- the operation -------------------------------------------------------

    def _runner(self):
        from substat.experiments import run_table1, run_table2

        return run_table1 if self.spec.kind == "table1" else run_table2

    def run(self, inputs):
        """The timed operation.  Returns the raw result for ``check``."""
        if self.spec.kind != "apply":
            return self._runner()(inputs, threads=THREADS)
        return self._session(inputs)

    def _session(self, csv_path: str) -> dict:
        from substat.cli import main

        out = self.session_dir
        spec = self.spec
        common = ["--data", csv_path, f"--region={self.region}"]
        calls = {
            "select-bandwidth": common
            + ["--candidates", ",".join(map(repr, CANDIDATES)), "--out", f"{out}/cv.csv"],
            "apply": common
            + ["--h-values", ",".join(map(repr, spec.h_values)), "--threads", str(THREADS)]
            + ["--out", f"{out}/report.csv", "--grid-dir", f"{out}/grids", *spec.apply_args],
        }
        result = {"dir": out}
        for command, args in calls.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([command, *args])
            result[command] = (code, buf.getvalue())
        return result

    # -- checks --------------------------------------------------------------

    def check(self, result) -> Outcome:
        """Counts the operations in ``result`` and those that failed a check.

        ``result`` is an exception if the operation raised; all of it failed.
        """
        if isinstance(result, Exception):
            n = self.spec.replications if self.spec.kind != "apply" else 2 + len(self.spec.h_values)
            return Outcome(n, n, [f"raised {result!r}"], {})
        if self.spec.kind == "apply":
            return self._check_session(result)
        return self._check_table(result)

    def _check_table(self, result) -> Outcome:
        """A replication fails if its values are not finite or its angle leaves
        the search bound; every replication of a cell fails if the cell breaks
        known <= fitted + 2*hypot(mc_se) (table 2)."""
        spec = self.spec
        key = ("poisson", spec.a, spec.z, spec.h_values[0])
        errors: list[str] = []
        if spec.kind == "table1":
            cell = result.cell(*key, "theta_hat")
            samples = np.degrees(np.asarray(cell.samples))
            bad = ~np.isfinite(samples) | (np.abs(samples) > SEARCH_BOUND_DEG + 1e-9)
            quality = {"theta_rmse_deg": cell.metric_value}
            cells = [cell]
        else:
            names = ("substat_known", "substat_fitted", "kernel2d", "stationary")
            cells = [result.cell(*key, name) for name in names]
            samples = np.column_stack([np.asarray(c.samples) for c in cells])
            bad = ~np.all(np.isfinite(samples) & (samples >= 0.0), axis=1)
            known, fitted = cells[0], cells[1]
            slack = 2.0 * math.hypot(known.mc_standard_error, fitted.mc_standard_error)
            if not known.metric_value <= fitted.metric_value + slack:
                errors.append(
                    f"known {known.metric_value!r} exceeds fitted "
                    f"{fitted.metric_value!r} + {slack!r}"
                )
                bad[:] = True
            quality = {"rmise_fitted": fitted.metric_value}
        if not all(math.isfinite(c.metric_value) for c in cells) or len(bad) != spec.replications:
            errors.append("a cell value is not finite or has the wrong replication count")
            bad = np.ones(spec.replications, dtype=bool)
        if bad.any():
            errors.append(f"{int(bad.sum())} replications failed their checks")
        return Outcome(spec.replications, int(bad.sum()), errors, quality)

    def _check_session(self, result: dict) -> Outcome:
        """Operations: the two CLI calls and one fit per bandwidth."""
        spec = self.spec
        errors: list[str] = []
        out = result["dir"]
        code, printed = result["select-bandwidth"]
        selected = [ln.split("=", 1)[1] for ln in printed.splitlines() if ln.startswith("selected_h=")]
        select_ok = code == 0 and len(selected) == 1 and float(selected[0]) in CANDIDATES
        if select_ok:
            scores = _csv_rows(f"{out}/cv.csv")
            select_ok = len(scores) == len(CANDIDATES)
        if not select_ok:
            errors.append(f"select-bandwidth: exit {code}, output {printed!r}")

        code, printed = result["apply"]
        apply_ok = code == 0
        fits_ok = [False] * len(spec.h_values)
        if apply_ok:
            rows = _csv_rows(f"{out}/report.csv")
            apply_ok = [float(r[0]) for r in rows] == list(spec.h_values)
            for i, row in enumerate(rows if apply_ok else ()):
                theta_deg, delta = float(row[2]), float(row[5])
                fits_ok[i] = abs(theta_deg) < 1.0 and delta >= 0.0
                if not fits_ok[i]:
                    errors.append(f"fit at h={row[0]}: theta_hat_deg {theta_deg}, delta {delta}")
            for h in spec.h_values:
                grid = _csv_rows(f"{out}/grids/intensity_axis_h{h:g}.csv")
                if len(grid) != GRID_ROWS or any(float(r[1]) < 0.0 for r in grid):
                    errors.append(f"grid at h={h:g}: {len(grid)} rows or a negative value")
                    apply_ok = False
        if not apply_ok:
            errors.append(f"apply: exit {code}, output {printed!r}")
        failed = (not select_ok) + (not apply_ok) + sum(not ok for ok in fits_ok)
        return Outcome(2 + len(spec.h_values), failed, errors, {})


def _csv_rows(path: str) -> list[list[str]]:
    """Data rows of a CSV the package wrote: no comments, no header."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]
