"""Monte Carlo harness for the replication sweeps behind the two summary tables.

The first sweep scores the direction estimate: root mean squared error of
the fitted angle (in degrees; the generating direction is horizontal, so
the truth is zero).  The second scores four intensity estimators by root
mean integrated squared error, area-normalized:

    sqrt( mean over replications of (1/|S|) * integral_S (est - truth)^2 )

Each estimate is scored on the grid it is exported on (``estimate._cells``).
The three 1-D estimators (known angle, fitted angle, constant) take
midpoint cells of their own orthogonal offset v, and Gauss-Legendre nodes
in u along each cell's chord; the bivariate smoother a tensor grid.

Every (process, a, z, h, replication) cell draws from its own RNG stream,
keyed by a stable hash of the cell coordinates, so results are bitwise
reproducible at any parallelism level and adding cells never perturbs
existing ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .estimate import (
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    _axis,
    _cells,
    _coarse_angles,
    _map_ordered,
    fit_theta,
)
from .geometry import PointPattern, Subspace, Window, _chord_ends, _count, _distinct, unproject_xy
from .io import _write_csv
from .kernels import validate_bandwidth
from .simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    simulate_poisson_beta,
    simulate_thomas,
)

__all__ = [
    "PROCESSES",
    "TABLE2_ESTIMATORS",
    "THETA_ESTIMATOR",
    "ExperimentPlan",
    "CellSummary",
    "ExperimentResult",
    "replication_stream",
    "integrated_squared_error",
    "run_table1",
    "run_table2",
    "write_result_csv",
]

PROCESSES = ("poisson", "thomas")
TABLE2_ESTIMATORS = ("substat_known", "substat_fitted", "kernel2d", "stationary")
THETA_ESTIMATOR = "theta_hat"

# nodes and weights on [-1, 1] for the truth along each chord
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class ExperimentPlan:
    """A replication sweep over (a, z, h) cells for one process.

    ``search_halfwidth_deg`` is part of the replication protocol: the
    direction fit is scored against the generating (horizontal) axis, and
    the search is confined to this many degrees around it.  An open search
    would be dominated by smoothing noise in the weak-information cells
    (small windows, small bandwidths), where no criterion pins the angle;
    the published spreads for those cells match a bounded search.  Set it
    to None for a full [-90, 90) search.
    """

    process: str
    a_values: tuple[float, ...]
    z_values: tuple[float, ...]
    h_values: tuple[float, ...]
    replications: int
    master_seed: int
    target: str
    gamma: float = ThomasModel.gamma
    sigma: float = ThomasModel.sigma
    search_halfwidth_deg: float | None = 6.0

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise ValueError(f"process must be one of {PROCESSES}, got {self.process!r}")
        if self.target not in ("table1", "table2"):
            raise ValueError(f"target must be 'table1' or 'table2', got {self.target!r}")
        # each value is checked by its owner here, not when the sweep reaches its cell
        owners = {
            "a_values": lambda a: PoissonBetaModel(a, Window(1.0)).a,
            "z_values": lambda z: Window(z, 1.0).z,
            "h_values": validate_bandwidth,
        }
        for name, owner in owners.items():
            vals = tuple(owner(float(v)) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            _distinct(name, vals)
            object.__setattr__(self, name, vals)
        _coarse_angles(self.search_halfwidth_deg)  # the search's owner; the value stays as given
        if self.target == "table1" and any(a == 1.0 for a in self.a_values):
            raise ValueError(
                "direction sweeps exclude a=1: the invariance direction of a "
                "stationary pattern is not identified"
            )
        _count("replications", self.replications, 1)
        RngStream(self.master_seed)
        if self.process == "thomas":
            ThomasModel(PoissonBetaModel(self.a_values[0], Window(1.0)), self.gamma, self.sigma)


@dataclass(frozen=True)
class CellSummary:
    """Aggregated metric for one cell; samples carry the per-rep values."""

    metric_value: float
    mc_standard_error: float
    replications: int
    samples: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class ExperimentResult:
    target: str
    cells: dict[tuple, CellSummary]

    def cell(self, process: str, a: float, z: float, h: float, estimator: str) -> CellSummary:
        return self.cells[(process, float(a), float(z), float(h), estimator)]


def replication_stream(
    master_seed: int, process: str, a: float, z: float, h: float, rep: int
) -> RngStream:
    """Independent stream for one replication of one cell.

    The stream index hashes the cell coordinates, so the draws of a cell
    never depend on which other cells the plan contains.
    """
    key = f"{process}|a={a:.12g}|z={z:.12g}|h={h:.12g}|rep={rep:d}"
    index = int.from_bytes(hashlib.blake2b(key.encode("ascii"), digest_size=8).digest(), "big")
    return RngStream(master_seed, index)


def _root_mean_with_se(squared_samples: np.ndarray) -> tuple[float, float]:
    """Root of the mean of the samples, with a delta-method standard error."""
    mean = float(np.mean(squared_samples))
    root = math.sqrt(mean)
    if squared_samples.size < 2 or root == 0.0:
        return root, 0.0
    se_mean = float(np.std(squared_samples, ddof=1)) / math.sqrt(squared_samples.size)
    return root, se_mean / (2.0 * root)


def integrated_squared_error(estimator, truth) -> float:
    """Area-normalized integrated squared error of one fitted estimator.

    ``truth`` maps the vertical coordinate y to the true intensity.  The
    estimate is scored on its own grid (``estimate._cells``).  A 1-D
    estimator is constant along each line of its offset v (the constant
    estimate takes the horizontal axis's), so the squared error at each of
    its cells is integrated along the cell's chord by Gauss-Legendre.
    """
    axes, widths, values = _cells(estimator)
    if len(axes) == 2:
        truth_vals = np.asarray(truth(axes[1]), dtype=float)
        return float(np.mean((values - truth_vals) ** 2))

    subspace, window = _axis(estimator), estimator.window
    (v,), (dv,) = axes, widths
    lo, hi = _chord_ends(subspace, window, v)
    u = (lo + hi)[:, None] / 2.0 + (hi - lo)[:, None] / 2.0 * _GAUSS_NODES
    _, y = unproject_xy(subspace, u, v[:, None])
    sq = (values[:, None] - np.asarray(truth(y), dtype=float)) ** 2
    return float(np.sum(sq @ _GAUSS_WEIGHTS * (hi - lo) / 2.0) * dv / window.area)


def _sweep(plan: ExperimentPlan, threads: int, names, replicate, squared=None) -> dict:
    """One CellSummary per (a, z, h) cell of the plan and per name.

    ``replicate(model, h, pattern)`` scores one simulated replication and
    returns one value per name.  A cell's metric is the root mean of
    ``squared(values)`` over its replications (of the values themselves when
    ``squared`` is None); its samples are the values.  Every replication of
    every cell is one job of a single ``_map_ordered`` call, on at most
    ``threads`` worker processes; each draws its own stream, so no value
    depends on the worker that ran it.
    """
    thomas = plan.process == "thomas"
    simulate = simulate_thomas if thomas else simulate_poisson_beta
    plan_cells = []
    for a in plan.a_values:
        for z in plan.z_values:
            base = PoissonBetaModel(a, Window(z, 1.0))
            model = ThomasModel(base, gamma=plan.gamma, sigma=plan.sigma) if thomas else base
            plan_cells += [(a, z, h, model) for h in plan.h_values]
    reps = plan.replications

    def job(k: int) -> tuple:  # replication k % reps of cell k // reps
        a, z, h, model = plan_cells[k // reps]
        stream = replication_stream(plan.master_seed, plan.process, a, z, h, k % reps)
        return replicate(model, h, simulate(model, stream))

    values = np.array(_map_ordered(job, range(len(plan_cells) * reps), threads))
    cells: dict[tuple, CellSummary] = {}
    for i, (a, z, h, _) in enumerate(plan_cells):
        for j, name in enumerate(names):
            samples = values[i * reps : (i + 1) * reps, j]
            metric, se = _root_mean_with_se(samples if squared is None else squared(samples))
            cells[(plan.process, a, z, h, name)] = CellSummary(
                metric, se, reps, tuple(map(float, samples))
            )
    return cells


def run_table1(plan: ExperimentPlan, threads: int = 0) -> ExperimentResult:
    """Root-MSE of the fitted angle for every (a, z, h) cell of the plan.

    ``threads`` caps the worker processes of the plan's replications, which fork from two
    (see ``_sweep``); results do not depend on it.
    """
    if plan.target != "table1":
        raise ValueError("plan target must be 'table1'")

    def replicate(model, h: float, pattern: PointPattern) -> tuple:
        fit = fit_theta(pattern, h, search_halfwidth_deg=plan.search_halfwidth_deg)
        return (fit.theta_hat.theta,)

    # the truth is the horizontal axis, angle 0; errors are scored in degrees
    cells = _sweep(plan, threads, (THETA_ESTIMATOR,), replicate, lambda t: np.degrees(t) ** 2)
    return ExperimentResult("table1", cells)


def run_table2(plan: ExperimentPlan, threads: int = 0) -> ExperimentResult:
    """Root-MISE of the four intensity estimators for every plan cell.

    ``threads`` works as in ``run_table1``.
    """
    if plan.target != "table2":
        raise ValueError("plan target must be 'table2'")
    def replicate(model, h: float, pattern: PointPattern) -> tuple:
        # the truth varies in y alone: the known direction is the horizontal axis
        known = SubstationaryIntensity(pattern, Subspace(0.0), h)
        fitted_angle = fit_theta(
            pattern, h, search_halfwidth_deg=plan.search_halfwidth_deg
        ).theta_hat
        fitted = SubstationaryIntensity(pattern, fitted_angle, h)
        smooth2d = KernelIntensity2D(pattern, h)
        constant = StationaryIntensity(pattern)
        return tuple(
            integrated_squared_error(est, model.intensity)
            for est in (known, fitted, smooth2d, constant)
        )

    return ExperimentResult("table2", _sweep(plan, threads, TABLE2_ESTIMATORS, replicate))


def write_result_csv(result: ExperimentResult, path) -> None:
    """Write cells as CSV; float repr keeps the file bitwise reproducible."""
    rows = (
        (*key, s.metric_value, s.mc_standard_error, s.replications)
        for key, s in result.cells.items()
    )
    _write_csv(path, {}, "process,a,z,h,estimator,metric,mc_se,replications", rows)
