"""CSV ingestion and export, plus the end-to-end application pipeline.

File conventions: comma-separated, ``.`` decimal point, UTF-8, LF line
endings, mandatory header, ``#``-prefixed comment lines skipped.  ``_field``
is the one place values are written, in fields and ``# key: value`` comments
alike: floats with ``repr``, whose shortest-roundtrip form makes exports
bit-reproducible and re-ingestable without loss, booleans in lower case.

Geographic coordinates are treated as planar: a rectangle in degrees maps
affinely onto the canonical window with no map projection.  That keeps
the pipeline faithful to rectangle-bounded occurrence data but distorts
metric areas at high latitude; callers who need equal-area analysis
should project before ingesting.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from dataclasses import astuple, dataclass

import numpy as np

from .estimate import SubstationaryIntensity, _cells, fit_theta
from .geometry import DataError, PointPattern, Window
from .kernels import validate_bandwidth

__all__ = [
    "DataError",
    "MalformedDataError",
    "RegionSpec",
    "GridExport",
    "ingest_csv",
    "export_pattern_csv",
    "export_intensity_grid",
    "ApplicationRow",
    "ApplicationReport",
    "run_application_pipeline",
]

logger = logging.getLogger(__name__)

DEFAULT_IGNORABLE_GAIN = 10.0


class MalformedDataError(DataError):
    """A data file violated the expected format; carries the line number."""


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned rectangle in source coordinates (e.g. lon/lat degrees)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ValueError(f"x_min must be below x_max, got [{self.x_min}, {self.x_max}]")
        if not (self.y_min < self.y_max):
            raise ValueError(f"y_min must be below y_max, got [{self.y_min}, {self.y_max}]")

    @property
    def window(self) -> Window:
        """Canonical window: the region shifted to the origin."""
        return Window(self.x_max - self.x_min, self.y_max - self.y_min)


def ingest_csv(path, region: RegionSpec) -> PointPattern:
    """Load an ``x,y`` CSV, keep points inside the region, canonicalize.

    Points outside the closed region are dropped (count logged);
    coordinates are shifted so the region's lower-left corner becomes the
    origin.  Malformed rows raise MalformedDataError with their line
    number.  An empty result is allowed but logged as a warning.
    """
    xs: list[float] = []
    ys: list[float] = []
    header_seen = False
    # utf-8-sig also strips the byte-order mark that spreadsheet exports start with
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = [c.strip().lower() for c in line.split(",")]
                if cols != ["x", "y"]:
                    raise MalformedDataError(
                        f"{path}: line {lineno}: expected header 'x,y', got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise MalformedDataError(
                    f"{path}: line {lineno}: expected two comma-separated values"
                )
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise MalformedDataError(f"{path}: line {lineno}: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise MalformedDataError(f"{path}: line {lineno}: non-finite coordinate")
            xs.append(x)
            ys.append(y)
    if not header_seen:
        raise MalformedDataError(f"{path}: missing 'x,y' header")

    x_arr = np.asarray(xs, dtype=float)
    y_arr = np.asarray(ys, dtype=float)
    keep = (
        (x_arr >= region.x_min)
        & (x_arr <= region.x_max)
        & (y_arr >= region.y_min)
        & (y_arr <= region.y_max)
    )
    dropped = int(x_arr.size - keep.sum())
    if dropped:
        logger.info("ingest %s: dropped %d of %d points outside the region", path, dropped, x_arr.size)
    window = region.window
    # clip guards the one-ulp case where shifting pushes a boundary point
    # just past the window edge
    shifted_x = np.clip(x_arr[keep] - region.x_min, 0.0, window.z)
    shifted_y = np.clip(y_arr[keep] - region.y_min, 0.0, window.omega)
    if shifted_x.size == 0:
        logger.warning("ingest %s: no points inside the region", path)
    return PointPattern(shifted_x, shifted_y, window)


def _field(value) -> str:
    """One CSV field or comment value: the only place output is formatted."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return "none"
    return str(value)


def _write_csv(path, comments: dict, header: str, rows) -> None:
    """Write ``# key: value`` comments, the header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}: {_field(value)}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_field, row)) + "\n")


def export_pattern_csv(pattern: PointPattern, path, metadata: dict | None = None) -> None:
    """Write a pattern as an ``x,y`` CSV with optional ``#`` metadata lines."""
    _write_csv(path, metadata or {}, "x,y", zip(pattern.x, pattern.y))


@dataclass(frozen=True, eq=False)
class GridExport:
    """Evaluated intensity grid plus the metadata it was produced with.

    ``axes`` holds the grid's midpoints: one array for a 1-D grid, the x
    then the y midpoints for a 2-D tensor grid.  ``values`` is an array
    shaped by the axes, ``values[i, j]`` at ``(axes[0][i], axes[1][j])``.
    """

    axes: tuple
    values: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values must hold one value per grid node")
        if np.any(self.values < 0):
            raise ValueError("intensity values must be nonnegative")


def _check_resolution(resolution: int | None) -> None:
    if resolution is not None and resolution < 2:
        raise ValueError("resolution must be >= 2")


def export_intensity_grid(estimator, resolution: int | None, path, *, seed=None) -> GridExport:
    """Evaluate an estimator on its midpoint grid (``estimate._cells``) and write it as CSV.

    Substationary and stationary estimates produce ``v,lambda_hat`` rows
    over the orthogonal range (the constant estimate over the heights
    [0, omega]); the 2-D smoother produces ``x,y,lambda_hat`` rows on a
    tensor grid.  ``resolution`` is the cells per axis, None the estimate's
    own: 512, or 128 per axis.  Metadata (estimator kind, angle, bandwidth,
    seed) goes into ``#`` comment lines.
    """
    _check_resolution(resolution)
    theta = getattr(estimator, "theta", None)
    metadata = {"estimator": estimator.kind, "theta": getattr(theta, "theta", None)}
    metadata.update(h=getattr(estimator, "h", None), seed=seed)
    axes, _, values = _cells(estimator, resolution)
    grid = GridExport(axes, values, metadata)
    header = ("v" if len(axes) == 1 else "x,y") + ",lambda_hat"
    # product() runs the last axis fastest, as the values are laid out
    nodes = itertools.product(*grid.axes)
    rows = ((*node, value) for node, value in zip(nodes, grid.values.ravel()))
    _write_csv(path, metadata, header, rows)
    return grid


@dataclass(frozen=True)
class ApplicationRow:
    """Per-bandwidth outcome of the application pipeline."""

    h: float
    theta_hat_rad: float
    theta_hat_deg: float
    loglik_fitted: float
    loglik_axis: float
    delta_loglik: float
    ignorable: bool


@dataclass(frozen=True)
class ApplicationReport:
    rows: tuple[ApplicationRow, ...]
    threshold: float

    def to_csv(self, path) -> None:
        header = "h,theta_hat_rad,theta_hat_deg,loglik_fitted,loglik_axis,delta_loglik,ignorable"
        _write_csv(path, {"ignorable_threshold": self.threshold}, header, map(astuple, self.rows))


def run_application_pipeline(
    pattern: PointPattern,
    h_values,
    *,
    threshold: float = DEFAULT_IGNORABLE_GAIN,
    grid_dir=None,
    grid_resolution: int | None = None,
    search_halfwidth_deg: float | None = None,
    threads: int = 1,
) -> ApplicationReport:
    """Fit the direction per bandwidth and score it against the axis.

    For each bandwidth: fit the invariance direction, compare its
    log-likelihood with that of the horizontal axis (theta = 0), and flag
    the difference as ignorable when it falls below ``threshold``.  The
    fit's coarse grid always holds theta = 0, so the axis value is read
    from its trace and the gain is nonnegative.  With ``grid_dir`` set,
    the axis-aligned intensity curve for each bandwidth is exported there,
    on ``grid_resolution`` cells (None: the estimator's own grid).
    Every input is checked before the first fit.
    """
    h_list = [validate_bandwidth(h) for h in h_values]
    if not h_list:
        raise ValueError("no bandwidths supplied")
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if grid_dir is not None:
        _check_resolution(grid_resolution)
    rows = []
    for h in h_list:
        fit = fit_theta(
            pattern, h, search_halfwidth_deg=search_halfwidth_deg, threads=threads
        )
        ll_axis = dict(fit.trace)[0.0]
        delta = fit.loglik - ll_axis
        rows.append(
            ApplicationRow(
                h=h,
                theta_hat_rad=fit.theta_hat.theta,
                theta_hat_deg=fit.theta_hat.degrees,
                loglik_fitted=fit.loglik,
                loglik_axis=ll_axis,
                delta_loglik=delta,
                ignorable=bool(delta < threshold),
            )
        )
        if grid_dir is not None:
            out = os.path.join(str(grid_dir), f"intensity_axis_h{_field(h)}.csv")
            axis_est = SubstationaryIntensity(pattern, 0.0, h)
            export_intensity_grid(axis_est, grid_resolution, out)
    return ApplicationReport(tuple(rows), threshold)
