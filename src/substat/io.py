"""CSV ingestion and export, plus the end-to-end application pipeline.

File conventions: comma-separated, ``.`` decimal point, UTF-8, LF line
endings, mandatory header, ``#``-prefixed comment lines skipped.  ``_decoded``
reads every text file into its lines and ``_numbered`` numbers them.  Ingest
parses the rows below the header in one numpy pass (``_fast_rows``); a file
that pass refuses goes to the line loop (``_line_rows``), which accepts it or
names its first faulty line.  Either way a file reads to the same floats.
``_field`` is the one place values are written, in fields and ``# key:
value`` comments alike: floats with ``repr``, whose shortest-roundtrip form
makes exports bit-reproducible and re-ingestable without loss, booleans in
lower case.

Geographic coordinates are treated as planar: a rectangle in degrees maps
affinely onto the canonical window with no map projection.  That keeps
the pipeline faithful to rectangle-bounded occurrence data but distorts
metric areas at high latitude; callers who need equal-area analysis
should project before ingesting.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
from dataclasses import astuple, dataclass

import numpy as np

from .estimate import SubstationaryIntensity, _cells, _coarse_angles, _map_ordered, fit_theta
from .geometry import DataError, PointPattern, Window, _count, _distinct
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


def _decoded(path, fault=ValueError) -> list[str]:
    """The lines of a UTF-8 file, with or without a byte-order mark, split at its CR, CRLF
    and LF endings: the one reader of the package's text files.  A byte that is not UTF-8
    raises ``fault`` naming the path and the byte's line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().split("\n")  # read() turns CR and CRLF into LF
    except UnicodeDecodeError as exc:  # read() decodes the whole file: every byte before it
        head, byte = exc.object[: exc.start], exc.object[exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise fault(f"{path}: line {lineno}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from None


def _numbered(lines):
    """The ``(line number, stripped line)`` pairs of ``lines``, less blank and ``#`` lines,
    one at a time, so a reader that stops early strips no further line."""
    for n, raw in enumerate(lines, start=1):
        if (line := raw.strip()) and line[0] != "#":
            yield n, line


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` with an LF, in UTF-8: the one writer of the package's files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


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


def _fast_rows(lines: list[str]):
    """The x and y columns of the rows among ``lines``, in one numpy pass; None where the pass
    refuses them and the line loop must decide.

    With ``comments=None`` numpy skips empty lines, as the loop does, and refuses a ``#``
    line, a line of whitespace, a row whose field count differs from the others' and every
    value its parser rejects (``1_0``, ``１``, which ``float()`` takes); this refuses rows
    that all hold some other count than two fields, a non-finite value, and lines without
    a row, on which ``loadtxt`` warns.  Numpy parses with the routine ``float()`` calls,
    so accepted lines give the loop's floats.
    """
    if not any(lines):
        return None
    try:
        xy = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if xy.shape[1] != 2 or not np.isfinite(xy).all():
        return None
    return xy[:, 0], xy[:, 1]


def _line_rows(path, lines):
    """The x and y columns of the numbered ``lines`` below the header, parsed row by row, or
    MalformedDataError naming the first faulty row's line."""
    xs, ys = [], []
    for lineno, line in lines:
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError("expected two comma-separated values")
            x, y = float(parts[0]), float(parts[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("non-finite coordinate")
        except ValueError as exc:
            raise MalformedDataError(f"{path}: line {lineno}: {exc}") from None
        xs.append(x)
        ys.append(y)
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


def ingest_csv(path, region: RegionSpec) -> PointPattern:
    """Load an ``x,y`` CSV, keep points inside the region, canonicalize.

    Points outside the closed region are dropped (count logged);
    coordinates are shifted so the region's lower-left corner becomes the
    origin.  Malformed rows raise MalformedDataError with their line
    number.  An empty result is allowed but logged as a warning.

    The rows are parsed in one numpy pass (``_fast_rows``); a text that
    pass refuses goes to the line loop (``_line_rows``), which accepts or
    refuses it and names a faulty row's line.
    """
    lines = _decoded(path, MalformedDataError)
    numbered = _numbered(lines)
    lineno, header = next(numbered, (0, None))
    if header is None:
        raise MalformedDataError(f"{path}: missing 'x,y' header")
    if [c.strip().lower() for c in header.split(",")] != ["x", "y"]:
        raise MalformedDataError(f"{path}: line {lineno}: expected header 'x,y', got {header!r}")
    x_arr, y_arr = _fast_rows(lines[lineno:]) or _line_rows(path, numbered)
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
    notes = (f"# {key}: {_field(value)}" for key, value in comments.items())
    body = (",".join(map(_field, row)) for row in rows)
    _write_lines(path, itertools.chain(notes, [header], body))


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


def export_intensity_grid(estimator, resolution: int | None, path, *, seed=None) -> GridExport:
    """Evaluate an estimator on its midpoint grid (``estimate._cells``) and write it as CSV.

    Substationary and stationary estimates produce ``v,lambda_hat`` rows
    over the orthogonal range (the constant estimate over the heights
    [0, omega]); the 2-D smoother produces ``x,y,lambda_hat`` rows on a
    tensor grid.  ``resolution`` is the cells per axis, None the estimate's
    own: 512, or 128 per axis.  Metadata (estimator kind, angle, bandwidth,
    seed) goes into ``#`` comment lines.
    """
    if resolution is not None:
        _count("resolution", resolution, 2)
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
    """Per-bandwidth outcome of the application pipeline; ``loglik_fitted`` is the fit's
    largest evaluated profile value (``FitResult.loglik``), not the profile at theta_hat."""

    h: float
    theta_hat_rad: float
    theta_hat_deg: float
    loglik_fitted: float
    loglik_axis: float
    delta_loglik: float
    ignorable: bool


@dataclass(frozen=True)
class ApplicationReport:
    """One ``ApplicationRow`` per bandwidth, each ``loglik_fitted`` its fit's largest value."""
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
    Every input is checked before the first fit; a repeated bandwidth
    raises ValueError.

    The fits run in one map (``_map_ordered``, which forks from two workers),
    one bandwidth a job: with several bandwidths each fit runs whole in one
    worker, and with one the fit maps its own angles on all of them, so no
    forked worker forks again.  The report does not depend on
    ``threads``.  Every fit ends before the first grid is written, and a forked
    fit's warnings reach the caller after its own share's, not in bandwidth
    order.
    """
    h_list = [validate_bandwidth(h) for h in h_values]
    if not h_list:
        raise ValueError("no bandwidths supplied")
    _distinct("h_values", h_list)
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if grid_resolution is not None:
        _count("resolution", grid_resolution, 2)
    _coarse_angles(search_halfwidth_deg)  # the search's owner checks the half-width
    inner = threads if len(h_list) == 1 else 1  # a lone fit maps its angles, not the bandwidths
    job = functools.partial(
        fit_theta, pattern, search_halfwidth_deg=search_halfwidth_deg, threads=inner
    )
    fits = _map_ordered(job, h_list, threads)
    rows = []
    for h, fit in zip(h_list, fits):
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
