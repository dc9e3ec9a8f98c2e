"""Intensity estimators and the invariance-direction fit.

Three estimators of the first-order intensity share one interface:
``at_points(x, y)`` at locations in the observation window and
``integral()`` over the window.  ``evaluate`` takes each estimator's own
coordinates: the orthogonal offset v for the two 1-D estimators, (x, y) for
the bivariate one, which alone also has ``grid_values(x_mids, y_mids)`` on a
tensor grid.

* ``SubstationaryIntensity``: a 1-D Gaussian smoother of the orthogonal
  coordinate v = y*cos(theta) - x*sin(theta), divided by the boundary
  correction for the window, for patterns whose distribution is invariant
  along the subspace at angle theta;
* ``KernelIntensity2D``: the plain bivariate product-Gaussian smoother
  with its boundary correction, which makes no invariance assumption;
* ``StationaryIntensity``: the constant n / area.

``loglik(pattern, est, loo=False)`` is the one Poisson (composite)
log-likelihood.  The direction theta is estimated by maximizing it for the
substationary estimator over theta: a 1-degree coarse grid over [-90, 90)
degrees followed by a bounded Brent search, the module's own
``_bounded_brent`` (so importing the package needs no ``scipy.optimize``).
Bandwidths are selected by
its leave-one-out form (``loo=True``); the profile fit keeps each point in
its own estimate, while cross validation removes it to avoid the
degenerate h -> 0 optimum.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DataError,
    PointPattern,
    Subspace,
    Window,
    _shaped_like,
    chord_measure,
    project_xy,
    v_range,
)
from .kernels import (
    _gaussian_sums,
    _grid_sums,
    _node_grid,
    _scattered_sums,
    correction_2d,
    correction_substat_closed,
    validate_bandwidth,
)

__all__ = [
    "SubstationaryIntensity",
    "KernelIntensity2D",
    "StationaryIntensity",
    "FitResult",
    "BandwidthSelectionError",
    "loglik",
    "fit_theta",
    "bandwidth_cv_scores",
    "select_bandwidth",
]

_DOMAIN_TOL = 1e-9

SUBSTAT_INTEGRAL_CELLS = 400
GRID2D_INTEGRAL_CELLS = 200
GRID_CELLS_1D = 512
GRID_CELLS_2D = 128
FIT_GRID_STEP_DEG = 1.0
FIT_TOL = 1e-4
# the fewest points at which a profile fit on two threads measured no slower
# than on one, at every bandwidth tried (see _map_ordered)
_POOL_MIN_POINTS = 2000


class BandwidthSelectionError(RuntimeError):
    """Raised when no bandwidth candidate yields a finite criterion."""


def _require_inside(window: Window, x, y) -> None:
    if not np.all(window.contains(x, y, tol=_DOMAIN_TOL)):
        raise ValueError("evaluation location outside the observation window")


def _as_subspace(theta) -> Subspace:
    if isinstance(theta, Subspace):
        return theta
    return Subspace(float(theta))


class SubstationaryIntensity:
    """Boundary-corrected 1-D kernel intensity on the orthogonal coordinate.

    The estimate at offset v is the kernel sum of the projected data
    divided by the retained kernel mass of the window, so it depends on
    the points only through their v-projections and is exactly invariant
    under shifts of the data along the subspace.
    """

    kind = "substationary"

    def __init__(self, pattern: PointPattern, theta, h: float):
        self.pattern = pattern
        self.theta = _as_subspace(theta)
        self.h = validate_bandwidth(h)
        _, v = project_xy(self.theta, pattern.x, pattern.y)
        # canonical (sorted) order makes every output independent of the
        # order the points were supplied in
        self._v_data = np.sort(np.atleast_1d(v))
        self._v_lo, self._v_hi = v_range(self.theta, pattern.window)

    @property
    def window(self) -> Window:
        return self.pattern.window

    def _grid(self):
        """The one node grid (or None) that every call reads, built by the first.

        It spans the projection range and is priced against what a profile
        evaluation asks for: the data and the integral cells.
        """
        if not hasattr(self, "_nodes"):
            targets = self._v_data.size + SUBSTAT_INTEGRAL_CELLS
            self._nodes = _node_grid(self.h, self._v_data, self._v_lo, self._v_hi, targets)
        return self._nodes

    def evaluate(self, v):
        """Intensity at orthogonal offset(s) v inside the projection range."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        # written so that NaN fails it
        if not np.all((v_arr >= self._v_lo - _DOMAIN_TOL) & (v_arr <= self._v_hi + _DOMAIN_TOL)):
            raise ValueError(
                f"offset outside the projection range [{self._v_lo:.6g}, {self._v_hi:.6g}]"
            )
        sums = _gaussian_sums(self.h, self._v_data, v_arr, nodes=self._grid())
        corr = correction_substat_closed(self.theta, self.window, self.h, v_arr)
        return _shaped_like(v, sums / corr)

    def at_points(self, x, y):
        _require_inside(self.window, x, y)
        _, v = project_xy(self.theta, x, y)
        return self.evaluate(v)

    def loo_values(self) -> np.ndarray:
        """Estimate at each data point with that point left out.

        The values follow the canonical (sorted-offset) order of the data;
        a point with no neighbour within reach gets exactly 0.
        """
        v = self._v_data
        sums = _gaussian_sums(self.h, v, v, loo=True, nodes=self._grid())
        return sums / correction_substat_closed(self.theta, self.window, self.h, v)

    def integral(self, cells: int = SUBSTAT_INTEGRAL_CELLS) -> float:
        """Integral of the estimate over the window, by midpoint rule.

        Reduces to a 1-D integral of intensity times chord length.
        """
        (mids,), (dv,), lam = _cells(self, cells)
        chords = chord_measure(self.theta, self.window, mids)
        return float(np.sum(lam * chords) * dv)


class KernelIntensity2D:
    """Boundary-corrected bivariate product-Gaussian intensity estimate."""

    kind = "kernel2d"

    def __init__(self, pattern: PointPattern, h: float):
        self.pattern = pattern
        self.h = validate_bandwidth(h)
        order = np.lexsort((pattern.y, pattern.x))
        self._x_data = pattern.x[order]
        self._y_data = pattern.y[order]

    @property
    def window(self) -> Window:
        return self.pattern.window

    def evaluate(self, x, y):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if x_arr.shape != y_arr.shape:
            raise ValueError("x and y must have the same shape")
        _require_inside(self.window, x_arr, y_arr)
        sums = _scattered_sums(self.h, (self._x_data, x_arr), (self._y_data, y_arr))
        corr = correction_2d(self.window, self.h, x_arr, y_arr)
        return _shaped_like(x, sums / corr)

    at_points = evaluate

    def grid_values(self, x_mids: np.ndarray, y_mids: np.ndarray) -> np.ndarray:
        """Estimate on a tensor grid, exploiting the product kernel.

        Returns an array of shape (len(x_mids), len(y_mids)).  The kernel
        sum over the data factorizes into a matrix product, which is far
        cheaper than evaluating every grid node separately.
        """
        sums = _grid_sums(self.h, (self._x_data, x_mids), (self._y_data, y_mids))
        return sums / correction_2d(self.window, self.h, x_mids[:, None], y_mids[None, :])

    def integral(self, cells: int = GRID2D_INTEGRAL_CELLS) -> float:
        _, (dx, dy), values = _cells(self, cells)
        return float(np.sum(values) * dx * dy)


class StationaryIntensity:
    """Constant intensity estimate n / area for stationary patterns."""

    kind = "stationary"

    def __init__(self, pattern: PointPattern):
        self.pattern = pattern
        self.value = pattern.n / pattern.window.area
        self._v_lo, self._v_hi = v_range(_axis(self), pattern.window)

    @property
    def window(self) -> Window:
        return self.pattern.window

    def evaluate(self, v):
        """Intensity at orthogonal offset(s) v of any direction: the constant."""
        return _shaped_like(v, np.full(np.shape(v), self.value))

    def at_points(self, x, y):
        _require_inside(self.window, x, y)
        return self.evaluate(x)  # the constant, shaped like x

    def integral(self, cells: int | None = None) -> float:
        # constant integrand: the midpoint rule is exact, so integrate directly
        return self.value * self.window.area


def _axis(estimator) -> Subspace:
    """The subspace a 1-D estimate is laid along; the constant takes the horizontal axis."""
    return getattr(estimator, "theta", None) or Subspace(0.0)


def _cells(estimator, cells: int | None = None):
    """The midpoint grid an estimate is laid on, and its values: (axes, widths, values).

    ``cells`` per axis, by default ``GRID_CELLS_2D`` over the window for the
    bivariate smoother and ``GRID_CELLS_1D`` over a 1-D estimate's projection
    range (``_v_lo`` to ``_v_hi``, offsets along its ``_axis``).
    """
    window = estimator.window
    if estimator.kind == "kernel2d":
        spans, default = ((0.0, window.z), (0.0, window.omega)), GRID_CELLS_2D
    else:
        spans, default = ((estimator._v_lo, estimator._v_hi),), GRID_CELLS_1D
    cells = default if cells is None else cells
    if cells < 1:
        raise ValueError("cells must be >= 1")
    widths = tuple((hi - lo) / cells for lo, hi in spans)
    axes = tuple(lo + (np.arange(cells) + 0.5) * w for (lo, _), w in zip(spans, widths))
    values = estimator.grid_values(*axes) if len(axes) == 2 else estimator.evaluate(*axes)
    return axes, widths, values


def loglik(
    pattern: PointPattern,
    estimator,
    *,
    loo: bool = False,
    integral_cells: int | None = None,
) -> float:
    """Poisson (composite) log-likelihood of the pattern under an estimate.

    sum_i log(lambda_hat(s_i)) minus the integral of lambda_hat over the
    window.  With ``loo`` the point term uses the leave-one-out values of
    the estimator at its own data (the substationary estimator fitted to
    ``pattern``), as bandwidth cross validation does.  ``integral_cells``
    overrides the estimator's integration resolution.  If the estimate
    vanishes at any data point the result is -inf and a warning is issued.
    """
    if loo and estimator.pattern is not pattern:
        raise ValueError("leave-one-out scoring needs the estimator's own pattern")
    if loo:
        lam = estimator.loo_values()
    else:
        lam = np.atleast_1d(estimator.at_points(pattern.x, pattern.y))
    if np.any(lam <= 0.0):
        warnings.warn(
            "intensity estimate is zero at a data point; log-likelihood is -inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("-inf")
    point_term = float(np.sum(np.sort(np.log(lam))))
    if integral_cells is None:
        return point_term - estimator.integral()
    return point_term - estimator.integral(integral_cells)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the invariance-direction fit.

    trace holds the (theta, log-likelihood) pairs of the coarse grid,
    which always includes theta = 0; the refined maximizer never scores
    below any of them.
    """

    theta_hat: Subspace
    h: float
    loglik: float
    trace: tuple[tuple[float, float], ...]
    degenerate: bool = False


def _map_ordered(job, args, threads: int, points: float) -> list:
    """``job`` of each of ``args``, in order, on at most ``threads`` worker threads.

    ``threads`` is the most to use (0 = one per CPU); a negative count
    raises ValueError at any size, before any job runs.  Jobs on patterns
    of about ``points`` points, below ``_POOL_MIN_POINTS``, run on the
    calling thread: there the threads' small numpy calls contend for the
    interpreter lock, and two threads ran slower than one.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = one per CPU), got {threads}")
    workers = threads or os.cpu_count() or 1
    if workers <= 1 or points < _POOL_MIN_POINTS:
        return [job(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, args))


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimize ``func`` on [lo, hi] by Brent's method; returns (x, func(x)).

    Golden-section steps with parabolic interpolation where a parabola
    through the three best points is acceptable (Brent 1973; fminbound of
    Forsythe, Malcolm & Moler 1977).  It takes the probes that
    ``scipy.optimize.minimize_scalar(method="bounded")`` takes, step for
    step, and stops after 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # the best point (xf), the second best (nfc) and the previous second best (fulc)
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def fit_theta(
    pattern: PointPattern,
    h: float,
    *,
    search_halfwidth_deg: float | None = None,
    threads: int = 1,
) -> FitResult:
    """Estimate the invariance direction by profile composite likelihood.

    Evaluates the profile log-likelihood on a coarse angular grid,
    symmetric about 0 with steps of at most ``FIT_GRID_STEP_DEG``, then
    refines the bracketing interval by a bounded Brent search
    (``_bounded_brent``) to ``FIT_TOL`` radians.  The open
    search covers [-90, 90) degrees in 180 nodes, since +90 degrees names
    the same subspace as -90; a half-width of 90 is the open search.
    The bandwidth is held fixed throughout.
    ``threads``, the most worker threads for the coarse grid, goes to
    ``_map_ordered``; the result does not depend on it.

    ``search_halfwidth_deg`` confines the search to that many degrees on
    either side of the horizontal axis.  In windows that carry little
    directional information the unrestricted profile is dominated by
    smoothing noise and the argmax wanders far from any true direction;
    replication studies that score the fitted angle against a reference
    axis bound the search instead of letting it roam (see the experiment
    harness, which fixes its own half-width as part of the protocol).

    A spread of less than 1e-9 across the grid is flagged as a degenerate
    fit.  Ties prefer the smallest angle.  A pattern of fewer than two
    points raises DataError.
    """
    if pattern.n < 2:
        raise DataError(f"subspace fitting needs at least two points, got {pattern.n}")
    h = validate_bandwidth(h)
    if search_halfwidth_deg is None:
        halfwidth = 90.0
    else:
        halfwidth = float(search_halfwidth_deg)
        if not 0.0 < halfwidth <= 90.0:
            raise ValueError("search_halfwidth_deg must be in (0, 90]")
    open_search = halfwidth == 90.0
    # symmetric about 0, so the horizontal axis is always a grid node
    half = np.linspace(0.0, halfwidth, math.ceil(halfwidth / FIT_GRID_STEP_DEG) + 1)
    thetas = np.radians(np.concatenate((-half[:0:-1], half)))
    if open_search:
        thetas = thetas[:-1]  # +90 degrees names the same subspace as -90

    def profile(theta: float) -> float:
        return loglik(pattern, SubstationaryIntensity(pattern, theta, h))

    values = np.asarray(_map_ordered(profile, thetas, threads, pattern.n))
    trace = tuple(zip((float(t) for t in thetas), (float(g) for g in values)))

    degenerate = bool(values.max() - values.min() < 1e-9)
    if degenerate:
        warnings.warn(
            "profile log-likelihood is flat across directions; "
            "the fitted angle is not informative",
            RuntimeWarning,
            stacklevel=2,
        )

    best_idx = int(np.argmax(values))  # first occurrence: smallest angle wins ties
    best_theta = float(thetas[best_idx])
    best_value = float(values[best_idx])

    # bracket one grid step on each side; on the open search the bracket
    # may cross +-90 degrees, where the Subspace normalization wraps the
    # angle and keeps the profile continuous
    step = math.radians(FIT_GRID_STEP_DEG)
    lo, hi = best_theta - step, best_theta + step
    if not open_search:
        bound = math.radians(halfwidth)
        lo, hi = max(lo, -bound), min(hi, bound)
    x, fun = _bounded_brent(lambda t: -profile(t), lo, hi, FIT_TOL)
    if -fun > best_value:
        best_theta, best_value = x, -fun

    return FitResult(
        theta_hat=Subspace(best_theta),
        h=h,
        loglik=best_value,
        trace=trace,
        degenerate=degenerate,
    )


def bandwidth_cv_scores(
    pattern: PointPattern,
    theta,
    candidates,
    *,
    integral_cells: int = SUBSTAT_INTEGRAL_CELLS,
) -> list[tuple[float, float]]:
    """Leave-one-out likelihood score for each candidate bandwidth.

    The point term drops each point from its own estimate; the integral
    term keeps all points.  Candidates whose leave-one-out estimate
    vanishes at some point score -inf, and so does every candidate on a
    pattern of fewer than two points.
    """
    candidates = [validate_bandwidth(h) for h in candidates]
    if not candidates:
        raise ValueError("no bandwidth candidates supplied")
    # below two points there is no leave-one-out estimate, and loglik of an
    # empty pattern would read 0 rather than -inf
    if pattern.n < 2:
        return [(h, float("-inf")) for h in candidates]
    subspace = _as_subspace(theta)
    scores: list[tuple[float, float]] = []
    for h in candidates:
        est = SubstationaryIntensity(pattern, subspace, h)
        scores.append((h, loglik(pattern, est, loo=True, integral_cells=integral_cells)))
    return scores


def _pick_bandwidth(scores) -> float:
    """The candidate with the best finite score; ties break to the smaller h."""
    best_h, best_score = None, -math.inf
    for h, score in sorted(scores, key=lambda hs: hs[0]):
        if math.isfinite(score) and score > best_score:
            best_h, best_score = h, score
    if best_h is None:
        raise BandwidthSelectionError(
            "every bandwidth candidate produced a degenerate leave-one-out score"
        )
    return best_h


def select_bandwidth(pattern: PointPattern, theta, candidates) -> float:
    """Pick the candidate maximizing the leave-one-out likelihood score.

    Ties break to the smaller bandwidth.  Raises BandwidthSelectionError
    if every candidate is degenerate.
    """
    return _pick_bandwidth(bandwidth_cv_scores(pattern, theta, candidates))
