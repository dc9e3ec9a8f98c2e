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
log-likelihood.  Its integral term for the substationary estimator is exact
to about 1e-10 at any h and window: the kernel mass inside the projection
range in closed form, less a Gauss-Legendre quadrature over the zones
within ``_KNOT_REACH`` bandwidths of the chord profile's knots, the only
offsets where the boundary correction differs from the chord (see
``SubstationaryIntensity.integral`` and ``kernels._zone_panels``).  The
zones' nodes and weights, the correction there and its excess over the
chord read no data: they come with the projection range and the
correction's rows from the ``kernels._plan`` of the estimator's angle,
window and h, built once and shared by every estimator at that key.
So a profile evaluation computes only the data's part: the kernel sums at
the data and at the zones' nodes, the correction at the data, and the
kernel mass.  The point term reads the offsets of the pattern's own points
that the constructor projected.

The direction theta is estimated by maximizing the log-likelihood for the
substationary estimator over theta: a 1-degree coarse grid, which the open
search over [-90, 90) degrees scores in two stages (every third node, then
the nodes near the best local maxima of those), then two parabolas, the
first through the best node and its neighbours and the second through three
values 2*``_DELTA_DEG`` wide around the first's vertex; the fit is the
second's vertex (see ``fit_theta``).
At small h the profile is rough on the scale h/z radians, well below the
grid step, so the second parabola spans a fixed width rather than
converging on whichever local maximum of that roughness a search meets.
Bandwidths are selected by its leave-one-out form (``loo=True``); the
profile fit keeps each point in its own estimate, while cross validation
removes it to avoid the degenerate h -> 0 optimum.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DataError,
    PointPattern,
    Subspace,
    Window,
    _count,
    _distinct,
    _shaped_like,
    project_xy,
    v_range,
)
from .kernels import (
    _direct_sums,
    _gaussian_sums,
    _grid_sums,
    _kernel_mass,
    _node_grid,
    _plan,
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

# the one integral_cells that bandwidth_cv_scores accepts: the integral takes no cell count
SUBSTAT_INTEGRAL_CELLS = 400
GRID2D_INTEGRAL_CELLS = 200
GRID_CELLS_1D = 512
GRID_CELLS_2D = 128
FIT_GRID_STEP_DEG = 1.0
# the refinement's half-spacing: the profile is scored at v - delta, v and v + delta
_DELTA_DEG = 0.1
# the open search's two stages: every _OPEN_STRIDE-th node of the 1-degree grid, then the
# nodes within _OPEN_REACH nodes of the first stage's _OPEN_PEAKS best local maxima
_OPEN_STRIDE = 3
_OPEN_PEAKS = 3
_OPEN_REACH = 2
# the nodes beside a first-stage node that the second stage scores: -2, -1, 1 and 2
_OPEN_OFFSETS = np.array([k for k in range(-_OPEN_REACH, _OPEN_REACH + 1) if k % _OPEN_STRIDE])


class BandwidthSelectionError(RuntimeError):
    """Raised when no bandwidth candidate yields a finite criterion."""


def _two_points(pattern: PointPattern, task: str) -> None:
    """Raise DataError below two points: a fit or a leave-one-out score has nothing to read."""
    if pattern.n < 2:
        raise DataError(f"{task} needs at least two points, got {pattern.n}")


def _require_inside(window: Window, x, y) -> None:
    """Every estimator's check of the locations (x, y): one shape, and inside the window."""
    if np.shape(x) != np.shape(y):
        raise ValueError("x and y must have the same shape")
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
        # the data's offsets in input order, which at_points reads for the pattern's own points
        _, self._v_points = project_xy(self.theta, pattern.x, pattern.y)
        # canonical (sorted) order makes every output independent of the
        # order the points were supplied in
        self._v_data = np.sort(self._v_points)
        self._plan = _plan(self.theta, pattern.window, self.h)
        # the one node grid (or None) over the projection range that every evaluation reads
        self._nodes = _node_grid(self.h, self._v_data, self._plan)

    @property
    def window(self) -> Window:
        return self.pattern.window

    def evaluate(self, v):
        """Intensity at orthogonal offset(s) v inside the projection range."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        lo, hi = self._plan.lo, self._plan.hi
        # written so that NaN fails it
        if not np.all((v_arr >= lo - _DOMAIN_TOL) & (v_arr <= hi + _DOMAIN_TOL)):
            raise ValueError(f"offset outside the projection range [{lo:.6g}, {hi:.6g}]")
        return _shaped_like(v, self._values(v_arr))

    def _values(self, v: np.ndarray, loo: bool = False) -> np.ndarray:
        """The estimate at the 1-D offsets v, unchecked: the data's kernel sums over the correction."""
        sums = _gaussian_sums(self.h, self._v_data, v, loo=loo, nodes=self._nodes)
        return sums / correction_substat_closed(self.theta, self.window, self.h, v)

    def at_points(self, x, y):
        """Intensity at the locations (x, y) in the window.

        The pattern's own coordinate arrays, as ``loglik`` passes them, were
        checked by ``PointPattern`` and projected by the constructor, so they
        read those offsets, in input order; any other locations are checked
        against the window, once, as the other estimators check them, and
        projected here.
        """
        if x is self.pattern.x and y is self.pattern.y:
            return self._values(self._v_points)
        _require_inside(self.window, x, y)
        _, v = project_xy(self.theta, x, y)
        return _shaped_like(v, self._values(v))

    def loo_values(self) -> np.ndarray:
        """Estimate at each data point with that point left out.

        The values follow the canonical (sorted-offset) order of the data;
        a point with no neighbour within reach gets exactly 0.
        """
        return self._values(self._v_data, loo=True)

    def integral(self) -> float:
        """Integral of the estimate over the window: of lambda_hat(v) times the chord c(v).

        With the data's kernel sums S and the correction corr, lambda_hat is
        S/corr and corr = c + its knot terms, so

            integral = int_lo^hi S dv - int lambda_hat * (corr - c) dv.

        The first term is closed (``_kernel_mass``); the knot terms are below
        2**-53 of the plateau beyond ``_KNOT_REACH`` bandwidths of every knot,
        so the second is taken by Gauss-Legendre panels over those zones
        alone, whatever the projection length.  The zones' nodes and weights,
        and corr and corr - c at the nodes, come from the key's ``_plan``, so
        only the data's sums there are taken here.
        """
        plan = self._plan
        sums = _gaussian_sums(self.h, self._v_data, plan.nodes, nodes=self._nodes)
        mass = _kernel_mass(self.h, self._v_data, plan.lo, plan.hi)
        return mass - float(plan.weights @ (sums / plan.corr * plan.excess))


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
        _require_inside(self.window, x, y)
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        sums = _direct_sums(self.h, self._x_data, x_arr, (self._y_data, y_arr))
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

    def integral(self) -> float:
        _, (dx, dy), values = _cells(self, GRID2D_INTEGRAL_CELLS)
        return float(np.sum(values) * dx * dy)


class StationaryIntensity:
    """Constant intensity estimate n / area for stationary patterns."""

    kind = "stationary"

    def __init__(self, pattern: PointPattern):
        self.pattern = pattern
        self.value = pattern.n / pattern.window.area

    @property
    def window(self) -> Window:
        return self.pattern.window

    def evaluate(self, v):
        """Intensity at orthogonal offset(s) v of any direction: the constant."""
        return _shaped_like(v, np.full(np.shape(v), self.value))

    def at_points(self, x, y):
        _require_inside(self.window, x, y)
        return self.evaluate(x)  # the constant, shaped like x

    def integral(self) -> float:
        return self.value * self.window.area


def _axis(estimator) -> Subspace:
    """The subspace a 1-D estimate is laid along; the constant takes the horizontal axis."""
    return getattr(estimator, "theta", None) or Subspace(0.0)


def _cells(estimator, cells: int | None = None):
    """The midpoint grid an estimate is laid on, and its values: (axes, widths, values).

    ``cells`` per axis, by default ``GRID_CELLS_2D`` over the window for the
    bivariate smoother and ``GRID_CELLS_1D`` over a 1-D estimate's projection
    range: ``v_range`` of its ``_axis`` and window, the range its ``_plan``
    holds.  The count is not checked here: a count from outside the package
    arrives through ``io``, which checks it.
    """
    window = estimator.window
    if estimator.kind == "kernel2d":
        spans, default = ((0.0, window.z), (0.0, window.omega)), GRID_CELLS_2D
    else:
        spans, default = (v_range(_axis(estimator), window),), GRID_CELLS_1D
    cells = default if cells is None else cells
    widths = tuple((hi - lo) / cells for lo, hi in spans)
    axes = tuple(lo + (np.arange(cells) + 0.5) * w for (lo, _), w in zip(spans, widths))
    values = estimator.grid_values(*axes) if len(axes) == 2 else estimator.evaluate(*axes)
    return axes, widths, values


def loglik(pattern: PointPattern, estimator, *, loo: bool = False) -> float:
    """Poisson (composite) log-likelihood of the pattern under an estimate.

    sum_i log(lambda_hat(s_i)) minus the estimator's ``integral()`` of
    lambda_hat over the window, which for the substationary estimator is the
    closed-form kernel mass less the zones' quadrature.  With ``loo`` the
    point term uses the leave-one-out values of the estimator at its own
    data (the substationary estimator fitted to ``pattern``), as bandwidth
    cross validation does.  If the estimate vanishes at any data point the
    result is -inf and a warning is issued.
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
    return point_term - estimator.integral()


@dataclass(frozen=True)
class FitResult:
    """Outcome of the invariance-direction fit.

    trace holds the (theta, log-likelihood) pairs of the coarse-grid nodes
    the fit scored, in angle order: the whole grid of a bounded search, both
    stages of the open one.  It always includes theta = 0.  theta_hat is the
    refined vertex of ``fit_theta``, not the argmax of the values the fit
    evaluated: loglik is the largest of those values, so it never falls below
    any of the trace, while the profile at theta_hat may score lower.
    """

    theta_hat: Subspace
    h: float
    loglik: float
    trace: tuple[tuple[float, float], ...]
    degenerate: bool = False


@functools.cache
def _openblas():
    """The (get, set) thread-count calls of the OpenBLAS that numpy ships, or None without one.

    Looked up in ``numpy.libs`` the first time a map forks, not at import.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):  # the 64-bit-integer builds' symbols, then the others
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    return get, put
    return None


def _map_ordered(job, args, threads: int) -> list:
    """``job`` of each of the sequence ``args``, in order, on at most ``threads`` processes.

    ``threads`` caps the workers w, one per CPU at 0, and so does the number of jobs; it
    raises ValueError, before any job, unless an integer >= 0.  From w = 2 the map forks:
    the caller runs jobs 0, w, 2w, ... and w - 1 forked children, which inherit ``job``, the
    rest.  At one worker, or without fork, the caller runs every job.  No child forks again:
    a job that maps in turn (``fit_theta``) gets one worker, or is the map's only job.  A
    job's error re-raises here with its type (a RuntimeError with its repr if it does not
    pickle); a warning that passes a worker's inherited filters is issued again here with
    its category, message, file and line.

    While a map forks, numpy's OpenBLAS (``_openblas``) runs one thread, in the caller's
    share and in the children, which inherit it, so that w workers never run w times its
    default threads on the cores; the caller's count comes back when the map ends, also
    after an error.  A serial map, or a numpy without that library, leaves BLAS as it is.
    From Python 3.12 a fork beside another thread warns, failing an error filter; at one BLAS
    thread OpenBLAS still keeps its own second OS thread, so the rule does not silence that.
    """
    _count("threads", threads, 0)
    workers = min(threads or os.cpu_count() or 1, len(args))
    if workers <= 1 or not hasattr(os, "fork"):
        return [job(a) for a in args]
    import multiprocessing  # only where a map forks: a serial run never loads it
    def work(k: int, conn) -> None:  # a child: its share's results, error and warnings
        with warnings.catch_warnings(record=True) as caught:
            try:
                reply = [job(a) for a in args[k::workers]], None
            except BaseException as exc:
                reply = None, exc
        caught = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        try:
            pickle.loads(pickle.dumps(reply[1]))
            conn.send((*reply, caught))
        except Exception as exc:  # the error or a result does not pickle
            conn.send((None, RuntimeError(repr(reply[1] or exc)), caught))

    ctx, children, blas = multiprocessing.get_context("fork"), [], _openblas()
    own = blas[0]() if blas else None
    try:
        if blas:
            blas[1](1)
        for k in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            children.append((ctx.Process(target=work, args=(k, send)), recv))
            children[-1][0].start()
            send.close()
        shares = [[job(a) for a in args[::workers]]]
        for _, recv in children:
            share, error, caught = recv.recv()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if error is not None:
                raise error
            shares.append(share)
    finally:
        for child, _ in children:  # none outlives the map: each has sent its share, or it failed
            child.terminate()
            child.join()
        if blas:
            blas[1](own)
    return [shares[i % workers][i // workers] for i in range(len(args))]


def _vertex(below: float, at: float, above: float) -> float | None:
    """The vertex of the parabola through values at -1, 0 and 1, clipped to [-1, 1].

    None unless the values are concave with a finite vertex.
    """
    bend = below - 2.0 * at + above
    if not bend < 0.0:
        return None
    offset = 0.5 * (below - above) / bend
    return None if math.isnan(offset) else min(max(offset, -1.0), 1.0)


def _coarse_angles(search_halfwidth_deg: float | None) -> tuple[np.ndarray, float]:
    """A fit's coarse angles in radians, and its half-width in degrees (see fit_theta)."""
    halfwidth = 90.0 if search_halfwidth_deg is None else float(search_halfwidth_deg)
    if not 0.0 < halfwidth <= 90.0:
        raise ValueError("search_halfwidth_deg must be in (0, 90]")
    half = np.linspace(0.0, halfwidth, math.ceil(halfwidth / FIT_GRID_STEP_DEG) + 1)
    thetas = np.radians(np.concatenate((-half[:0:-1], half)))
    return (thetas[:-1] if halfwidth == 90.0 else thetas), halfwidth


def _second_stage(first: np.ndarray) -> np.ndarray:
    """The open search's second-stage nodes, as ascending indices into the 1-degree grid.

    ``first`` holds the profile at every ``_OPEN_STRIDE``-th node.  Its local
    maxima on the circle, at least as high as both neighbours, are ranked by
    value, ties to the smaller angle; the stage is the nodes within
    ``_OPEN_REACH`` nodes of the best ``_OPEN_PEAKS`` that the first did not score.
    """
    peaks = np.flatnonzero((first >= np.roll(first, 1)) & (first >= np.roll(first, -1)))
    best = peaks[np.argsort(-first[peaks], kind="stable")[:_OPEN_PEAKS]]
    near = best[:, None] * _OPEN_STRIDE + _OPEN_OFFSETS
    return np.unique(near % (first.size * _OPEN_STRIDE))


def fit_theta(
    pattern: PointPattern,
    h: float,
    *,
    search_halfwidth_deg: float | None = None,
    threads: int = 1,
) -> FitResult:
    """Estimate the invariance direction by profile composite likelihood.

    Evaluates the profile log-likelihood on a coarse angular grid,
    symmetric about 0 with equal steps of at most ``FIT_GRID_STEP_DEG``.  The
    open search covers [-90, 90) degrees in 180 nodes, since +90 degrees
    names the same subspace as -90; a half-width of 90 is the open search.
    A bounded search scores every node.  The open search scores them in two
    stages: every third node (60, 0 among them), then the nodes within 2
    degrees of the best 3 local maxima of those on the circle (at most 12
    more).  A quarter turn maps the first stage onto itself.
    The bandwidth is held fixed throughout.  ``threads``, the most worker
    processes for a stage, goes to ``_map_ordered``, which forks a stage
    from two workers; the result does not depend on it.

    Two parabolas refine the best node, with delta = ``_DELTA_DEG`` (or the
    half-width, if that is smaller):

    1. v is the vertex of the parabola through the best node and its two
       neighbours (on the open search they wrap across +-90 degrees; at a
       bound of a bounded search, its two inner neighbours), or the node
       itself where they are not concave, within one step of the node and
       then within [lo + delta, hi - delta] of the search;
    2. the profile is scored at v - delta, v and v + delta;
    3. theta_hat is the vertex of that parabola, within [v - delta,
       v + delta], or the best of the three values where they are not
       concave; one more evaluation scores it.

    So a fit makes at most 4 evaluations beyond the grid nodes it scored,
    none where an angle was already scored:
    the best node's neighbours are among those nodes.  theta_hat is that
    refined vertex, not the argmax of the evaluated values; the fit's loglik
    is the largest value it evaluated (see ``FitResult``).

    ``search_halfwidth_deg`` confines the search to that many degrees on
    either side of the horizontal axis.  In windows that carry little
    directional information the unrestricted profile is dominated by
    smoothing noise and the argmax wanders far from any true direction;
    replication studies that score the fitted angle against a reference
    axis bound the search instead of letting it roam (see the experiment
    harness, which fixes its own half-width as part of the protocol).

    A spread of less than 1e-9 across the scored nodes is flagged as a
    degenerate fit.  Ties, on the grid and among the three values, prefer the
    smallest angle.  A pattern of fewer than two points raises DataError.
    """
    _two_points(pattern, "subspace fitting")
    h = validate_bandwidth(h)
    thetas, halfwidth = _coarse_angles(search_halfwidth_deg)

    def profile(theta: float) -> float:
        return loglik(pattern, SubstationaryIntensity(pattern, theta, h))

    values = np.full(thetas.size, np.nan)  # the profile at the grid's nodes that a stage scored
    nodes = np.arange(0, thetas.size, _OPEN_STRIDE if halfwidth == 90.0 else 1)
    values[nodes] = _map_ordered(profile, thetas[nodes], threads)  # one map a stage
    if halfwidth == 90.0:  # the open search's second stage
        second = _second_stage(values[nodes])
        values[second] = _map_ordered(profile, thetas[second], threads)
        nodes = np.union1d(nodes, second)
    trace = tuple(zip((float(t) for t in thetas[nodes]), (float(g) for g in values[nodes])))

    degenerate = bool(values[nodes].max() - values[nodes].min() < 1e-9)
    if degenerate:
        warnings.warn(
            "profile log-likelihood is flat across directions; "
            "the fitted angle is not informative",
            RuntimeWarning,
            stacklevel=2,
        )

    # first occurrence: the smallest angle wins ties.  Each neighbour of the best node
    # was scored: on the open search it is a best first-stage maximum or a node near one
    best_idx = int(nodes[np.argmax(values[nodes])])
    best, step = float(thetas[best_idx]), float(thetas[1] - thetas[0])
    delta, lo, hi, centre = math.radians(_DELTA_DEG), -math.inf, math.inf, best_idx
    if halfwidth < 90.0:
        bound = math.radians(halfwidth)
        delta = min(delta, bound)
        lo, hi = delta - bound, bound - delta
        centre = min(max(best_idx, 1), thetas.size - 2)  # a bound node's parabola is one-sided
    # the coarse vertex v: on the open search the neighbours wrap across +-90
    # degrees, where the Subspace normalization keeps the profile continuous
    offset = _vertex(*(float(values[(centre + k) % thetas.size]) for k in (-1, 0, 1)))
    v = best if offset is None else float(thetas[centre]) + step * offset
    v = min(max(v, best - step, lo), best + step, hi)

    # the local parabola through v - delta, v and v + delta: its vertex, or
    # the best of the three where they are not concave
    scored = {best: float(values[best_idx])}

    def score(theta: float) -> float:
        if theta not in scored:
            scored[theta] = profile(theta)
        return scored[theta]

    probes = (v - delta, v, v + delta)
    local = [score(t) for t in probes]
    offset = _vertex(*local)
    theta_hat = probes[int(np.argmax(local))] if offset is None else v + delta * offset
    score(theta_hat)  # the fit's loglik is the largest value it evaluated

    return FitResult(
        theta_hat=Subspace(theta_hat),
        h=h,
        loglik=max(scored.values()),
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
    vanishes at some point score -inf.  A repeated candidate raises
    ValueError, and a pattern of fewer than two points DataError, before
    any score.  The integral has no cell count: ``integral_cells`` takes
    only ``SUBSTAT_INTEGRAL_CELLS`` and raises ValueError at any other value.
    """
    if integral_cells != SUBSTAT_INTEGRAL_CELLS:
        raise ValueError(
            f"integral_cells must be {SUBSTAT_INTEGRAL_CELLS}: the integral takes no cell count"
        )
    candidates = [validate_bandwidth(h) for h in candidates]
    if not candidates:
        raise ValueError("no bandwidth candidates supplied")
    _distinct("candidates", candidates)
    _two_points(pattern, "bandwidth selection")
    subspace = _as_subspace(theta)
    scores: list[tuple[float, float]] = []
    for h in candidates:
        est = SubstationaryIntensity(pattern, subspace, h)
        scores.append((h, loglik(pattern, est, loo=True)))
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
    if every candidate is degenerate, and what ``bandwidth_cv_scores`` raises.
    """
    return _pick_bandwidth(bandwidth_cv_scores(pattern, theta, candidates))
