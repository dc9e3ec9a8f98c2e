"""Gaussian kernels and boundary corrections for the rectangular window.

A kernel intensity estimate divides each kernel sum by the mass the kernel
retains inside the window, so that locations near the boundary are not
deflated.  Two forms of that correction are provided for the 1-D
(orthogonal-coordinate) smoother:

* a closed form, assembled from the trapezoidal chord profile of the
  window, covering every subspace angle including the axis-aligned ones;
* an adaptive quadrature of the same integral, used as the reference
  oracle for the closed form; it alone imports ``scipy.integrate``, when it
  is called, so importing the package loads no scipy submodule but
  ``scipy.special``.

Only the Gaussian kernel ships; the normal CDF is evaluated
through the complementary error function so deep tails underflow to zero
instead of losing precision to cancellation.

This module owns the kernel's arithmetic, its normalizing constants
included; ``_kernel_block`` is the one copy of the Gaussian's exponent, and
``normal_pdf`` reads it too.  An exponent below ``_EXP_FLOOR`` = -707, a
displacement beyond about 37.6 bandwidths, gives a term of exactly 0.  Below
it ``np.exp`` leaves its vector path: on a 2-core Xeon VM it took about
1 ns per element above the floor, 7 ns at -inf, 20 ns below -745 and
150 ns between -745 and -708, where its result is subnormal.  The terms
the floor drops are too small to move any sum that holds a term above
1e-250.  A block checks for such exponents with one ``min`` (about 0.25 ns
per element) and, only if it finds one, clamps them, takes the exp and
zeroes them (about 1 ns more per element).  That pays once a few percent of
the block lies past the floor; on a banded block whose only such terms are
its +inf padding, 2-4% of it, the exp stage runs about a quarter slower
than without the floor.

The engine, ``_gaussian_sums(h, data, targets)``, is one-axis: it takes the
kernel sums of the 1-D smoother along the orthogonal offset and their
leave-one-out values.  The 2-D smoother owns the product form: its sums
are a product of two one-axis kernel blocks, summed at scattered
locations by ``_scattered_sums`` and on a tensor grid by ``_grid_sums`` as
one matrix product.  The engine has three paths:

* ``_direct_sums``, the direct sum over every data-target pair, exact up to
  rounding: the oracle of every path, and the path for small inputs;
* ``_banded_sums``: each target sums only the sorted data within 12
  bandwidths of it, a slice found by ``searchsorted``, as the fast Gauss
  transform cuts each interaction off at a few sigma (Greengard and
  Strain 1991);
* ``_interpolated_sums``: the values are read off a node grid by 20-point
  (degree-19) barycentric Lagrange interpolation, as in the grid stage of
  the fast Gauss transform.

The node grid belongs to an estimator, not to a call.  ``_node_grid``
decides once, for the data and a range [lo, hi] that holds every target
(the 1-D smoother's projection range), whether a grid pays, and if so
takes the banded sums at nodes spaced h/5 over that range; every call of
that estimator then reads the same nodes, so a value at a given offset
does not depend on the calls before it.  The grid is priced once, in
kernel pairs, against all the targets those calls ask for (the 1-D
smoother's n data and integral cells): it pays when w*G + 80*m + 2e4 <
w*m, with G nodes, m targets and w the data one target sums over without
it: the band's width, the most data within 24 bandwidths, where the band
would serve (at least 1e5 pairs, data spanning more than two bands, the
widest band holding at most half the data), and n where the direct sum
would.  Without a grid, a call takes the band where it would serve and
the direct sum otherwise.  Every path works through the targets in blocks
of 2**16 elements (512 KB), so each temporary stays in the L2 cache.

Each path guards its values against the direct sum.  The band drops terms
below exp(-72)/(h*sqrt(2*pi)) each; a value, less a leave-one-out term, is
recomputed directly unless the dropped terms and a rounding allowance of
1e-14 of the leave-one-out term stay under 1e-12 of it.  The interpolated
path recomputes every value, less a leave-one-out term, not above 1/100 of
the largest node of its stencil.  The guards hold the band within 1e-12
relative error of the direct sum and the interpolation within 1e-10.
Measured against the direct sum on 200 random Beta, clustered and
cluster-plus-isolated data sets (n 300-3000, h 0.01-0.1, span 5-50), the
band's largest relative errors were 7.9e-16 at the data, 6.7e-15 on
grids and 3.4e-14 leave-one-out; the interpolated path's, on 300 sets
(span 1-12, one grid over [0, span] for all three), 6.0e-12 at the data,
1.1e-11 on grids and 5.7e-11 leave-one-out.  Nonpositive values are the
direct sum's own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc

from .geometry import Subspace, Window, chord_measure, chord_segments, v_range

__all__ = [
    "QuadratureError",
    "normal_pdf",
    "normal_cdf",
    "kernel_1d",
    "correction_substat_closed",
    "correction_substat_quadrature",
    "correction_2d",
    "validate_bandwidth",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
# the kernel's floor: below it np.exp leaves its vector path (see the module docstring)
_EXP_FLOOR = -707.0
# elements per temporary block: 512 KB, so a block and its sibling
# temporaries stay within a 2 MB L2 cache (2**16 timed fastest of 2**16-2**20)
_CHUNK_ELEMENTS = 2**16

# interpolated kernel sums: node spacing in bandwidths, stencil size, guard,
# and the measured costs of one target and one node grid, in kernel pairs
_NODE_STEP = 0.2
_STENCIL = 20
_HALF = _STENCIL // 2
_GUARD = 1e-2
_TARGET_COST = 80
_GRID_COST = 20_000
_OFFSETS = np.arange(_STENCIL)
# barycentric weights of equispaced nodes: (-1)^k C(19, k)
_BARY = np.array([(-1.0) ** k * math.comb(_STENCIL - 1, k) for k in range(_STENCIL)])

# banded kernel sums: the reach in bandwidths, the largest term beyond it
# (times h), the guard's tolerance relative to a value, a bound on the
# relative rounding difference of two summation orders of one sum, and the
# fewest direct kernel pairs that pay for the band's searches (measured)
_REACH = 12.0
_TAIL = math.exp(-0.5 * _REACH**2) / _SQRT_2PI
_BAND_RTOL = 1e-12
_ROUNDING = 1e-14
_BAND_MIN_PAIRS = 100_000


class QuadratureError(RuntimeError):
    """Raised when the quadrature oracle cannot reach its tolerance."""


def validate_bandwidth(h: float) -> float:
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be a positive finite number, got {h}")
    return h


def normal_pdf(t):
    """Standard normal density, vectorized; 0 beyond the kernel's floor (|t| > 37.6)."""
    return _kernel_block(1.0, np.array(t, dtype=float)) / _SQRT_2PI


def normal_cdf(t):
    """Standard normal CDF via erfc, accurate in both tails."""
    t = np.asarray(t, dtype=float)
    with np.errstate(under="ignore"):
        out = 0.5 * erfc(-t / _SQRT_2)
    return out


def kernel_1d(h: float, t):
    """Gaussian kernel of bandwidth h evaluated at displacement t."""
    h = validate_bandwidth(h)
    t = np.asarray(t, dtype=float)
    out = normal_pdf(t / h) / h
    if out.ndim == 0:
        return float(out)
    return out


def _gaussian_sums(
    h: float, data: np.ndarray, targets: np.ndarray, *, loo: bool = False,
    nodes: _NodeGrid | None = None,
) -> np.ndarray:
    """sum_j phi((data_j - t) / h) / h at each target t, shaped like the targets.

    With ``loo`` each target is itself a datum and leaves its own kernel
    out: the sum less 1/(h*sqrt(2*pi)), rounded as the sums round it, so a
    target with no other datum within reach gets exactly 0.  ``nodes`` is
    the ``_node_grid`` of the same h and data over a range that holds the
    targets: the sums are then read off it.  Without it the call takes the
    band, or the direct sum where the band does not pay.

    The module docstring gives the paths, the cost model that decides on a
    node grid, the guards and the measured accuracy: every path stays
    within 1e-10 relative error of ``_direct_sums`` and gives its
    nonpositive values exactly.
    """
    own = 1.0 / (h * _SQRT_2PI) if loo else 0.0
    if nodes is not None:
        return _interpolated_sums(h, data, targets, own, nodes)
    return _banded_sums(h, data, targets, own)


def _kernel_block(h: float, offsets: np.ndarray) -> np.ndarray:
    """exp(-(offsets / h)**2 / 2), in place: the one copy of the kernel's arithmetic.

    An exponent below ``_EXP_FLOOR`` gives exactly 0; only a block that has
    one pays for the clamp.
    """
    offsets /= h
    offsets *= offsets
    offsets *= -0.5
    if offsets.size and offsets.min() < _EXP_FLOOR:
        far = offsets < _EXP_FLOOR
        np.maximum(offsets, _EXP_FLOOR, out=offsets)
        np.exp(offsets, out=offsets)
        offsets[far] = 0.0
        return offsets
    return np.exp(offsets, out=offsets)


def _direct_sums(h: float, data: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The direct sum over every data-target pair, in stored order: the oracle of every path.

    Targets are taken in chunks to bound memory; empty data sum to zero.
    """
    flat = targets.ravel()
    out = np.empty(flat.size, dtype=float)
    step = max(1, _CHUNK_ELEMENTS // max(1, data.size))
    for i in range(0, out.size, step):
        out[i : i + step] = _kernel_block(h, data - flat[i : i + step, None]).sum(axis=1)
    return (out / (h * _SQRT_2PI)).reshape(targets.shape)


def _band_pays(h: float, data: np.ndarray, targets: int) -> bool:
    """The band's gate: ``_BAND_MIN_PAIRS`` pairs or more, and data spanning over 4 reaches."""
    return data.size * targets >= _BAND_MIN_PAIRS and data[-1] - data[0] > 4.0 * _REACH * h


class _NodeGrid(NamedTuple):
    """Kernel sums at the nodes origin + i*step; ``peaks[i]``, the largest from node i on of 20."""

    origin: float
    step: float
    sums: np.ndarray
    peaks: np.ndarray


def _node_layout(h: float, lo: float, hi: float) -> tuple[float, float, int]:
    """Origin, step and count of the nodes h/5 apart that centre a stencil on each of [lo, hi]."""
    step = _NODE_STEP * h
    return lo - (_HALF - 1) * step, step, math.ceil((hi - lo) / step) + _STENCIL


def _node_grid(
    h: float, data: np.ndarray, lo: float, hi: float, targets: int
) -> _NodeGrid | None:
    """The node grid for sums of the sorted data over [lo, hi], or None where it does not pay.

    It is priced once against ``targets`` values, all the calls it is meant
    to serve, by the module docstring's rule.
    """
    n, count = data.size, _node_layout(h, lo, hi)[2]
    width = n
    if _band_pays(h, data, targets):
        ends = np.searchsorted(data, data + 2.0 * _REACH * h, side="right")
        band = int((ends - np.arange(n)).max())
        width = band if 2 * band <= n else n
    if width * (targets - count) <= _TARGET_COST * targets + _GRID_COST:
        return None
    return _build_node_grid(h, data, lo, hi)


def _build_node_grid(h: float, data: np.ndarray, lo: float, hi: float) -> _NodeGrid:
    """The ``_banded_sums`` of the data at the ``_node_layout`` nodes over [lo, hi]."""
    origin, step, count = _node_layout(h, lo, hi)
    sums = _banded_sums(h, data, origin + step * np.arange(count), 0.0)
    return _NodeGrid(origin, step, sums, sliding_window_view(sums, _STENCIL).max(axis=1))


def _interpolated_sums(
    h: float, data: np.ndarray, targets: np.ndarray, leave_out: float, nodes: _NodeGrid
) -> np.ndarray:
    """Kernel sums read off a node grid, for ``_gaussian_sums``.

    Each target reads the 20 nodes centred on it (the 20 at the grid's end,
    for a target just outside its range).  The interpolation error is a
    fraction of the stencil's largest node, so a value, less ``leave_out``,
    not above ``_GUARD`` of it is taken by ``_direct_sums`` instead.
    """
    flat = targets.ravel()
    q = (flat - nodes.origin) / nodes.step  # node i sits at q = i
    last = nodes.sums.size - _STENCIL
    windows = sliding_window_view(nodes.sums, _STENCIL)
    out = np.empty(flat.size, dtype=float)
    chunk = _CHUNK_ELEMENTS // _STENCIL
    for i in range(0, out.size, chunk):
        qi = q[i : i + chunk]
        first = np.clip(qi.astype(np.intp) - (_HALF - 1), 0, last)
        d = (qi - first)[:, None] - _OFFSETS  # exact: q less an integer
        stencils = windows[first]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = _BARY / d
            vals = (w * stencils).sum(axis=1) / w.sum(axis=1)
        # a target on a node (an integer q, the only rows where d can be 0)
        # takes that node's value
        on = np.flatnonzero(qi == np.floor(qi))
        rows, cols = np.nonzero(d[on] == 0.0)
        vals[on[rows]] = stencils[on[rows], cols]
        vals -= leave_out
        redo = ~(vals > _GUARD * nodes.peaks[first])
        if redo.any():
            vals[redo] = _direct_sums(h, data, flat[i : i + chunk][redo]) - leave_out
        out[i : i + chunk] = vals
    return out.reshape(targets.shape)


def _banded_sums(
    h: float, data: np.ndarray, targets: np.ndarray, leave_out: float
) -> np.ndarray:
    """Kernel sums over the data within 12 bandwidths of each target, for ``_gaussian_sums``.

    The data are sorted (sorted here if they are not), so each target's
    data are one slice, found by ``searchsorted`` and read as a row of one
    block over the data padded with +inf (whose terms vanish).  The module
    docstring gives the guard.  A call that fails ``_band_pays``, or whose
    widest band holds more than half the data, takes the direct sum.
    """
    n, m = data.size, targets.size
    reach = _REACH * h
    if _band_pays(h, data, m):
        if not np.all(data[:-1] <= data[1:]):
            data = np.sort(data)
        flat = targets.ravel()
        first = np.searchsorted(data, flat - reach)
        inside = np.searchsorted(data, flat + reach, side="right") - first
        width = int(inside.max())
        if 2 * width <= n:
            rows = sliding_window_view(np.concatenate((data, np.full(width, np.inf))), width)
            out = np.empty(m, dtype=float)
            step = max(1, _CHUNK_ELEMENTS // max(1, width))
            for i in range(0, m, step):
                d = rows[first[i : i + step]]
                d -= flat[i : i + step, None]
                out[i : i + step] = _kernel_block(h, d).sum(axis=1)
            out /= h * _SQRT_2PI
            out -= leave_out
            dropped = (n - inside) * (_TAIL / h) + _ROUNDING * leave_out
            redo = ~(dropped < _BAND_RTOL * out)
            if redo.any():
                out[redo] = _direct_sums(h, data, flat[redo]) - leave_out
            return out.reshape(targets.shape)
    return _direct_sums(h, data, targets) - leave_out


def _grid_sums(h: float, x_axis, y_axis) -> np.ndarray:
    """Two-axis kernel sums on the (len(x_mids), len(y_mids)) grid of ``(data, mids)`` pairs.

    The product kernel factorizes: the x-block of exp(-((data_j - t_k)/h)^2/2),
    transposed, times the y-block, over 2*pi*h^2.
    """
    wx, wy = (_kernel_block(h, d[:, None] - t[None, :]) for d, t in (x_axis, y_axis))
    return (wx.T @ wy) / (h * h * 2.0 * math.pi)


def _scattered_sums(h: float, x_axis, y_axis) -> np.ndarray:
    """``_grid_sums``' product form at the targets (x_k, y_k) of ``(data, targets)`` pairs.

    The targets are taken in chunks to bound memory; the result takes their shape.
    """
    (x_data, x), (y_data, y) = ((data, targets.ravel()) for data, targets in (x_axis, y_axis))
    out = np.empty(x.size, dtype=float)
    step = max(1, _CHUNK_ELEMENTS // max(1, x_data.size))
    for i in range(0, out.size, step):
        block = _kernel_block(h, x_data - x[i : i + step, None])
        block *= _kernel_block(h, y_data - y[i : i + step, None])
        out[i : i + step] = block.sum(axis=1)
    return (out / (h * h * 2.0 * math.pi)).reshape(x_axis[1].shape)


def correction_substat_closed(subspace: Subspace, window: Window, h: float, v):
    """Kernel mass retained in the window around offset v, in closed form.

    Integrates the Gaussian kernel centered at v against the chord profile
    of the window.  Each linear piece a + b*t of the profile on [lo, hi]
    contributes

        (a + b*v) * (Phi((hi-v)/h) - Phi((lo-v)/h))
        + b*h * (phi((lo-v)/h) - phi((hi-v)/h)).

    The piecewise assembly reproduces the axis-aligned rectangle cases
    (single flat piece) and the oblique rise/plateau/fall cases alike.
    Phi and phi are taken once at each knot: a piece reuses them at the
    knot it shares with the previous one.
    Pieces much narrower than h (steep slivers produced by angles within
    float rounding of the axis-aligned ones) are integrated by the
    midpoint rule instead; differencing Phi across such a piece would
    cancel catastrophically against the huge slope.
    """
    h = validate_bandwidth(h)
    v_arr = np.asarray(v, dtype=float)
    total = np.zeros_like(v_arr, dtype=float)
    last = None  # (knot, t, Phi, phi) at the upper end of the previous piece
    for lo, hi, a, b in chord_segments(subspace, window):
        if hi - lo < 1e-6 * h:
            mid = 0.5 * (lo + hi)
            total = total + (hi - lo) * (a + b * mid) * normal_pdf((mid - v_arr) / h) / h
            continue
        if last is not None and last[0] == lo:
            _, tl, cl, pl = last
        else:
            tl = (lo - v_arr) / h
            cl, pl = normal_cdf(tl), None
        tu = (hi - v_arr) / h
        cu, pu = normal_cdf(tu), None
        total = total + (a + b * v_arr) * (cu - cl)
        if b != 0.0:
            pl = normal_pdf(tl) if pl is None else pl
            pu = normal_pdf(tu)
            total = total + b * h * (pl - pu)
        last = (hi, tu, cu, pu)
    if total.ndim == 0:
        return float(total)
    return total


def correction_substat_quadrature(
    subspace: Subspace,
    window: Window,
    h: float,
    v: float,
) -> float:
    """Reference oracle for the 1-D boundary correction, by quadrature.

    Integrates chord(t) * K_h(t - v) adaptively over the projection range,
    seeding the subdivision with the chord knots and the kernel's center
    so narrow kernels inside wide windows are not missed.

    Raises QuadratureError if the estimated error exceeds 1e-10 absolute
    and 1e-9 relative to the value.
    """
    from scipy.integrate import quad  # the oracle's own import, kept off the package's path

    h = validate_bandwidth(h)
    v = float(v)
    lo, hi = v_range(subspace, window)

    def integrand(t):
        return chord_measure(subspace, window, t) * kernel_1d(h, t - v)

    seeds = [k[0] for k in chord_segments(subspace, window)]
    seeds += [v + k * h for k in (-8.0, -4.0, 0.0, 4.0, 8.0)]
    points = sorted({p for p in seeds if lo < p < hi})
    value, err = quad(
        integrand,
        lo,
        hi,
        points=points or None,
        limit=400,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    if err > max(1e-10, 1e-9 * abs(value)):
        raise QuadratureError(
            f"boundary-correction quadrature error {err:.3e} exceeds "
            f"tolerance (value {value:.6e})"
        )
    return value


def correction_2d(window: Window, h: float, x, y):
    """Retained mass of the product Gaussian kernel at (x, y), in (0, 1].

    The product kernel factorizes over the rectangle:
    [Phi((z-x)/h) - Phi(-x/h)] * [Phi((omega-y)/h) - Phi(-y/h)].
    """
    h = validate_bandwidth(h)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = normal_cdf((window.z - x) / h) - normal_cdf(-x / h)
    fy = normal_cdf((window.omega - y) / h) - normal_cdf(-y / h)
    out = fx * fy
    if out.ndim == 0:
        return float(out)
    return out
