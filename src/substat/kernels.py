"""Gaussian kernels and boundary corrections for the rectangular window.

A kernel intensity estimate divides each kernel sum by the mass the kernel
retains inside the window, so that locations near the boundary are not
deflated.  Two forms of that correction are provided for the 1-D
(orthogonal-coordinate) smoother:

* a closed form over the knots of the trapezoidal chord profile, for every
  angle: the chord at v, plus h*s_k*(phi(x) - x*Phi(-x)) at x = |v - k|/h
  for each kink k of a ramp, less the mass T*Phi(o/h) that each jump (a ramp
  narrower than 1e-6*h) cuts off, o outwards.  Each term vanishes away from
  its knot, so none cancels, unlike the growing h*s_k*(x*Phi(x) + phi(x));
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
zeroes them (about 1 ns more per element).

The engine, ``_gaussian_sums(h, data, targets)``, is one-axis: it takes the
kernel sums of the 1-D smoother along the orthogonal offset and their
leave-one-out values.  The 2-D smoother owns the product form: its sums
are a product of two one-axis kernel blocks, summed at scattered
locations by ``_scattered_sums`` and on a tensor grid by ``_grid_sums`` as
one matrix product.  The engine has two paths:

* ``_direct_sums``, the direct sum over every data-target pair, exact up to
  rounding: the oracle of every path, and the path for small inputs;
* ``_interpolated_sums``: the values are read off a node grid by 20-point
  (degree-19) barycentric Lagrange interpolation, as in the grid stage of
  the fast Gauss transform.

The node grid belongs to an estimator, not to a call.  ``_node_grid``
decides once, for the data and a range [lo, hi] that holds every target
(the 1-D smoother's projection range), whether a grid pays, and if so
takes the node sums at nodes spaced h/5 over that range by the Taylor form
of the fast Gauss transform on the node lattice (``_lattice_sums``); every
call of that estimator then reads the same nodes, so a value at a given
offset does not depend on the calls before it.  The grid is priced once,
in kernel pairs, against all the targets m those calls ask for (the 1-D
smoother's n data and integral cells): it pays when
5e4 + 20*n + 150*G + 80*m < n*m, with G nodes.  Without a grid, a call
takes the direct sum.  Every path works through its targets in blocks of
2**16 elements (512 KB), so each temporary stays in the L2 cache; the
lattice holds a few floats per datum and 20 per node.

Each path guards its values against the direct sum.  The lattice leaves
out each datum more than 12 bandwidths from a node, terms below
exp(-72)/(h*sqrt(2*pi)) each; a node is summed directly unless those terms
stay under 1e-12 of its sum, so a node beyond the reach of every datum
reads the direct sum's tiny value, not 0.  The interpolated path
recomputes every value, less a leave-one-out term, not above 1/100 of the
largest node of its stencil, and so also any NaN value, as at a target
exactly on a node, whose barycentric weight is infinite.  The guards hold
the nodes within 1e-12 relative error of the direct sum and the
interpolation within 1e-10.
Measured against the direct sum on 200 random Beta, clustered and
cluster-plus-isolated data sets (n 300-3000, h 0.01-0.1, span 5-50), the
nodes' largest relative error was 2.0e-14; the interpolated path's, on
300 sets (span 1-12, one grid over [0, span] for all three), 9.2e-12 at
the data, 1.8e-11 on grids and 6.2e-11 leave-one-out.  Nonpositive values
are the direct sum's own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc

from .geometry import Subspace, Window, _shaped_like, _trapezoid, chord_measure, v_range

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
# elements per block of the boundary correction's knots against its offsets:
# 128 KB (2**14 timed fastest of 2**13-2**16 at 10**4 offsets)
_CORRECTION_ELEMENTS = 2**14

# interpolated kernel sums: node spacing in bandwidths, stencil size, guard,
# and the measured costs, in kernel pairs (about 4 ns each), of one target
# and of a node grid: 0.2 ms fixed, 0.08 us per datum and 0.6 us per node
_NODE_STEP = 0.2
_STENCIL = 20
_HALF = _STENCIL // 2
_GUARD = 1e-2
_TARGET_COST = 80
_GRID_COST = 50_000
_DATUM_COST = 20
_NODE_COST = 150
_OFFSETS = np.arange(_STENCIL)
# barycentric weights of equispaced nodes: (-1)^k C(19, k)
_BARY = np.array([(-1.0) ** k * math.comb(_STENCIL - 1, k) for k in range(_STENCIL)])

# lattice node sums: the reach in bandwidths, the largest term beyond it
# (times h), the guard's tolerance relative to a node's sum, the reach in
# nodes, and the Taylor order: the fewest terms of e^(u*l) whose remainder,
# x^P e^x / P! at the largest |u*l|, x = 6 * step / h, is below half an ulp
_REACH = 12.0
_TAIL = math.exp(-0.5 * _REACH**2) / _SQRT_2PI
_TAIL_RTOL = 1e-12
_LAGS = round(_REACH / _NODE_STEP)
_UL = 0.5 * _REACH * _NODE_STEP
_ORDER = next(p for p in range(1, 99) if _UL**p * math.exp(_UL) / math.factorial(p) < 2.0**-53)
# the filters' lags, and l^p / p! at each for each order p
_LAG_COLUMNS = np.arange(-_LAGS, _LAGS + 1.0)
_LAG_POWERS = np.array([_LAG_COLUMNS**p / math.factorial(p) for p in range(_ORDER)])


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
    return _shaped_like(t, normal_pdf(np.asarray(t, dtype=float) / h) / h)


def _gaussian_sums(
    h: float, data: np.ndarray, targets: np.ndarray, *, loo: bool = False,
    nodes: _NodeGrid | None = None,
) -> np.ndarray:
    """sum_j phi((data_j - t) / h) / h at each target t, shaped like the targets.

    With ``loo`` each target is itself a datum and leaves its own kernel
    out: the sum less 1/(h*sqrt(2*pi)), rounded as the sums round it, so a
    target with no other datum within reach gets exactly 0.  ``nodes`` is
    the ``_node_grid`` of the same h and data over a range that holds the
    targets: the sums are then read off it, and without it summed directly.

    The module docstring gives the paths, the cost model that decides on a
    node grid, the guards and the measured accuracy: every path stays
    within 1e-10 relative error of ``_direct_sums`` and gives its
    nonpositive values exactly.
    """
    own = 1.0 / (h * _SQRT_2PI) if loo else 0.0
    if nodes is not None:
        return _interpolated_sums(h, data, targets, own, nodes)
    return _direct_sums(h, data, targets) - own


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


class _NodeGrid(NamedTuple):
    """Kernel sums at the nodes origin + i*step; ``peaks[i]``, the largest from node i on of 20."""

    origin: float
    step: float
    sums: np.ndarray
    peaks: np.ndarray


def _node_layout(h: float, lo: float, hi: float) -> tuple[float, float, int]:
    """Origin, step and count of the nodes h/5 apart that centre a stencil on each of [lo, hi].

    The step keeps 26 significant bits and the origin is a multiple of the
    last, so each node origin + i*step is exact, as the lattice needs.
    """
    quantum = math.ldexp(1.0, math.frexp(_NODE_STEP * h)[1] - 26)
    step = round(_NODE_STEP * h / quantum) * quantum
    origin = math.floor((lo - (_HALF - 1) * step) / quantum) * quantum
    return origin, step, math.ceil((hi - lo) / step) + _STENCIL


def _node_grid(
    h: float, data: np.ndarray, lo: float, hi: float, targets: int
) -> _NodeGrid | None:
    """The node grid for sums of the data over [lo, hi], or None where it does not pay.

    It is priced once against ``targets`` values, all the calls it is meant
    to serve, by the module docstring's rule.
    """
    n, count = data.size, _node_layout(h, lo, hi)[2]
    cost = _GRID_COST + _DATUM_COST * n + _NODE_COST * count + _TARGET_COST * targets
    if cost >= n * targets:
        return None
    return _build_node_grid(h, data, lo, hi)


def _build_node_grid(h: float, data: np.ndarray, lo: float, hi: float) -> _NodeGrid:
    """The ``_lattice_sums`` of the data at the ``_node_layout`` nodes over [lo, hi].

    A node whose left-out terms are not below ``_TAIL_RTOL`` of its sum,
    such as one beyond the reach of every datum, takes ``_direct_sums``.
    """
    origin, step, count = _node_layout(h, lo, hi)
    sums, inside = _lattice_sums(h, data, origin, step, count)
    redo = ~((data.size - inside) * (_TAIL / h) < _TAIL_RTOL * sums)
    if redo.any():
        sums[redo] = _direct_sums(h, data, origin + step * np.flatnonzero(redo))
    return _NodeGrid(origin, step, sums, sliding_window_view(sums, _STENCIL).max(axis=1))


def _lattice_sums(
    h: float, data: np.ndarray, origin: float, step: float, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel sums at the nodes origin + k*step from lattice moments, and the data each sums.

    Datum j lies r_j from its nearest node m_j; with l = k - m_j and
    u_j = r_j*step/h**2 its term at node k is e^(-r_j^2/2h^2) e^(u_j*l)
    e^(-(l*step)^2/2h^2).  Taking ``_ORDER`` terms of e^(u_j*l), the sums are
    sum_p (M_p * g_p)[k]: moments M_p[m] = sum_(m_j=m) e^(-r_j^2/2h^2) u_j^p,
    one ``np.bincount`` each, convolved with g_p(l) = e^(-(l*step)^2/2h^2)
    l^p/p! over |l| <= ``_LAGS``, one ``np.convolve`` each.
    The data beyond those lags of node k are left out of its sum and count.
    """
    q = np.rint((data - origin) / step)
    near = (q >= -_LAGS) & (q < count + _LAGS)
    data, q = data[near], q[near]
    r = data - (origin + q * step)  # the node is exact (see _node_layout)
    # moment i sits at node i - _LAGS
    cells, size = q.astype(np.intp) + _LAGS, count + 2 * _LAGS
    u = r * (step / (h * h))
    term = _kernel_block(h, r)
    moments = np.empty((_ORDER, size))
    for p in range(_ORDER):
        moments[p] = np.bincount(cells, term, size)
        term *= u
    filters = _LAG_POWERS * _kernel_block(h, _LAG_COLUMNS * step)
    sums = sum(np.convolve(moments[p], filters[p], "valid") for p in range(_ORDER))
    total = np.concatenate(([0], np.cumsum(np.bincount(cells, minlength=size))))
    return sums / (h * _SQRT_2PI), total[2 * _LAGS + 1 :] - total[: -2 * _LAGS - 1]


def _interpolated_sums(
    h: float, data: np.ndarray, targets: np.ndarray, leave_out: float, nodes: _NodeGrid
) -> np.ndarray:
    """Kernel sums read off a node grid, for ``_gaussian_sums``.

    Each target reads the 20 nodes centred on it (the 20 at the grid's end,
    for a target just outside its range).  The interpolation error is a
    fraction of the stencil's largest node, so a value, less ``leave_out``,
    not above ``_GUARD`` of it is taken by ``_direct_sums`` instead.  So is a
    NaN value, as at a target exactly on a node, where a weight is infinite.
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
        vals -= leave_out
        redo = ~(vals > _GUARD * nodes.peaks[first])
        if redo.any():
            vals[redo] = _direct_sums(h, data, flat[i : i + chunk][redo]) - leave_out
        out[i : i + chunk] = vals
    return out.reshape(targets.shape)


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

    The chord profile of ``_trapezoid`` rises from 0 to its plateau T and
    falls back; a ramp narrower than 1e-6*h (near and on the axes) is a jump
    at its midpoint, exact to within (width/h)**2.  With x_k = |v - k|/h,
    Q(x) = Phi(-x) and psi(x) = phi(x) - x*Q(x),

        corr(v) = c(v) + h * sum_k s_k psi(x_k) - T * sum_j Phi(o_j/h)

    over the other ramps' knots k, with slope changes s_k, and the jumps j,
    o_j the offset of v outwards from jump j.  c is T times the least of 1
    and each other ramp's share climbed from its foot.  Every term vanishes
    away from its knot, so none cancels (see the module docstring).
    """
    h = validate_bandwidth(h)
    v_arr = np.asarray(v, dtype=float)
    knots, heights = _trapezoid(subspace, window)
    top, k = heights[1], knots.tolist()
    # the rise and the fall: foot (at height 0), head, width and outward sign
    ramps = [(k[0], k[1], k[1] - k[0], -1.0), (k[3], k[2], k[3] - k[2], 1.0)]
    wide = [(foot, head, h * top / width) for foot, head, width, _ in ramps if width >= 1e-6 * h]
    jumps = [(0.5 * (foot + head), out) for foot, head, width, out in ramps if width < 1e-6 * h]
    # the block's rows: the wide ramps' feet and heads, with h * s_k, then the jumps
    column = np.array([f for f, _, _ in wide] + [e for _, e, _ in wide] + [m for m, _ in jumps])
    kinks = np.array([s for *_, s in wide] + [-s for *_, s in wide])
    # erfc(t) is 2*Q(x_k) at t = x_k/sqrt(2), at the kinks, and 2*Phi(o_j/h) at the jumps
    scale = np.array([1.0] * kinks.size + [-out for _, out in jumps]) / (h * _SQRT_2)
    tails = np.concatenate((kinks / -_SQRT_2, np.full(len(jumps), -0.5 * top)))
    runs, r = np.array([head - foot for foot, head, _ in wide])[:, None], kinks.size
    flat, total = v_arr.ravel(), np.empty(v_arr.size)
    step = max(1, _CORRECTION_ELEMENTS // column.size)
    for i in range(0, flat.size, step):
        d = flat[i : i + step] - column[:, None]
        share = np.minimum.reduce(d[: r // 2] / runs, axis=0, initial=1.0)  # c(v) / T
        t = d * scale[:, None]
        np.abs(t[:r], out=t[:r])
        with np.errstate(under="ignore"):
            block = erfc(t)
        block[:r] *= t[:r]
        density = kinks @ _kernel_block(h, d[:r]) / _SQRT_2PI
        total[i : i + step] = top * np.maximum(share, 0.0) + tails @ block + density
    return _shaped_like(v_arr, total.reshape(v_arr.shape))


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

    seeds = [*_trapezoid(subspace, window)[0], *(v + k * h for k in (-8.0, -4.0, 0.0, 4.0, 8.0))]
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
    out = fx * fy  # shaped like x and y broadcast
    return _shaped_like(out, out)
