"""Gaussian kernels and boundary corrections for the rectangular window.

A kernel intensity estimate divides each kernel sum by the mass the kernel
retains inside the window, so that locations near the boundary are not
deflated.  For the 1-D (orthogonal-coordinate) smoother that mass has a
closed form over the knots of the trapezoidal chord profile, for every
angle: the chord at v, plus h*s_k*(phi(x) - x*Phi(-x)) at x = |v - k|/h for
each kink k of a ramp, less the mass that each jump (a ramp narrower than
1e-3*h) cuts off, T*Phi(o/h) less its width w's second-order term
T*(w/h)**2/24 * x*phi(x) at x = o/h, o outwards.  Each term vanishes away
from its knot, unlike the growing h*s_k*(x*Phi(x) + phi(x)).  The foot and
head terms of a ramp just wider than 1e-3*h still cancel to O(T), with
s_k = T/width, losing about 2**-53*T*h/width: against 60-digit values at
widths from 3e-8*h to 0.1*h, near both axes, the relative error was at
most 8.7e-14, just above the threshold.

Beyond ``_KNOT_REACH`` = 10 bandwidths of every knot each knot term is
below 2**-53 of the plateau, so there the correction is the chord itself:
each knot's term is taken only at the offsets within that reach of it, and
beyond is 0 at a kink and its limit at a jump, -T outwards and 0 inwards
(``_corrected``).  The likelihood integral
(``estimate.SubstationaryIntensity.integral``) takes its Gauss-Legendre
quadrature only on the zones within that reach (``_zone_panels``), and the
kernel mass over the projection range in closed form from the data within
that reach of its ends (``estimate.SubstationaryIntensity._terms``).

Whatever reads no data depends on the angle, the window and h alone, so
``_plan`` builds it once per such key, keeps the 128 keys used last, and
every estimator and call at a key reads its ``_Plan``: the projection range
and its node layout, the correction's rows of knots, slopes and scales, and
the integral's zone nodes and weights with the correction and its excess
over the chord there.  An open fit reads up to 76 keys (the keys a session
reads and hits: CHANGES.md, "The node grid also picks each estimator's erfc
path").  A profile evaluation then
computes only the data's part: the kernel sums at the data and at the plan's
nodes, the correction at the data, and the kernel mass.  A fit's
replications score the same coarse angles, so they share those angles' plans.

Only the Gaussian kernel ships; the normal CDF is evaluated through the
complementary error function so deep tails underflow to zero instead of
losing precision to cancellation.  The module's erfc (``_erfc``) has two
elementwise paths: the standard library's ``math.erfc`` mapped over the
arguments, and cephes' rationals, the coefficients of scipy's erfc, for all
the arguments at once through one matrix of powers and one matrix product
(``_erfc_rational``), whose domain |t| < 8 holds the knots' reach,
|t| < 10/sqrt(2).  Against scipy's erfc either is within 4e-15 relative for
|t| <= 5 and 1e-13 over that reach.  ``math.erfc`` costs less a call and the
power matrix less an element (timings: CHANGES.md, "The package stops
importing scipy").  The node grid picks the path: an
``estimate.SubstationaryIntensity`` with a node grid (``_node_grid``) takes
every erfc of its correction by the power matrix, and one without takes
``math.erfc``, so no value depends on the calls before it.
Its correction at the data and its kernel mass's tails share those erfc
calls (``_corrected`` returns both): an end is a row of the correction's
block, or shares the knot on it (a ramp's foot, or a jump of no width).
``normal_cdf``, ``correction_substat_closed`` and the plans' integral nodes
take the standard library's path.

This module owns the kernel's arithmetic, its normalizing constants
included; ``_kernel_block`` is the one copy of the Gaussian's exponent.  An
exponent below ``_EXP_FLOOR`` = -707, a displacement beyond about 37.6
bandwidths, gives a term of exactly 0.  Below
it ``np.exp`` leaves its vector path and runs many times slower, most where
its result is subnormal (timings: CHANGES.md, "Start without scipy.optimize
or scipy.integrate").  The terms the floor drops are too small to move any
sum that holds a term above 1e-250.  A block checks for such exponents with
one ``min`` and, only if it finds one, clamps them, takes the exp and
zeroes them.

The engine, ``_gaussian_sums(h, data, targets)``, is one-axis: it takes the
kernel sums of the 1-D smoother along the orthogonal offset and their
leave-one-out values.  The 2-D smoother's sums are a product of two
one-axis kernel blocks: at scattered locations ``_direct_sums`` with a
second axis, on a tensor grid ``_grid_sums`` as one matrix product.  The
engine has two paths:

* ``_direct_sums``, the direct sum over every data-target pair, exact up to
  rounding: the oracle of every path, and the path for small inputs;
* ``_interpolated_sums``: the values are read off a node grid by 20-point
  (degree-19) barycentric Lagrange interpolation, as in the grid stage of
  the fast Gauss transform, stencil-major: each target's 20 weights and
  nodes lie down a column, so every sum runs over the leading axis.

The node grid belongs to an estimator, not to a call.  ``_node_grid``
decides once, for the data and the ``_node_layout`` over a range [lo, hi]
that holds every target (the 1-D smoother's projection range, from its
plan), whether a grid pays, and if so takes the node sums at nodes spaced
h/5 over that range by the Taylor form of the fast Gauss transform on the
node lattice (``_lattice_sums``), whose 20 convolutions are BLAS
products; every call of that estimator then reads the same nodes, so a
value at a given offset does not depend on the calls before it.
It takes a grid of G nodes where n*m > ``_GRID_RATIO``*(n + m + G), for the
n data and all the m targets those calls ask for (the 1-D smoother's n data
and its likelihood integral's nodes).  The ratio 75 was fitted by
``tools/node_grid_price.py``, which times the sums at those targets and the
correction at the data both ways, the grid's build included, at one
OpenBLAS thread: 75 lies among the ratios whose picks sum the least time
(the fitted intervals and their host: ``BENCH_node_grid.json``).  One ratio
does not always pick the faster path: near n = 200 the grid it takes can
run slower than the direct sum.
Every path works through its targets in blocks of
2**16 elements (512 KB), so each temporary stays in the L2 cache; the
lattice holds a few floats per datum and 20 per node, and each of its
BLAS products at most 2**16 elements.  The products run at OpenBLAS's
thread count, which a forked map (``estimate._map_ordered``) sets to one;
their values depend neither on the count nor on the blocks.

Each path guards its values against the direct sum.  The lattice leaves
out each datum more than 12 bandwidths from a node, terms below
exp(-72)/(h*sqrt(2*pi)) each; a node is summed directly unless those terms
stay under 1e-12 of its sum, so a node beyond the reach of every datum
reads the direct sum's tiny value, not 0.  The interpolated path
recomputes every value, less a leave-one-out term, not above 1/100 of the
largest node of its stencil, and so also any NaN value, as at a target
exactly on a node, whose barycentric weight is infinite.  Both guards sum
only the values with a datum within the floor's reach, ``_FLOOR_REACH`` =
37.61 bandwidths, found by ``np.searchsorted`` on the sorted data; the
rest are the direct sum's exact 0 (``_reached_sums``).  The guards hold
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

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import Subspace, Window, _shaped_like, _trapezoid, chord_measure

__all__ = [
    "normal_cdf",
    "correction_substat_closed",
    "correction_2d",
    "validate_bandwidth",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
# the kernel's floor: below it np.exp leaves its vector path (see the module docstring)
_EXP_FLOOR = -707.0
# the floor's reach in bandwidths, sqrt(1414) rounded up: every term beyond it is exactly 0
_FLOOR_REACH = math.ceil(100.0 * math.sqrt(-2.0 * _EXP_FLOOR)) / 100.0
# elements per temporary block: 512 KB, so a block and its sibling temporaries stay
# within a 2 MB L2 cache (timed: CHANGES.md, "kernel blocks sized to the L2 cache")
_CHUNK_ELEMENTS = 2**16
# elements per block of the boundary correction's knots against its offsets: 128 KB
# (timed: CHANGES.md, "_corrected always returns the kernel mass's tails")
_CORRECTION_ELEMENTS = 2**14
# the correction's knots: a ramp narrower than _JUMP_WIDTH bandwidths is a jump at its
# midpoint with the second-order term of its width, exact to about (width/h)**4 of the
# plateau T; at a wider ramp the foot and head terms h*s_k*psi(x), s_k = T/width, cancel
# to O(T) and lose about 2**-53 * T * h/width.  Every knot term is below 2**-53 of T
# beyond 9 bandwidths, h*s_k*psi(x) <= T*psi(x)/_JUMP_WIDTH with psi(x) <= phi(x)/(1 + x^2),
# and T*Q(x) at a jump; the reach stays at the 10 with which the likelihood integral's
# zones (_zone_panels) were measured
_JUMP_WIDTH = 1e-3
_KNOT_REACH = 10
# the complementary error function (_erfc): cephes' rationals, the coefficients of scipy's
# erfc (Moshier 1989, after Cody 1969), highest power first: 1 - x*T/U in x^2 below 1 and
# exp(-x^2)*P/Q in x below 8; U and Q are monic
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_ERFC_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# the rationals' numerators (T, P) and denominators (U, Q) as rows over the powers x^p of
# _ERFC_POWERS (no polynomial has x^9)
_ERFC_POWERS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)
_ERFC_ROWS = np.array([
    [dict(zip(range(0, step * len(c), step), c[::-1])).get(p, 0.0) for p in _ERFC_POWERS]
    for c, step in zip((_ERFC_T, _ERFC_P, _ERFC_U, _ERFC_Q), (2, 1, 2, 1))
])
# elements per block of the power-matrix pass: its 10 rows of powers fill 160 KB
# (timed: CHANGES.md, "_corrected always returns the kernel mass's tails")
_ERFC_BLOCK = 2**11
# the likelihood integral's quadrature where the correction's knot terms act: Gauss-Legendre
# panels of at most _PANEL_WIDTH bandwidths, of _PANEL_NODES nodes each (a convergence
# test in tests/test_estimate.py holds the integral within 1e-9 of a fine reference)
_PANEL_WIDTH = 6.0
_PANEL_NODES = 12
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_NODES)

# interpolated kernel sums: node spacing in bandwidths, stencil size, guard, and the
# ratio of a node grid's price, fitted by tools/node_grid_price.py (see the module docstring)
_NODE_STEP = 0.2
_STENCIL = 20
_HALF = _STENCIL // 2
_GUARD = 1e-2
_GRID_RATIO = 75
# a stencil's offsets and the barycentric weights of equispaced nodes,
# (-1)^k C(19, k), as columns: the interpolation lays its stencils out down them
_OFFSETS = np.arange(float(_STENCIL))[:, None]
_BARY = np.array([[(-1.0) ** k * math.comb(_STENCIL - 1, k)] for k in range(_STENCIL)])

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
# the filters' lags, and l^p / p! at each for each order p, laid out as the
# product's taps: row i is lag _LAGS - i, column p order p
_LAG_COLUMNS = np.arange(-_LAGS, _LAGS + 1.0)[:, None]
_LAG_POWERS = np.array([(-_LAG_COLUMNS[:, 0]) ** p / math.factorial(p) for p in range(_ORDER)]).T


def validate_bandwidth(h: float) -> float:
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be a positive finite number, got {h}")
    return h


def normal_cdf(t):
    """Standard normal CDF via erfc, accurate in both tails: on the standard library's path."""
    t = np.asarray(t, dtype=float)
    return 0.5 * _erfc((-t / _SQRT_2).ravel(), False).reshape(t.shape)


def _erfc(t: np.ndarray, batched: bool) -> np.ndarray:
    """erfc at each element of the 1-D array t: ``math.erfc`` mapped over it, or with
    ``batched`` cephes' rationals in blocks of ``_ERFC_BLOCK`` (``_erfc_rational``).

    Either path gives each element's value whatever the others are.  The
    batched path's domain is |t| < 8 and NaN, which covers every argument
    ``_corrected`` takes, the offsets within ``_KNOT_REACH`` bandwidths of a
    point (|t| < 10/sqrt(2)); the standard library's path takes any t.
    """
    if not batched:
        return np.fromiter(map(math.erfc, t.tolist()), float, t.size)
    out = np.empty(t.size)
    for i in range(0, t.size, _ERFC_BLOCK):
        out[i : i + _ERFC_BLOCK] = _erfc_rational(t[i : i + _ERFC_BLOCK])
    return out


def _erfc_rational(t: np.ndarray) -> np.ndarray:
    """cephes' erfc at each element of t, |t| < 8, its two rationals taken by one matrix product.

    With x = |t|: 1 - x*T(x^2)/U(x^2) below 1 and exp(-x^2)*P(x)/Q(x) from 1 on;
    2 less that value where t < 0.  The powers 1, x, ..., x^8 and x^10 of x
    are the rows of one matrix, and ``_ERFC_ROWS`` @ it gives all four
    polynomials at once, each a sum of positive terms.  The matrix takes two
    columns at least, so numpy's product is a BLAS matrix product, whose
    columns do not depend on each other (a lone column goes to a
    matrix-vector product, which rounds otherwise).  NaN gives NaN.
    """
    x = np.abs(t)
    m = x.size
    powers = np.empty((len(_ERFC_POWERS), max(m, 2)))
    powers[0] = 1.0
    powers[1, :m] = x
    powers[1, m:] = 0.0
    for k in range(2, 9):
        np.multiply(powers[k - 1], powers[1], out=powers[k])
    np.multiply(powers[8], powers[2], out=powers[9])
    rationals = (_ERFC_ROWS @ powers)[:, :m]
    below = x < 1.0
    q = np.where(below, rationals[0], rationals[1])
    q /= np.where(below, rationals[2], rationals[3])
    q *= np.where(below, -x, np.exp(-x * x))  # erfc(x) = 1 - x*q below 1
    q += below
    negative = t < 0.0
    if negative.any():
        q[negative] = 2.0 - q[negative]
    return q


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

    The module docstring gives the paths, the ratio that decides on a
    node grid, the guards and the measured accuracy: every path stays
    within 1e-10 relative error of ``_direct_sums`` and gives its
    nonpositive values exactly.  With ``nodes`` the data must be sorted, as
    ``SubstationaryIntensity._v_data`` is: the guards find each value's
    reach by ``np.searchsorted`` (``_reached_sums``).
    """
    own = 1.0 / (h * _SQRT_2PI) if loo else 0.0
    if nodes is not None:
        return _interpolated_sums(h, data, targets, own, nodes)
    sums = _direct_sums(h, data, targets)
    return sums - own if loo else sums


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


def _direct_sums(h: float, data: np.ndarray, targets: np.ndarray, *axes) -> np.ndarray:
    """The direct sum over every data-target pair, in stored order: the oracle of every path.

    Each further ``(data, targets)`` pair in ``axes`` multiplies in its own
    kernel, as the product kernel of the 2-D smoother does, at the targets
    taken together.  Targets are taken in chunks to bound memory; empty data
    sum to zero.
    """
    flat, axes = targets.ravel(), [(d, t.ravel()) for d, t in axes]
    out = np.empty(flat.size, dtype=float)
    step = max(1, _CHUNK_ELEMENTS // max(1, data.size))
    for i in range(0, out.size, step):
        block = _kernel_block(h, data - flat[i : i + step, None])
        for d, t in axes:
            block *= _kernel_block(h, d - t[i : i + step, None])
        out[i : i + step] = block.sum(axis=1)
    return (out / (h * _SQRT_2PI) ** (1 + len(axes))).reshape(targets.shape)


class _NodeGrid(NamedTuple):
    """Kernel sums at the nodes origin + i*step, read stencil-major.

    ``windows[s, i]`` is node i + s, the s-th of the 20-node stencil from
    node i on, a view of ``sums``; ``peaks[i]``, the largest of that stencil.
    """

    origin: float
    step: float
    sums: np.ndarray
    windows: np.ndarray
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


def _node_grid(h: float, data: np.ndarray, plan: _Plan) -> _NodeGrid | None:
    """The node grid at a ``_plan``'s layout where it pays (module docstring), or None: priced
    against a profile evaluation's targets, the data and the plan's integral nodes."""
    n, targets = data.size, data.size + plan.nodes.size
    pays = n * targets > _GRID_RATIO * (n + targets + plan.layout[2])
    return _build_node_grid(h, data, plan.layout) if pays else None


def _build_node_grid(h: float, data: np.ndarray, layout: tuple) -> _NodeGrid:
    """The ``_lattice_sums`` of the data at the nodes of a ``_node_layout``.

    A node whose left-out terms are not below ``_TAIL_RTOL`` of its sum,
    such as one beyond the reach of every datum, takes ``_reached_sums``.
    """
    origin, step, count = layout
    sums, inside = _lattice_sums(h, data, origin, step, count)
    redo = np.flatnonzero(~((data.size - inside) * (_TAIL / h) < _TAIL_RTOL * sums))
    if redo.size:
        sums[redo] = _reached_sums(h, data, origin + step * redo)
    windows = as_strided(sums, (_STENCIL, count - _STENCIL + 1), (sums.itemsize,) * 2, writeable=False)
    return _NodeGrid(origin, step, sums, windows, windows.max(axis=0))


def _reached_sums(h: float, data: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``_direct_sums`` at the 1-D targets, taken only at those with a datum in the floor's reach.

    The terms of the data beyond ``_FLOOR_REACH`` bandwidths are exactly 0,
    so the other targets get exactly 0, the direct sum's value, unsummed.
    Two ``np.searchsorted`` calls on the sorted data find the reach.
    """
    reach = _FLOOR_REACH * h
    near = np.searchsorted(data, targets + reach, "right") > np.searchsorted(data, targets - reach)
    out = np.zeros(targets.size)
    if near.any():
        out[near] = _direct_sums(h, data, targets[near])
    return out


def _lattice_sums(
    h: float, data: np.ndarray, origin: float, step: float, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel sums at the nodes origin + k*step from lattice moments, and the data each sums.

    Datum j lies r_j from its nearest node m_j; with l = k - m_j and
    u_j = r_j*step/h**2 its term at node k is e^(-r_j^2/2h^2) e^(u_j*l)
    e^(-(l*step)^2/2h^2).  Taking ``_ORDER`` terms of e^(u_j*l), the sums are
    sum_p (M_p * g_p)[k]: moments M_p[m] = sum_(m_j=m) e^(-r_j^2/2h^2) u_j^p,
    one ``np.bincount`` each, convolved with g_p(l) = e^(-(l*step)^2/2h^2)
    l^p/p! over |l| <= ``_LAGS``.  The convolutions are BLAS products: with
    taps[i, p] = g_p(_LAGS - i), W = taps @ M, and node k sums W's diagonal
    from (0, k), sum_i W[i, k + i], read through a strided view.  A product
    takes a block of lags i against a block of nodes, each within
    ``_CHUNK_ELEMENTS``: all 121 lags where the nodes are few, else a half or
    a third of them.  Each block of lags adds onto the sums of the ones
    before it, so every node sums its lags in order, whatever the blocks.
    The data beyond those lags of node k are left out of its sum and count.
    """
    q = np.rint((data - origin) / step)
    near = (q >= -_LAGS) & (q < count + _LAGS)
    data, q = data[near], q[near]
    r = data - (origin + q * step)  # the node is exact (see _node_layout)
    lags = _LAG_POWERS.shape[0]
    # the lags in one, two or three parts, as many as fit against all the nodes
    parts = min(3, -(-lags // max(1, _CHUNK_ELEMENTS // (count + lags))))
    rows = -(-lags // parts)
    # the nodes in even blocks of two at least, so that numpy sums every
    # diagonal row by row
    blocks = -(-count // max(2, min(count, _CHUNK_ELEMENTS // rows - rows)))
    width = -(-count // blocks)
    sums = np.zeros(blocks * width)
    # moment column m sits at node m - _LAGS - 1, after a column of 0; the
    # columns past the last block's reach stay 0 too
    columns, size = q.astype(np.intp) + (_LAGS + 1), sums.size + lags + rows
    u = r * (step / (h * h))
    term = _kernel_block(h, r)
    moments = np.empty((_ORDER, size))
    for p in range(_ORDER):
        moments[p] = np.bincount(columns, term, size)
        term *= u
    taps = _LAG_POWERS * _kernel_block(h, _LAG_COLUMNS * step)  # the kernel is even in l
    # row 0 holds the sums so far and rows 1.. a block of lags, skewed so that
    # one row down and one column on is the next lag of the same node
    block = np.empty((rows + 1, width + rows))
    skew = (block.strides[0] + block.itemsize, block.itemsize)
    for k in range(0, sums.size, width):
        out = sums[k : k + width]
        for i in range(0, lags, rows):
            part = block[: min(rows, lags - i) + 1]
            part[0, :width] = out
            np.matmul(taps[i : i + rows], moments[:, k + i : k + i + block.shape[1]], out=part[1:])
            as_strided(part, (part.shape[0], width), skew).sum(axis=0, out=out)
    total = np.cumsum(np.bincount(columns, minlength=count + lags))  # from the column of 0
    return sums[:count] / (h * _SQRT_2PI), total[lags:] - total[:-lags]


def _interpolated_sums(
    h: float, data: np.ndarray, targets: np.ndarray, leave_out: float, nodes: _NodeGrid
) -> np.ndarray:
    """Kernel sums read off a node grid, for ``_gaussian_sums``.

    Each target reads the 20 nodes centred on it (the 20 at the grid's end,
    for a target just outside its range).  The barycentric weights lie
    stencil-major, (20, targets), as the stencils do in ``nodes.windows``,
    so both sums run over the leading axis.  The interpolation error is a
    fraction of the stencil's largest node, so a value, less ``leave_out``,
    not above ``_GUARD`` of it is taken by ``_reached_sums`` instead.  So is
    a NaN value, as at a target exactly on a node, where a weight is infinite.
    """
    flat = targets.ravel()
    q = (flat - nodes.origin) / nodes.step  # node i sits at q = i
    last = nodes.sums.size - _STENCIL
    out = np.empty(flat.size, dtype=float)
    chunk = _CHUNK_ELEMENTS // _STENCIL
    for i in range(0, out.size, chunk):
        qi = q[i : i + chunk]
        first = qi.astype(np.intp)
        first -= _HALF - 1
        np.minimum(np.maximum(first, 0, out=first), last, out=first)
        w = (qi - first) - _OFFSETS  # exact: q less an integer
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(_BARY, w, out=w)
            norm = w.sum(axis=0)
            w *= nodes.windows[:, first]
            vals = w.sum(axis=0)
            vals /= norm
        vals -= leave_out
        redo = ~(vals > _GUARD * nodes.peaks[first])
        if redo.any():
            vals[redo] = _reached_sums(h, data, flat[i : i + chunk][redo]) - leave_out
        out[i : i + chunk] = vals
    return out.reshape(targets.shape)


def _grid_sums(h: float, x_axis, y_axis) -> np.ndarray:
    """Two-axis kernel sums on the (len(x_mids), len(y_mids)) grid of ``(data, mids)`` pairs.

    The product kernel factorizes: the x-block of exp(-((data_j - t_k)/h)^2/2),
    transposed, times the y-block, over 2*pi*h^2.
    """
    wx, wy = (_kernel_block(h, d[:, None] - t[None, :]) for d, t in (x_axis, y_axis))
    return (wx.T @ wy) / (h * h * 2.0 * math.pi)


class _Plan(NamedTuple):
    """What one (subspace, window, h) key fixes before any data is read: see ``_plan``.

    The projection range [``lo``, ``hi``], the outer knots of the chord
    profile (``geometry._trapezoid``), and the ``_node_layout`` over it; the
    correction's ``rows`` (``_correction_rows``); and the likelihood
    integral's Gauss-Legendre ``nodes`` and ``weights`` on its ``_zone_panels``,
    with the correction there, ``corr``, and its ``excess`` over the chord.
    """

    lo: float
    hi: float
    layout: tuple[float, float, int]
    rows: _Rows
    nodes: np.ndarray
    weights: np.ndarray
    corr: np.ndarray
    excess: np.ndarray


@functools.lru_cache(maxsize=128)
def _plan(subspace: Subspace, window: Window, h: float) -> _Plan:
    """The ``_Plan`` of one angle, window and h, built once per key.

    Every later call at the key shares it, so each of its arrays is read-only.
    """
    knots, heights = _trapezoid(subspace, window)
    lo, hi = float(knots[0]), float(knots[-1])
    rows = _correction_rows(knots, heights[1], h)
    mid, half = np.array(_zone_panels(knots.tolist(), h)).T
    nodes = (mid[:, None] + half[:, None] * _GAUSS_NODES).ravel()
    weights = (half[:, None] * _GAUSS_WEIGHTS).ravel()
    corr = _corrected(h, rows, nodes, False)[0]
    excess = corr - chord_measure(subspace, window, nodes)
    for values in (nodes, weights, corr, excess):
        values.setflags(write=False)
    return _Plan(lo, hi, _node_layout(h, lo, hi), rows, nodes, weights, corr, excess)


def _zone_panels(knots: list, h: float) -> list[tuple[float, float]]:
    """The (midpoint, half-width) of each panel where the correction's knot terms act.

    Each knot of the chord profile acts within ``_KNOT_REACH`` bandwidths of
    it.  A gap between knots that two reaches cover is one piece, and a
    wider gap gives a piece at each end.  The chord kinks at the knots, so no
    piece crosses one.  Each piece takes equal panels of at most
    ``_PANEL_WIDTH`` bandwidths: at most 2*ceil(_KNOT_REACH/_PANEL_WIDTH) a
    gap, whatever the window.
    """
    reach, width, panels = _KNOT_REACH * h, _PANEL_WIDTH * h, []
    for lo, hi in zip(knots[:-1], knots[1:]):
        for a, b in [(lo, hi)] if hi - lo <= 2 * reach else [(lo, lo + reach), (hi - reach, hi)]:
            if b > a:
                count = max(1, math.ceil((b - a) / width))
                half = 0.5 * (b - a) / count
                panels += [(a + (2 * i + 1) * half, half) for i in range(count)]
    return panels


class _Rows(NamedTuple):
    """The correction's terms at one key, for ``_corrected``: see ``_correction_rows``.

    ``points`` are the knots, the wide ramps' feet, then their heads, then
    the jumps' midpoints, and after them each end of the projection range,
    lo and hi, that is not a knot.  ``kinks`` holds h*s_k at each kink,
    ``scale`` each point's erfc argument t = (v - point)*scale, taken as |t|
    at a kink, and ``tails`` each knot's weight of t*erfc(t) at a kink and of
    erfc(t) at a jump.  ``runs`` holds each wide ramp's head less its foot,
    and ``bends`` each jump's weight of (v - m_j)*exp(-((v - m_j)/h)**2/2)/sqrt(2*pi),
    empty where no jump has a width.  ``ends`` names the two points whose erfc
    values at the data are the kernel mass's tails beyond lo and hi: an end,
    or the knot there, a ramp's foot or a jump of no width, whose argument
    is the end's.
    """

    top: float
    points: np.ndarray
    kinks: np.ndarray
    scale: np.ndarray
    tails: np.ndarray
    runs: np.ndarray
    bends: np.ndarray
    ends: tuple[int, int]


def _correction_rows(knots: np.ndarray, top: float, h: float) -> _Rows:
    """The ``_Rows`` of the chord's outer knots and plateau T, each array read-only."""
    k = knots.tolist()
    # the rise and the fall: foot (at height 0), head, width and outward sign
    ramps = [(k[0], k[1], k[1] - k[0], -1.0), (k[3], k[2], k[3] - k[2], 1.0)]
    narrow = _JUMP_WIDTH * h
    wide = [(foot, head, h * top / width) for foot, head, width, _ in ramps if width >= narrow]
    jumps = [(0.5 * (foot + head), out, width) for foot, head, width, out in ramps if width < narrow]
    # the wide ramps' feet and heads, with h * s_k, then the jumps, then the ends that are no knot
    points = [f for f, _, _ in wide] + [e for _, e, _ in wide] + [m for m, _, _ in jumps]
    kinks = np.array([s for *_, s in wide] + [-s for *_, s in wide])
    # erfc(t) is 2*Q(x_k) at t = x_k/sqrt(2) at a kink and an end, and 2*Phi(o_j/h) at a jump
    signs = [1.0] * kinks.size + [-out for _, out, _ in jumps]
    ends = []
    for end, sign in ((k[0], 1.0), (k[3], -1.0)):
        if end not in points:
            points, signs = points + [end], signs + [sign]
        ends.append(points.index(end))
    points = np.array(points)
    scale = np.array(signs) / (h * _SQRT_2)
    tails = np.concatenate((kinks / -_SQRT_2, np.full(len(jumps), -0.5 * top)))
    runs = np.array([head - foot for foot, head, _ in wide])[:, None]
    # each jump's width term T*(w/h)**2/24 * x*phi(x) at x = o_j/h
    bends = np.array([top * (width / h) ** 2 / 24.0 * out / h for _, out, width in jumps])
    bends = bends if bends.any() else np.empty(0)
    for rows in (points, kinks, scale, tails, runs, bends):
        rows.setflags(write=False)
    return _Rows(top, points, kinks, scale, tails, runs, bends, tuple(ends))


def _corrected(h: float, rows: _Rows, v: np.ndarray, batched: bool) -> tuple[np.ndarray, float]:
    """``correction_substat_closed`` at the offsets v by a plan's ``rows``, shaped like v, and
    the sum over v of the ends' erfc values: twice the kernel tails beyond lo and hi of data
    at v (``estimate.SubstationaryIntensity._terms``).

    Each point's erfc term is taken only at the offsets within ``_KNOT_REACH``
    bandwidths of it, all of a block's in one ``_erfc`` call; beyond, a
    kink's term is 0 and a jump's its limit, -T outwards and 0 inwards (the
    module docstring bounds both below 2**-53 of the plateau).  A NaN offset
    is within every reach, so it gives NaN.
    """
    top, points, kinks, scale, tails, runs, bends, ends = rows
    r, knots = kinks.size, tails.size
    column, scale = points[:, None], scale[:, None]
    reach = _KNOT_REACH * h
    flat, total, tail = v.ravel(), np.empty(v.size), 0.0
    step = max(1, _CORRECTION_ELEMENTS // points.size)
    share, density = 1.0, 0.0  # c(v) / T and the kinks' term on the axes, which have no kinks
    for i in range(0, flat.size, step):
        d = flat[i : i + step] - column
        t = d * scale
        np.abs(t[:r], out=t[:r])
        near = ~(np.abs(d) >= reach)
        block = np.where(t < 0.0, 2.0, 0.0)  # erfc's limits, 2 outwards of a jump
        block[near] = _erfc(t[near], batched)
        tail += float(block[list(ends)].sum())
        block[:r] *= t[:r]
        if r:
            share = np.minimum.reduce(d[: r // 2] / runs, axis=0, initial=1.0)
            density = kinks @ _kernel_block(h, d[:r]) / _SQRT_2PI
        total[i : i + step] = top * np.maximum(share, 0.0) + tails @ block[:knots] + density
        if bends.size:
            near_jumps = d[r:knots]
            total[i : i + step] += bends @ (near_jumps * _kernel_block(h, near_jumps.copy())) / _SQRT_2PI
    return total.reshape(v.shape), tail


def correction_substat_closed(subspace: Subspace, window: Window, h: float, v):
    """Kernel mass retained in the window around offset v, in closed form.

    The chord profile of ``_trapezoid`` rises from 0 to its plateau T and
    falls back; a ramp narrower than 1e-3*h (near and on the axes) is a jump
    at its midpoint, exact to within (width/h)**4.  With x_k = |v - k|/h,
    Q(x) = Phi(-x) and psi(x) = phi(x) - x*Q(x),

        corr(v) = c(v) + h * sum_k s_k psi(x_k)
                  - T * sum_j [Phi(x_j) - (w_j/h)**2/24 * x_j*phi(x_j)]

    over the other ramps' knots k, with slope changes s_k, and the jumps j
    of width w_j, x_j = o_j/h with o_j the offset of v outwards from jump j.
    c is T times the least of 1 and each other ramp's share climbed from its
    foot.  Every term vanishes away from its knot (see the module docstring
    for the accuracy).  The rows of knots come from the key's ``_plan``.
    """
    h = validate_bandwidth(h)
    v_arr = np.asarray(v, dtype=float)
    return _shaped_like(v_arr, _corrected(h, _plan(subspace, window, h).rows, v_arr, False)[0])


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
