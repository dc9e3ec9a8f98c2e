"""An independent reference for the substationary estimate's Poisson likelihood.

Built from the definitions alone, in plain Python floats with scipy's
adaptive quadrature; nothing here imports the package, so a fault in its
chord geometry, closed-form correction, kernel sums or integral cannot hide
in its own reference.  The setting is the window [0, z] x [0, omega], the
angle theta and the bandwidth h; a point (x, y) has the offset
v = y*cos(theta) - x*sin(theta).

* ``chord(v)``: the length of the line of offset v inside the window, by
  clipping it to the rectangle (Liang-Barsky);
* ``correction(v)``: the kernel mass the window keeps around offset v, the
  quadrature of the chord against the Gaussian kernel;
* the estimate at v: the dense kernel sum over the data's offsets divided
  by that correction;
* ``integral()``: the estimate times the chord over the projection range;
* ``loglik(loo)``: the sum of the estimate's logs at the data, less the
  integral; with ``loo`` each datum leaves its own kernel out.

Every quadrature is split at the corners' offsets, where the chord kinks,
and raises ``AssertionError`` past its error bound.
"""

from __future__ import annotations

import functools
import math

from scipy.integrate import quad

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the kernel's reach in bandwidths: beyond it a Gaussian holds below 1e-32 of its mass
_REACH = 12.0


class Likelihood:
    """The reference likelihood of the points (x, y) at one angle, window and bandwidth."""

    def __init__(self, theta: float, z: float, omega: float, h: float, x, y):
        self.c, self.s = math.cos(theta), math.sin(theta)
        self.z, self.omega, self.h = z, omega, h
        self.data = [self.offset(xi, yi) for xi, yi in zip(x, y)]
        self.knots = sorted(self.offset(cx, cy) for cx in (0.0, z) for cy in (0.0, omega))

    def offset(self, x: float, y: float) -> float:
        return y * self.c - x * self.s

    def chord(self, v: float) -> float:
        """The length of {u : (u*c - v*s, u*s + v*c) in the window}, clipped axis by axis."""
        lo, hi = -math.inf, math.inf
        for base, slope, extent in ((-v * self.s, self.c, self.z), (v * self.c, self.s, self.omega)):
            if slope == 0.0:
                if not 0.0 <= base <= extent:
                    return 0.0
                continue
            a, b = -base / slope, (extent - base) / slope
            lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
        return max(0.0, hi - lo)

    def kernel(self, t: float) -> float:
        return math.exp(-0.5 * (t / self.h) ** 2) / (self.h * _SQRT_2PI)

    def _quad(self, f, a: float, b: float, rtol: float) -> float:
        """The integral of f over [a, b], split at the knots inside."""
        points = [k for k in self.knots if a < k < b]
        value, err = quad(f, a, b, points=points or None, limit=400, epsabs=0.0, epsrel=rtol)
        assert err <= 10 * rtol * abs(value), (a, b, value, err)
        return value

    def correction(self, v: float) -> float:
        """int chord(t) K_h(t - v) dt over the projection range, within the kernel's reach."""
        a = max(self.knots[0], v - _REACH * self.h)
        b = min(self.knots[-1], v + _REACH * self.h)
        return self._quad(lambda t: self.chord(t) * self.kernel(t - v), a, b, 1e-13)

    def kernel_sum(self, v: float, leave_out: int | None = None) -> float:
        return math.fsum(self.kernel(v - d) for j, d in enumerate(self.data) if j != leave_out)

    def estimate(self, v: float) -> float:
        return self.kernel_sum(v) / self.correction(v)

    @functools.cached_property
    def integral(self) -> float:
        """int estimate(v) * chord(v) dv over the projection range, in panels of at most 2h
        between the knots, so that every datum's kernel shares the panels' nodes."""
        pieces = []
        for a, b in zip(self.knots[:-1], self.knots[1:]):
            count = math.ceil((b - a) / (2.0 * self.h))
            edges = [a + (b - a) * i / count for i in range(count)] + [b]
            for lo, hi in zip(edges[:-1], edges[1:]):
                pieces.append(self._quad(lambda v: self.estimate(v) * self.chord(v), lo, hi, 1e-12))
        return math.fsum(pieces)

    @functools.cached_property
    def data_corrections(self) -> list[float]:
        return [self.correction(v) for v in self.data]

    def loglik(self, loo: bool = False) -> float:
        logs = [
            math.log(self.kernel_sum(v, i if loo else None) / corr)
            for i, (v, corr) in enumerate(zip(self.data, self.data_corrections))
        ]
        return math.fsum(logs) - self.integral
