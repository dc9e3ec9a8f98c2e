"""Reference implementations the tests hold the package to.

Each writes its own Gaussian rather than reading ``kernels._kernel_block``,
so a fault in the package's kernel cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from substat.geometry import Subspace, Window, _trapezoid, chord_measure, v_range
from substat.kernels import validate_bandwidth

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """Raised when the quadrature oracle cannot reach its tolerance."""


def gaussian(h: float, t: float) -> float:
    """Gaussian kernel of bandwidth h at the scalar displacement t."""
    return math.exp(-0.5 * (t / h) ** 2) / (h * _SQRT_2PI)


def normal_pdf(t):
    """Standard normal density, elementwise."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / _SQRT_2PI


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
    h = validate_bandwidth(h)
    v = float(v)
    lo, hi = v_range(subspace, window)

    def integrand(t):
        return chord_measure(subspace, window, t) * gaussian(h, t - v)

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
