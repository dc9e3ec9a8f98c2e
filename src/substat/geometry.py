"""Planar geometry for 1-D invariance subspaces inside a rectangular window.

Conventions used throughout the package:

* the observation window is the rectangle [0, z] x [0, omega];
* a 1-D linear subspace through the origin is parametrized by its angle
  theta, normalized to the half-open interval [-pi/2, pi/2), so that theta
  and theta + pi name the same subspace;
* a point (x, y) splits into the along-subspace coordinate
  u = x*cos(theta) + y*sin(theta) and the orthogonal coordinate
  v = y*cos(theta) - x*sin(theta).

The chord measure of the window at offset v is the length of the line of
constant v clipped to the rectangle.  As a function of v it is a trapezoid
(possibly degenerating to a rectangle or triangle), which the rest of the
package relies on both for numerical quadrature and for closed-form
boundary corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Window",
    "Subspace",
    "PointPattern",
    "project_xy",
    "unproject_xy",
    "v_range",
    "chord_measure",
]

_HALF_PI = math.pi / 2.0
_TINY = np.finfo(float).tiny  # the smallest normal float


class DataError(ValueError):
    """Input data cannot be used (empty, inconsistent, or out of range)."""


def _count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (Python's or numpy's, no bool) >= ``least``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _distinct(name: str, values) -> None:
    """Raise ValueError naming the first value that ``values`` repeats (2 and 2.0 alike):
    its work would run twice, and its rows collide in one key or one file."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{name} repeats {value!r}")
        seen.add(value)


@dataclass(frozen=True)
class Window:
    """Rectangular observation window [0, z] x [0, omega]."""

    z: float
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name, extent in (("z", self.z), ("omega", self.omega)):
            if not (extent > 0.0 and math.isfinite(extent)):
                raise ValueError(f"window extent {name} must be a positive finite number, got {extent}")

    @property
    def area(self) -> float:
        return self.z * self.omega

    def contains(self, x, y, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the closed window, within tol."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            (x >= -tol)
            & (x <= self.z + tol)
            & (y >= -tol)
            & (y <= self.omega + tol)
        )


@dataclass(frozen=True)
class Subspace:
    """A 1-D linear subspace at angle theta, normalized into [-pi/2, pi/2).

    theta and theta + pi denote the same line and normalize identically;
    +pi/2 wraps to -pi/2.
    """

    theta: float

    def __post_init__(self) -> None:
        t = float(self.theta)
        if not math.isfinite(t):
            raise ValueError(f"subspace angle must be finite, got {t}")
        t = math.remainder(t, math.pi)
        # remainder() yields (-pi/2, pi/2] up to sign at the boundary; fold
        # the +pi/2 endpoint onto -pi/2 so the representation is unique.
        if t >= _HALF_PI:
            t -= math.pi
        elif t < -_HALF_PI:
            t += math.pi
        object.__setattr__(self, "theta", t)

    @property
    def degrees(self) -> float:
        return math.degrees(self.theta)

    @classmethod
    def from_degrees(cls, deg: float) -> "Subspace":
        return cls(math.radians(deg))


@dataclass(frozen=True, init=False, eq=False)
class PointPattern:
    """An observed point pattern: coordinate arrays plus their window.

    Coordinates are stored as float arrays in observation order; every
    point must lie inside the closed window.
    """

    x: np.ndarray
    y: np.ndarray
    window: Window

    def __init__(self, x, y, window: Window):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if x.size and not np.all(np.isfinite(x) & np.isfinite(y)):
            raise ValueError("point coordinates must be finite")
        if x.size and not np.all(window.contains(x, y)):
            raise ValueError("every point must lie inside the window")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "window", window)

    @property
    def n(self) -> int:
        return int(self.x.size)

    def __len__(self) -> int:
        return self.n

    @classmethod
    def empty(cls, window: Window) -> "PointPattern":
        return cls(np.empty(0), np.empty(0), window)


def project_xy(subspace: Subspace, x, y):
    """Split coordinates into (u, v): along-subspace and orthogonal parts.

    u = x*cos(theta) + y*sin(theta); v = y*cos(theta) - x*sin(theta).
    Accepts scalars or arrays; broadcasts like numpy.
    """
    c = math.cos(subspace.theta)
    s = math.sin(subspace.theta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = x * c + y * s
    v = y * c - x * s
    return u, v


def unproject_xy(subspace: Subspace, u, v):
    """Inverse of :func:`project_xy`: rebuild (x, y) from (u, v)."""
    c = math.cos(subspace.theta)
    s = math.sin(subspace.theta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = u * c - v * s
    y = u * s + v * c
    return x, y


def v_range(subspace: Subspace, window: Window) -> tuple[float, float]:
    """Image of the window under the orthogonal projection v.

    The extremes are the outer knots of the chord trapezoid, attained at
    window corners: v_min = min(0, -z*sin(theta)) and
    v_max = omega*cos(theta) + max(0, -z*sin(theta)).
    """
    knots, _ = _trapezoid(subspace, window)
    return float(knots[0]), float(knots[-1])


def _shaped_like(like, values):
    """The package's one scalar rule: a scalar or 0-d ``like`` gives ``values`` as a float."""
    if np.ndim(like) == 0:
        return values.item()
    return values


def _cos_sin(subspace: Subspace) -> tuple[float, float]:
    """cos and sin of the angle; a subnormal angle is the axis, since 1/sin would overflow."""
    theta = subspace.theta
    return math.cos(theta), (math.sin(theta) if abs(theta) >= _TINY else 0.0)


def _trapezoid(subspace: Subspace, window: Window) -> tuple[np.ndarray, tuple]:
    """Knots (the corners' offsets v, sorted) and heights of the chord profile.

    The heights are 0 at the outer knots and, at the inner ones, the
    plateau: the shorter of the window's extents along the subspace.
    """
    c, s = _cos_sin(subspace)
    z, w = window.z, window.omega
    knots = np.sort(np.array([0.0, -z * s, w * c, w * c - z * s]))
    along = z / c if c > 0.0 else math.inf
    across = w / abs(s) if s != 0.0 else math.inf
    top = min(along, across)
    return knots, (0.0, top, top, 0.0)


def _chord_ends(subspace: Subspace, window: Window, v) -> tuple[np.ndarray, np.ndarray]:
    """Along-subspace coordinates u at which the line of offset v enters and leaves.

    The line (x, y) = u*(cos, sin) + v*(-sin, cos) crosses each pair of
    opposite sides of the window at two values of u; the chord is the
    overlap of the two intervals.  Offsets inside the projection range only.
    """
    c, s = _cos_sin(subspace)  # c is positive on [-pi/2, pi/2)
    v = np.asarray(v, dtype=float)
    lo, hi = v * s / c, (window.z + v * s) / c
    if s != 0.0:
        # within about 1e-307 of the axis a crossing overflows to +-inf, which clips nothing
        with np.errstate(over="ignore"):
            bottom, top = -v * c / s, (window.omega - v * c) / s
        lo = np.maximum(lo, np.minimum(bottom, top))
        hi = np.minimum(hi, np.maximum(bottom, top))
    return lo, hi


def chord_measure(subspace: Subspace, window: Window, v):
    """Length of the window's slice by the line of constant offset v.

    Zero outside the projection range, piecewise linear inside.  Accepts
    scalars or arrays.
    """
    knots, heights = _trapezoid(subspace, window)
    v_arr = np.asarray(v, dtype=float)
    return _shaped_like(v, np.interp(v_arr, knots, heights, left=0.0, right=0.0))
