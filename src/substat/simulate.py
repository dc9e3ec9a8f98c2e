"""Seeded samplers for the two ground-truth point processes.

Both processes live on the rectangle [0, z] x [0, 1] and share the
vertical intensity profile

    lambda(y) = 100 * f(y),   f = density of Beta(a, a),

so the expected total count is always 100 * z.  The first process is
inhomogeneous Poisson: a Poisson(100 z) count, then i.i.d. locations with
uniform horizontal and Beta(a, a) vertical coordinates.  The second is a
Poisson cluster process on top of it: parents are drawn from the same
recipe with intensity divided by gamma, each parent spawns Poisson(gamma)
offspring displaced by an isotropic Gaussian of scale sigma, parents are
discarded, and offspring falling outside the window are dropped.

Every sampler is a pure function of its model and an RngStream value, so
identical inputs reproduce identical point lists regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn

from .geometry import PointPattern, Window, _count

__all__ = [
    "POINTS_PER_UNIT_LENGTH",
    "RngStream",
    "PoissonBetaModel",
    "ThomasModel",
    "beta_sampler",
    "simulate_poisson_beta",
    "simulate_thomas",
]

POINTS_PER_UNIT_LENGTH = 100.0


def _beta_shape(a: float) -> None:
    """Raise ValueError unless a is a Beta(a, a) shape of this model: finite and >= 1."""
    if not (a >= 1.0 and math.isfinite(a)):
        raise ValueError(f"shape parameter a must be finite and >= 1, got {a}")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: (master seed, stream index).

    Two streams with the same pair produce bitwise-identical draws; any
    change to either component decorrelates them.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            _count(name, getattr(self, name), 0)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=[self.master_seed, self.stream_index])
        )


@dataclass(frozen=True)
class PoissonBetaModel:
    """Inhomogeneous Poisson process with a Beta(a, a) vertical profile.

    The window must have unit height; the horizontal extent z sets the
    expected count 100 * z.
    """

    a: float
    window: Window

    def __post_init__(self) -> None:
        _beta_shape(self.a)
        if self.window.omega != 1.0:
            raise ValueError("the Beta vertical profile requires a unit-height window")

    @property
    def expected_count(self) -> float:
        return POINTS_PER_UNIT_LENGTH * self.window.z

    def intensity(self, y):
        """True first-order intensity as a function of the vertical coordinate."""
        y = np.asarray(y, dtype=float)
        inside = (y >= 0.0) & (y <= 1.0)
        # the Beta(a, a) density; 0 ** 0 is 1, so a = 1 is 1 on the closed [0, 1]
        density = np.where(inside, y * (1.0 - y), 0.0) ** (self.a - 1.0) / beta_fn(self.a, self.a)
        return POINTS_PER_UNIT_LENGTH * np.where(inside, density, 0.0)


@dataclass(frozen=True)
class ThomasModel:
    """Poisson cluster process: Gaussian offspring around Poisson parents.

    Parent intensity is the base intensity divided by gamma, so the
    expected offspring count matches the base process.  parent_buffer
    widens the parent strip to [-buffer, z + buffer] (count rescaled
    accordingly), which removes the horizontal edge bias of the literal
    protocol; the default 0 keeps the literal protocol.
    """

    base: PoissonBetaModel
    gamma: float = 5.0
    sigma: float = 0.02
    parent_buffer: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"mean offspring count gamma must be positive, got {self.gamma}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"displacement scale sigma must be positive, got {self.sigma}")
        if not (self.parent_buffer >= 0.0 and math.isfinite(self.parent_buffer)):
            raise ValueError(f"parent_buffer must be >= 0, got {self.parent_buffer}")

    @property
    def window(self) -> Window:
        return self.base.window

    def intensity(self, y):
        return self.base.intensity(y)


def _resolve_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected an RngStream or numpy Generator, got {type(rng).__name__}")


def beta_sampler(a: float, rng, size=None):
    """Draw from Beta(a, a) for a >= 1 via the ratio-of-Gammas construction.

    Returns a scalar when size is None, else an array of that shape.
    """
    _beta_shape(a)
    gen = _resolve_generator(rng)
    g1 = gen.standard_gamma(a, size=size)
    g2 = gen.standard_gamma(a, size=size)
    return g1 / (g1 + g2)


def simulate_poisson_beta(model: PoissonBetaModel, rng) -> PointPattern:
    """Sample one realization: Poisson count, then i.i.d. locations."""
    gen = _resolve_generator(rng)
    w = model.window
    n = gen.poisson(model.expected_count)
    x = gen.uniform(0.0, w.z, size=n)
    y = beta_sampler(model.a, gen, size=n)
    return PointPattern(x, y, w)


def _simulate_parents(model: ThomasModel, gen: np.random.Generator):
    w = model.window
    b = model.parent_buffer
    rate = POINTS_PER_UNIT_LENGTH * (w.z + 2.0 * b) / model.gamma
    n = gen.poisson(rate)
    px = gen.uniform(-b, w.z + b, size=n)
    py = beta_sampler(model.base.a, gen, size=n)
    return px, py


def simulate_thomas(model: ThomasModel, rng) -> PointPattern:
    """Sample one cluster realization.

    Only offspring inside the window are returned; parents are not part
    of the pattern.
    """
    gen = _resolve_generator(rng)
    w = model.window
    px, py = _simulate_parents(model, gen)
    counts = gen.poisson(model.gamma, size=px.size)
    total = int(counts.sum())
    ox = np.repeat(px, counts) + gen.normal(0.0, model.sigma, size=total)
    oy = np.repeat(py, counts) + gen.normal(0.0, model.sigma, size=total)
    keep = w.contains(ox, oy)
    return PointPattern(ox[keep], oy[keep], w)
