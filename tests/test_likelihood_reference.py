"""The substationary likelihood held whole to ``tests/reference.py``, which shares no code
with the package: the integral, and ``loglik`` with and without leave-one-out."""

import functools
import math

import numpy as np
import pytest
from reference import Likelihood

from substat import PointPattern, SubstationaryIntensity, Window, loglik

# (theta, z, h): both axes, a tiny angle whose ramps are jumps, a shallow and a steep angle
CASES = [
    (0.0, 1.0, 0.05),
    (1e-7, 2.0, 0.1),
    (math.radians(3), 10.0, 0.02),
    (math.pi / 4, 5.0, 0.05),
    (-math.pi / 2, 1.0, 0.1),
]
RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def setting(theta: float, z: float, h: float):
    """60 points, x uniform and y Beta(3, 3), and one on the corner (z, 0), a knot at
    every angle; the package's estimate and the reference on them."""
    rng = np.random.default_rng(7)
    x = np.append(rng.uniform(0.0, z, 60), z)
    y = np.append(rng.beta(3.0, 3.0, 60), 0.0)
    pattern = PointPattern(x, y, Window(z))
    return pattern, SubstationaryIntensity(pattern, theta, h), Likelihood(theta, z, 1.0, h, x, y)


@pytest.mark.parametrize("case", CASES)
def test_the_integral_holds_the_reference(case):
    _, est, ref = setting(*case)
    assert est.integral() == pytest.approx(ref.integral, rel=RTOL, abs=0)


@pytest.mark.parametrize("loo", [False, True])
@pytest.mark.parametrize("case", CASES)
def test_the_loglik_holds_the_reference(case, loo):
    pattern, est, ref = setting(*case)
    want = ref.loglik(loo)
    # the package leaves a datum out by taking its own kernel from the full sum S, so the
    # value keeps S's absolute rounding, about n*eps*S, and its log n*eps*S/value: a datum
    # with no close neighbour loses relative precision
    rounding = 0.0
    if loo:
        n, eps = len(ref.data), np.finfo(float).eps
        for i, v in enumerate(ref.data):
            rounding += n * eps * ref.kernel_sum(v) / ref.kernel_sum(v, i)
    assert loglik(pattern, est, loo=loo) == pytest.approx(want, rel=RTOL, abs=rounding)
