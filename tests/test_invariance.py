"""Invariances of the estimators and the fit, and a truth off the fit's grid nodes.

Point order and quarter turns on a square window are checked as properties;
the off-node truth uses a thinning sampler that lives here, not in the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substat.estimate import KernelIntensity2D, SubstationaryIntensity, fit_theta, loglik
from substat.geometry import PointPattern, Window

SIDE = 2.0  # the square window of the quarter turns


def beta_pattern(seed, n, window):
    """n points, uniform along x and Beta(3, 3) across the window's height."""
    rng = np.random.default_rng(seed)
    return PointPattern(rng.uniform(0, window.z, n), window.omega * rng.beta(3, 3, n), window)


def quarter_turn(pattern):
    """The pattern turned a quarter about the centre of its square window: (x, y) -> (L - y, x)."""
    return PointPattern(SIDE - pattern.y, pattern.x, pattern.window)


def thinned_sine(theta_deg, seed, z=10.0):
    """Poisson points of intensity 100 (1 + 0.9 sin(4 pi v)) along v at theta, in [0, z] x [0, 1].

    Homogeneous points at the peak intensity 190, each kept with probability
    intensity / 190 (Lewis-Shedler thinning).
    """
    rng = np.random.default_rng(seed)
    window, peak = Window(z, 1.0), 190.0
    n = rng.poisson(peak * window.area)
    x, y = rng.uniform(0, z, n), rng.uniform(0, 1, n)
    theta = math.radians(theta_deg)
    v = y * math.cos(theta) - x * math.sin(theta)
    keep = rng.uniform(0, peak, n) < 100.0 * (1.0 + 0.9 * np.sin(4.0 * math.pi * v))
    return PointPattern(x[keep], y[keep], window)


class TestPointOrder:
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 400),
        theta=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
        h=st.floats(0.02, 0.2),
    )
    def test_a_permutation_of_the_points_changes_no_output(self, seed, n, theta, h):
        pat = beta_pattern(seed, n, Window(2.0, 1.0))
        perm = np.random.default_rng(seed + 1).permutation(n)
        shuffled = PointPattern(pat.x[perm], pat.y[perm], pat.window)
        est, est2 = (SubstationaryIntensity(p, theta, h) for p in (pat, shuffled))
        assert np.array_equal(est2.at_points(shuffled.x, shuffled.y), est.at_points(pat.x, pat.y)[perm])
        assert np.array_equal(est2.loo_values(), est.loo_values())
        assert est2.integral() == est.integral()
        for loo in (False, True):
            assert loglik(shuffled, est2, loo=loo) == loglik(pat, est, loo=loo)
        fit, fit2 = (fit_theta(p, h, search_halfwidth_deg=6.0) for p in (pat, shuffled))
        assert fit2.trace == fit.trace and fit2.theta_hat == fit.theta_hat
        xs, ys = np.linspace(0.05, 1.95, 9), np.linspace(0.05, 0.95, 7)
        grids = [KernelIntensity2D(p, h).grid_values(xs, ys) for p in (pat, shuffled)]
        assert np.array_equal(grids[1], grids[0])


class TestQuarterTurn:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
        h=st.floats(0.03, 0.1),
    )
    def test_the_profile_turns_with_the_pattern(self, seed, theta, h):
        pat = beta_pattern(seed, 300, Window(SIDE, SIDE))
        turned = quarter_turn(pat)
        want = loglik(pat, SubstationaryIntensity(pat, theta, h))
        got = loglik(turned, SubstationaryIntensity(turned, theta + math.pi / 2, h))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_the_open_coarse_trace_maps_onto_itself(self):
        pat = beta_pattern(0, 300, Window(SIDE, SIDE))
        # node i of the open grid is -90 + i degrees, so a quarter turn moves it 90 nodes on;
        # both stages of the search turn with the pattern, so the nodes scored do too
        trace, turned = (
            {round(math.degrees(t)) + 90: value for t, value in fit_theta(p, 0.05).trace}
            for p in (pat, quarter_turn(pat))
        )
        assert 60 < len(trace) <= 72
        assert sorted(turned) == sorted((i + 90) % 180 for i in trace)
        for i, value in trace.items():
            assert turned[(i + 90) % 180] == pytest.approx(value, rel=1e-12, abs=0)


class TestTruthOffTheGridNodes:
    """The fit recovers a direction that lies off its 1-degree coarse nodes.

    Each bound is the largest error of its fixed seeds (0.087 degrees at
    0.5, 0.93 at 37.5) plus about 25%.
    """

    @pytest.mark.parametrize(
        "theta_deg, halfwidth, bound",
        [(0.5, 6.0, 0.11), (0.5, None, 0.11), (37.5, None, 1.2)],
    )
    def test_recovery_within_a_fixed_seed_bound(self, theta_deg, halfwidth, bound):
        for seed in range(3):
            pat = thinned_sine(theta_deg, seed)
            fit = fit_theta(pat, 0.05, search_halfwidth_deg=halfwidth)
            assert abs(fit.theta_hat.degrees - theta_deg) <= bound
