import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from substat.geometry import (
    PointPattern,
    Subspace,
    Window,
    _chord_ends,
    _trapezoid,
    chord_measure,
    project_xy,
    unproject_xy,
    v_range,
)

ANGLES = st.floats(-math.pi / 2, math.pi / 2, exclude_max=True)
# within 1e-9 of an axis, where the chord profile has steep slivers
NEAR_AXIS = st.tuples(st.sampled_from((0.0, -math.pi / 2)), st.floats(-1e-9, 1e-9)).map(sum)
EXTENTS = st.floats(0.05, 20.0)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestSubspaceNormalization:
    def test_plus_half_pi_wraps_to_minus_half_pi(self):
        assert Subspace(math.pi / 2).theta == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_minus_half_pi_is_kept(self):
        assert Subspace(-math.pi / 2).theta == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_theta_plus_pi_names_same_subspace(self):
        rng = np.random.default_rng(0)
        for t in rng.uniform(-math.pi / 2, math.pi / 2, 200):
            assert Subspace(t + math.pi).theta == pytest.approx(Subspace(t).theta, abs=1e-12)

    def test_normalization_is_idempotent(self):
        rng = np.random.default_rng(1)
        for t in rng.uniform(-10, 10, 200):
            once = Subspace(t).theta
            assert Subspace(once).theta == once

    @PROPERTY
    @given(theta=ANGLES, k=st.integers(-20, 20))
    @example(theta=-math.pi / 2, k=1)  # +pi/2 maps to -pi/2
    def test_theta_plus_k_pi_normalizes_to_one_value(self, theta, k):
        assert Subspace(theta).theta == theta  # a normalized angle is its own value
        got = Subspace(theta + k * math.pi).theta
        assert -math.pi / 2 <= got < math.pi / 2
        assert Subspace(got).theta == got
        # the same line as theta, up to the rounding of theta + k*pi
        assert abs(math.remainder(got - theta, math.pi)) <= 1e-15 * (1 + abs(k) * math.pi)

    def test_degrees_round_trip(self):
        assert Subspace.from_degrees(30.0).degrees == pytest.approx(30.0, abs=1e-12)


class TestProject:
    def test_horizontal_axis_projects_to_y(self):
        _, v = project_xy(Subspace(0.0), 3.0, 0.7)
        assert v == pytest.approx(0.7, abs=1e-12)

    def test_vertical_axis_projects_to_x(self):
        _, v = project_xy(Subspace(-math.pi / 2), 3.0, 0.7)
        assert v == pytest.approx(3.0, abs=1e-12)

    def test_point_on_diagonal_subspace_has_zero_offset(self):
        _, v = project_xy(Subspace(math.pi / 4), 1.0, 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_on_a_million_random_points(self):
        rng = np.random.default_rng(42)
        n = 1_000_000
        thetas = rng.uniform(-math.pi / 2, math.pi / 2, n)
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        c, s = np.cos(thetas), np.sin(thetas)
        u = x * c + y * s
        v = y * c - x * s
        xr = u * c - v * s
        yr = u * s + v * c
        assert np.max(np.abs(xr - x)) < 1e-12
        assert np.max(np.abs(yr - y)) < 1e-12

    def test_unproject_inverts_project(self):
        sub = Subspace(0.83)
        u, v = project_xy(sub, 1.7, 0.4)
        x, y = unproject_xy(sub, u, v)
        assert x == pytest.approx(1.7, abs=1e-14)
        assert y == pytest.approx(0.4, abs=1e-14)


class TestVRange:
    def test_horizontal_axis(self):
        assert v_range(Subspace(0.0), Window(2, 1)) == pytest.approx((0.0, 1.0))

    def test_thirty_degrees(self):
        lo, hi = v_range(Subspace(math.pi / 6), Window(2, 1))
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_vertical_axis(self):
        lo, hi = v_range(Subspace(-math.pi / 2), Window(2, 1))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_projections_of_interior_points_stay_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = Subspace(rng.uniform(-math.pi / 2, math.pi / 2))
            w = Window(rng.uniform(0.5, 10), rng.uniform(0.5, 5))
            lo, hi = v_range(theta, w)
            x = rng.uniform(0, w.z, 1000)
            y = rng.uniform(0, w.omega, 1000)
            _, v = project_xy(theta, x, y)
            assert np.all(v >= lo - 1e-12)
            assert np.all(v <= hi + 1e-12)


class TestChordMeasure:
    def test_horizontal_slice_has_full_width(self):
        assert chord_measure(Subspace(0.0), Window(5, 1), 0.5) == pytest.approx(5.0)

    def test_unit_square_diagonal(self):
        got = chord_measure(Subspace(math.pi / 4), Window(1, 1), 0.0)
        assert got == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zero_at_range_corners(self):
        sub, w = Subspace(math.pi / 6), Window(2, 1)
        lo, hi = v_range(sub, w)
        assert chord_measure(sub, w, lo) == pytest.approx(0.0, abs=1e-12)
        assert chord_measure(sub, w, hi) == pytest.approx(0.0, abs=1e-12)

    def test_zero_outside_range(self):
        sub, w = Subspace(0.4), Window(2, 1)
        lo, hi = v_range(sub, w)
        assert chord_measure(sub, w, lo - 0.01) == 0.0
        assert chord_measure(sub, w, hi + 0.01) == 0.0

    @pytest.mark.parametrize(
        "theta",
        [0.0, -math.pi / 2, math.pi / 4, -math.pi / 4, 1e-3, -1e-3,
         math.pi / 2 - 1e-3, -math.pi / 2 + 1e-3, 0.3, -1.2],
    )
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (10, 1)])
    def test_chord_integral_equals_window_area(self, theta, dims):
        sub, w = Subspace(theta), Window(*dims)
        lo, hi = v_range(sub, w)
        knots, _ = _trapezoid(sub, w)
        total, err = quad(
            lambda v: chord_measure(sub, w, v), lo, hi,
            points=[k for k in knots if lo < k < hi] or None, limit=200,
        )
        assert total == pytest.approx(w.area, rel=1e-9)
        assert err < 1e-7

    def test_profile_is_a_trapezoid(self):
        # slope signs must run nonnegative, zero, nonpositive in order
        sub, w = Subspace(0.6), Window(3, 2)
        knots, heights = _trapezoid(sub, w)
        widths = np.diff(knots)
        assert np.all(widths > 0)
        slopes = np.diff(heights) / widths
        assert slopes[0] > 0
        assert slopes[1] == 0
        assert slopes[2] < 0
        lo, hi = v_range(sub, w)
        grid = np.linspace(lo, hi, 2001)
        vals = chord_measure(sub, w, grid)
        diffs = np.diff(vals)
        first_down = np.argmax(diffs < -1e-12)
        assert np.all(diffs[first_down:] <= 1e-12)

    def test_axis_aligned_profile_is_flat(self):
        # the ramps have no width: the profile is the full width 4 on [0, 1]
        knots, heights = _trapezoid(Subspace(0.0), Window(4, 1))
        assert knots.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert heights == (0.0, 4.0, 4.0, 0.0)


class TestChordProperties:
    @PROPERTY
    @given(theta=ANGLES | NEAR_AXIS, z=EXTENTS, omega=EXTENTS)
    @example(theta=2.225073858507e-311, z=1.0, omega=1.0)  # a subnormal angle
    def test_v_range_is_the_least_and_greatest_offset_of_the_corners(self, theta, z, omega):
        sub, w = Subspace(theta), Window(z, omega)
        _, v = project_xy(sub, [0.0, z, 0.0, z], [0.0, 0.0, omega, omega])
        lo, hi = v_range(sub, w)
        tol = 1e-12 * (z + omega)
        assert abs(lo - v.min()) <= tol
        assert abs(hi - v.max()) <= tol

    @PROPERTY
    @given(theta=ANGLES | NEAR_AXIS, z=EXTENTS, omega=EXTENTS)
    @example(theta=2.225073858507e-311, z=1.0, omega=1.0)  # a subnormal angle
    def test_chord_measure_is_continuous_and_integrates_to_the_area(self, theta, z, omega):
        sub, w = Subspace(theta), Window(z, omega)
        knots, heights = _trapezoid(sub, w)
        wide = np.diff(knots) > 0  # the linear pieces of positive width
        lo, hi = knots[:-1][wide], knots[1:][wide]
        mids = 0.5 * (lo + hi)
        # no jump where two pieces meet: a step to either side moves the chord
        # length by no more than the steepest piece allows
        top = chord_measure(sub, w, mids).max()
        slope = np.max(np.abs(np.diff(heights)[wide] / (hi - lo)))
        step = 1e-9 * (hi[-1] - lo[0])
        bound = slope * step * 1.000001 + 1e-12 * top
        for k in hi[:-1]:
            at = chord_measure(sub, w, k)
            for side in (k - step, k + step):
                assert abs(chord_measure(sub, w, side) - at) <= bound
        # linear pieces, so the midpoint rule on each is exact
        area = np.sum((hi - lo) * chord_measure(sub, w, mids))
        assert area == pytest.approx(w.area, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow at a subnormal angle
    @PROPERTY
    @given(theta=ANGLES | NEAR_AXIS, z=EXTENTS, omega=EXTENTS)
    @example(theta=1e-9, z=1.0, omega=1.0)
    @example(theta=-1e-9, z=20.0, omega=0.05)
    @example(theta=-math.pi / 2 + 1e-9, z=1.0, omega=1.0)
    @example(theta=-math.pi / 2 + 1e-9, z=0.05, omega=20.0)
    @example(theta=2.225073858507e-311, z=1.0, omega=1.0)  # a subnormal angle
    @example(theta=2.958638469997272e-308, z=1.0, omega=6.0)  # v/sin(theta) overflows
    def test_chord_ends_span_the_chord_and_lie_on_the_boundary(self, theta, z, omega):
        sub, w = Subspace(theta), Window(z, omega)
        v_lo, v_hi = v_range(sub, w)
        mids = v_lo + (np.arange(101) + 0.5) / 101 * (v_hi - v_lo)
        lo, hi = _chord_ends(sub, w, mids)
        tol = 1e-12 * (z + omega)
        assert np.all(np.abs((hi - lo) - chord_measure(sub, w, mids)) <= tol)
        # the inner knots too, where the line passes through a corner; there
        # the length is as ill-conditioned as the profile is steep
        knots, _ = _trapezoid(sub, w)
        v = np.concatenate((mids, knots[(knots > v_lo) & (knots < v_hi)]))
        for u in _chord_ends(sub, w, v):
            x, y = unproject_xy(sub, u, v)
            assert np.all(w.contains(x, y, tol=tol))
            gap = np.minimum.reduce([np.abs(x), np.abs(x - z), np.abs(y), np.abs(y - omega)])
            assert np.all(gap <= tol)


class TestWindowAndPattern:
    def test_window_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            Window(0.0, 1.0)
        with pytest.raises(ValueError):
            Window(1.0, -2.0)

    def test_area(self):
        assert Window(3, 2).area == 6.0

    def test_pattern_rejects_outside_points(self):
        with pytest.raises(ValueError):
            PointPattern([0.5, 1.5], [0.5, 0.5], Window(1, 1))

    def test_pattern_allows_boundary_points(self):
        pat = PointPattern([0.0, 1.0], [0.0, 1.0], Window(1, 1))
        assert pat.n == 2

    def test_empty_pattern(self):
        pat = PointPattern.empty(Window(1, 1))
        assert pat.n == 0
        assert len(pat) == 0
