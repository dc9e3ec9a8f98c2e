import math
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import substat.estimate as estimate_module
from substat.estimate import (
    _DOMAIN_TOL,
    SUBSTAT_INTEGRAL_CELLS,
    BandwidthSelectionError,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    _map_ordered,
    bandwidth_cv_scores,
    fit_theta,
    loglik,
    select_bandwidth,
)
from substat.experiments import integrated_squared_error
from substat.geometry import (
    DataError,
    PointPattern,
    Subspace,
    Window,
    _trapezoid,
    chord_measure,
    project_xy,
    unproject_xy,
    v_range,
)
from substat.kernels import (
    _KNOT_REACH,
    _PANEL_NODES,
    _PANEL_WIDTH,
    _direct_sums,
    correction_2d,
    correction_substat_closed,
    normal_cdf,
)
from substat.simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    simulate_poisson_beta,
    simulate_thomas,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def axis_reference(pattern, h, v):
    """Direct horizontal-axis formula: corrected Gaussian sum over heights."""
    w = pattern.window
    corr = w.z * (normal_cdf((w.omega - v) / h) - normal_cdf(-v / h))
    sums = np.sum(np.exp(-((pattern.y - v) ** 2) / (2 * h * h))) / (SQRT_2PI * h)
    return sums / corr


def random_pattern(rng, z=1.0, n=60):
    x = rng.uniform(0, z, n)
    y = rng.uniform(0, 1, n)
    return PointPattern(x, y, Window(z, 1.0))


def angle_gap(t1, t2):
    """Minimal distance between two subspace angles, mod pi."""
    d = (t1 - t2 + math.pi / 2) % math.pi - math.pi / 2
    return abs(d)


class TestSubstationaryIntensity:
    def test_axis_case_reduces_to_direct_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pat = random_pattern(rng, z=rng.uniform(0.5, 5.0))
            h = rng.uniform(0.02, 0.2)
            grid = np.linspace(0.05, 0.95, 19)
            est = SubstationaryIntensity(pat, 0.0, h)
            got = est.evaluate(grid)
            want = np.array([axis_reference(pat, h, v) for v in grid])
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_single_point_formula(self):
        pat = PointPattern([0.3], [0.5], Window(1, 1))
        h = 0.1
        for v in (0.1, 0.5, 0.9):
            want = (
                math.exp(-((0.5 - v) ** 2) / (2 * h * h))
                / (SQRT_2PI * h)
                / (normal_cdf((1 - v) / h) - normal_cdf(-v / h))
            )
            assert SubstationaryIntensity(pat, 0.0, h).evaluate(v) == pytest.approx(want, rel=1e-12)

    def test_empty_pattern_is_zero(self):
        pat = PointPattern.empty(Window(2, 1))
        est = SubstationaryIntensity(pat, 0.3, 0.05)
        vals = est.evaluate(np.linspace(-0.5, 0.5, 11))
        assert np.all(vals == 0.0)

    def test_offset_outside_range_rejected(self):
        pat = PointPattern([0.5], [0.5], Window(1, 1))
        est = SubstationaryIntensity(pat, 0.0, 0.1)
        with pytest.raises(ValueError):
            est.evaluate(1.5)
        with pytest.raises(ValueError):
            est.evaluate(-0.2)

    def test_non_finite_offset_rejected(self):
        est = SubstationaryIntensity(PointPattern([0.5], [0.5], Window(1, 1)), 0.0, 0.1)
        for bad in (np.nan, np.inf, -np.inf, [0.5, np.nan]):
            with pytest.raises(ValueError):
                est.evaluate(bad)

    def test_monte_carlo_mean_recovers_flat_intensity(self):
        model = PoissonBetaModel(1.0, Window(10.0))
        vals = []
        for i in range(50):
            pat = simulate_poisson_beta(model, RngStream(61, i))
            vals.append(SubstationaryIntensity(pat, 0.0, 0.1).evaluate(0.5))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 100.0) < 3 * se

    def test_shift_along_subspace_leaves_estimate_unchanged(self):
        theta = Subspace(0.3)
        rng = np.random.default_rng(8)
        x = rng.uniform(1.0, 2.0, 40)
        y = rng.uniform(0.3, 0.7, 40)
        pat = PointPattern(x, y, Window(4, 1))
        shift = 0.7
        x2, y2 = x.copy(), y.copy()
        x2[:20] += shift * math.cos(theta.theta)
        y2[:20] += shift * math.sin(theta.theta)
        pat2 = PointPattern(x2, y2, pat.window)
        grid = np.linspace(*v_range(theta, pat.window), 31)[5:-5]
        a = SubstationaryIntensity(pat, theta, 0.05).evaluate(grid)
        b = SubstationaryIntensity(pat2, theta, 0.05).evaluate(grid)
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        theta=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
        h=st.floats(0.02, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    # ramps 1.9e-6*h wide, where a ramp's foot and head terms cancel and
    # moved the value by 1e-10 between offsets an ulp apart: a jump there
    @example(theta=5.960464477539063e-08, h=0.0625, seed=0)
    def test_at_points_is_invariant_under_shifts_along_the_subspace(self, theta, h, seed):
        rng = np.random.default_rng(seed)
        pat = random_pattern(rng, z=2.0)
        est = SubstationaryIntensity(pat, theta, h)
        x, y = rng.uniform(0, 2, 200), rng.uniform(0, 1, 200)
        u, v = project_xy(est.theta, x, y)
        x2, y2 = unproject_xy(est.theta, u + rng.uniform(-2, 2, 200), v)
        inside = pat.window.contains(x2, y2)
        want = est.at_points(x[inside], y[inside])
        got = est.at_points(x2[inside], y2[inside])
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("theta", [1e-310, -5e-324])
    def test_a_subnormal_angle_is_the_axis(self, theta):
        # the chord profile's rise would have a slope beyond the largest float
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(2.0)), RngStream(17, 0))
        tiny, axis = (SubstationaryIntensity(pat, t, 0.05) for t in (theta, 0.0))
        grid = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(tiny.evaluate(grid), axis.evaluate(grid))
        assert tiny.integral() == axis.integral()

    def test_point_order_never_changes_output(self):
        rng = np.random.default_rng(9)
        pat = random_pattern(rng, z=2.0, n=100)
        perm = rng.permutation(pat.n)
        pat2 = PointPattern(pat.x[perm], pat.y[perm], pat.window)
        lo, hi = v_range(Subspace(0.4), pat.window)
        grid = np.linspace(lo + 0.01, hi - 0.01, 25)
        a = SubstationaryIntensity(pat, 0.4, 0.07).evaluate(grid)
        b = SubstationaryIntensity(pat2, 0.4, 0.07).evaluate(grid)
        assert np.array_equal(a, b)
        assert loglik(pat, SubstationaryIntensity(pat, 0.4, 0.07)) == loglik(
            pat2, SubstationaryIntensity(pat2, 0.4, 0.07)
        )

    # the grid path at n=1000 in a 10x1 window, the direct path at n=100 in a 1x1 window
    @pytest.mark.parametrize("n, z", [(100, 1.0), (1000, 10.0)])
    @pytest.mark.parametrize("h", [0.01, 0.05])
    @pytest.mark.parametrize(
        "theta", [0.0, 1e-300, math.radians(6), -math.radians(6), math.pi / 4, -math.pi / 2]
    )
    def test_the_patterns_own_points_read_as_a_copy_of_them_does(self, n, z, h, theta):
        rng = np.random.default_rng(n)
        pat = random_pattern(rng, z=z, n=n)  # in random order
        assert not np.all(np.diff(pat.x) >= 0)
        est = SubstationaryIntensity(pat, theta, h)
        assert (est._nodes is None) == (n == 100)
        own = est.at_points(pat.x, pat.y)
        copied = est.at_points(pat.x.copy(), pat.y.copy())
        assert own.tobytes() == copied.tobytes()
        assert own.shape == (n,)

    def test_points_outside_the_window_still_raise(self):
        pat = random_pattern(np.random.default_rng(5), z=2.0)
        est = SubstationaryIntensity(pat, 0.3, 0.05)
        x = pat.x.copy()
        x[7] = 2.5
        for bad in ((x, pat.y), (np.array([-0.1]), np.array([0.5])), (pat.x, pat.y + 1.0)):
            with pytest.raises(ValueError, match="outside the observation window"):
                est.at_points(*bad)


ESTIMATORS = {
    "substationary": lambda pat: SubstationaryIntensity(pat, 0.3, 0.1),
    "kernel2d": lambda pat: KernelIntensity2D(pat, 0.1),
    "stationary": StationaryIntensity,
}


class TestEstimatorInterface:
    # the tensor grid belongs to the bivariate smoother alone
    @pytest.mark.parametrize("kind", ["kernel2d"])
    def test_grid_values_match_pointwise_evaluation(self, kind):
        rng = np.random.default_rng(10)
        pat = random_pattern(rng, z=2.0, n=50)
        est = ESTIMATORS[kind](pat)
        assert est.kind == kind
        x_mids = np.array([0.3, 0.9, 1.7])
        y_mids = np.array([0.2, 0.6])
        grid = est.grid_values(x_mids, y_mids)
        assert grid.shape == (3, 2)
        for i, xm in enumerate(x_mids):
            for j, ym in enumerate(y_mids):
                assert grid[i, j] == pytest.approx(est.at_points(xm, ym), rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_at_points_keeps_the_shape_of_the_locations(self, kind):
        rng = np.random.default_rng(11)
        pat = random_pattern(rng, z=2.0, n=50)
        est = ESTIMATORS[kind](pat)
        x, y = rng.uniform(0, 2, (3, 4)), rng.uniform(0, 1, (3, 4))
        got = est.at_points(x, y)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), est.at_points(x.ravel(), y.ravel()))

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_location_outside_window_rejected(self, kind):
        est = ESTIMATORS[kind](PointPattern([0.5], [0.5], Window(2, 1)))
        # outside the window, but inside the substationary projection range
        for x, y in ((2.2, 0.5), (-0.5, 0.5), (1.0, 1.2)):
            with pytest.raises(ValueError):
                est.at_points(x, y)

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_every_estimator_refuses_x_and_y_of_different_shapes(self, kind):
        est = ESTIMATORS[kind](random_pattern(np.random.default_rng(16), z=2.0, n=40))
        for x, y in ((0.5, [0.4, 0.6]), ([0.5], 0.4), (np.full((2, 3), 0.5), np.full(3, 0.5))):
            with pytest.raises(ValueError, match="^x and y must have the same shape$"):
                est.at_points(x, y)

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_every_estimator_gives_one_location_a_float(self, kind):
        est = ESTIMATORS[kind](random_pattern(np.random.default_rng(17), z=2.0, n=40))
        got = est.at_points(0.5, 0.4)
        assert type(got) is float
        assert got == est.at_points([0.5], [0.4])[0] == est.at_points(np.float64(0.5), 0.4)

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_every_estimator_accepts_the_same_locations(self, kind):
        # a corner pushed out along both axes moves its offset by up to
        # sqrt(2) times the push, past the range the window's tolerance allows
        for z in (1.0, 10.0):
            pat = random_pattern(np.random.default_rng(12), z=z, n=40)
            x, y = np.array([0.0, z, 0.0, z]), np.array([0.0, 0.0, 1.0, 1.0])
            out_x, out_y = np.sign(x - 0.5 * z), np.sign(y - 0.5)
            for deg in (45.0, -45.0, 84.0, -84.0):
                if kind == "substationary":
                    est = SubstationaryIntensity(pat, Subspace.from_degrees(deg), 0.1)
                else:
                    est = ESTIMATORS[kind](pat)
                for push in (0.5 * _DOMAIN_TOL, _DOMAIN_TOL):
                    got = est.at_points(x + push * out_x, y + push * out_y)
                    assert np.all(np.isfinite(got) & (got > 0.0)), (z, deg, push)
                push = 10.0 * _DOMAIN_TOL
                for corner in zip(x + push * out_x, y + push * out_y):
                    with pytest.raises(ValueError, match="outside the observation window"):
                        est.at_points(*corner)

    def test_loo_values_drop_each_point_from_its_own_estimate(self):
        rng = np.random.default_rng(13)
        pat = random_pattern(rng, z=2.0, n=30)
        est = SubstationaryIntensity(pat, 0.3, 0.1)
        order = np.argsort(pat.y * math.cos(0.3) - pat.x * math.sin(0.3))
        want = []
        for i in order:
            keep = np.arange(pat.n) != i
            rest = PointPattern(pat.x[keep], pat.y[keep], pat.window)
            want.append(SubstationaryIntensity(rest, 0.3, 0.1).at_points(pat.x[i], pat.y[i]))
        assert np.allclose(est.loo_values(), want, rtol=1e-12, atol=0)

    def test_loo_values_of_a_large_clustered_pattern_match_the_direct_sum(self):
        # n=2000 takes the interpolated kernel sums; the points at 0.05 and
        # 5.95 lie beyond the kernel's reach, so they leave exactly nothing
        rng = np.random.default_rng(15)
        h, window = 0.05, Window(1.0, 6.0)
        isolated = 3.0 + h * rng.uniform(3, 10, 8)
        y = np.concatenate((rng.normal(3.0, 0.02, 1990), isolated, [0.05, 5.95]))
        pat = PointPattern(rng.uniform(0, 1, y.size), y, window)
        v = np.sort(y)  # the offsets at theta = 0
        sums = _direct_sums(h, v, v) - 1.0 / (h * SQRT_2PI)
        want = sums / correction_substat_closed(Subspace(0.0), window, h, v)
        got = SubstationaryIntensity(pat, 0.0, h).loo_values()
        vanishing = want <= 0.0
        assert np.count_nonzero(vanishing) == 2
        assert np.array_equal(got[vanishing], want[vanishing])
        assert np.allclose(got[~vanishing], want[~vanishing], rtol=1e-10, atol=0)

    def test_loo_loglik_needs_the_estimators_own_pattern(self):
        rng = np.random.default_rng(14)
        pat, other = random_pattern(rng), random_pattern(rng)
        with pytest.raises(ValueError):
            loglik(other, SubstationaryIntensity(pat, 0.0, 0.1), loo=True)


class TestKernelIntensity2D:
    def test_single_point_mode(self):
        pat = PointPattern([0.5], [0.5], Window(1, 1))
        h = 0.05
        got = KernelIntensity2D(pat, h).evaluate(0.5, 0.5)
        corr = (normal_cdf(10.0) - normal_cdf(-10.0)) ** 2
        assert got == pytest.approx(1.0 / (2 * math.pi * h * h) / corr, rel=1e-12)

    def test_monte_carlo_mean_recovers_flat_intensity(self):
        model = PoissonBetaModel(1.0, Window(1.0))
        vals = []
        for i in range(100):
            pat = simulate_poisson_beta(model, RngStream(62, i))
            vals.append(KernelIntensity2D(pat, 0.1).evaluate(0.5, 0.5))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 100.0) < 3 * se

    def test_correction_equalizes_corner_and_center(self):
        model = PoissonBetaModel(1.0, Window(1.0))
        corner, center = [], []
        for i in range(300):
            pat = simulate_poisson_beta(model, RngStream(63, i))
            est = KernelIntensity2D(pat, 0.1)
            corner.append(est.evaluate(0.0, 0.0))
            center.append(est.evaluate(0.5, 0.5))
        corner, center = np.array(corner), np.array(center)
        se = np.sqrt(
            corner.var(ddof=1) / corner.size + center.var(ddof=1) / center.size
        )
        assert abs(corner.mean() - center.mean()) < 3 * se

    def test_point_order_never_changes_output(self):
        rng = np.random.default_rng(11)
        pat = random_pattern(rng, z=2.0, n=80)
        perm = rng.permutation(pat.n)
        pat2 = PointPattern(pat.x[perm], pat.y[perm], pat.window)
        a = KernelIntensity2D(pat, 0.08).grid_values(np.linspace(0.1, 1.9, 9), np.linspace(0.1, 0.9, 7))
        b = KernelIntensity2D(pat2, 0.08).grid_values(np.linspace(0.1, 1.9, 9), np.linspace(0.1, 0.9, 7))
        assert np.array_equal(a, b)


class TestStationaryIntensity:
    def test_count_over_area(self):
        pat = PointPattern(np.linspace(0.1, 0.9, 50), np.full(50, 0.5), Window(1, 1))
        assert StationaryIntensity(pat).value == 50.0
        # the integral is the count itself, where n / area * area misses it by an ulp
        for n, window in ((7, Window(100)), (3, Window(0.7))):
            pat = PointPattern(np.linspace(0.1, 0.6, n), np.full(n, 0.5), window)
            assert pat.n / window.area * window.area != n
            assert StationaryIntensity(pat).integral() == n

    def test_empty_pattern(self):
        assert StationaryIntensity(PointPattern.empty(Window(1, 1))).value == 0.0

    def test_sampling_error_matches_poisson_variance(self):
        # sd of n/|S| is sqrt(100 z)/(z omega) = 10/sqrt(z)
        model = PoissonBetaModel(1.0, Window(10.0))
        vals = np.array(
            [
                StationaryIntensity(simulate_poisson_beta(model, RngStream(64, i))).value
                for i in range(200)
            ]
        )
        rmse = np.sqrt(np.mean((vals - 100.0) ** 2))
        assert rmse == pytest.approx(10.0 / math.sqrt(10.0), rel=0.25)


SCALAR_WINDOW = Window(2.0, 1.0)
SCALAR_PATTERN = PointPattern([0.3, 1.1, 1.7, 0.9], [0.2, 0.5, 0.8, 0.4], SCALAR_WINDOW)
# each function of (x, y) in the window; the offsets v are the y values, in the
# projection range [-0.59, 0.96] of the subspace at 0.3 rad
SCALAR_RULE = {
    "chord_measure": lambda x, y: chord_measure(Subspace(0.3), SCALAR_WINDOW, y),
    "correction_substat_closed": lambda x, y: correction_substat_closed(
        Subspace(0.3), SCALAR_WINDOW, 0.1, y
    ),
    "correction_2d": lambda x, y: correction_2d(SCALAR_WINDOW, 0.1, x, y),
    "SubstationaryIntensity.evaluate": lambda x, y: SubstationaryIntensity(
        SCALAR_PATTERN, 0.3, 0.1
    ).evaluate(y),
    "KernelIntensity2D.evaluate": lambda x, y: KernelIntensity2D(SCALAR_PATTERN, 0.1).evaluate(
        x, y
    ),
    "StationaryIntensity.evaluate": lambda x, y: StationaryIntensity(SCALAR_PATTERN).evaluate(y),
}


@pytest.mark.parametrize("name", list(SCALAR_RULE))
def test_a_scalar_in_gives_a_float_out(name):
    f = SCALAR_RULE[name]
    x = np.array([[0.1, 0.7, 1.3], [1.9, 0.4, 1.0]])
    y = np.array([[0.05, 0.3, 0.9], [0.6, 0.45, 0.2]])
    scalars = [f(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    assert all(type(value) is float for value in scalars)
    zero_d = [f(np.array(a), np.array(b)) for a, b in zip(x.ravel(), y.ravel())]
    assert all(type(value) is float for value in zero_d) and zero_d == scalars
    for shape in ((6,), (2, 3)):
        got = f(x.reshape(shape), y.reshape(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert np.array_equal(got.ravel(), scalars)


class TestLoglik:
    def test_constant_estimator_closed_form(self):
        rng = np.random.default_rng(12)
        pat = random_pattern(rng, z=2.0, n=70)
        est = StationaryIntensity(pat)
        want = pat.n * math.log(est.value) - est.value * pat.window.area
        assert loglik(pat, est) == pytest.approx(want, rel=1e-12)

    def test_empty_pattern_nonpositive(self):
        # an empty pattern has no point term: its score is minus the integral
        # of the estimate, whether fitted to it or to another pattern
        empty = PointPattern.empty(Window(2, 1))
        held = random_pattern(np.random.default_rng(15), z=2.0, n=40)
        for make in (
            StationaryIntensity,
            lambda pat: KernelIntensity2D(pat, 0.1),
            lambda pat: SubstationaryIntensity(pat, 0.3, 0.1),
        ):
            for est in (make(empty), make(held)):
                assert loglik(empty, est) == -est.integral()
                assert loglik(empty, est) <= 0.0
        own = SubstationaryIntensity(empty, 0.3, 0.1)
        assert loglik(empty, own, loo=True) == -own.integral()

    def test_vanishing_estimate_flags_minus_inf(self):
        holder = PointPattern([0.01], [0.01], Window(10, 1))
        scored = PointPattern([9.99], [0.99], Window(10, 1))
        est = KernelIntensity2D(holder, 0.01)
        with pytest.warns(RuntimeWarning):
            assert loglik(scored, est) == -math.inf

    def test_true_direction_dominates_oblique(self):
        model = PoissonBetaModel(3.0, Window(10.0))
        wins = 0
        reps = 100
        for i in range(reps):
            pat = simulate_poisson_beta(model, RngStream(65, i))
            ll0 = loglik(pat, SubstationaryIntensity(pat, 0.0, 0.05))
            ll45 = loglik(pat, SubstationaryIntensity(pat, math.pi / 4, 0.05))
            wins += ll0 > ll45
        assert wins >= 0.95 * reps


GAUSS_24 = np.polynomial.legendre.leggauss(24)


def knot_split_integral(est, width=2.0):
    """The integral of lambda_hat * chord over the projection range, by brute force.

    24-node Gauss-Legendre panels of at most ``width`` bandwidths on each
    piece between the chord profile's knots, where it kinks, with the
    direct kernel sums: no zone, no closed-form term.
    """
    knots = _trapezoid(est.theta, est.window)[0]
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi > lo:
            edges = np.linspace(lo, hi, math.ceil((hi - lo) / (width * est.h)) + 1)
            half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
            v = (mid[:, None] + half[:, None] * GAUSS_24[0]).ravel()
            lam = _direct_sums(est.h, est._v_data, v) / correction_substat_closed(
                est.theta, est.window, est.h, v
            )
            chords = chord_measure(est.theta, est.window, v)
            total += float((half[:, None] * GAUSS_24[1]).ravel() @ (lam * chords))
    return total


def beta_or_thomas(kind, z, seed, n=150):
    """A Beta(3, 3) Poisson or Thomas pattern in a z x 1 window, thinned to at most n points."""
    model = PoissonBetaModel(3.0, Window(z))
    if kind == "thomas":
        pat = simulate_thomas(ThomasModel(model), RngStream(seed, 0))
    else:
        pat = simulate_poisson_beta(model, RngStream(seed, 0))
    keep = np.random.default_rng(seed).permutation(pat.n)[:n]
    return PointPattern(pat.x[keep], pat.y[keep], pat.window)


INTEGRAL_THETAS = (
    0.0, 1e-300, math.radians(3), math.radians(30), math.radians(80), -math.pi / 4,
    -math.pi / 2, math.radians(89.9999),
)


class TestLikelihoodIntegral:
    @pytest.mark.parametrize("kind", ["poisson", "thomas"])
    @pytest.mark.parametrize("z", [1.0, 10.0, 100.0])
    def test_matches_a_fine_knot_split_reference(self, kind, z):
        # a 400-cell midpoint rule misses these by up to 4e-6 relative
        pat = beta_or_thomas(kind, z, seed=int(z) + (kind == "thomas"))
        for h in (0.01, 0.03, 0.1):
            for theta in INTEGRAL_THETAS:
                est = SubstationaryIntensity(pat, theta, h)
                want = knot_split_integral(est)
                assert est.integral() == pytest.approx(want, rel=1e-9, abs=0), (h, theta)

    def test_the_node_count_has_a_bound_that_does_not_grow_with_the_window(self):
        # at most two panels at each end of each of the three gaps between knots
        bound = 6 * math.ceil(_KNOT_REACH / _PANEL_WIDTH) * _PANEL_NODES
        assert bound == 144
        for h in (0.001, 0.01, 0.1):
            for theta in INTEGRAL_THETAS:
                counts = []
                for z in (1.0, 10.0, 100.0, 1000.0):
                    est = SubstationaryIntensity(PointPattern([0.5], [0.5], Window(z)), theta, h)
                    nodes, weights = est._plan.nodes, est._plan.weights
                    assert nodes.size == weights.size <= bound
                    assert np.all((nodes >= est._plan.lo) & (nodes <= est._plan.hi))
                    counts.append(nodes.size)
                # once every gap outgrows two reaches the count stays put
                assert counts[-1] == counts[-2], (h, theta, counts)

    def test_a_cell_count_other_than_the_default_raises(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 3))
        default = bandwidth_cv_scores(pat, 0.0, [0.05])
        assert bandwidth_cv_scores(pat, 0.0, [0.05], integral_cells=SUBSTAT_INTEGRAL_CELLS) == default
        for cells in (200, 401, 0):
            with pytest.raises(ValueError, match="integral_cells"):
                bandwidth_cv_scores(pat, 0.0, [0.05], integral_cells=cells)
        # a pattern too small to score still rejects it
        with pytest.raises(ValueError, match="integral_cells"):
            bandwidth_cv_scores(PointPattern([0.5], [0.5], Window(1.0)), 0.0, [0.05],
                                integral_cells=200)


class TestFitTheta:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_theta(PointPattern([0.5], [0.5], Window(1, 1)), 0.05)

    def test_fewer_than_two_points_is_a_data_error(self):
        for x in ([], [0.5]):
            with pytest.raises(DataError, match=f"at least two points, got {len(x)}"):
                fit_theta(PointPattern(x, x, Window(1, 1)), 0.05)

    def test_negative_thread_count_is_rejected(self):
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(5, 0))
        tiny = PointPattern(np.linspace(0.1, 0.9, 10), np.linspace(0.2, 0.8, 10), Window(1.0))
        for p in (pat, tiny):  # at any size, the pool's threshold notwithstanding
            with pytest.raises(ValueError, match="threads"):
                fit_theta(p, 0.05, search_halfwidth_deg=2.0, threads=-1)

    def test_fit_value_dominates_trace(self):
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(2.0)), RngStream(66, 0))
        fit = fit_theta(pat, 0.05, search_halfwidth_deg=10.0)
        assert len(fit.trace) == 21
        assert all(fit.loglik >= v for _, v in fit.trace)
        assert fit.h == 0.05
        assert not fit.degenerate

    def test_grid_holds_the_axis_at_any_halfwidth(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(66, 1))
        thetas = [t for t, _ in fit_theta(pat, 0.05, search_halfwidth_deg=2.5).trace]
        assert 0.0 in thetas
        assert thetas == [-t for t in reversed(thetas)]  # symmetric about 0
        assert thetas[0] == math.radians(-2.5) and thetas[-1] == math.radians(2.5)
        assert max(np.diff(np.degrees(thetas))) <= 1.0 + 1e-12

    def test_bounded_search_respects_limits(self):
        pat = simulate_poisson_beta(PoissonBetaModel(1.5, Window(1.0)), RngStream(67, 3))
        fit = fit_theta(pat, 0.02, search_halfwidth_deg=5.0)
        assert abs(fit.theta_hat.degrees) <= 5.0 + 1e-9

    def test_strong_signal_recovers_axis(self):
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(10.0)), RngStream(68, 1))
        fit = fit_theta(pat, 0.05)
        assert abs(fit.theta_hat.degrees) < 1.0

    def test_quarter_turn_equivariance_on_square_window(self):
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(69, 2))
        fit = fit_theta(pat, 0.05)
        # rotate the pattern a quarter turn about the window center
        rot = PointPattern(1.0 - pat.y, pat.x, pat.window)
        fit_rot = fit_theta(rot, 0.05)
        want = fit.theta_hat.theta + math.pi / 2
        assert angle_gap(fit_rot.theta_hat.theta, want) < 2.5e-4

    def test_open_grid_scores_each_subspace_once(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(90, 25))
        thetas = [t for t, _ in fit_theta(pat, 0.05).trace]
        assert 60 <= len(thetas) <= 72  # the 3-degree stage and at most 3 x 4 nodes near its maxima
        assert len({Subspace(t) for t in thetas}) == len(thetas)
        assert thetas == sorted(thetas) and 0.0 in thetas

    def test_halfwidth_90_is_the_open_search(self):
        # quarter-turned a=3 pattern whose best subspace lies just past -90
        # degrees, near +89.5: a bracket clipped at -90 cannot reach it
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(90, 26))
        rot = PointPattern(1.0 - pat.y, pat.x, pat.window)
        fit = fit_theta(rot, 0.05)
        assert fit_theta(rot, 0.05, search_halfwidth_deg=90.0) == fit
        assert 89.0 < fit.theta_hat.degrees < 90.0

    def _fit_known_profile(self, monkeypatch, curve, halfwidth=10.0):
        # loglik replaced by a known curve of the estimator's angle; every
        # call scores one freshly built estimator
        calls = []

        def fake_loglik(pattern, est, **kwargs):
            calls.append(est.theta.theta)
            return curve(est.theta.theta)

        monkeypatch.setattr(estimate_module, "loglik", fake_loglik)
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(90, 27))
        return fit_theta(pat, 0.05, search_halfwidth_deg=halfwidth), len(calls)

    # built is the most a fit builds; with one maximum on the open search's 3-degree stage,
    # its second stage scores 4 nodes, so the open fit builds 60 + 4 + 4
    @pytest.mark.parametrize("halfwidth, built", [(6.0, 17), (None, 76)])
    def test_a_fit_builds_its_coarse_grid_and_four_refinement_estimators(
        self, monkeypatch, halfwidth, built
    ):
        peak = math.radians(0.37)
        fit, count = self._fit_known_profile(monkeypatch, lambda t: -((t - peak) ** 2), halfwidth)
        assert len(fit.trace) + 4 == count <= built
        assert count == (17 if halfwidth else 68)

    # fit_theta's at most 4 refinement evaluations against what real fits
    # build: bounded and open searches, a best node at the bound, flat
    # (a=1) patterns and profiles whose parabolas are not concave
    def test_a_fit_builds_at_most_its_coarse_grid_and_the_refinement_a_sweep_prices(
        self, monkeypatch
    ):
        built, vertices, vertex = [], [], estimate_module._vertex

        class Counted(SubstationaryIntensity):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def recorded(*values):
            vertices.append(vertex(*values))
            return vertices[-1]

        monkeypatch.setattr(estimate_module, "SubstationaryIntensity", Counted)
        monkeypatch.setattr(estimate_module, "_vertex", recorded)
        rng = np.random.default_rng(30)
        x = rng.uniform(0.0, 1.0, 300)
        y = 0.5 + (x - 0.5) * math.tan(math.radians(20)) + rng.normal(0.0, 0.05, 300)
        keep = (y >= 0.0) & (y <= 1.0)
        tilted = PointPattern(x[keep], y[keep], Window(1.0))  # a ridge along +20 degrees
        patterns = [tilted] + [
            simulate_poisson_beta(PoissonBetaModel(a, Window(1.0)), RngStream(30, seed))
            for a in (1.0, 1.5, 3.0) for seed in (1, 2)
        ]
        extra, at_bound = [], 0
        for pat in patterns:
            for h in (0.01, 0.05):
                for halfwidth in (6.0, None):
                    del built[:]
                    fit = fit_theta(pat, h, search_halfwidth_deg=halfwidth)
                    extra.append(len(built) - len(fit.trace))
                    best = max(fit.trace, key=lambda tv: tv[1])
                    at_bound += halfwidth is not None and best == fit.trace[-1]
        assert max(extra) == 4
        assert at_bound and None in vertices

    @pytest.mark.parametrize("halfwidth", [6.0, 10.0, None])
    @pytest.mark.parametrize("peak_deg", [0.37, -2.9, 0.5, 5.97, -5.6])
    def test_refinement_finds_an_off_grid_peak_of_a_quadratic(self, monkeypatch, halfwidth, peak_deg):
        # the coarse vertex falls on the peak and the local parabola keeps it;
        # at +-6 degrees the best node of the last two is the bound, whose
        # parabola runs through its inner neighbours
        peak = math.radians(peak_deg)
        fit, _ = self._fit_known_profile(monkeypatch, lambda t: -((t - peak) ** 2), halfwidth)
        assert abs(fit.theta_hat.theta - peak) <= 1e-12

    def test_the_open_search_finds_a_peak_beside_its_second_best_coarse_maximum(self, monkeypatch):
        # a broad bump whose 3-degree node 60 beats node 30 of a sharp peak at 31 degrees;
        # the second stage scores 28, 29, 31 and 32 around node 30, and 31 is the best node
        def two_peaks(t):
            d = math.degrees(t)
            return max(10.0 - 2.0 * abs(d - 31.0), 9.0 - 0.1 * (d - 60.0) ** 2, -100.0)

        fit, _ = self._fit_known_profile(monkeypatch, two_peaks, halfwidth=None)
        assert abs(fit.theta_hat.degrees - 31.0) < 1e-9
        assert fit.loglik == 10.0
        monkeypatch.setattr(estimate_module, "_OPEN_PEAKS", 1)  # the broad bump alone
        fit, _ = self._fit_known_profile(monkeypatch, two_peaks, halfwidth=None)
        assert abs(fit.theta_hat.degrees - 60.0) < 1e-9

    # the best 3-degree node is -90, and the second stage's nodes beside it wrap to +88 and +89
    @pytest.mark.parametrize("peak_deg", [89.6, -89.4, 88.8, -88.9])
    def test_an_open_peak_next_to_90_degrees_wraps(self, monkeypatch, peak_deg):
        peak = math.radians(peak_deg)

        def wrapped(t):  # a quadratic in the angle between subspaces
            return -(((t - peak + math.pi / 2) % math.pi - math.pi / 2) ** 2)

        fit, _ = self._fit_known_profile(monkeypatch, wrapped, halfwidth=None)
        scored = {round(math.degrees(t)) for t, _ in fit.trace}
        assert {-90, -89, -88, 88, 89} <= scored and len(scored) == 64
        assert angle_gap(fit.theta_hat.theta, peak) < 1e-9

    @pytest.mark.parametrize("halfwidth", [6.0, 2.5, 0.05])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_monotone_profile_keeps_the_fit_within_the_bound(self, monkeypatch, halfwidth, sign):
        fit, _ = self._fit_known_profile(monkeypatch, lambda t: sign * t, halfwidth)
        assert abs(fit.theta_hat.theta) <= math.radians(halfwidth)
        assert fit.theta_hat.theta * sign > math.radians(halfwidth) - 2 * math.radians(0.1)

    def test_a_kinked_peak_on_a_node_stays_there_with_the_coarse_best(self, monkeypatch):
        # the refined vertex is the node, scored once, so loglik is the coarse best
        fit, _ = self._fit_known_profile(monkeypatch, lambda t: -abs(t))
        assert fit.theta_hat.theta == 0.0
        assert fit.loglik == max(v for _, v in fit.trace)

    def test_loglik_is_the_largest_value_evaluated_whatever_the_fit_scores(self, monkeypatch):
        # a cusp between the probes; the second run scores the refined vertex
        # alone 1 lower, so it keeps its vertex and its largest value
        peak = math.radians(0.33)

        def cusp(t):
            return -abs(t - peak) ** 1.5

        first, _ = self._fit_known_profile(monkeypatch, cusp)
        dip = first.theta_hat.theta
        second, _ = self._fit_known_profile(monkeypatch, lambda t: cusp(t) - (abs(t - dip) < 1e-12))
        assert second.theta_hat == first.theta_hat
        assert first.loglik == cusp(dip)  # the vertex scored highest
        assert cusp(dip) - 1.0 < second.loglik < first.loglik  # now a probe does

    @pytest.mark.parametrize("threads", [0, 2])
    def test_thread_count_never_changes_fit(self, threads, pools):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(70, 2))
        serial = fit_theta(pat, 0.05, search_halfwidth_deg=10.0, threads=1)
        assert not pools
        assert fit_theta(pat, 0.05, search_halfwidth_deg=10.0, threads=threads) == serial
        assert len(pools) == 1  # the coarse grid ran on a pool

    # any fit forks its coarse grid; the open search forks its second stage too
    @pytest.mark.parametrize("halfwidth, built", [(6.0, [2]), (None, [2, 2])])
    @pytest.mark.parametrize("n", [2, 100])
    def test_a_fit_of_any_size_forks_and_keeps_its_result(self, pools, n, halfwidth, built):
        rng = np.random.default_rng(71)
        pat = PointPattern(rng.uniform(0.0, 1.0, n), rng.beta(3.0, 3.0, n), Window(1.0))
        serial = fit_theta(pat, 0.05, search_halfwidth_deg=halfwidth, threads=1)
        assert not pools
        assert fit_theta(pat, 0.05, search_halfwidth_deg=halfwidth, threads=2) == serial
        assert pools == built

    def test_a_bounded_fit_near_three_thousand_points_forks_and_keeps_its_result(self, pools):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(30.0)), RngStream(70, 5))
        assert 2800 < pat.n < 3200
        serial = fit_theta(pat, 0.05, search_halfwidth_deg=6.0, threads=1)
        assert not pools
        assert fit_theta(pat, 0.05, search_halfwidth_deg=6.0, threads=2) == serial
        assert pools == [2]

    def test_an_open_fit_is_identical_at_any_worker_count(self, pools):
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(70, 4))
        fits = [fit_theta(pat, 0.05, threads=threads) for threads in (0, 1, 2, 3)]
        assert pools[-4:] == [2, 2, 3, 3]  # threads=0 takes one worker per CPU; each stage forks
        assert all(fit == fits[1] for fit in fits)

    def test_an_open_fit_forks_both_stages_and_keeps_its_result(self, pools):
        pat = simulate_poisson_beta(PoissonBetaModel(1.5, Window(2.0)), RngStream(70, 6))
        serial = fit_theta(pat, 0.02, threads=1)
        assert not pools
        assert fit_theta(pat, 0.02, threads=2) == serial
        assert pools == [2, 2]

    def test_point_order_never_changes_fit(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(70, 1))
        rng = np.random.default_rng(0)
        perm = rng.permutation(pat.n)
        pat2 = PointPattern(pat.x[perm], pat.y[perm], pat.window)
        f1 = fit_theta(pat, 0.05, search_halfwidth_deg=10.0)
        f2 = fit_theta(pat2, 0.05, search_halfwidth_deg=10.0)
        assert f1.theta_hat.theta == f2.theta_hat.theta
        assert f1.loglik == f2.loglik

    def test_fitted_angle_distribution_symmetric_without_direction(self):
        # flat truth: the sign of the fitted angle is a fair coin
        from scipy.stats import binomtest

        model = PoissonBetaModel(1.0, Window(1.0))
        signs = []
        for i in range(100):
            pat = simulate_poisson_beta(model, RngStream(71, i))
            fit = fit_theta(pat, 0.05, search_halfwidth_deg=10.0)
            if fit.theta_hat.theta != 0.0:
                signs.append(fit.theta_hat.theta > 0)
        assert binomtest(sum(signs), len(signs), 0.5).pvalue > 0.01


class _Unpicklable(Exception):
    def __init__(self, a, b):  # pickle restores it with one argument, and fails
        super().__init__(a)


class TestWorkerMap:
    # one job runs in the caller and four fork: both check the count first
    @pytest.mark.parametrize("threads", [2.0, np.float64(2.0), -1, "2", True])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_a_worker_count_not_an_integer_of_at_least_0_raises_before_any_job(
        self, pools, threads, jobs
    ):
        ran = []
        with pytest.raises(ValueError, match="threads must be an integer >= 0"):
            _map_ordered(ran.append, range(jobs), threads)
        assert ran == [] and pools == []
        assert _map_ordered(abs, range(jobs), np.int64(2)) == list(range(jobs))

    def test_a_map_forks_from_two_workers(self, pools):
        assert _map_ordered(abs, range(2), 2) == [0, 1]
        assert pools == [2]
        assert _map_ordered(abs, range(2), 1) == [0, 1]  # one worker
        assert _map_ordered(abs, range(1), 2) == [0]  # one job
        assert pools == [2]

    # the workers are the smaller of threads (one per CPU at 0) and the jobs
    @pytest.mark.parametrize("threads, cpus, jobs, built", [
        (1, 4, 6, []),
        (2, 4, 0, []),
        (2, 4, 1, []),
        (2, 4, 2, [2]),
        (2, 4, 6, [2]),
        (3, 4, 2, [2]),
        (3, 4, 6, [3]),
        (6, 1, 3, [3]),  # an explicit count is not capped by the CPUs
        (0, 3, 6, [3]),
        (0, 3, 2, [2]),
        (0, 1, 6, []),
        (0, None, 6, []),  # an unknown CPU count is one worker
    ])
    def test_a_map_forks_the_fewer_of_its_workers_and_its_jobs(
        self, monkeypatch, pools, threads, cpus, jobs, built
    ):
        monkeypatch.setattr(estimate_module.os, "cpu_count", lambda: cpus)
        assert _map_ordered(abs, range(-jobs, 0), threads) == list(range(jobs, 0, -1))
        assert pools == built

    @pytest.mark.parametrize("threads", [0, 2, 4])
    def test_without_fork_every_map_runs_in_the_caller(self, monkeypatch, pools, threads):
        monkeypatch.delattr(estimate_module.os, "fork")
        ran = []
        assert _map_ordered(lambda k: ran.append(k) or -k, range(5), threads) == [0, -1, -2, -3, -4]
        assert ran == [0, 1, 2, 3, 4] and pools == []

    def test_a_job_that_raises_in_a_worker_raises_here_with_its_type(self, pools):
        def job(k):
            if k == 1:  # job 1 falls to the first child's share
                raise KeyError(k)
            return k

        with pytest.raises(KeyError):
            _map_ordered(job, range(6), 2)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_a_raise_in_the_callers_own_share_ends_the_workers(self, pools):
        def job(k):
            if k == 0:
                raise ValueError("own share")
            return k

        with pytest.raises(ValueError, match="own share"):
            _map_ordered(job, range(6), 3)
        assert pools == [3]
        assert multiprocessing.active_children() == []

    def test_an_unpicklable_error_comes_back_as_a_runtime_error_with_its_repr(self):
        def job(k):
            if k == 1:
                raise _Unpicklable("odd", 2)
            return k

        with pytest.raises(RuntimeError, match="_Unpicklable"):
            _map_ordered(job, range(4), 2)
        assert multiprocessing.active_children() == []

    def test_a_workers_warning_reaches_the_caller(self, pools):
        def job(k):
            if k == 1:
                warnings.warn("from a worker", RuntimeWarning)
            return k * k

        with pytest.warns(RuntimeWarning, match="from a worker") as caught:
            assert _map_ordered(job, range(5), 2) == [0, 1, 4, 9, 16]
        assert pools == [2]
        assert caught[0].filename == __file__


def blas_threads(_=None) -> int:
    """The thread count of numpy's OpenBLAS in the calling process."""
    return estimate_module._openblas()[0]()


@pytest.fixture
def blas():
    """numpy's OpenBLAS at 2 threads for the test, its own count restored after it."""
    handle = estimate_module._openblas()
    if handle is None:
        pytest.skip("numpy ships no OpenBLAS")
    get, put = handle
    own = get()
    put(2)
    yield handle
    put(own)


class TestBlasThreadsInAMap:
    """A map that forks runs one BLAS thread a worker and gives the caller its count back."""

    def test_every_worker_of_a_forked_map_runs_one_blas_thread(self, blas, pools):
        assert _map_ordered(blas_threads, range(6), 3) == [1] * 6
        assert pools == [3]
        assert blas_threads() == 2

    @pytest.mark.parametrize("raiser", [0, 1], ids=["caller", "child"])
    def test_the_callers_count_comes_back_when_a_job_raises(self, blas, pools, raiser):
        def job(k):
            if k == raiser:  # job 0 is the caller's, job 1 the child's
                raise KeyError(k)
            return k

        with pytest.raises(KeyError):
            _map_ordered(job, range(4), 2)
        assert pools == [2]
        assert blas_threads() == 2

    def test_a_serial_map_leaves_the_count_alone(self, blas, pools):
        # one worker, and one job
        assert _map_ordered(blas_threads, range(4), 1) == [2] * 4
        assert _map_ordered(blas_threads, range(1), 2) == [2]
        assert pools == []
        assert blas_threads() == 2

    def test_without_openblas_a_forked_map_gives_the_same_results(self, monkeypatch, pools):
        rng = np.random.default_rng(5)
        blocks = [rng.random((40, 40)) for _ in range(5)]
        want = [block @ block for block in blocks]
        monkeypatch.setattr(estimate_module, "_openblas", lambda: None)
        got = _map_ordered(lambda block: block @ block, blocks, 2)
        assert pools == [2]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestSelectBandwidth:
    def test_single_candidate_wins(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 0))
        assert select_bandwidth(pat, 0.0, [0.07]) == 0.07

    def test_empty_candidates_rejected(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 1))
        with pytest.raises(ValueError):
            select_bandwidth(pat, 0.0, [])

    def test_a_one_point_pattern_raises_a_data_error(self):
        pat = PointPattern([0.5], [0.5], Window(1, 1))
        message = "^bandwidth selection needs at least two points, got 1$"
        with pytest.raises(DataError, match=message):
            bandwidth_cv_scores(pat, 0.0, [0.01, 0.05])
        with pytest.raises(DataError, match=message):
            select_bandwidth(pat, 0.0, [0.01, 0.05])

    def test_a_repeated_candidate_raises_naming_it(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 2))
        for candidates, repeated in (([0.05, 0.1, 0.05], "0.05"), ([2e-2, 0.02], "0.02")):
            with pytest.raises(ValueError, match=f"^candidates repeats {repeated}$"):
                bandwidth_cv_scores(pat, 0.0, candidates)

    def test_a_point_beyond_every_kernels_reach_scores_minus_inf(self):
        # its leave-one-out estimate is exactly 0 at every bandwidth, not a
        # few ulps left by rounding its own kernel differently
        rng = np.random.default_rng(75)
        y = np.concatenate((rng.uniform(0.0, 0.4, 200), [0.95]))
        pat = PointPattern(rng.uniform(0.0, 2.0, y.size), y, Window(2, 1))
        candidates = (0.005, 0.01, 0.02, 0.06)
        with pytest.warns(RuntimeWarning):
            scores = bandwidth_cv_scores(pat, 0.0, candidates)
        assert [s for _, s in scores] == [-math.inf] * len(candidates)
        with pytest.raises(BandwidthSelectionError), pytest.warns(RuntimeWarning):
            select_bandwidth(pat, 0.0, candidates)

    def test_scores_cover_all_candidates(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 2))
        scores = bandwidth_cv_scores(pat, 0.0, [0.05, 0.1])
        assert [h for h, _ in scores] == [0.05, 0.1]
        assert all(math.isfinite(s) for _, s in scores)

    def test_selection_tracks_oracle_risk(self):
        # judged against the known truth, the cross-validated choice stays
        # within 45% of the best candidate's root-MISE; likelihood
        # cross-validation optimizes a likelihood (KL-flavored) risk, so
        # it systematically leans below the squared-error optimum
        model = PoissonBetaModel(3.0, Window(10.0))
        candidates = (0.02, 0.05, 0.1, 0.2)
        theta0 = Subspace(0.0)
        ise_by_h = {h: [] for h in candidates}
        ise_sel = []
        for i in range(60):
            pat = simulate_poisson_beta(model, RngStream(73, i))
            chosen = select_bandwidth(pat, theta0, candidates)
            for h in candidates:
                est = SubstationaryIntensity(pat, theta0, h)
                ise = integrated_squared_error(est, model.intensity)
                ise_by_h[h].append(ise)
                if h == chosen:
                    ise_sel.append(ise)
        rmise_sel = math.sqrt(np.mean(ise_sel))
        by_h = {h: math.sqrt(np.mean(v)) for h, v in ise_by_h.items()}
        best = min(by_h.values())
        assert rmise_sel <= 1.45 * best
        # and it never drifts to the far-too-smooth end
        assert rmise_sel < by_h[0.2]

    def test_chosen_bandwidth_shrinks_with_sample_size(self):
        candidates = (0.01, 0.02, 0.05, 0.1)
        means = []
        # some pattern leaves a datum out of reach of every other at h=0.01
        with pytest.warns(RuntimeWarning, match="intensity estimate is zero at a data point"):
            for z in (1.0, 4.0, 16.0):
                model = PoissonBetaModel(3.0, Window(z))
                chosen = [
                    select_bandwidth(
                        simulate_poisson_beta(model, RngStream(74, i)), 0.0, candidates
                    )
                    for i in range(25)
                ]
                means.append(np.mean(chosen))
        assert means[0] >= means[1] >= means[2]
        assert means[0] > means[2]
