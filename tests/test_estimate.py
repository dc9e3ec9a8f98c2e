import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substat.estimate as estimate_module
from substat.estimate import (
    _POOL_MIN_POINTS,
    FIT_TOL,
    BandwidthSelectionError,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    _bounded_brent,
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
    chord_measure,
    project_xy,
    unproject_xy,
    v_range,
)
from substat.kernels import (
    _direct_sums,
    correction_2d,
    correction_substat_closed,
    kernel_1d,
    normal_cdf,
)
from substat.simulate import PoissonBetaModel, RngStream, simulate_poisson_beta

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
    "kernel_1d": lambda x, y: kernel_1d(0.1, x),
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
        assert len(thetas) == 180
        assert len({Subspace(t) for t in thetas}) == 180

    def test_halfwidth_90_is_the_open_search(self):
        # quarter-turned a=3 pattern whose best subspace lies just past -90
        # degrees, near +89.5: a bracket clipped at -90 cannot reach it
        pat = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(90, 26))
        rot = PointPattern(1.0 - pat.y, pat.x, pat.window)
        fit = fit_theta(rot, 0.05)
        assert fit_theta(rot, 0.05, search_halfwidth_deg=90.0) == fit
        assert 89.0 < fit.theta_hat.degrees < 90.0

    def _fit_known_profile(self, monkeypatch, curve):
        # loglik replaced by a known smooth curve of the estimator's angle;
        # every call scores one freshly built estimator
        calls = []

        def fake_loglik(pattern, est, **kwargs):
            calls.append(est.theta.theta)
            return curve(est.theta.theta)

        monkeypatch.setattr(estimate_module, "loglik", fake_loglik)
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(90, 27))
        return fit_theta(pat, 0.05, search_halfwidth_deg=10.0), len(calls)

    def test_refinement_finds_an_off_grid_peak(self, monkeypatch):
        peak = math.radians(0.37)
        fit, built = self._fit_known_profile(monkeypatch, lambda t: -((t - peak) ** 2))
        assert abs(fit.theta_hat.theta - peak) <= FIT_TOL
        assert built - len(fit.trace) <= 10

    def test_refinement_never_scores_below_the_coarse_best(self, monkeypatch):
        fit, _ = self._fit_known_profile(monkeypatch, lambda t: -abs(t))
        assert fit.theta_hat.theta == 0.0
        assert fit.loglik == max(v for _, v in fit.trace)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_thread_count_never_changes_fit(self, threads, pools, pool_at_any_size):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(70, 2))
        serial = fit_theta(pat, 0.05, search_halfwidth_deg=10.0, threads=1)
        assert not pools
        assert fit_theta(pat, 0.05, search_halfwidth_deg=10.0, threads=threads) == serial
        assert len(pools) == 1  # the coarse grid ran on a pool

    def test_only_patterns_at_the_threshold_fit_on_a_pool(self, pools):
        small = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(70, 2))
        assert small.n < _POOL_MIN_POINTS
        fit_theta(small, 0.05, search_halfwidth_deg=2.0, threads=2)
        fit_theta(small, 0.05, search_halfwidth_deg=2.0, threads=0)
        assert pools == []
        rng = np.random.default_rng(71)
        x, y = rng.uniform(0.0, 20.0, _POOL_MIN_POINTS), rng.beta(3.0, 3.0, _POOL_MIN_POINTS)
        fit_theta(PointPattern(x, y, Window(20.0)), 0.05, search_halfwidth_deg=1.0, threads=2)
        assert pools == [2]

    def test_the_threshold_reads_the_pattern_size(self, monkeypatch, pools):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(70, 3))
        for floor, built in ((pat.n + 1, []), (pat.n, [2])):
            monkeypatch.setattr(estimate_module, "_POOL_MIN_POINTS", floor)
            fit_theta(pat, 0.05, search_halfwidth_deg=1.0, threads=2)
            assert pools == built

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


def recorded(func):
    """``func`` with a list of the points it was called at."""
    probes = []

    def probe(t):
        probes.append(t)
        return func(t)

    return probe, probes


def profile_of(pattern, h):
    return lambda t: -loglik(pattern, SubstationaryIntensity(pattern, t, h))


def brent_cases():
    """(name, function, lo, hi): smooth, multimodal, flat and +inf-valued
    curves, and fixed-seed profiles on a bounded bracket and on one that
    crosses 90 degrees."""
    bounded = simulate_poisson_beta(PoissonBetaModel(2.0, Window(2.0)), RngStream(70, 2))
    # the quarter-turned pattern of TestFitTheta's open-search case, best near +89.5 degrees
    turned = simulate_poisson_beta(PoissonBetaModel(3.0, Window(1.0)), RngStream(90, 26))
    crossing = PointPattern(1.0 - turned.y, turned.x, turned.window)
    return [
        ("quadratic", lambda t: (t - 0.3) ** 2, -1.0, 1.0),
        ("quadratic-at-bound", lambda t: (t - 2.0) ** 2, -1.0, 1.0),
        ("multimodal", lambda t: math.sin(40.0 * t) + 0.1 * t, -0.5, 0.7),
        ("flat", lambda t: 1.0, -0.02, 0.02),
        ("inf-left", lambda t: math.inf if t < 0.1 else (t - 0.4) ** 2, -1.0, 1.0),
        ("inf-everywhere", lambda t: math.inf, 0.0, 1.0),
        ("profile-bounded", profile_of(bounded, 0.05), math.radians(-1.0), math.radians(1.0)),
        ("profile-crossing-90", profile_of(crossing, 0.05), math.radians(88.5), math.radians(90.5)),
    ]


class TestBoundedBrent:
    # scipy's numpy scalars warn on inf - inf, which the port's floats do not
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("xatol", [FIT_TOL, 1e-5])
    @pytest.mark.parametrize("case", brent_cases(), ids=lambda c: c[0])
    def test_takes_the_probes_of_scipys_bounded_search(self, case, xatol):
        from scipy.optimize import minimize_scalar

        _, func, lo, hi = case
        ours, our_probes = recorded(func)
        theirs, their_probes = recorded(func)
        x, fun = _bounded_brent(ours, lo, hi, xatol)
        res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert our_probes == their_probes
        assert (x, fun) == (float(res.x), float(res.fun))

    def test_stops_after_500_evaluations(self):
        # with xatol 0 and the minimum at 0 the tolerance shrinks with the
        # best point, so only the evaluation cap ends the search
        func, probes = recorded(abs)
        x, fun = _bounded_brent(func, -1.0, 1.0, 0.0)
        assert len(probes) == 500
        assert fun == abs(x) < 1e-100


class TestSelectBandwidth:
    def test_single_candidate_wins(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 0))
        assert select_bandwidth(pat, 0.0, [0.07]) == 0.07

    def test_empty_candidates_rejected(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(1.0)), RngStream(72, 1))
        with pytest.raises(ValueError):
            select_bandwidth(pat, 0.0, [])

    def test_degenerate_pattern_raises(self):
        pat = PointPattern([0.5], [0.5], Window(1, 1))
        with pytest.raises(BandwidthSelectionError):
            select_bandwidth(pat, 0.0, [0.01, 0.05])

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
