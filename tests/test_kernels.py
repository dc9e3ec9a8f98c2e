import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from substat import kernels
from substat.estimate import _DOMAIN_TOL, SubstationaryIntensity, _cells, fit_theta, loglik
from substat.geometry import (
    PointPattern,
    Subspace,
    Window,
    _trapezoid,
    chord_measure,
    project_xy,
    v_range,
)
from substat.kernels import (
    _build_node_grid,
    _direct_sums,
    _gaussian_sums,
    _interpolated_sums,
    _kernel_mass,
    _lattice_sums,
    _node_grid,
    _node_layout,
    correction_2d,
    correction_substat_closed,
    normal_cdf,
    validate_bandwidth,
)

from oracles import QuadratureError, correction_substat_quadrature, gaussian, normal_pdf

ORACLE_THETAS = (0.0, -math.pi / 2, math.pi / 4, -1.2, 0.3)
ORACLE_WINDOWS = ((1, 1), (10, 1), (2, 3))
ORACLE_BANDWIDTHS = (0.01, 0.05, 0.1)


def synthetic_data(kind, n, span, h, seed, clusters=1):
    """Sorted data on [0, span]: Beta, clusters, or clusters plus isolated points.

    One cluster sits at span/2; several are centred uniformly over the span.
    The five isolated points lie 3-10 h from the centre of their cluster.
    """
    rng = np.random.default_rng(seed)
    if kind == "beta":
        data = span * rng.beta(3.0, 3.0, n)
    else:
        sd = h * rng.uniform(0.1, 2.0)
        centres = np.full(n, span / 2)
        if clusters > 1:
            centres = rng.uniform(0.0, span, clusters)[rng.integers(0, clusters, n)]
        data = rng.normal(centres, sd, n)
        if kind == "cluster+isolated":
            gaps = h * rng.uniform(3.0, 10.0, 5) * rng.choice([-1.0, 1.0], 5)
            data[:5] = centres[:5] + gaps
    return np.sort(np.clip(data, 0.0, span))


def split_data(data, span, gap):
    """The data above span/2 shifted up by ``gap``, so that no datum lies in the gap."""
    return np.where(data > span / 2, data + gap, data)


def node_positions(nodes):
    return nodes.origin + nodes.step * np.arange(nodes.sums.size)


def own_kernel(h):
    """A datum's own kernel, rounded as the kernel sums round it."""
    return 1.0 / (h * math.sqrt(2.0 * math.pi))


def midpoint_grid(span, cells=400):
    return (np.arange(cells) + 0.5) * span / cells


def assert_relative(got, want, rtol):
    """Within rtol of want relative to each value; zeros and negatives exactly."""
    positive = want > 0
    assert np.array_equal(got[~positive], want[~positive])
    assert np.all(np.abs(got[positive] - want[positive]) <= rtol * want[positive])


def interpolated(h, data, targets, leave_out):
    """Sums read off a node grid over the targets' range."""
    nodes = _build_node_grid(h, data, _node_layout(h, targets.min(), targets.max()))
    return _interpolated_sums(h, data, targets, leave_out, nodes)


def record_calls(monkeypatch, name, owner=kernels):
    """Wrap ``owner.<name>`` to log the arguments of every call."""
    calls, original = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def open_range_grid(sub, w, count=20):
    lo, hi = v_range(sub, w)
    return lo + (np.arange(count) + 0.5) / count * (hi - lo)


def one_datum(h, t):
    """The kernel sums of one datum at 0 at the displacements t: the kernel itself."""
    return _direct_sums(h, np.zeros(1), np.asarray(t, dtype=float))


class TestKernel1D:
    def test_standard_normal_mode(self):
        assert one_datum(1.0, 0.0) == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_scaled_value(self):
        # phi(1) / 0.5
        assert one_datum(0.5, 0.5) == pytest.approx(0.48394144903828673, rel=1e-12)

    def test_deep_tail_underflows_cleanly(self):
        # phi(10) / 0.1
        assert one_datum(0.1, 1.0) == pytest.approx(7.694598626706419e-22, rel=1e-10)
        assert one_datum(0.01, 5.0) == 0.0  # far past double underflow, not NaN

    def test_symmetry(self):
        assert one_datum(0.3, 0.2) == one_datum(0.3, -0.2)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            validate_bandwidth(0.0)

    def test_integrates_to_one(self):
        h = 0.37
        grid = np.linspace(-8 * h, 8 * h, 20001)
        total = np.trapezoid(one_datum(h, grid), grid)
        assert total == pytest.approx(1.0, rel=1e-8)


class TestNormalCdf:
    def test_center_and_tails(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
        assert normal_cdf(-2.0) == pytest.approx(0.02275013194817921, rel=1e-12)
        assert normal_cdf(-40.0) == 0.0  # clamps, no NaN
        assert normal_cdf(40.0) == 1.0

    def test_matches_pdf_derivative(self):
        x = np.linspace(-3, 3, 100)
        eps = 1e-6
        deriv = (normal_cdf(x + eps) - normal_cdf(x - eps)) / (2 * eps)
        assert np.allclose(deriv, normal_pdf(x), rtol=1e-7, atol=1e-9)


class TestClosedFormCorrection:
    def test_horizontal_axis_formula(self):
        # z * [Phi((omega-v)/h) - Phi(-v/h)] with z=3, omega=1, h=0.1, v=0.2
        got = correction_substat_closed(Subspace(0.0), Window(3, 1), 0.1, 0.2)
        want = 3.0 * (normal_cdf(8.0) - normal_cdf(-2.0))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.93174, abs=5e-5)

    def test_vertical_axis_formula(self):
        # omega * [Phi((z-v)/h) - Phi(-v/h)] with z=2, omega=1, h=0.1, v=1
        got = correction_substat_closed(Subspace(-math.pi / 2), Window(2, 1), 0.1, 1.0)
        assert got == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize(
        "thetas, z, v, bits",
        [
            ((0.0,), 3.0, 0.0, "0x1.8p+0"),
            ((0.0,), 3.0, 0.03, "0x1.da8e543261135p+0"),
            ((0.0,), 3.0, 0.5, "0x1.7ffff19285ca7p+1"),
            ((0.0,), 3.0, 0.97, "0x1.da8e543261136p+0"),
            ((-math.pi / 2, math.pi / 2), 2.0, 0.0, "0x1.ffffffffffffep-2"),
            ((-math.pi / 2, math.pi / 2), 2.0, 0.1, "0x1.aec4bd120d37cp-1"),
            ((-math.pi / 2, math.pi / 2), 2.0, 1.0, "0x1p+0"),
            ((-math.pi / 2, math.pi / 2), 2.0, 2.0, "0x1p-1"),
        ],
    )
    def test_values_on_the_exact_axes_are_pinned(self, thetas, z, v, bits):
        # on the axes the chord profile has jumps and no ramp; these bits held
        # before the ramps' terms were skipped there
        for theta in thetas:
            got = correction_substat_closed(Subspace(theta), Window(z, 1.0), 0.1, np.array([v]))
            assert got[0] == float.fromhex(bits)

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    @pytest.mark.parametrize("dims", ORACLE_WINDOWS)
    @pytest.mark.parametrize("h", ORACLE_BANDWIDTHS)
    def test_matches_quadrature_oracle(self, theta, dims, h):
        sub, w = Subspace(theta), Window(*dims)
        for v in open_range_grid(sub, w):
            oracle = correction_substat_quadrature(sub, w, h, float(v))
            closed = correction_substat_closed(sub, w, h, float(v))
            assert abs(closed - oracle) / oracle < 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        theta=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True)
        | st.tuples(st.sampled_from((0.0, -math.pi / 2)), st.floats(-1e-9, 1e-9)).map(sum),
        z=st.floats(0.2, 10.0),
        omega=st.floats(0.2, 10.0),
        h=st.floats(0.005, 0.5),
        t=st.floats(0.0, 1.0),
    )
    # v inside a sliver 3.8e-10 wide, which the closed form takes as a jump at its midpoint
    @example(theta=-1.570796326605738, z=1.0, omega=2.0, h=0.5, t=1.8915853133597223e-10)
    def test_matches_quadrature_oracle_anywhere(self, theta, z, omega, h, t):
        # angles within 1e-9 of an axis give the steep slivers of the profile
        sub, w = Subspace(theta), Window(z, omega)
        lo, hi = v_range(sub, w)
        v = lo + t * (hi - lo)
        oracle = correction_substat_quadrature(sub, w, h, v)
        assert abs(correction_substat_closed(sub, w, h, v) - oracle) <= 1e-6 * oracle

    def test_continuity_across_horizontal_branch(self):
        w = Window(2, 1)
        for h in ORACLE_BANDWIDTHS:
            for v in (0.2, 0.5, 0.9):
                exact = correction_substat_closed(Subspace(0.0), w, h, v)
                for eps in (1e-8, -1e-8):
                    near = correction_substat_closed(Subspace(eps), w, h, v)
                    assert abs(near - exact) / exact < 1e-6

    def test_continuity_across_vertical_branch(self):
        w = Window(2, 1)
        exact_sub = Subspace(-math.pi / 2)
        for v in (0.3, 1.0, 1.7):
            exact = correction_substat_closed(exact_sub, w, 0.05, v)
            near = correction_substat_closed(Subspace(-math.pi / 2 + 1e-8), w, 0.05, v)
            assert abs(near - exact) / exact < 1e-6
            # just below +pi/2 the same line is approached with v mirrored
            wrapped = correction_substat_closed(Subspace(math.pi / 2 - 1e-8), w, 0.05, -v)
            assert abs(wrapped - exact) / exact < 1e-6

    def test_positive_on_open_range(self):
        for theta in ORACLE_THETAS:
            sub, w = Subspace(theta), Window(2, 3)
            vals = correction_substat_closed(sub, w, 0.05, open_range_grid(sub, w, 50))
            assert np.all(vals > 0.0)

    def test_shrinking_bandwidth_approaches_chord(self):
        for theta in (0.0, 0.3, -1.2):
            sub, w = Subspace(theta), Window(2, 1)
            lo, hi = v_range(sub, w)
            v = lo + 0.37 * (hi - lo)
            chord = chord_measure(sub, w, v)
            gaps = [
                abs(correction_substat_closed(sub, w, h, v) - chord)
                for h in (0.1, 0.01, 0.001)
            ]
            # non-strict once the gap saturates at exact float zero
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[0] > 0.0 and gaps[0] > gaps[2]

    # 60-digit values of the integral over the chord profile of _trapezoid.  At
    # -89.9999 degrees the ramps are 3.5e-5*h wide, where a plain sum of
    # h*s_k*psi((v - k)/h) over the kinks cancels terms that grow with |v - k|
    # and misses them by up to 3e-9.  Near the horizontal axis of a 2x1 window
    # the ramps are 1.9e-6*h and 3.0e-4*h wide: jumps whose width term the
    # value needs, where the foot and head terms of a ramp missed by up to 5e-11
    @pytest.mark.parametrize(
        "theta, z, h, v, want",
        [
            *[(math.radians(-89.9999), *case) for case in [
                (100.0, 0.05, 0.25, 0.9999997133240016861064166),
                (100.0, 0.05, 30.0, 1.000000000001523225989786),
                (100.0, 0.05, 50.0, 1.000000000001523225989786),
                (100.0, 0.05, 99.75000174517695, 0.9999997133240016860313779),
                (10.0, 0.01, 0.05, 0.9999997132201728454639345),
                (10.0, 0.01, 3.0, 1.000000000001523225989786),
                (10.0, 0.01, 5.0, 1.000000000001523225989786),
                (10.0, 0.01, 9.95000174531402, 0.9999997132201728455902096),
            ]],
            (5.960464477539063e-08, 2.0, 0.0625, 0.03125, 1.382925594059134860564783),
            (5.960464477539063e-08, 2.0, 0.0625, 0.0625, 1.682689953659326050343577),
            (9.375000000137329e-06, 2.0, 0.0625, 0.03125, 1.383030536925259231341787),
            (9.375000000137329e-06, 2.0, 0.0625, 1.0, 0.9998803167997051918070965),
        ],
    )
    def test_steep_ramps_match_60_digit_values(self, theta, z, h, v, want):
        got = correction_substat_closed(Subspace(theta), Window(z, 1.0), h, v)
        assert abs(got - want) <= 1e-12 * want

    def test_every_knot_term_is_below_an_ulp_of_the_plateau_beyond_the_reach(self):
        # h*s_k*psi(x) <= T*psi(x)/_JUMP_WIDTH at a ramp, with psi(x) <= phi(x)/(1 + x^2),
        # and T*Q(x) at a jump, both relative to the plateau T
        x = kernels._KNOT_REACH
        ramp = math.exp(-0.5 * x * x) / (math.sqrt(2 * math.pi) * (1 + x * x)) / kernels._JUMP_WIDTH
        assert max(ramp, 0.5 * math.erfc(x / math.sqrt(2))) < 2.0**-53

    @pytest.mark.parametrize("theta", [0.7, 1e-6, -math.pi / 2 + 1e-6, 0.0])
    def test_blocks_never_change_the_values(self, theta):
        # 20 000 offsets span three blocks; near the axes the jumps carry a width term
        sub, w = Subspace(theta), Window(2, 1)
        grid = open_range_grid(sub, w, 20_000)
        whole = correction_substat_closed(sub, w, 0.05, grid)
        pieces = [correction_substat_closed(sub, w, 0.05, grid[i : i + 999]) for i in range(0, grid.size, 999)]
        assert np.array_equal(whole, np.concatenate(pieces))

    def test_vectorized_matches_scalar(self):
        sub, w = Subspace(0.7), Window(2, 1)
        grid = open_range_grid(sub, w, 7)
        vec = correction_substat_closed(sub, w, 0.05, grid)
        scal = [correction_substat_closed(sub, w, 0.05, float(v)) for v in grid]
        assert np.array_equal(vec, np.array(scal))


def per_knot_correction(sub, w, h, v):
    """The correction piece by piece, Phi and phi at one knot per call: the closed form's reference.

    A piece narrower than 1e-6*h takes the midpoint rule.
    """
    v_arr = np.asarray(v, dtype=float)
    total = np.zeros_like(v_arr, dtype=float)
    last = None  # (knot, t, Phi, phi) at the upper end of the previous piece
    knots, heights = _trapezoid(sub, w)
    for lo, hi, hl, hr in zip(knots[:-1], knots[1:], heights[:-1], heights[1:]):
        if hi <= lo:
            continue
        b = (hr - hl) / (hi - lo)  # the piece's chord is a + b*v
        a = hl - b * lo
        if hi - lo < 1e-6 * h:
            mid = 0.5 * (lo + hi)
            total = total + (hi - lo) * (a + b * mid) * normal_pdf((mid - v_arr) / h) / h
            continue
        if last is not None and last[0] == lo:
            _, tl, cl, pl = last
        else:
            tl = (lo - v_arr) / h
            cl, pl = normal_cdf(tl), None
        tu = (hi - v_arr) / h
        cu, pu = normal_cdf(tu), None
        total = total + (a + b * v_arr) * (cu - cl)
        if b != 0.0:
            pl = normal_pdf(tl) if pl is None else pl
            pu = normal_pdf(tu)
            total = total + b * h * (pl - pu)
        last = (hi, tu, cu, pu)
    return total


class TestStackedCorrection:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        theta=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True)
        | st.sampled_from((0.0, 1e-12, -1e-12, 1e-7, -1e-7))
        | st.tuples(st.sampled_from((-math.pi / 2, math.pi / 2)), st.floats(-1e-9, 1e-9)).map(sum),
        z=st.floats(0.5, 200.0),
        h=st.floats(1e-3, 0.5),
        shape=st.sampled_from(((), (1,), (37,), (400,), (5, 7), (3, 2500))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_knot_formula(self, theta, z, h, shape, seed):
        # angles at and near the axes give the slivers; (3, 2500) spans two blocks
        sub, w = Subspace(theta), Window(z, 1.0)
        lo, hi = v_range(sub, w)
        frac = np.random.default_rng(seed).uniform(size=shape)
        if frac.size > 1:
            frac.flat[:2] = 0.0, 1.0
        v = lo + frac * (hi - lo)
        got = correction_substat_closed(sub, w, h, v)
        want = per_knot_correction(sub, w, h, v)
        if shape == ():
            assert type(got) is float
        else:
            assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_the_plan_cache_never_mixes_angles_or_bandwidths(self):
        # calls alternate between angles and bandwidths with the cache warm;
        # each must read the value, and the plan, that a freshly built plan gives
        w = Window(10.0, 1.0)
        keys = [(Subspace(t), h) for t in (0.0, 1e-300, 0.3, -1.2, -math.pi / 2)
                for h in (0.01, 0.05)]
        v = {sub: np.linspace(*v_range(sub, w), 257) for sub, _ in keys}
        fresh, plans = {}, {}
        for sub, h in keys:
            kernels._plan.cache_clear()
            fresh[sub, h] = correction_substat_closed(sub, w, h, v[sub])
            plans[sub, h] = kernels._plan(sub, w, h)
        kernels._plan.cache_clear()
        for _ in range(3):
            for sub, h in keys[::2] + keys[1::2]:
                got = correction_substat_closed(sub, w, h, v[sub])
                assert np.array_equal(got, fresh[sub, h]), (sub, h)
                np.testing.assert_allclose(got, per_knot_correction(sub, w, h, v[sub]),
                                           rtol=1e-9, atol=0.0)
                plan, want = kernels._plan(sub, w, h), plans[sub, h]
                for name in ("lo", "hi", "nodes", "weights", "corr", "excess"):
                    assert np.array_equal(getattr(plan, name), getattr(want, name)), (sub, h, name)
                # the zones' correction is the closed form's, and its excess is over the chord
                assert np.array_equal(plan.corr, correction_substat_closed(sub, w, h, plan.nodes))
                chord = chord_measure(sub, w, plan.nodes)
                assert np.array_equal(plan.excess, plan.corr - chord), (sub, h)
        assert kernels._plan.cache_info().hits >= 4 * len(keys)
        assert kernels._plan.cache_info().misses == len(keys)
        for plan in plans.values():
            arrays = [a for a in plan + plan.rows if isinstance(a, np.ndarray)]
            assert len(arrays) == 10
            assert not any(a.flags.writeable for a in arrays)

    def test_a_second_open_fit_at_the_key_rebuilds_only_angles_the_first_did_not_read(self):
        # an open fit reads up to 76 plans: 60 + 12 stage nodes and 4 refinement angles;
        # the cache keeps them all, so the next pattern's fit shares its first stage
        window, rng = Window(1.0, 1.0), np.random.default_rng(8)
        first, second = (PointPattern(rng.uniform(0, 1, 100), rng.beta(2, 2, 100), window)
                         for _ in range(2))
        kernels._plan.cache_clear()
        fit_theta(first, 0.05)
        built = kernels._plan.cache_info().misses
        fit_theta(second, 0.05)
        assert built > 60
        assert kernels._plan.cache_info().misses - built <= 12 + 4

    def test_the_plans_range_is_v_range(self):
        # estimate._cells lays a 1-D estimate on v_range; evaluate checks the plan's range
        for theta in (0.0, 1e-300, 0.1, math.pi / 4, -1.2, -math.pi / 2):
            for w in (Window(1.0), Window(10.0, 1.0), Window(1.0, 3.0)):
                for h in (0.01, 0.05):
                    plan = kernels._plan(Subspace(theta), w, h)
                    want = v_range(Subspace(theta), w)
                    assert np.array([plan.lo, plan.hi]).tobytes() == np.array(want).tobytes()
                    assert type(plan.lo) is float and type(plan.hi) is float


class TestQuadratureOracle:
    def test_interior_point_approaches_chord(self):
        got = correction_substat_quadrature(Subspace(0.0), Window(1, 1), 0.05, 0.5)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_wide_window_interior_point(self):
        got = correction_substat_quadrature(Subspace(0.0), Window(7, 1), 0.01, 0.5)
        assert got == pytest.approx(7.0, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_signals_unreachable_tolerance(self):
        with pytest.raises(QuadratureError):
            correction_substat_quadrature(Subspace(0.3), Window(10, 1), 1e-13, 0.2)


class TestCorrection2D:
    def test_interior_point_keeps_all_mass(self):
        assert correction_2d(Window(10, 10), 0.05, 5.0, 5.0) == pytest.approx(1.0, rel=1e-12)

    def test_corner_keeps_a_quarter(self):
        assert correction_2d(Window(1, 1), 0.05, 0.0, 0.0) == pytest.approx(0.25, rel=1e-9)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        w = Window(2, 1)
        vals = correction_2d(w, 0.1, rng.uniform(0, 2, 100), rng.uniform(0, 1, 100))
        assert np.all((vals > 0) & (vals <= 1.0))

    def test_matches_2d_quadrature(self):
        rng = np.random.default_rng(5)
        w = Window(2, 1)
        for _ in range(8):
            x0 = rng.uniform(0, w.z)
            y0 = rng.uniform(0, w.omega)
            h = rng.uniform(0.05, 0.3)

            def integrand(y, x):
                return gaussian(h, x - x0) * gaussian(h, y - y0)

            oracle, err = dblquad(
                integrand,
                max(0.0, x0 - 9 * h),
                min(w.z, x0 + 9 * h),
                max(0.0, y0 - 9 * h),
                min(w.omega, y0 + 9 * h),
                epsabs=1e-11,
            )
            assert err < 1e-7
            got = correction_2d(w, h, x0, y0)
            assert got == pytest.approx(oracle, rel=1e-6)


class TestGaussianSums:
    def test_1d_matches_a_double_loop(self):
        rng = np.random.default_rng(11)
        data, targets, h = rng.uniform(0, 1, 40), rng.uniform(0, 1, 25), 0.07
        want = [sum(gaussian(h, d - t) for d in data) for t in targets]
        got = _gaussian_sums(h, data, targets)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_2d_matches_a_double_loop(self):
        rng = np.random.default_rng(12)
        xd, yd = rng.uniform(0, 2, 30), rng.uniform(0, 1, 30)
        xt, yt = rng.uniform(0, 2, 20), rng.uniform(0, 1, 20)
        h = 0.2
        want = [
            sum(gaussian(h, a - x) * gaussian(h, b - y) for a, b in zip(xd, yd))
            for x, y in zip(xt, yt)
        ]
        got = _direct_sums(h, xd, xt, (yd, yt))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_empty_data_gives_zeros_shaped_like_the_targets(self):
        empty, targets = np.empty(0), np.linspace(0, 1, 7)
        one_axis = _gaussian_sums(0.1, empty, targets)
        for got in (one_axis, _direct_sums(0.1, empty, targets, (empty, targets))):
            assert got.shape == (7,)
            assert np.all(got == 0.0)

    def test_chunking_never_changes_the_sums(self, monkeypatch):
        rng = np.random.default_rng(13)
        xd, yd = rng.uniform(0, 2, 50), rng.uniform(0, 1, 50)
        xt, yt = rng.uniform(0, 2, 37), rng.uniform(0, 1, 37)
        whole_1d = _gaussian_sums(0.05, xd, xt)
        whole_2d = _direct_sums(0.05, xd, xt, (yd, yt))
        big = rng.uniform(0, 2, 2000)
        whole_interpolated = interpolated(0.05, big, big, 0.0)
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 50 * 4)  # 4 targets per chunk
        assert np.array_equal(_gaussian_sums(0.05, xd, xt), whole_1d)
        assert np.array_equal(_direct_sums(0.05, xd, xt, (yd, yt)), whole_2d)
        assert np.array_equal(interpolated(0.05, big, big, 0.0), whole_interpolated)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["beta", "cluster", "cluster+isolated"]),
        n=st.integers(300, 1500),
        h=st.floats(0.01, 0.1),
        span=st.floats(1.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interpolated_sums_match_the_direct_sums(self, kind, n, h, span, seed):
        data = synthetic_data(kind, n, span, h, seed)
        own = own_kernel(h)
        # one grid over the range, as an estimator builds it, serves every target set
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, span))
        for targets, leave_out in ((data, 0.0), (midpoint_grid(span), 0.0), (data, own)):
            got = _interpolated_sums(h, data, targets, leave_out, nodes)
            assert_relative(got, _direct_sums(h, data, targets) - leave_out, 1e-10)

    def test_guard_takes_the_tails_of_isolated_points_directly(self, monkeypatch):
        h, span = 0.01, 1.0
        data = synthetic_data("cluster+isolated", 2000, span, h, seed=5)
        targets = midpoint_grid(span, 4000)
        want = _direct_sums(h, data, targets)
        calls = record_calls(monkeypatch, "_direct_sums")
        assert_relative(interpolated(h, data, targets, 0.0), want, 1e-10)
        # the nodes beyond the reach of every datum, then the guarded targets
        # of each of the two target chunks
        assert len(calls) == 3 and -(-targets.size // (kernels._CHUNK_ELEMENTS // 20)) == 2
        assert 0 < sum(call[2].size for call in calls[1:]) < targets.size
        # without the guard the same tails are off by far more
        monkeypatch.setattr(kernels, "_GUARD", -1.0)
        unguarded = interpolated(h, data, targets, 0.0)
        positive = want > 0
        assert np.max(np.abs(unguarded - want)[positive] / want[positive]) > 1e-10

    # the settings of the golden run and of the benchmark's workloads
    @pytest.mark.parametrize("z, n, h", [
        (1.0, 100, 0.01), (1.0, 100, 0.05), (2.0, 300, 1e-5), (2.0, 300, 0.02), (2.0, 300, 0.1),
        (10.0, 1000, 0.05), (10.0, 1000, 0.1), (10.0, 10_000, 0.05), (50.0, 5000, 0.02),
        (50.0, 5000, 0.05),
    ])
    def test_an_estimator_builds_a_grid_exactly_where_its_price_chooses_one(self, monkeypatch, z, n, h):
        rng = np.random.default_rng(16)
        pat = PointPattern(rng.uniform(0.0, z, n), rng.beta(3.0, 3.0, n), Window(z))
        builds = record_calls(monkeypatch, "_build_node_grid")
        for deg in (0.0, 1.0, 6.0, -10.0, 45.0, 84.0, -89.0):
            before = len(builds)
            est = SubstationaryIntensity(pat, Subspace.from_degrees(deg), h)
            lo, hi, targets = est._plan.lo, est._plan.hi, n + est._plan.nodes.size
            assert est._plan.layout == _node_layout(h, lo, hi)
            # n*m against 75 times n + m + G
            grid = n * targets > 75 * (n + targets + _node_layout(h, lo, hi)[2])
            assert (est._nodes is not None) == grid
            assert len(builds) - before == grid

    # each workload's estimators: a table1-z1 cell (n near 100 at z=1, h=0.01) and
    # table2-z10's (n near 1000 at z=10, h=0.05) over the bounded search,
    # apply-open-n1e3 (n=1000 at z=10) over the open one and its CV candidates at
    # the axis, apply-bounded-n1e4 (n=10**4 at z=100) over the bounded search and
    # its candidates; then the sizes where the direct sum and the grid cross
    @pytest.mark.parametrize("z, sizes, bandwidths, degrees, grid", [
        (1.0, (70, 100, 140), (0.01,), (-6.0, -0.1, 0.0, 0.1, 3.0, 6.0), False),
        (10.0, (900, 1000, 1100), (0.05,), (-6.0, -0.1, 0.0, 0.1, 3.0, 6.0), True),
        (10.0, (1000,), (0.05, 0.1), (-90.0, -45.0, -12.0, 0.0, 3.0, 45.0, 84.0, 89.0), True),
        (10.0, (1000,), (0.02, 0.05, 0.1), (0.0,), True),
        (100.0, (10_000,), (0.05,), (-6.0, 0.0, 0.1, 6.0), True),
        (100.0, (10_000,), (0.02, 0.1), (0.0,), True),
        (100.0, (10_000,), (0.05,), (-90.0, -45.0, 45.0, 84.0), True),
        (3.0, (300,), (0.02,), (3.0, 45.0), True),
    ])
    def test_each_workloads_estimators_keep_their_path(self, z, sizes, bandwidths, degrees, grid):
        rng = np.random.default_rng(38)
        for n in sizes:
            pat = PointPattern(rng.uniform(0.0, z, n), rng.beta(3.0, 3.0, n), Window(z))
            for h in bandwidths:
                for deg in degrees:
                    est = SubstationaryIntensity(pat, Subspace.from_degrees(deg), h)
                    assert (est._nodes is not None) == grid, (n, h, deg)

    def test_dispatch_follows_the_price(self, monkeypatch):
        rng = np.random.default_rng(14)
        calls = record_calls(monkeypatch, "_interpolated_sums")
        builds = record_calls(monkeypatch, "_lattice_sums")

        def across(z, h):  # the plan of the offsets x of a z x 1 window: its range is [0, z]
            return kernels._plan(Subspace(-math.pi / 2), Window(z), h)

        small, grid = np.sort(rng.uniform(0, 1, 100)), np.linspace(0.0, 1.0, 400)
        # a call without a node grid is the direct sum, bit for bit; small
        # data get no node grid, priced against their 100 + 24-60 targets
        for h in (0.01, 0.05, 0.2):
            for data, z in ((small, 1.0), (10 * small, 10.0)):
                want = _direct_sums(h, data, grid)
                assert np.array_equal(_gaussian_sums(h, data, grid), want)
                assert _node_grid(h, data, across(z, h)) is None
        assert calls == [] and builds == []
        # large data get a grid, and a 1-D call with it reads the sums off it
        large = rng.uniform(0, 1, 2000)
        nodes = _node_grid(0.05, np.sort(large), across(1.0, 0.05))
        assert nodes is not None and len(builds) == 1
        assert nodes.sums.size == 5 * 20 + 20  # 1/(h/5) nodes over the range, 20 beside
        _gaussian_sums(0.05, large, large, nodes=nodes)
        assert len(calls) == 1
        # the grid is priced by its nodes as well as its data: 1000 data
        # over 10 units at h = 0.002 would need 25 021 nodes, which do not
        # pay on 1060 targets; at h = 0.02, 2521 nodes do
        spread = np.sort(rng.uniform(0, 10, 1000))
        for h, count, pays in ((0.002, 25_021, False), (0.02, 2521, True)):
            assert (across(10.0, h).layout[2], across(10.0, h).nodes.size) == (count, 60)
            assert (_node_grid(h, spread, across(10.0, h)) is not None) == pays
        assert len(builds) == 2
        # two axes take their own product form, never a node grid
        _direct_sums(0.05, large, large, (large, large))
        assert len(calls) == 1

    def test_targets_on_nodes_take_the_direct_sum(self, monkeypatch):
        # a target on a node has an infinite barycentric weight and reads NaN,
        # which fails the guard; the last one's stencil lies beyond the floor
        # of every datum, where the nodes read 0 and the infinite weight meets
        # 0, so its guard reads the direct sum's exact 0 without summing
        h = 0.05
        data = synthetic_data("beta", 500, 1.0, h, seed=7)
        step = _node_layout(h, 0.0, 1.0)[1]
        targets = np.append(np.arange(101), 350) * step  # every target on a node
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, targets[-1]))
        assert np.isin(targets, node_positions(nodes)).all()
        assert np.all(nodes.sums[-kernels._STENCIL :] == 0.0)
        want = _direct_sums(h, data, targets)
        guarded = record_calls(monkeypatch, "_reached_sums")
        calls = record_calls(monkeypatch, "_direct_sums")
        for leave_out in (0.0, own_kernel(h)):
            got = _interpolated_sums(h, data, targets, leave_out, nodes)
            assert_relative(got, want - leave_out, 1e-12)
            # every target fell to the guard, and all but the last to the direct sum
            assert np.array_equal(np.concatenate([call[2] for call in guarded]), targets)
            assert np.array_equal(np.concatenate([call[2] for call in calls]), targets[:-1])
            assert want[-1] == 0.0 and got[-1] == 0.0 - leave_out
            guarded.clear()
            calls.clear()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["beta", "cluster", "cluster+isolated"]),
        n=st.integers(300, 2000),
        h=st.floats(0.01, 0.1),
        span=st.floats(1.0, 20.0),
        clusters=st.integers(1, 30),
        gap=st.sampled_from([0.0, 25.0, 40.0, 80.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lattice_nodes_match_the_direct_sums(self, kind, n, h, span, clusters, gap, seed):
        # a gap of 25 bandwidths or more leaves nodes beyond the reach of every datum
        data = split_data(synthetic_data(kind, n, span, h, seed, clusters), span, gap * h)
        top = span + gap * h
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, top))
        assert_relative(nodes.sums, _direct_sums(h, data, node_positions(nodes)), 1e-12)
        own = own_kernel(h)
        for targets, leave_out in ((data, 0.0), (midpoint_grid(top), 0.0), (data, own)):
            got = _interpolated_sums(h, data, targets, leave_out, nodes)
            assert_relative(got, _direct_sums(h, data, targets) - leave_out, 1e-10)

    def test_node_guard_takes_nodes_beyond_the_reach_directly(self, monkeypatch):
        h = 0.02
        rng = np.random.default_rng(4)
        # two clusters 30 h apart: the nodes near the middle of the gap lie
        # more than 12 h from every datum, but within the floor's 37.6 h
        data = np.sort(rng.normal(np.repeat([0.5, 0.5 + 30 * h], 300), 0.5 * h))
        calls = record_calls(monkeypatch, "_direct_sums")
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, 1.5))
        at = node_positions(nodes)
        want = _direct_sums(h, data, at)
        beyond = np.min(np.abs(at[:, None] - data), axis=1) > kernels._REACH * h
        middle = beyond & (at > 0.5) & (at < 0.5 + 30 * h)
        assert middle.any() and np.all(want[middle] > 0.0)
        # each node beyond the reach reads the direct sum's tiny value, not 0
        assert_relative(nodes.sums, want, 1e-12)
        assert np.array_equal(nodes.sums[beyond], want[beyond])
        # one guarded call, on the guarded nodes only
        assert len(calls) == 1 and np.all(np.isin(at[beyond], calls[0][2]))
        assert calls[0][2].size < at.size
        # without the left-out terms the guard redoes only the nodes that read
        # exactly 0, and the nodes at the edge of the reach, which sum part of
        # a cluster, are off
        monkeypatch.setattr(kernels, "_TAIL", 0.0)
        unguarded = _build_node_grid(h, data, _node_layout(h, 0.0, 1.5)).sums
        assert len(calls) == 2 and calls[1][2].size < calls[0][2].size
        positive = want > 0
        assert np.max(np.abs(unguarded - want)[positive] / want[positive]) > 1e-12

    def test_guarded_values_beyond_the_floor_of_every_datum_are_never_summed(self, monkeypatch):
        # the gapped set: 20 clusters 3 h wide over a span of 100 (n = 10**4,
        # h = 0.01), where most guarded nodes lie beyond the floor of every datum
        h, n, span = 0.01, 10_000, 100.0
        rng = np.random.default_rng(0)
        centres = rng.uniform(0.0, span, 20)
        data = np.sort(centres[rng.integers(0, 20, n)] + rng.uniform(-1.5 * h, 1.5 * h, n))
        reach = kernels._FLOOR_REACH * h

        def in_reach(at):  # whether a datum lies within the floor's reach of each point
            i = np.clip(np.searchsorted(data, at), 1, n - 1)
            return np.minimum(np.abs(at - data[i - 1]), np.abs(at - data[i])) <= reach

        guarded = record_calls(monkeypatch, "_reached_sums")
        directs = record_calls(monkeypatch, "_direct_sums")
        start = time.perf_counter()
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, span))
        built = [time.perf_counter() - start]
        guarded_nodes = guarded[0][2]
        targets = midpoint_grid(span, 40_000)
        got = _interpolated_sums(h, data, targets, 0.0, nodes)
        guarded_targets = np.concatenate([call[2] for call in guarded[1:]])
        cases = [
            (guarded_nodes, nodes.sums[np.isin(node_positions(nodes), guarded_nodes)], directs[0][2]),
            (
                guarded_targets,
                got[np.isin(targets, guarded_targets)],
                np.concatenate([call[2] for call in directs[1:]]),
            ),
        ]
        for at, values, summed in cases:
            # only the guarded values with a datum in reach are summed, and most are not
            assert np.array_equal(summed, at[in_reach(at)])
            assert summed.size < 0.3 * at.size
            # each skipped value is the direct sum's exact 0 (a sample of them)
            skipped = ~in_reach(at)
            assert np.all(values[skipped] == 0.0)
            assert np.array_equal(_direct_sums(h, data, at[skipped][::20]), values[skipped][::20])
        # the direct sums of every guarded node over all the data, as taken
        # before the reach was checked, timed on a sixteenth of the nodes and
        # interleaved with builds: the grid builds at least 5 times faster
        sample, full = guarded_nodes[::16], []
        for _ in range(3):
            start = time.perf_counter()
            _direct_sums(h, data, sample)
            full.append((time.perf_counter() - start) * guarded_nodes.size / sample.size)
            start = time.perf_counter()
            _build_node_grid(h, data, _node_layout(h, 0.0, span))
            built.append(time.perf_counter() - start)
        assert 5 * min(built) < min(full)

    def test_data_beyond_the_nodes_are_counted(self):
        h = 0.05
        rng = np.random.default_rng(9)
        # data on [0, 3] against nodes over [1, 2]: the data within 12 h of
        # the nodes enter the lattice, and the guard counts every other one
        data = np.sort(rng.uniform(0.0, 3.0, 2000))
        nodes = _build_node_grid(h, data, _node_layout(h, 1.0, 2.0))
        origin, step, count = _node_layout(h, 1.0, 2.0)
        _, inside = _lattice_sums(h, data, origin, step, count)
        assert np.all(inside < data.size)
        assert_relative(nodes.sums, _direct_sums(h, data, node_positions(nodes)), 1e-12)

    def test_the_lattice_sums_shuffled_data_and_the_guards_sorted_data(self):
        # the lattice bins each datum by its node, so any order gives its sums
        # up to rounding; the guards find each value's reach by
        # np.searchsorted, so the node grid and the interpolated path take the
        # data sorted
        h = 0.05
        data = synthetic_data("beta", 2000, 20.0, h, seed=8)
        origin, step, count = _node_layout(h, 0.0, 20.0)
        at = origin + step * np.arange(count)
        for given in (data, np.random.default_rng(8).permutation(data)):
            sums, inside = _lattice_sums(h, given, origin, step, count)
            # the nodes whose left-out terms the guard would let stand
            kept = (data.size - inside) * (kernels._TAIL / h) < kernels._TAIL_RTOL * sums
            assert kept.mean() > 0.9
            assert_relative(sums[kept], _direct_sums(h, data, at[kept]), 1e-12)
        nodes = _build_node_grid(h, data, _node_layout(h, 0.0, 20.0))
        assert_relative(nodes.sums, _direct_sums(h, data, at), 1e-12)
        for targets, leave_out in ((data, own_kernel(h)), (midpoint_grid(20.0), 0.0)):
            want = _direct_sums(h, data, targets) - leave_out
            got = _gaussian_sums(h, data, targets, loo=leave_out > 0.0, nodes=nodes)
            assert_relative(got, want, 1e-10)


class TestLatticeBlocks:
    """The node stage's BLAS products, taken a block of lags and of nodes at a time."""

    @pytest.fixture(scope="class")
    def open_range(self):
        # a z = 1000 window seen at 75 degrees: over 10**5 nodes across its open range
        h, window, sub = 0.04, Window(1000.0, 1.0), Subspace(math.radians(75.0))
        rng = np.random.default_rng(21)
        _, v = project_xy(sub, rng.uniform(0.0, 1000.0, 20_000), rng.uniform(0.0, 1.0, 20_000))
        return h, np.sort(v), *v_range(sub, window)

    def test_no_product_block_exceeds_the_chunk_and_the_nodes_stay_exact(self, monkeypatch, open_range):
        h, data, lo, hi = open_range
        blocks = record_calls(monkeypatch, "matmul", owner=np)
        nodes = _build_node_grid(h, data, _node_layout(h, lo, hi))
        assert nodes.sums.size >= 10**5
        sizes = [taps.shape[0] * moments.shape[1] for taps, moments in blocks]
        assert len(sizes) > 100 and max(sizes) <= kernels._CHUNK_ELEMENTS
        sample = np.random.default_rng(22).choice(nodes.sums.size, 500, replace=False)
        want = _direct_sums(h, data, node_positions(nodes)[sample])
        assert_relative(nodes.sums[sample], want, 1e-12)

    def test_blocks_of_hundreds_and_of_thousands_of_nodes_agree(self, monkeypatch, open_range):
        h, data, lo, hi = open_range
        rows = -(-(2 * kernels._LAGS + 1) // 3)  # so many nodes take the lags in thirds
        sums = []
        for width in (300, 3000):
            monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", rows * (width + rows))
            blocks = record_calls(monkeypatch, "matmul", owner=np)
            sums.append(_build_node_grid(h, data, _node_layout(h, lo, hi)).sums)
            taps, moments = blocks[0]
            assert taps.shape[0] == rows and 0.9 * width <= moments.shape[1] - rows <= width
        assert_relative(sums[0], sums[1], 1e-15)


def unfloored_block(h, offsets):
    """The kernel block without the floor: every exponent through np.exp."""
    offsets /= h
    offsets *= offsets
    offsets *= -0.5
    with np.errstate(under="ignore"):
        return np.exp(offsets, out=offsets)


class TestExponentFloor:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        h=st.floats(1e-3, 0.1),
        span=st.floats(0.05, 10.0),
        n=st.integers(1, 800),
        m=st.integers(1, 800),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_terms_past_the_floor_vanish_and_no_other_value_moves(self, h, span, n, m, seed):
        # data on the lower half of the span, targets over all of it, so
        # some targets lie past the floor of every datum
        rng = np.random.default_rng(seed)
        data = np.sort(rng.uniform(0.0, span / 2, n))
        targets = rng.uniform(0.0, span, m)
        exponents = (data - targets[:, None]) / h
        exponents *= exponents
        exponents *= -0.5
        block = kernels._kernel_block(h, data - targets[:, None])
        below = exponents < kernels._EXP_FLOOR
        assert np.all(block[below] == 0.0)
        assert np.array_equal(block[~below], np.exp(exponents[~below]))
        everywhere_below = below.all(axis=1)

        def lattice_path(h, d, t):
            return _gaussian_sums(h, d, t, nodes=_build_node_grid(h, d, _node_layout(h, 0.0, span)))

        for path in (_direct_sums, lattice_path):
            got = path(h, data, targets)
            with mock.patch.object(kernels, "_kernel_block", unfloored_block):
                want = path(h, data, targets)
            assert np.all(got[everywhere_below] == 0.0)
            kept = want >= 1e-250
            assert np.array_equal(got[kept], want[kept])


def beta_pattern(n, seed):
    """n points, uniform along a window n/100 wide (at least 1) and Beta(3, 3) across it."""
    rng = np.random.default_rng(seed)
    z = max(1.0, n / 100)
    return PointPattern(rng.uniform(0, z, n), rng.beta(3.0, 3.0, n), Window(z, 1.0))


class TestSharedNodeGrid:
    """One node grid per estimator serves every one of its calls."""

    @pytest.mark.parametrize("n", [2, 100, 1000, 5000])
    @pytest.mark.parametrize(
        "theta", [0.0, 1e-310, math.radians(3), math.pi / 4, math.radians(89.9)]
    )
    def test_every_call_stays_within_1e_10_of_the_direct_sum(self, n, theta):
        pat = beta_pattern(n, seed=n)
        for h in (0.01, 0.05, 0.1):
            est = SubstationaryIntensity(pat, theta, h)
            lo, hi = est._plan.lo, est._plan.hi
            _, v_data = project_xy(est.theta, pat.x, pat.y)
            ends = np.array([lo - _DOMAIN_TOL, hi + _DOMAIN_TOL])

            def direct(v, leave_out=0.0):
                sums = _direct_sums(h, est._v_data, v) - leave_out
                return sums / correction_substat_closed(est.theta, pat.window, h, v)

            assert_relative(est.at_points(pat.x, pat.y), direct(v_data), 1e-10)
            assert_relative(est.loo_values(), direct(est._v_data, own_kernel(h)), 1e-10)
            assert_relative(est.evaluate(ends), direct(ends), 1e-10)
            # the integral's own nodes and weights, summed directly
            nodes, weights = est._plan.nodes, est._plan.weights
            chords = chord_measure(est.theta, pat.window, nodes)
            excess = correction_substat_closed(est.theta, pat.window, h, nodes) - chords
            want = _kernel_mass(h, est._v_data, lo, hi) - float(weights @ (direct(nodes) * excess))
            assert est.integral() == pytest.approx(want, rel=1e-10, abs=0)

    def test_the_data_of_large_patterns_near_the_axis_are_interpolated(self):
        for n in (1000, 5000):
            for theta in (0.0, 1e-310, math.radians(3)):
                est = SubstationaryIntensity(beta_pattern(n, seed=n), theta, 0.05)
                assert est._nodes is not None
        assert SubstationaryIntensity(beta_pattern(100, seed=100), 0.0, 0.05)._nodes is None

    # the sizes about the crossover of the direct sum and the grid, on Beta,
    # clustered and gapped data: the grid over each estimator's plan, built
    # whether or not it pays, holds every value within 1e-10 of the direct sum
    @pytest.mark.parametrize("kind", ["beta", "cluster", "gapped"])
    @pytest.mark.parametrize("deg", [0.0, 3.0, 45.0, 84.0])
    def test_the_grid_holds_about_the_crossover(self, kind, deg):
        taken = 0
        for n in (150, 200, 300, 500):
            rng = np.random.default_rng(n)
            # y on [0, 1]: Beta(3, 3), three clusters of 0.002-0.04, or Beta with 0.4-0.6 empty
            y = {
                "beta": lambda: synthetic_data("beta", n, 1.0, 0.02, n),
                "cluster": lambda: synthetic_data("cluster", n, 1.0, 0.02, n, clusters=3),
                "gapped": lambda: split_data(synthetic_data("beta", n, 0.8, 0.02, n), 0.8, 0.2),
            }[kind]()
            pat = PointPattern(rng.uniform(0.0, n / 100, n), y, Window(n / 100))
            for h in (0.01, 0.02, 0.05):
                est = SubstationaryIntensity(pat, Subspace.from_degrees(deg), h)
                data, taken = est._v_data, taken + (est._nodes is not None)
                nodes = _build_node_grid(h, data, est._plan.layout)
                cells = _cells(est)[0][0]
                assert cells.size == 512
                for targets, loo in ((est._v_points, False), (data, True), (est._plan.nodes, False), (cells, False)):
                    want = _direct_sums(h, data, targets) - (own_kernel(h) if loo else 0.0)
                    assert_relative(_gaussian_sums(h, data, targets, loo=loo, nodes=nodes), want, 1e-10)
        assert taken > 0

    @pytest.mark.parametrize("n", [100, 1000])
    def test_call_order_never_changes_a_value(self, n):
        pat = beta_pattern(n, seed=3)
        grid = np.linspace(*v_range(Subspace(0.02), pat.window), 97)
        calls = {
            "at_points": lambda est: est.at_points(pat.x, pat.y),
            "evaluate": lambda est: est.evaluate(grid),
            "integral": lambda est: np.array([est.integral()]),
            "loo_values": lambda est: est.loo_values(),
        }
        first = SubstationaryIntensity(pat, 0.02, 0.05)
        second = SubstationaryIntensity(pat, 0.02, 0.05)
        forward = {name: call(first) for name, call in calls.items()}
        backward = {name: call(second) for name, call in reversed(calls.items())}
        for name in calls:
            assert np.array_equal(forward[name], backward[name]), name

    @pytest.mark.parametrize("loo", [False, True])
    def test_one_loglik_builds_the_node_grid_once(self, monkeypatch, loo):
        pat = beta_pattern(1000, seed=4)
        builds = record_calls(monkeypatch, "_build_node_grid")
        lattices = record_calls(monkeypatch, "_lattice_sums")
        reads = record_calls(monkeypatch, "_interpolated_sums")
        loglik(pat, SubstationaryIntensity(pat, 0.01, 0.05), loo=loo)
        assert len(builds) == 1
        assert len(lattices) == 1  # the node stage; every value is read off the nodes
        assert len(reads) == 2  # the point term and the integral
        assert reads[0][4] is reads[1][4]

    def test_a_bounded_fit_near_the_axis_sums_no_node_over_all_the_data(self, monkeypatch):
        # near the axis the data reach every node, so no node stage sums them directly
        pat = beta_pattern(2500, seed=6)
        builds = record_calls(monkeypatch, "_build_node_grid")
        directs = record_calls(monkeypatch, "_direct_sums")
        fit_theta(pat, 0.05, search_halfwidth_deg=6.0, threads=1)
        counts = [layout[2] for _, _, layout in builds]
        assert len(builds) > 10
        # direct sums run on guarded nodes and targets only
        assert all(t.size < min(counts) for _, _, t in directs)
        assert sum(t.size for _, _, t in directs) < 0.01 * sum(counts)
