import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chisquare, kstest
from scipy.stats import beta as beta_dist

import substat
from substat.geometry import Window
from substat.simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    _simulate_parents,
    beta_sampler,
    simulate_poisson_beta,
    simulate_thomas,
)


def box_count(pattern, x0, x1, y0, y1):
    inside = (
        (pattern.x >= x0) & (pattern.x < x1) & (pattern.y >= y0) & (pattern.y < y1)
    )
    return int(np.sum(inside))


class TestRngStream:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError, match="^master_seed must be an integer >= 0, got -1$"):
            RngStream(-1, 0)
        with pytest.raises(ValueError, match="^stream_index must be an integer >= 0, got -2$"):
            RngStream(0, -2)
        with pytest.raises(ValueError, match=r"^stream_index must be an integer >= 0, got np.int8\(-2\)$"):
            RngStream(0, np.int8(-2))

    def test_numpy_integers_draw_as_the_equal_int(self):
        a = RngStream(np.int64(7), np.uint64(3)).generator().uniform(size=5)
        b = RngStream(7, 3).generator().uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_decorrelate(self):
        a = RngStream(7, 0).generator().uniform(size=5)
        b = RngStream(7, 1).generator().uniform(size=5)
        assert not np.array_equal(a, b)

    def test_same_stream_reproduces(self):
        a = RngStream(7, 3).generator().uniform(size=5)
        b = RngStream(7, 3).generator().uniform(size=5)
        assert np.array_equal(a, b)


class TestBetaSampler:
    @pytest.mark.parametrize("a", [0.5, np.inf, np.nan, -np.inf, 0.0, -1.0, 0.999])
    def test_the_sampler_and_the_model_refuse_the_same_shapes(self, a):
        message = f"^shape parameter a must be finite and >= 1, got {a}$"
        with pytest.raises(ValueError, match=message):
            beta_sampler(a, RngStream(0), 3)
        with pytest.raises(ValueError, match=message):
            PoissonBetaModel(a, Window(1.0))

    @pytest.mark.parametrize("a", [1.0, 2.5, 1e6])
    def test_the_sampler_and_the_model_accept_the_same_shapes(self, a):
        draws = beta_sampler(a, RngStream(0), 3)
        assert draws.shape == (3,) and np.all((draws >= 0.0) & (draws <= 1.0))
        assert PoissonBetaModel(a, Window(1.0)).a == a

    def test_uniform_case_passes_ks(self):
        draws = beta_sampler(1.0, RngStream(11, 0), size=10_000)
        assert kstest(draws, "uniform").pvalue > 0.01

    def test_a2_moments(self):
        draws = beta_sampler(2.0, RngStream(12, 0), size=50_000)
        se_mean = np.sqrt(0.05 / draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se_mean
        # Var(Beta(2,2)) = 0.05; allow 3 MC SEs of the sample variance
        var = draws.var(ddof=1)
        se_var = np.sqrt(np.var((draws - 0.5) ** 2, ddof=1) / draws.size)
        assert abs(var - 0.05) < 3 * se_var

    def test_a3_median_symmetry(self):
        draws = beta_sampler(3.0, RngStream(13, 0), size=20_000)
        frac = np.mean(draws < 0.5)
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / draws.size)

    def test_scalar_draw_in_unit_interval(self):
        val = beta_sampler(2.5, RngStream(14, 0))
        assert 0.0 < float(val) < 1.0


class TestPoissonBeta:
    def test_rejects_bad_models(self):
        with pytest.raises(ValueError):
            PoissonBetaModel(0.9, Window(1.0))
        with pytest.raises(ValueError):
            PoissonBetaModel(2.0, Window(1.0, 2.0))  # needs unit height

    def test_expected_count_scales_with_width(self):
        assert PoissonBetaModel(2.0, Window(7.0)).expected_count == 700.0

    def test_points_inside_window(self):
        pat = simulate_poisson_beta(PoissonBetaModel(2.0, Window(3.0)), RngStream(5, 0))
        assert np.all((pat.x >= 0) & (pat.x <= 3.0))
        assert np.all((pat.y >= 0) & (pat.y <= 1.0))

    def test_mean_count_matches_intensity_mass(self):
        model = PoissonBetaModel(1.0, Window(1.0))
        counts = [simulate_poisson_beta(model, RngStream(42, i)).n for i in range(1000)]
        assert abs(np.mean(counts) - 100.0) < 3 * np.sqrt(100.0 / 1000)

    def test_uniform_case_mean_height(self):
        model = PoissonBetaModel(1.0, Window(1.0))
        ys = np.concatenate(
            [simulate_poisson_beta(model, RngStream(21, i)).y for i in range(100)]
        )
        assert abs(ys.mean() - 0.5) < 3 * np.sqrt(1.0 / 12 / ys.size)

    def test_a3_height_moments(self):
        model = PoissonBetaModel(3.0, Window(1.0))
        ys = np.concatenate(
            [simulate_poisson_beta(model, RngStream(22, i)).y for i in range(200)]
        )
        var = 1.0 / 28.0
        assert abs(ys.mean() - 0.5) < 3 * np.sqrt(var / ys.size)
        se_var = np.sqrt(np.var((ys - 0.5) ** 2, ddof=1) / ys.size)
        assert abs(ys.var(ddof=1) - var) < 3 * se_var

    def test_height_histogram_matches_beta_density(self):
        # pooled heights against the Beta(2,2) bin masses, chi-square at 1%
        model = PoissonBetaModel(2.0, Window(10.0))
        ys = np.concatenate(
            [simulate_poisson_beta(model, RngStream(23, i)).y for i in range(100)]
        )
        assert ys.size > 90_000
        edges = np.linspace(0, 1, 21)
        observed, _ = np.histogram(ys, bins=edges)
        masses = np.diff(beta_dist.cdf(edges, 2, 2))
        expected = masses / masses.sum() * observed.sum()
        assert chisquare(observed, expected).pvalue > 0.01

    def test_bitwise_determinism(self):
        model = PoissonBetaModel(2.0, Window(2.0))
        p1 = simulate_poisson_beta(model, RngStream(9, 4))
        p2 = simulate_poisson_beta(model, RngStream(9, 4))
        assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.y, p2.y)

    def test_intensity_is_scaled_beta_density(self):
        # the endpoints, points just outside [0, 1] and a dense interior grid
        y = np.concatenate(([-0.01, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 1.01], np.linspace(0, 1, 1001)))
        for a in (1.0, 1.5, 2.0, 2.5, 3.0):
            got = PoissonBetaModel(a, Window(1.0)).intensity(y)
            want = 100 * beta_dist.pdf(y, a, a)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        # a = 1 is the uniform profile: exactly 100 on the closed interval
        inside = (y >= 0.0) & (y <= 1.0)
        assert np.all(PoissonBetaModel(1.0, Window(1.0)).intensity(y[inside]) == 100.0)

    def test_package_import_leaves_scipy_stats_out(self):
        code = "import sys, substat; assert 'scipy.stats' not in sys.modules"
        src = os.path.dirname(os.path.dirname(substat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_translation_equality_within_invariance_subspace(self):
        # counts in a box and its horizontal translate agree in expectation
        model = PoissonBetaModel(2.0, Window(1.0))
        diffs = []
        for i in range(500):
            pat = simulate_poisson_beta(model, RngStream(31, i))
            diffs.append(
                box_count(pat, 0.0, 0.2, 0.1, 0.3) - box_count(pat, 0.5, 0.7, 0.1, 0.3)
            )
        diffs = np.array(diffs, dtype=float)
        se = np.std(diffs, ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3 * se


class TestThomas:
    def test_rejects_bad_parameters(self):
        base = PoissonBetaModel(1.0, Window(1.0))
        with pytest.raises(ValueError):
            ThomasModel(base, gamma=0.0)
        with pytest.raises(ValueError):
            ThomasModel(base, sigma=-1.0)
        with pytest.raises(ValueError):
            ThomasModel(base, parent_buffer=-0.1)

    def test_parent_count_is_total_over_gamma(self):
        model = ThomasModel(PoissonBetaModel(1.0, Window(1.0)), gamma=5.0, sigma=0.02)
        counts = []
        for i in range(1000):
            px, _ = _simulate_parents(model, RngStream(51, i).generator())
            counts.append(px.size)
        assert abs(np.mean(counts) - 20.0) < 3 * np.sqrt(20.0 / 1000)

    def test_degenerate_scale_keeps_offspring_on_parents(self):
        model = ThomasModel(PoissonBetaModel(1.0, Window(1.0)), gamma=5.0, sigma=1e-9)
        # a stream's first draws are its parents
        pat = simulate_thomas(model, RngStream(52, 0))
        px, py = _simulate_parents(model, RngStream(52, 0).generator())
        assert pat.n > 0
        d2 = (pat.x[:, None] - px[None, :]) ** 2 + (pat.y[:, None] - py[None, :]) ** 2
        assert np.sqrt(d2.min(axis=1)).max() < 1e-6

    def test_mean_count_shows_small_boundary_loss(self):
        model = ThomasModel(PoissonBetaModel(1.0, Window(1.0)), gamma=5.0, sigma=0.02)
        counts = [simulate_thomas(model, RngStream(53, i)).n for i in range(1000)]
        mean = np.mean(counts)
        assert 92.0 <= mean <= 100.0

    def test_buffered_parents_remove_horizontal_edge_bias(self):
        # with a 4-sigma parent buffer, an edge box and an interior translate
        # should agree in expectation
        model = ThomasModel(
            PoissonBetaModel(1.0, Window(1.0)), gamma=5.0, sigma=0.02, parent_buffer=0.08
        )
        diffs = []
        for i in range(2000):
            pat = simulate_thomas(model, RngStream(54, i))
            diffs.append(
                box_count(pat, 0.0, 0.2, 0.1, 0.3) - box_count(pat, 0.5, 0.7, 0.1, 0.3)
            )
        diffs = np.array(diffs, dtype=float)
        se = np.std(diffs, ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3 * se

    def test_offspring_confined_to_window(self):
        model = ThomasModel(PoissonBetaModel(2.0, Window(2.0)), gamma=5.0, sigma=0.1)
        pat = simulate_thomas(model, RngStream(55, 0))
        assert np.all((pat.x >= 0) & (pat.x <= 2.0) & (pat.y >= 0) & (pat.y <= 1.0))

    def test_bitwise_determinism(self):
        model = ThomasModel(PoissonBetaModel(2.0, Window(2.0)), gamma=5.0, sigma=0.02)
        p1 = simulate_thomas(model, RngStream(56, 8))
        p2 = simulate_thomas(model, RngStream(56, 8))
        assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.y, p2.y)
