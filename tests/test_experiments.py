import math

import numpy as np
import pytest

from substat import estimate, kernels
from substat.estimate import (
    GRID_CELLS_1D,
    StationaryIntensity,
    SubstationaryIntensity,
    _coarse_angles,
)
from substat.experiments import (
    TABLE2_ESTIMATORS,
    CellSummary,
    ExperimentPlan,
    integrated_squared_error,
    replication_stream,
    run_table1,
    run_table2,
    write_result_csv,
)
from substat.geometry import PointPattern, Subspace, Window, project_xy
from substat.simulate import PoissonBetaModel, RngStream, simulate_poisson_beta


def table1_plan(**kw):
    base = dict(
        process="poisson",
        a_values=(2.0,),
        z_values=(1.0,),
        h_values=(0.05,),
        replications=3,
        master_seed=99,
        target="table1",
    )
    base.update(kw)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_direction_sweep_rejects_a_equal_one(self):
        with pytest.raises(ValueError):
            table1_plan(a_values=(1.0, 2.0))

    def test_table2_allows_a_equal_one(self):
        plan = table1_plan(a_values=(1.0,), target="table2")
        assert plan.a_values == (1.0,)

    def test_rejects_empty_lists_and_bad_counts(self):
        with pytest.raises(ValueError):
            table1_plan(a_values=())
        with pytest.raises(ValueError):
            table1_plan(replications=0)
        with pytest.raises(ValueError):
            table1_plan(process="strauss")
        with pytest.raises(ValueError):
            table1_plan(target="table3")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(a_values=(3.0, 0.5)),
            dict(z_values=(5.0, -1.0)),
            dict(h_values=(0.05, 0.0)),
            dict(h_values=(0.05, math.nan)),
        ],
    )
    def test_every_cell_value_is_checked_before_the_sweep(self, bad):
        with pytest.raises(ValueError):
            table1_plan(**bad)

    # a repeated value would run its cells twice and keep one row of them
    @pytest.mark.parametrize(
        "name, values, repeated",
        [
            ("a_values", (2, 3.0, 2.0), "2.0"),
            ("z_values", (1.0, 1), "1.0"),
            ("h_values", (0.05, 0.1, 0.05), "0.05"),
        ],
    )
    def test_a_repeated_value_raises_naming_it(self, name, values, repeated):
        with pytest.raises(ValueError, match=f"^{name} repeats {repeated}$"):
            table1_plan(**{name: values})
        assert getattr(table1_plan(**{name: values[1:]}), name) == tuple(map(float, values[1:]))

    @pytest.mark.parametrize("halfwidth", [0.0, -1.0, 90.5, math.nan, math.inf])
    def test_a_bad_search_halfwidth_raises_when_the_plan_is_built(self, halfwidth):
        with pytest.raises(ValueError, match="search_halfwidth_deg"):
            table1_plan(search_halfwidth_deg=halfwidth)

    # the seed's owner is RngStream and a Thomas plan's is ThomasModel; each
    # refuses its value here, not when the sweep reaches the first cell
    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(master_seed=1.5), "master_seed must be an integer >= 0, got 1.5"),
            (dict(master_seed=-1), "master_seed must be an integer >= 0, got -1"),
            (dict(master_seed=True), "master_seed must be an integer >= 0, got True"),
            (dict(replications=0), "replications must be an integer >= 1, got 0"),
            (dict(replications=2.0), "replications must be an integer >= 1, got 2.0"),
            (dict(replications=2.5), "replications must be an integer >= 1, got 2.5"),
            (dict(replications=True), "replications must be an integer >= 1, got True"),
            (dict(process="thomas", gamma=-1.0), "gamma must be positive, got -1.0"),
            (dict(process="thomas", sigma=math.nan), "sigma must be positive, got nan"),
        ],
    )
    def test_a_bad_plan_value_raises_naming_it_when_the_plan_is_built(self, bad, message):
        with pytest.raises(ValueError, match=f"{message}$"):
            table1_plan(**bad)

    # a count or a seed may be a numpy integer, and draws as the equal int does
    def test_numpy_integers_are_a_plan_count_and_seed(self, tmp_path):
        as_int = run_table1(table1_plan(replications=2, master_seed=7), threads=1)
        as_numpy = run_table1(table1_plan(replications=np.int64(2), master_seed=np.uint32(7)), threads=1)
        write_result_csv(as_int, tmp_path / "int.csv")
        write_result_csv(as_numpy, tmp_path / "numpy.csv")
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_a_poisson_plan_ignores_the_cluster_parameters(self):
        assert table1_plan(gamma=-1.0, sigma=math.nan).gamma == -1.0
        assert table1_plan(process="thomas", gamma=2.0, sigma=0.05).sigma == 0.05

    @pytest.mark.parametrize("halfwidth", [None, 6, 90])
    def test_a_search_halfwidth_is_kept_as_given(self, halfwidth):
        assert table1_plan(search_halfwidth_deg=halfwidth).search_halfwidth_deg is halfwidth


class TestReplicationStream:
    def test_stable_hash_regression(self):
        # the stream key format is load-bearing: changing it silently
        # reseeds every published cell
        stream = replication_stream(5, "poisson", 2.0, 1.0, 0.05, 7)
        assert stream.master_seed == 5
        assert stream.stream_index == 7834408543501122317

    def test_cells_get_distinct_streams(self):
        seen = {
            replication_stream(1, p, a, z, h, r).stream_index
            for p in ("poisson", "thomas")
            for a in (1.5, 2.0)
            for z in (1.0, 2.0)
            for h in (0.01, 0.05)
            for r in range(3)
        }
        assert len(seen) == 48

    def test_float_formatting_is_canonical(self):
        a = replication_stream(1, "poisson", 2, 1, 0.05, 0)
        b = replication_stream(1, "poisson", 2.0, 1.0, 0.05, 0)
        assert a == b


class TestRootMise:
    def test_perfect_estimator_scores_zero(self):
        pat = PointPattern([0.3, 0.6], [0.2, 0.8], Window(1, 1))
        est = StationaryIntensity(pat)
        truth = lambda v: np.full_like(np.asarray(v, dtype=float), est.value)
        assert integrated_squared_error(est, truth) == 0.0

    def test_stationary_estimator_matches_poisson_variance(self):
        # flat truth: root-MISE of n/|S| is sqrt(Var(n)) / |S| = 10 at z=1
        model = PoissonBetaModel(1.0, Window(1.0))
        ises = [
            integrated_squared_error(
                StationaryIntensity(simulate_poisson_beta(model, RngStream(81, i))),
                model.intensity,
            )
            for i in range(200)
        ]
        got = math.sqrt(np.mean(ises))
        assert 8.0 <= got <= 12.5

    def test_known_direction_cell_matches_published_value(self):
        # substationary smoother, known direction: a=1, z=10, h=0.1
        model = PoissonBetaModel(1.0, Window(10.0))
        ises = []
        for i in range(100):
            pat = simulate_poisson_beta(model, RngStream(82, i))
            est = SubstationaryIntensity(pat, 0.0, 0.1)
            ises.append(integrated_squared_error(est, model.intensity))
        got = math.sqrt(np.mean(ises))
        assert 4.0 <= got <= 7.5  # published 5.64

    def test_fitted_angle_score_is_continuous_at_the_axis(self):
        # the fitted angle once switched integration rules when it hit 0 exactly
        model = PoissonBetaModel(1.5, Window(1.0))
        pat = simulate_poisson_beta(model, RngStream(83, 0))
        on_axis, near_axis = (
            integrated_squared_error(SubstationaryIntensity(pat, t, 0.01), model.intensity)
            for t in (0.0, 1e-9)
        )
        assert near_axis == pytest.approx(on_axis, rel=1e-6)

    # at a=1.5 the profile has square-root edges, where the 2048-cell
    # reference itself is off by about 1.3e-5 (against 4096 cells); 16 Gauss
    # nodes instead of 64 miss it by 1.2e-4
    @pytest.mark.parametrize("a, theta, rel", [(3.0, 0.1, 1e-6), (1.5, 0.5, 5e-5)])
    def test_oblique_score_matches_a_fine_midpoint_reference(self, a, theta, rel):
        model = PoissonBetaModel(a, Window(1.0))
        pat = simulate_poisson_beta(model, RngStream(84, 0))
        est = SubstationaryIntensity(pat, theta, 0.02)
        cells = 2048
        mids = (np.arange(cells) + 0.5) / cells
        truth = model.intensity(mids)
        total = 0.0
        for rows in np.split(mids, 8):  # 2048 x 256 targets at a time
            _, v = project_xy(est.theta, rows[:, None], mids[None, :])
            total += np.sum((est.evaluate(v) - truth) ** 2)
        reference = total / cells**2
        assert integrated_squared_error(est, model.intensity) == pytest.approx(reference, rel=rel)

    def test_axis_score_is_the_chord_weighted_midpoint_sum(self):
        # on the axis the truth is constant along each chord
        model = PoissonBetaModel(2.0, Window(3.0))
        pat = simulate_poisson_beta(model, RngStream(85, 0))
        est = SubstationaryIntensity(pat, 0.0, 0.05)
        v = (np.arange(GRID_CELLS_1D) + 0.5) / GRID_CELLS_1D
        want = np.mean((est.evaluate(v) - model.intensity(v)) ** 2)
        assert integrated_squared_error(est, model.intensity) == pytest.approx(want, rel=1e-14)


class TestRunTable1:
    def test_single_replication_smoke(self):
        plan = table1_plan(a_values=(1.5, 2.0), h_values=(0.02, 0.05), replications=1)
        result = run_table1(plan)
        assert len(result.cells) == 4
        for summary in result.cells.values():
            assert math.isfinite(summary.metric_value)
            assert summary.replications == 1

    def test_target_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_table2(table1_plan())

    def test_metric_is_the_root_mean_squared_angle_in_degrees(self):
        plan = table1_plan(a_values=(1.5, 2.0), z_values=(1.0, 2.0), replications=3)
        result = run_table1(plan, threads=2)
        assert len(result.cells) == 4
        for summary in result.cells.values():
            deg = np.degrees(summary.samples)
            assert len(deg) == 3
            assert summary.metric_value == pytest.approx(math.sqrt(np.mean(deg**2)), rel=1e-12)

    def test_rmse_not_increasing_in_window_width(self):
        # wider windows carry more directional information and pin the
        # angle better; one inversion within 2 MC SEs would be tolerated
        plan = table1_plan(a_values=(2.5,), z_values=(1.0, 2.0, 5.0), replications=40)
        result = run_table1(plan, threads=2)
        cells = [result.cell("poisson", 2.5, z, 0.05, "theta_hat") for z in (1.0, 2.0, 5.0)]
        metrics = [c.metric_value for c in cells]
        ses = [c.mc_standard_error for c in cells]
        violations = [
            metrics[i + 1] - metrics[i] > 2 * math.hypot(ses[i], ses[i + 1])
            for i in range(2)
        ]
        assert sum(violations) == 0
        assert metrics[0] > metrics[2]


class TestRunTable2:
    def test_four_estimators_per_cell(self):
        plan = table1_plan(target="table2", replications=2)
        result = run_table2(plan)
        assert {k[-1] for k in result.cells} == set(TABLE2_ESTIMATORS)
        for summary in result.cells.values():
            assert summary.metric_value >= 0.0
            assert len(summary.samples) == 2

    def test_metric_is_the_root_mean_ise(self):
        plan = table1_plan(target="table2", z_values=(1.0, 2.0), replications=2)
        result = run_table2(plan, threads=2)
        assert len(result.cells) == 2 * len(TABLE2_ESTIMATORS)
        for summary in result.cells.values():
            want = math.sqrt(np.mean(summary.samples))
            assert summary.metric_value == pytest.approx(want, rel=1e-12)

    def test_known_direction_never_loses_to_fitted(self):
        plan = table1_plan(
            target="table2", a_values=(2.0,), z_values=(2.0,), replications=30
        )
        result = run_table2(plan, threads=2)
        known = result.cell("poisson", 2, 2, 0.05, "substat_known")
        fitted = result.cell("poisson", 2, 2, 0.05, "substat_fitted")
        slack = 2 * math.hypot(known.mc_standard_error, fitted.mc_standard_error)
        assert known.metric_value <= fitted.metric_value + slack

    def test_stationary_wins_under_flat_truth(self):
        # a=1 makes the pattern fully stationary; the constant estimator
        # should carry the smallest root-MISE of the four
        plan = ExperimentPlan(
            process="poisson",
            a_values=(1.0,),
            z_values=(1.0,),
            h_values=(0.05,),
            replications=500,
            master_seed=31,
            target="table2",
        )
        result = run_table2(plan, threads=2)
        values = {
            name: result.cell("poisson", 1, 1, 0.05, name).metric_value
            for name in TABLE2_ESTIMATORS
        }
        assert values["stationary"] == min(values.values())


class TestDeterminism:
    def test_same_plan_reproduces_bitwise(self):
        plan = table1_plan(replications=4)
        r1 = run_table1(plan, threads=1)
        r2 = run_table1(plan, threads=1)
        assert r1 == r2

    def test_thread_count_does_not_change_results(self, tmp_path, pools):
        plan = table1_plan(a_values=(1.5, 2.5), replications=4)
        serial = run_table1(plan, threads=1)
        assert not pools
        parallel = run_table1(plan, threads=4)
        assert pools == [4]  # one pool for every replication of both cells
        assert serial == parallel
        f1, f2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_result_csv(serial, f1)
        write_result_csv(parallel, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_negative_thread_count_is_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            run_table1(table1_plan(replications=1), threads=-1)

    # a sweep maps every replication of every cell at once: it forks from two
    # jobs, whatever its size, once
    @pytest.mark.parametrize("target, cells, replications, threads, built", [
        ("table1", 1, 1, 2, []),
        ("table1", 1, 2, 2, [2]),
        ("table1", 2, 1, 2, [2]),
        ("table1", 2, 2, 3, [3]),
        ("table2", 1, 2, 2, [2]),
        ("table2", 2, 1, 3, [2]),
    ])
    def test_a_sweep_of_two_jobs_forks_once(self, pools, target, cells, replications, threads, built):
        plan = table1_plan(target=target, a_values=(1.5, 2.5)[:cells], replications=replications)
        run = run_table1 if target == "table1" else run_table2
        serial = run(plan, threads=1)
        assert not pools
        assert run(plan, threads=threads) == serial
        assert pools == built

    def test_a_sweep_is_identical_at_any_worker_count(self, pools):
        plan = table1_plan(target="table2", replications=3)
        results = [run_table2(plan, threads=threads) for threads in (0, 1, 2, 3)]
        assert pools[-2:] == [2, 3]  # threads=0 takes one worker per CPU
        assert all(result == results[1] for result in results)

    def test_a_cell_builds_each_coarse_angles_plan_once(self, monkeypatch):
        # every replication's fit scores the same 13 coarse angles at the same
        # window and h: the first builds each angle's plan, the other 7 read it
        plan = table1_plan(a_values=(1.5,), h_values=(0.01,), replications=8)
        keys, build = [], kernels._plan

        def recording(subspace, window, h):
            keys.append((subspace, window, h))
            return build(subspace, window, h)

        for module in (kernels, estimate):  # every lookup of a plan
            monkeypatch.setattr(module, "_plan", recording)
        build.cache_clear()
        cold = run_table1(plan, threads=1)
        info = build.cache_info()
        assert len(set(keys)) <= info.maxsize == 128  # nothing was evicted
        assert (info.misses, info.hits) == (len(set(keys)), len(keys) - len(set(keys)))
        for theta in _coarse_angles(plan.search_halfwidth_deg)[0]:
            key = (Subspace(float(theta)), Window(1.0), 0.01)
            assert keys.count(key) >= 8
        assert run_table1(plan, threads=1).cells == cold.cells  # warm
        build.cache_clear()
        assert run_table1(plan, threads=1).cells == cold.cells

    def test_adding_cells_never_perturbs_existing_ones(self):
        small = table1_plan(a_values=(2.0,), replications=5)
        big = table1_plan(a_values=(2.0, 3.0), replications=5)
        r_small = run_table1(small)
        r_big = run_table1(big)
        key = ("poisson", 2.0, 1.0, 0.05, "theta_hat")
        assert r_small.cells[key] == r_big.cells[key]


class TestResultCsv:
    def test_layout(self, tmp_path):
        plan = table1_plan(replications=2)
        result = run_table1(plan)
        path = tmp_path / "out.csv"
        write_result_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "process,a,z,h,estimator,metric,mc_se,replications"
        assert len(lines) == 1 + len(result.cells)
        first = lines[1].split(",")
        assert first[0] == "poisson"
        assert first[4] == "theta_hat"
        assert int(first[7]) == 2
        assert float(first[5]) == result.cell("poisson", 2, 1, 0.05, "theta_hat").metric_value
