import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import substat
import substat.cli as cli
from substat.cli import load_config, main
from substat.estimate import (
    GRID_CELLS_1D,
    GRID_CELLS_2D,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    bandwidth_cv_scores,
    loglik,
)
from substat.experiments import integrated_squared_error
from substat.geometry import PointPattern, Window
from substat.io import (
    ApplicationReport,
    DataError,
    GridExport,
    MalformedDataError,
    RegionSpec,
    _field,
    export_intensity_grid,
    export_pattern_csv,
    ingest_csv,
    run_application_pipeline,
)
from substat.render import render_grid_svg
from substat.simulate import PoissonBetaModel, RngStream, simulate_poisson_beta


def record_calls(monkeypatch, name, owner):
    """Wrap ``owner.<name>`` to log the arguments of every call."""
    calls, original = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.fixture
def pattern():
    return simulate_poisson_beta(PoissonBetaModel(3.0, Window(2.0)), RngStream(17, 0))


class TestField:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(value=st.floats())
    @example(value=-math.inf)
    @example(value=1e-300)
    def test_floats_are_written_as_their_repr(self, value):
        assert _field(value) == repr(value)
        assert _field(np.float64(value)) == repr(value)

    def test_other_values_are_written_as_by_hand(self):
        assert _field(np.bool_(True)) == _field(True) == "true"
        assert _field(np.bool_(False)) == _field(False) == "false"
        assert _field(7) == _field(np.int64(7)) == "7"
        assert _field("poisson") == "poisson"
        assert _field(None) == "none"


class TestRegionSpec:
    def test_rejects_degenerate_rectangles(self):
        with pytest.raises(ValueError):
            RegionSpec(0, 0, 0, 1)
        with pytest.raises(ValueError):
            RegionSpec(0, 1, 2, 1)

    def test_study_rectangle_in_degrees(self):
        region = RegionSpec(-117.0, -110.0, 54.7, 58.0)
        assert region.window.z == pytest.approx(7.0, abs=1e-12)
        assert region.window.omega == pytest.approx(3.3, abs=1e-9)


class TestIngest:
    def test_keeps_inside_and_drops_outside(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n0.5,0.5\n2,2\n")
        pat = ingest_csv(f, RegionSpec(0, 1, 0, 1))
        assert pat.n == 1
        assert pat.x[0] == 0.5 and pat.y[0] == 0.5

    def test_coordinates_shift_to_origin(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n-116.0,55.0\n")
        pat = ingest_csv(f, RegionSpec(-117.0, -110.0, 54.7, 58.0))
        assert pat.x[0] == pytest.approx(1.0, abs=1e-12)
        assert pat.y[0] == pytest.approx(0.3, abs=1e-12)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("# provenance line\n\nx,y\n# interior comment\n0.5,0.5\n")
        assert ingest_csv(f, RegionSpec(0, 1, 0, 1)).n == 1

    def test_malformed_row_reports_line_number(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n0.5,0.5\n1,2,3\n")
        with pytest.raises(MalformedDataError, match="line 3"):
            ingest_csv(f, RegionSpec(0, 1, 0, 1))

    def test_unparseable_number_reports_line_number(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\nfoo,0.5\n")
        with pytest.raises(MalformedDataError, match="line 2"):
            ingest_csv(f, RegionSpec(0, 1, 0, 1))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_bytes(b"\xef\xbb\xbfx,y\n0.5,0.5\n")
        pat = ingest_csv(f, RegionSpec(0, 1, 0, 1))
        assert pat.n == 1 and pat.x[0] == 0.5

    def test_missing_header_rejected(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("0.5,0.5\n")
        with pytest.raises(MalformedDataError):
            ingest_csv(f, RegionSpec(0, 1, 0, 1))

    def test_empty_result_is_allowed(self, tmp_path, caplog):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n5,5\n")
        with caplog.at_level("WARNING"):
            pat = ingest_csv(f, RegionSpec(0, 1, 0, 1))
        assert pat.n == 0
        assert any("no points" in r.message for r in caplog.records)

    def test_round_trip_is_exact(self, tmp_path, pattern):
        f = tmp_path / "pattern.csv"
        export_pattern_csv(pattern, f, {"origin": "test"})
        back = ingest_csv(f, RegionSpec(0.0, 2.0, 0.0, 1.0))
        assert back.n == pattern.n
        assert np.array_equal(back.x, pattern.x)
        assert np.array_equal(back.y, pattern.y)


class TestGridExport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GridExport((np.array([1.0, 2.0]),), np.array([1.0]), {})
        with pytest.raises(ValueError):
            GridExport((np.array([1.0, 2.0]), np.array([1.0])), np.array([1.0, 2.0]), {})
        with pytest.raises(ValueError):
            GridExport((np.array([1.0]),), np.array([-0.5]), {})

    def test_rejects_tiny_resolution(self, tmp_path, pattern):
        est = StationaryIntensity(pattern)
        with pytest.raises(ValueError):
            export_intensity_grid(est, 1, tmp_path / "g.csv")

    def test_stationary_grid_is_constant(self, tmp_path, pattern):
        est = StationaryIntensity(pattern)
        grid = export_intensity_grid(est, 4, tmp_path / "g.csv")
        assert len(grid.values) == 4
        assert len(set(grid.values)) == 1
        assert grid.values[0] == est.value

    def test_axis_grid_spans_open_height_range(self, tmp_path, pattern):
        est = SubstationaryIntensity(pattern, 0.0, 0.1)
        grid = export_intensity_grid(est, 64, tmp_path / "g.csv")
        assert min(grid.axes[0]) > 0.0
        assert max(grid.axes[0]) < 1.0

    def test_grid_rows_match_direct_evaluation(self, tmp_path, pattern):
        est = SubstationaryIntensity(pattern, 0.0, 0.1)
        grid = export_intensity_grid(est, 16, tmp_path / "g.csv")
        direct = est.evaluate(grid.axes[0])
        assert np.array_equal(grid.values, direct)
        text = (tmp_path / "g.csv").read_text().splitlines()
        assert text[4] == "v,lambda_hat"
        assert text[5] == f"{float(grid.axes[0][0])!r},{float(grid.values[0])!r}"

    def test_2d_grid_rows_match_direct_evaluation(self, tmp_path, pattern):
        est = KernelIntensity2D(pattern, 0.1)
        grid = export_intensity_grid(est, 8, tmp_path / "g.csv")
        assert grid.values.shape == (8, 8)
        x_mids, y_mids = grid.axes
        for j in range(5):
            assert grid.values[0, j] == pytest.approx(est.evaluate(x_mids[0], y_mids[j]), rel=1e-12)

    def test_default_grid_is_the_estimators_own_and_the_scored_one(
        self, tmp_path, monkeypatch, pattern
    ):
        truth = PoissonBetaModel(3.0, Window(2.0)).intensity
        cases = [
            (SubstationaryIntensity(pattern, 0.1, 0.05), "evaluate", GRID_CELLS_1D),
            (StationaryIntensity(pattern), "evaluate", GRID_CELLS_1D),
            (KernelIntensity2D(pattern, 0.1), "grid_values", GRID_CELLS_2D**2),
        ]
        for est, method, rows in cases:
            path = tmp_path / f"{est.kind}.csv"
            grid = export_intensity_grid(est, None, path)
            lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
            assert grid.values.size == len(lines) - 1 == rows
            calls = record_calls(monkeypatch, method, est)
            integrated_squared_error(est, truth)
            assert len(calls) == 1 and len(calls[0]) == len(grid.axes)
            assert all(np.array_equal(a, b) for a, b in zip(calls[0], grid.axes))
        data, out = tmp_path / "pat.csv", tmp_path / "k.csv"
        export_pattern_csv(pattern, data)
        args = ["estimate-intensity", "--data", str(data), "--region", "0,2,0,1", "--out", str(out)]
        assert main([*args, "--estimator", "kernel2d", "--h", "0.1"]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) - 1 == GRID_CELLS_2D**2

    def test_metadata_header(self, tmp_path, pattern):
        est = SubstationaryIntensity(pattern, 0.0, 0.1)
        export_intensity_grid(est, 4, tmp_path / "g.csv", seed=42)
        head = (tmp_path / "g.csv").read_text().splitlines()[:4]
        assert head[0] == "# estimator: substationary"
        assert head[1] == "# theta: 0.0"
        assert head[2] == "# h: 0.1"
        assert head[3] == "# seed: 42"


class TestApplicationPipeline:
    def test_gain_is_nonnegative_and_rows_complete(self, pattern, tmp_path):
        report = run_application_pipeline(
            pattern, [0.05, 0.1], grid_dir=tmp_path, grid_resolution=32
        )
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.delta_loglik >= 0.0
            assert row.theta_hat_deg == pytest.approx(math.degrees(row.theta_hat_rad))
        assert (tmp_path / "intensity_axis_h0.05.csv").exists()
        assert (tmp_path / "intensity_axis_h0.1.csv").exists()

    def test_axis_likelihood_comes_from_the_fit_grid(self):
        # a +-2.5 degree search whose grid once skipped theta = 0 and
        # reported a negative gain on this pattern
        pat = simulate_poisson_beta(PoissonBetaModel(1.0, Window(2, 1)), RngStream(11, 30))
        row = run_application_pipeline(pat, [0.05], search_halfwidth_deg=2.5).rows[0]
        assert row.delta_loglik >= 0.0
        assert row.loglik_axis == loglik(pat, SubstationaryIntensity(pat, 0.0, 0.05))

    def test_report_csv_layout(self, pattern, tmp_path):
        report = run_application_pipeline(pattern, [0.05])
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ignorable_threshold: 10.0")
        assert lines[1] == (
            "h,theta_hat_rad,theta_hat_deg,loglik_fitted,loglik_axis,delta_loglik,ignorable"
        )
        assert len(lines) == 3

    def test_requires_bandwidths_and_points(self, pattern):
        with pytest.raises(ValueError):
            run_application_pipeline(pattern, [])
        with pytest.raises(DataError):
            run_application_pipeline(PointPattern.empty(Window(1, 1)), [0.05])
        with pytest.raises(DataError):
            run_application_pipeline(PointPattern([0.5], [0.5], Window(1, 1)), [0.05])


class TestRender:
    def test_line_svg_is_deterministic(self, tmp_path, pattern):
        est = SubstationaryIntensity(pattern, 0.0, 0.1)
        grid = export_intensity_grid(est, 32, tmp_path / "g.csv")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_grid_svg(grid, a)
        render_grid_svg(grid, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"<polyline" in a.read_bytes()

    def test_heatmap_svg(self, tmp_path, pattern):
        est = KernelIntensity2D(pattern, 0.1)
        grid = export_intensity_grid(est, 6, tmp_path / "g.csv")
        out = tmp_path / "heat.svg"
        render_grid_svg(grid, out)
        content = out.read_text()
        assert content.count("<rect") == 37  # 36 cells + background


class TestConfig:
    def test_parse(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nseed = 7\nh-values = 0.05, 0.1\n\nprocess=poisson\n")
        cfg = load_config(f)
        assert cfg == {"seed": "7", "h_values": "0.05, 0.1", "process": "poisson"}

    def test_bad_line_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("just some text\n")
        assert main(["simulate", "--config", str(f)]) == 1


class TestCli:
    def simulate_file(self, tmp_path, name="pat.csv", a=3.0, z=2.0, seed=5):
        out = tmp_path / name
        code = main(
            [
                "simulate", "--process", "poisson", "--a", str(a), "--z", str(z),
                "--seed", str(seed), "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_simulate_is_reproducible(self, tmp_path):
        f1 = self.simulate_file(tmp_path, "a.csv")
        f2 = self.simulate_file(tmp_path, "b.csv")
        assert f1.read_bytes() == f2.read_bytes()

    def test_fit_and_estimate_flow(self, tmp_path, capsys):
        data = self.simulate_file(tmp_path)
        code = main(
            [
                "fit-subspace", "--data", str(data), "--region", "0,2,0,1",
                "--h", "0.05", "--search-halfwidth", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theta_hat_deg=" in out
        code = main(
            [
                "estimate-intensity", "--data", str(data), "--region", "0,2,0,1",
                "--estimator", "stationary", "--resolution", "4",
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == 0
        rows = [
            line
            for line in (tmp_path / "grid.csv").read_text().splitlines()
            if not line.startswith("#") and line != "v,lambda_hat"
        ]
        assert len(rows) == 4

    def test_select_bandwidth_prints_choice(self, tmp_path, capsys):
        data = self.simulate_file(tmp_path)
        code = main(
            [
                "select-bandwidth", "--data", str(data), "--region", "0,2,0,1",
                "--candidates", "0.05,0.1",
            ]
        )
        assert code == 0
        assert "selected_h=" in capsys.readouterr().out

    def test_select_bandwidth_scores_once_and_prints_the_best_row(
        self, tmp_path, capsys, monkeypatch
    ):
        import substat.cli as cli

        data = self.simulate_file(tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bandwidth_cv_scores(*args, **kwargs)

        monkeypatch.setattr(cli, "bandwidth_cv_scores", counted)
        out = tmp_path / "cv.csv"
        with pytest.warns(RuntimeWarning):  # h=1e-5 isolates points: -inf
            code = main(
                [
                    "select-bandwidth", "--data", str(data), "--region", "0,2,0,1",
                    "--candidates", "0.00001,0.05,0.1,0.2", "--out", str(out),
                ]
            )
        assert code == 0
        assert len(calls) == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scores = {float(h): float(s) for h, s in rows}
        assert scores[1e-5] == -math.inf
        best = max((s, h) for h, s in scores.items() if math.isfinite(s))[1]
        assert f"selected_h={best!r}" in capsys.readouterr().out.splitlines()

    def test_experiment_smoke(self, tmp_path):
        out = tmp_path / "cells.csv"
        code = main(
            [
                "experiment", "table1", "--process", "poisson", "--a-values", "2.0",
                "--z-values", "1.0", "--h-values", "0.05", "--replications", "2",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("process,")

    def test_apply_flow(self, tmp_path):
        data = self.simulate_file(tmp_path, a=3.0, z=2.0)
        out = tmp_path / "report.csv"
        code = main(
            [
                "apply", "--data", str(data), "--region", "0,2,0,1",
                "--h-values", "0.05", "--search-halfwidth", "10",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_apply_keeps_bandwidths_that_agree_to_six_digits_apart(self, tmp_path, capsys):
        data = self.simulate_file(tmp_path, a=3.0, z=2.0)
        grids = tmp_path / "grids"
        grids.mkdir()
        code = main(
            [
                "apply", "--data", str(data), "--region", "0,2,0,1",
                "--h-values", "0.05,0.05000001", "--search-halfwidth", "2",
                "--resolution", "8", "--grid-dir", str(grids),
                "--out", str(tmp_path / "report.csv"),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in grids.iterdir())
        assert names == ["intensity_axis_h0.05.csv", "intensity_axis_h0.05000001.csv"]
        lines = capsys.readouterr().out.splitlines()
        fields = [line.split()[0] for line in lines if line.startswith("h=")]
        assert fields == ["h=0.05", "h=0.05000001"]

    def test_config_supplies_defaults_and_cli_overrides(self, tmp_path):
        data = self.simulate_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = {}\nregion = 0,2,0,1\nestimator = stationary\nresolution = 4\n".format(data)
        )
        out1 = tmp_path / "g1.csv"
        assert main(["estimate-intensity", "--config", str(cfg), "--out", str(out1)]) == 0
        rows1 = [
            line for line in out1.read_text().splitlines()
            if not line.startswith("#") and "," in line and "lambda" not in line
        ]
        assert len(rows1) == 4
        out2 = tmp_path / "g2.csv"
        assert (
            main(
                [
                    "estimate-intensity", "--config", str(cfg),
                    "--resolution", "6", "--out", str(out2),
                ]
            )
            == 0
        )
        rows2 = [
            line for line in out2.read_text().splitlines()
            if not line.startswith("#") and "," in line and "lambda" not in line
        ]
        assert len(rows2) == 6

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["simulate", "--process", "poisson", "--a", "2"]) == 1  # no --z/--out
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        out = str(tmp_path / "out.csv")
        sim = ["simulate", "--process", "poisson", "--a", "2", "--z", "1", "--out", out]
        assert main([*sim, "--threads", "2"]) == 1  # simulate takes no --threads
        data = ["--data", str(tmp_path / "missing.csv"), "--region", "0,1,0,1", "--out", out]
        assert main(["ingest", *data, "--seed", "1"]) == 1  # not 2: the usage fails first
        cfg = tmp_path / "bad-choice.cfg"
        cfg.write_text("estimator = kernel\n")  # not one of the choices
        assert main(["estimate-intensity", *data, "--config", str(cfg)]) == 1

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        data = self.simulate_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("estimator = stationary\nrezolution = 4\n")
        args = ["estimate-intensity", "--data", str(data), "--region", "0,2,0,1"]
        assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 1
        assert "'rezolution'" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_config_keys_of_other_subcommands_are_ignored(self, tmp_path):
        data = self.simulate_file(tmp_path)
        cfg = tmp_path / "session.cfg"
        cfg.write_text("h_values = 0.05\nsearch_halfwidth = 10\ncandidates = 0.02, 0.05\n")
        args = ["apply", "--data", str(data), "--region", "0,2,0,1", "--config", str(cfg)]
        assert main([*args, "--out", str(tmp_path / "report.csv")]) == 0

    def test_open_search_halfwidth_on_command_line_and_in_config(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("search_halfwidth = none\n")
        plan = [
            "experiment", "table1", "--process", "poisson", "--a-values", "2",
            "--z-values", "1", "--h-values", "0.05", "--replications", "2", "--seed", "3",
        ]
        outputs = []
        for name, extra in (
            ("cli.csv", ["--search-halfwidth", "none"]),
            ("full.csv", ["--search-halfwidth", "full"]),
            ("cfg.csv", ["--config", str(cfg)]),
        ):
            assert main([*plan, *extra, "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2,3\n")
        code = main(
            ["fit-subspace", "--data", str(bad), "--region", "0,1,0,1", "--h", "0.05"]
        )
        assert code == 2
        code = main(
            [
                "fit-subspace", "--data", str(tmp_path / "missing.csv"),
                "--region", "0,1,0,1", "--h", "0.05",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("rows", ["", "0.5,0.5\n"])
    @pytest.mark.parametrize("command", ["fit-subspace", "apply"])
    def test_too_few_points_is_a_data_error(self, tmp_path, capsys, command, rows):
        data = tmp_path / "few.csv"
        data.write_text("x,y\n" + rows + "5,5\n")  # the last row lies outside the region
        args = [command, "--data", str(data), "--region", "0,1,0,1"]
        if command == "fit-subspace":
            args += ["--h", "0.05"]
        else:
            args += ["--h-values", "0.05", "--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        assert "at least two points" in capsys.readouterr().err

    def test_negative_thread_count_is_a_usage_error(self, tmp_path, capsys):
        data = self.simulate_file(tmp_path)
        args = ["fit-subspace", "--data", str(data), "--region", "0,2,0,1", "--h", "0.05"]
        assert main([*args, "--threads", "-3"]) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["experiment", "apply-grid-dir", "apply-out", "estimate-svg"]
    )
    def test_missing_output_directory_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def runner(*args, **kwargs):
            raise AssertionError("the work started")

        work = ("run_table1", "run_application_pipeline", "ingest_csv", "export_intensity_grid")
        for name in work:
            monkeypatch.setattr(cli, name, runner)
        missing = tmp_path / "missing"
        if command == "estimate-svg":
            args = [
                "estimate-intensity", "--data", "pat.csv", "--region", "0,2,0,1",
                "--estimator", "stationary", "--out", str(tmp_path / "g.csv"),
                "--svg", str(missing / "g.svg"),
            ]
        elif command == "experiment":
            args = [
                "experiment", "table1", "--process", "poisson", "--a-values", "2",
                "--z-values", "1", "--h-values", "0.05", "--out", str(missing / "out.csv"),
            ]
        else:
            args = ["apply", "--data", "pat.csv", "--region", "0,2,0,1", "--h-values", "0.05"]
            if command == "apply-grid-dir":
                args += ["--grid-dir", str(missing), "--out", str(tmp_path / "report.csv")]
            else:
                args += ["--out", str(missing / "report.csv")]
        assert main(args) == 2
        assert "missing" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # no output written, not even --out

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--h-values", "0.05,0.1,-1"], "bandwidth"),
            (["--h-values", "0.05", "--resolution", "1", "--grid-dir", "GRIDS"], "resolution"),
            (["--h-values", "0.05", "--threshold", "nan"], "threshold"),
        ],
    )
    def test_apply_checks_every_input_before_the_first_fit(
        self, tmp_path, monkeypatch, capsys, bad, message
    ):
        data = self.simulate_file(tmp_path)
        (tmp_path / "grids").mkdir()
        fits = record_calls(monkeypatch, "fit_theta", substat.io)
        out = tmp_path / "report.csv"
        bad = [str(tmp_path / "grids") if arg == "GRIDS" else arg for arg in bad]
        args = ["apply", "--data", str(data), "--region", "0,2,0,1", "--out", str(out)]
        assert main([*args, *bad]) == 1
        assert message in capsys.readouterr().err
        assert fits == [] and not out.exists()
        assert not any((tmp_path / "grids").iterdir())

    @pytest.mark.parametrize(
        "target, values",
        [
            ("table2", ["--a-values", "3,0.5", "--z-values", "1", "--h-values", "0.05"]),
            ("table1", ["--a-values", "2", "--z-values", "1", "--h-values", "0.05,0"]),
            ("table1", ["--a-values", "2", "--z-values", "5,-1", "--h-values", "0.05"]),
        ],
    )
    def test_experiment_checks_every_cell_before_the_sweep(
        self, tmp_path, monkeypatch, target, values
    ):
        draws = record_calls(monkeypatch, "simulate_poisson_beta", substat.experiments)
        out = tmp_path / "cells.csv"
        args = ["experiment", target, "--process", "poisson", "--replications", "2"]
        assert main([*args, *values, "--out", str(out)]) == 1
        assert draws == [] and not out.exists()

    def test_numerical_error_exit_code(self, tmp_path):
        lonely = tmp_path / "one.csv"
        lonely.write_text("x,y\n0.5,0.5\n")
        code = main(
            [
                "select-bandwidth", "--data", str(lonely), "--region", "0,1,0,1",
                "--candidates", "0.05,0.1",
            ]
        )
        assert code == 3


@pytest.mark.parametrize("module", ["estimate", "experiments", "geometry", "io", "kernels", "simulate"])
def test_the_package_exports_every_public_name_of_each_module(module):
    names = getattr(substat, module).__all__
    assert {name: getattr(substat, name, None) for name in names} == {
        name: getattr(getattr(substat, module), name) for name in names
    }
    assert set(names) <= set(substat.__all__)
    assert len(substat.__all__) == len(set(substat.__all__))


def test_importing_the_package_loads_no_scipy_module_but_special():
    # a fresh interpreter, since this one has imported scipy for other tests
    code = """
import sys
import substat, substat.cli
heavy = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.stats")
print(sorted(name for name in heavy if name in sys.modules))
from substat import Subspace, Window, correction_substat_quadrature
print(correction_substat_quadrature(Subspace(0.0), Window(1, 1), 0.05, 0.5))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    loaded, quadrature = run.stdout.splitlines()
    assert loaded == "[]"
    assert float(quadrature) == pytest.approx(1.0, rel=1e-9)
