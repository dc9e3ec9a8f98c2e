import inspect
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
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


# the first faulty row is reported, whether it fails to parse or parses to inf or nan
FAULTY_ROWS = [
    ("0.5,0.5\ninf,0.5\n", "line 3: non-finite coordinate"),
    ("0.5,nan\n1,2,3\n", "line 2: non-finite coordinate"),
    ("-inf,1\nfoo,1\n", "line 2: non-finite coordinate"),
    ("1,2,3\n0.5,nan\n", "line 2: expected two comma-separated values"),
    ("foo,1\n0.5,nan\n", "line 2: could not convert string to float: 'foo'"),
]

# the line of a byte that is not UTF-8, counted as the rows' lines are, whatever the endings
NOT_UTF8 = [
    (b"x,y\n0.5,0.5\n\xff\n", "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
    (
        b"\xef\xbb\xbfx,y\r\n0.5,0.5\r0.5,0.5\n0.5,\xe20.5\n",
        "line 4: byte 0xe2 is not UTF-8 (invalid continuation byte)",
    ),
    (b"x,y\r\r\n\n0.5,0.5\xc3\n", "line 4: byte 0xc3 is not UTF-8 (invalid continuation byte)"),
]


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
        f.write_bytes(b"# exported\r\nx,y\r\n\r\n0.5,0.5\r\n1,2,3\r\n")  # CRLF endings
        with pytest.raises(MalformedDataError, match="line 5: expected two comma-separated values$"):
            ingest_csv(f, RegionSpec(0, 1, 0, 1))

    def test_unparseable_number_reports_line_number(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\nfoo,0.5\n")
        with pytest.raises(MalformedDataError, match="line 2"):
            ingest_csv(f, RegionSpec(0, 1, 0, 1))

    @pytest.mark.parametrize("rows, message", FAULTY_ROWS)
    def test_the_first_faulty_row_is_reported(self, tmp_path, rows, message):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n" + rows)
        with pytest.raises(MalformedDataError) as raised:
            ingest_csv(f, RegionSpec(0, 1, 0, 1))
        assert str(raised.value) == f"{f}: {message}"

    @pytest.mark.parametrize("content, message", NOT_UTF8)
    def test_a_byte_that_is_not_utf8_reports_its_line(self, tmp_path, content, message):
        f = tmp_path / "pts.csv"
        f.write_bytes(content)
        with pytest.raises(MalformedDataError) as raised:
            ingest_csv(f, RegionSpec(0, 1, 0, 1))
        assert str(raised.value) == f"{f}: {message}"

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


# every malformed file of TestIngest and TestCli
MALFORMED = [
    b"x,y\n0.5,0.5\n1,2,3\n",
    b"# exported\r\nx,y\r\n\r\n0.5,0.5\r\n1,2,3\r\n",
    b"x,y\nfoo,0.5\n",
    b"0.5,0.5\n",
    b"x,y\n1,2,3\n",
    *[b"x,y\n" + rows.encode() for rows, _ in FAULTY_ROWS],
    *[content for content, _ in NOT_UTF8],
]

# (file, the path that decides it): numpy's pass accepts the file, or the line loop decides
CORPUS = [
    (b"x,y\n+1,0.5\n", "numpy"),
    (b"x,y\n 1.5 ,0.5\n", "numpy"),
    (b"x,y\n\t2,0.5\n", "numpy"),
    (b"x,y\n.5,5.\n", "numpy"),
    ("x,y\n\xa01.5\xa0,\xa00.5\n".encode(), "numpy"),
    (b"x,y\r\n1.5,0.5\r\n0.25,0.5\r\n", "numpy"),
    (b"x,y\r1.5,0.5\r0.25,0.5\r", "numpy"),
    (b"\xef\xbb\xbfx,y\n1.5,0.5\n", "numpy"),
    (b"# above\n\n  # indented\nx,y\n1.5,0.5\n", "numpy"),
    (b"x,y\n1.5,0.5\n\n0.25,0.5", "numpy"),  # an empty line: both skip it
    (b"x,y\n1e500,0.5\n", "loop"),  # inf, refused by both: the loop names the line
    (b"x,y\nnan,0.5\n", "loop"),
    (b"x,y\n0.5,inf\n", "loop"),
    (b"x,y\n0.5,0.5\n-Infinity,0.5\n", "loop"),
    (b"x,y\n1_0,0.5\n", "loop"),  # float() takes these three, numpy's parser does not
    ("x,y\n\uff11,0.5\n".encode(), "loop"),
    ("x,y\n\u0663,0.5\n".encode(), "loop"),
    (b"x,y\n0x10,0.5\n", "loop"),
    (b"x,y\n1d5,0.5\n", "loop"),
    (b"x,y\n,0.5\n", "loop"),
    (b"x,y\n0.5\n", "loop"),
    (b"x,y\n1,2,3\n", "loop"),
    (b"x,y\n0.5,0.5\n1,2,3\n", "loop"),
    (b"x,y\n1.5 # c,0.5\n", "loop"),
    (b"x,y\n0.5,0.5 # c\n", "loop"),
    (b"x,y\n0.5,0.5\n \t \n0.25,0.5\n", "loop"),  # a whitespace-only line
    ("x,y\n0.5,0.5\n\xa0\n".encode(), "loop"),
    (b"x,y\n# below\n1.5,0.5\n", "loop"),
    (b"x,y\n", "loop"),  # a header without rows
    (b"x,y", "loop"),
    (b"x,y\n\n\n", "loop"),
]


def ingested(path):
    """What ``ingest_csv`` makes of a file: its coordinates' bytes, or its error."""
    try:
        pat = ingest_csv(path, RegionSpec(-20.0, 20.0, -20.0, 20.0))
    except MalformedDataError as exc:
        return type(exc), str(exc)
    return pat.x.tobytes(), pat.y.tobytes()


class TestIngestPaths:
    """The numpy pass and the line loop accept and refuse every file alike: the same floats,
    or the same error, message and line."""

    def both(self, monkeypatch, path):
        """``ingest_csv``'s outcome, the line loop's alone, and the path that decided it."""
        got = ingested(path)
        with monkeypatch.context() as m:
            m.setattr(substat.io, "_fast_rows", lambda lines: None)
            loop = ingested(path)

        def no_loop(path, lines):
            raise AssertionError("the line loop ran")

        with monkeypatch.context() as m:
            m.setattr(substat.io, "_line_rows", no_loop)
            try:
                ingested(path)
                decided = "numpy"
            except AssertionError:
                decided = "loop"
        return got, loop, decided

    @pytest.mark.parametrize("content", MALFORMED)
    def test_a_malformed_file_gets_the_loops_error(self, tmp_path, monkeypatch, content):
        f = tmp_path / "pts.csv"
        f.write_bytes(content)
        got, loop, _ = self.both(monkeypatch, f)
        assert got == loop and got[0] is MalformedDataError

    @pytest.mark.parametrize("content, path", CORPUS)
    def test_each_path_decides_as_the_loop_does(self, tmp_path, monkeypatch, content, path):
        f = tmp_path / "pts.csv"
        f.write_bytes(content)
        got, loop, decided = self.both(monkeypatch, f)
        assert got == loop
        assert decided == path

    def test_many_written_floats_are_read_bit_for_bit(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [rng.uniform(-20, 20, 300), rng.standard_normal(100) * 1e-300, [0.0, -0.0, 5e-324]]
        )
        forms = ("{!r}", "{:.17g}", "{:.3e}", "{:.20f}", "{:+.1f}", " {:.9} ")
        rows = [
            f"{forms[i % 6].format(v)},{forms[(i + 1) % 6].format(-v)}"
            for i, v in enumerate(values.tolist())
        ]
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n" + "\n".join(rows) + "\n")
        got, loop, decided = self.both(monkeypatch, f)
        assert got == loop and decided == "numpy"
        assert len(got[0]) == 8 * values.size

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["", "1", "-0.5", "2e3", "inf"]),
        st.text("019.eE+-_ nafiINF#,\t\xa0\n\uff11\u0663x", max_size=8),
    )
    def test_a_field_is_read_alike_whatever_its_text(self, tmp_path_factory, number, text):
        f = tmp_path_factory.mktemp("field") / "pts.csv"
        f.write_text(f"x,y\n0.5,{number}{text}\n", encoding="utf-8")
        with pytest.MonkeyPatch.context() as m:
            got, loop, _ = self.both(m, f)
        assert got == loop


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

    @pytest.mark.parametrize("resolution", [2.5, 4.0, np.float64(8.0), "8"])
    def test_a_resolution_that_is_not_an_integer_is_refused(self, tmp_path, pattern, resolution):
        est, out = StationaryIntensity(pattern), tmp_path / "g.csv"
        with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
            export_intensity_grid(est, resolution, out)
        assert not out.exists()
        assert export_intensity_grid(est, np.int64(3), out).values.size == 3

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

    def test_a_repeated_bandwidth_raises_before_the_first_fit(self, pattern, tmp_path, monkeypatch):
        fits = record_calls(monkeypatch, "fit_theta", substat.io)
        for h_values, repeated in (([0.05, 0.1, 0.05], "0.05"), ([2e-2, 0.02], "0.02")):
            with pytest.raises(ValueError, match=f"h_values repeats {repeated}$"):
                run_application_pipeline(pattern, h_values, grid_dir=tmp_path)
        assert fits == [] and not any(tmp_path.iterdir())

    def test_a_fractional_grid_resolution_raises_before_the_first_fit(
        self, pattern, tmp_path, monkeypatch
    ):
        fits = record_calls(monkeypatch, "fit_theta", substat.io)
        with pytest.raises(ValueError, match="resolution must be an integer >= 2, got 2.5"):
            run_application_pipeline(pattern, [0.05], grid_dir=tmp_path, grid_resolution=2.5)
        assert fits == [] and not any(tmp_path.iterdir())

    def test_requires_bandwidths_and_points(self, pattern):
        with pytest.raises(ValueError):
            run_application_pipeline(pattern, [])
        with pytest.raises(DataError):
            run_application_pipeline(PointPattern.empty(Window(1, 1)), [0.05])
        with pytest.raises(DataError):
            run_application_pipeline(PointPattern([0.5], [0.5], Window(1, 1)), [0.05])


class TestBandwidthMap:
    """apply maps its bandwidths over the workers, or its one bandwidth's angles."""

    H_VALUES = (0.05, 0.1, 0.2, 0.03, 0.15)

    def apply(self, data, out, k, threads):
        out.mkdir()
        args = ["apply", "--data", str(data), "--region", "0,2,0,1", "--out", str(out / "report.csv")]
        h_values = ",".join(map(str, self.H_VALUES[:k]))
        values = ["--h-values", h_values, "--search-halfwidth", "none", "--threads", str(threads)]
        assert main([*args, *values, "--resolution", "16", "--grid-dir", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_the_report_and_its_files_are_the_same_at_any_thread_count(
        self, pattern, tmp_path, capsys, k
    ):
        data = tmp_path / "pat.csv"
        export_pattern_csv(pattern, data)
        reports, files, printed = [], [], []
        for threads in (1, 2, 4):
            grids = tmp_path / f"lib{threads}"
            grids.mkdir()
            report = run_application_pipeline(
                pattern, self.H_VALUES[:k], grid_dir=grids, grid_resolution=16, threads=threads
            )
            report.to_csv(grids / "report.csv")
            reports.append(report)
            files.append({f.name: f.read_bytes() for f in grids.iterdir()})
            capsys.readouterr()
            files.append(self.apply(data, tmp_path / f"cli{threads}", k, threads))
            printed.append(capsys.readouterr().out.replace(f"cli{threads}", "cli"))
        assert reports[1:] == reports[:-1] and len(reports[0].rows) == k
        assert all(f == files[0] for f in files) and len(files[0]) == k + 1
        assert printed[1:] == printed[:-1]

    @pytest.mark.parametrize(
        "k, threads, maps",
        [
            (1, 2, [2, 2]),  # one fit maps its two stages on both workers
            (2, 2, [2]),  # one map of the bandwidths; each fit runs whole in its worker
            (3, 2, [2]),  # the caller runs the first and third fits, the child the second
            (2, 4, [2]),  # k < w: k workers, each fit whole in one
            (3, 4, [3]),
            (5, 2, [2]),
            (5, 4, [4]),
        ],
    )
    def test_the_callers_maps(self, pattern, pools, k, threads, maps):
        run_application_pipeline(pattern, self.H_VALUES[:k], threads=threads)
        assert pools == maps

    def test_no_forked_worker_forks_again(self, pattern, monkeypatch):
        map_ordered = substat.estimate._map_ordered

        def in_the_caller_alone(job, args, threads):  # fit_theta's maps, in any process
            if multiprocessing.parent_process() is not None and threads != 1:
                raise AssertionError(f"a forked worker maps on {threads} workers")
            return map_ordered(job, args, threads)

        monkeypatch.setattr(substat.estimate, "_map_ordered", in_the_caller_alone)
        report = run_application_pipeline(pattern, self.H_VALUES[:2], threads=4)
        assert report == run_application_pipeline(pattern, self.H_VALUES[:2], threads=1)

    def test_a_workers_degenerate_fit_is_logged_once(
        self, pattern, tmp_path, monkeypatch, caplog, pools
    ):
        flat = substat.estimate.loglik  # the second bandwidth's profile is flat: a worker's fit

        def profile(pattern, estimator, **kwargs):
            return 0.0 if estimator.h == self.H_VALUES[1] else flat(pattern, estimator, **kwargs)

        monkeypatch.setattr(substat.estimate, "loglik", profile)
        data = tmp_path / "pat.csv"
        export_pattern_csv(pattern, data)
        with caplog.at_level("WARNING"):
            self.apply(data, tmp_path / "out", 2, 2)
        assert pools == [2]
        assert [r.message for r in caplog.records if r.name == "substat.cli"] == [
            "profile log-likelihood is flat across directions; the fitted angle is not informative"
        ]


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
        f.write_bytes(b"# comment\nseed = 7\r\nh-values = 0.05, 0.1\n\r\nprocess=poisson\r\n")
        cfg = load_config(f)
        assert cfg == {"seed": "7", "h_values": "0.05, 0.1", "process": "poisson"}

    def test_bad_line_rejected(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\n\njust some text\n")
        assert main(["simulate", "--config", str(f)]) == 1
        assert f"usage error: {f}: line 3: expected 'key = value'" in capsys.readouterr().err
        f.write_bytes(b"# comment\r\nseed = 7\r\nprocess = \xff\n")  # not UTF-8
        assert main(["simulate", "--config", str(f)]) == 1
        assert f"usage error: {f}: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_a_byte_order_mark_is_read_as_in_a_data_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_bytes(b"\xef\xbb\xbfseed = 7\nprocess = poisson\n")
        assert load_config(f) == {"seed": "7", "process": "poisson"}
        out = tmp_path / "p.csv"
        assert main(["simulate", "--config", str(f), "--a", "2", "--z", "1", "--out", str(out)]) == 0
        assert "# seed: 7" in out.read_text().splitlines()


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

    def test_the_stationary_estimate_notes_an_unused_bandwidth(self, tmp_path, capsys, caplog):
        data = self.simulate_file(tmp_path)
        capsys.readouterr()
        args = ["estimate-intensity", "--data", str(data), "--region", "0,2,0,1"]
        runs = []
        for i, h in enumerate(([], ["--h", "0.05"])):
            out = tmp_path / f"grid{i}.csv"
            caplog.clear()
            with caplog.at_level("INFO"):
                assert main([*args, "--estimator", "stationary", "--out", str(out), *h]) == 0
            notes = [r.message for r in caplog.records if r.name == "substat.cli"]
            runs.append((out.read_bytes(), capsys.readouterr().out.replace(f"grid{i}", "grid"), notes))
        assert runs[0][:2] == runs[1][:2]  # the same file and stdout
        assert runs[0][2] == []
        assert runs[1][2] == ["--estimator stationary takes no bandwidth; --h 0.05 is not used"]

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
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        import substat.cli as cli

        data = self.simulate_file(tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bandwidth_cv_scores(*args, **kwargs)

        monkeypatch.setattr(cli, "bandwidth_cv_scores", counted)
        out = tmp_path / "cv.csv"
        with caplog.at_level("WARNING"):  # h=1e-5 isolates points: -inf, and a logged warning
            code = main(
                [
                    "select-bandwidth", "--data", str(data), "--region", "0,2,0,1",
                    "--candidates", "0.00001,0.05,0.1,0.2", "--out", str(out),
                ]
            )
        assert code == 0
        assert len(calls) == 1
        assert [r.message for r in caplog.records if r.name == "substat.cli"] == [
            "intensity estimate is zero at a data point; log-likelihood is -inf"
        ]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scores = {float(h): float(s) for h, s in rows}
        assert scores[1e-5] == -math.inf
        best = max((s, h) for h, s in scores.items() if math.isfinite(s))[1]
        assert f"selected_h={best!r}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_a_warning_is_logged_whatever_the_active_filter(self, tmp_path, caplog, action):
        data = self.simulate_file(tmp_path)
        with warnings.catch_warnings(), caplog.at_level("WARNING"):
            warnings.simplefilter(action)
            code = main(
                [
                    "select-bandwidth", "--data", str(data), "--region", "0,2,0,1",
                    "--candidates", "0.00001,0.05",
                ]
            )
            # the command's own filter ends with it
            assert warnings.filters[0][0] == action
        assert code == 0
        assert [r.message for r in caplog.records if r.name == "substat.cli"] == [
            "intensity estimate is zero at a data point; log-likelihood is -inf"
        ]

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

    def test_resolution_none_overrides_a_config_resolution(self, tmp_path):
        data = self.simulate_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data}\nregion = 0,2,0,1\nestimator = stationary\nresolution = 64\n")
        out = tmp_path / "g.csv"
        args = ["estimate-intensity", "--config", str(cfg), "--resolution", "none"]
        assert main([*args, "--out", str(out)]) == 0
        rows = [
            line for line in out.read_text().splitlines()
            if not line.startswith("#") and "," in line and "lambda" not in line
        ]
        assert len(rows) == GRID_CELLS_1D == 512

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

    # a config value is read as --option=value ahead of the command line, so
    # argparse checks it even where the command line gives the option too
    @pytest.mark.parametrize(
        "line, message",
        [
            ("estimator = kernel", "argument --estimator: invalid choice: 'kernel'"),
            ("resolution = four", "argument --resolution: invalid number value: 'four'"),
        ],
    )
    def test_a_bad_config_value_is_a_usage_error_where_the_command_line_overrides_it(
        self, tmp_path, capsys, line, message
    ):
        data = self.simulate_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "g.csv"
        args = ["estimate-intensity", "--data", str(data), "--region", "0,2,0,1", "--out", str(out)]
        given = [*args, "--estimator", "stationary", "--resolution", "4"]
        assert main([*given, "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(given) == 0

    def test_a_positional_in_a_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("target = table1\n")
        args = ["experiment", "table1", "--config", str(cfg), "--process", "poisson"]
        values = ["--a-values", "2", "--z-values", "1", "--h-values", "0.05"]
        assert main([*args, *values, "--out", str(tmp_path / "cells.csv")]) == 1
        assert "config key 'target' names no option" in capsys.readouterr().err

    def test_a_negative_region_in_a_config_file_parses(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "fires.csv"
        data.write_text("x,y\n-116.5,55.0\n-112.25,57.5\n-110.5,54.8\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data}\nregion = -117,-110,54.7,58\n")
        out = tmp_path / "kept.csv"
        # main() reads sys.argv, config file included
        monkeypatch.setattr(sys, "argv", ["substat", "ingest", "--config", str(cfg), "--out", str(out)])
        assert main() == 0
        assert f"kept 3 points; window z=7.0 omega={58 - 54.7!r}\n" == capsys.readouterr().out

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

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2,3\n")
        code = main(
            ["fit-subspace", "--data", str(bad), "--region", "0,1,0,1", "--h", "0.05"]
        )
        assert code == 2
        bad.write_bytes(b"x,y\n0.5,0.5\n\xff\n")  # not UTF-8
        args = ["ingest", "--data", str(bad), "--region", "0,1,0,1", "--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        assert f"data error: {bad}: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err
        code = main(
            [
                "fit-subspace", "--data", str(tmp_path / "missing.csv"),
                "--region", "0,1,0,1", "--h", "0.05",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("rows", ["", "0.5,0.5\n"])
    @pytest.mark.parametrize("command", ["fit-subspace", "apply", "select-bandwidth"])
    def test_too_few_points_is_a_data_error(self, tmp_path, capsys, command, rows):
        data = tmp_path / "few.csv"
        data.write_text("x,y\n" + rows + "5,5\n")  # the last row lies outside the region
        args = [command, "--data", str(data), "--region", "0,1,0,1"]
        if command == "fit-subspace":
            args += ["--h", "0.05"]
        elif command == "apply":
            args += ["--h-values", "0.05", "--out", str(tmp_path / "report.csv")]
        else:
            args += ["--candidates", "0.05"]
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
            (["--h-values", "0.05", "--resolution", "1"], "resolution"),  # read by no grid
            (["--h-values", "0.05", "--threshold", "nan"], "threshold"),
            (["--h-values", "0.05,0.1", "--threads", "-1"], "threads"),
            (["--h-values", "0.05", "--search-halfwidth", "200"], "search_halfwidth"),
            (["--h-values", "0.05", "--search-halfwidth", "0"], "search_halfwidth"),
            (["--h-values", "0.05", "--search-halfwidth", "-6"], "search_halfwidth"),
            (["--h-values", "0.05", "--search-halfwidth", "nan"], "search_halfwidth"),
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
            ("table2", ["--process", "poisson", "--a-values", "3,0.5", "--z-values", "1",
                        "--h-values", "0.05"]),
            ("table1", ["--process", "poisson", "--a-values", "2", "--z-values", "1",
                        "--h-values", "0.05,0"]),
            ("table1", ["--process", "poisson", "--a-values", "2", "--z-values", "5,-1",
                        "--h-values", "0.05"]),
            ("table1", ["--process", "poisson", "--a-values", "2", "--z-values", "1",
                        "--h-values", "0.05", "--search-halfwidth", "200"]),
            ("table1", ["--process", "thomas", "--gamma", "-1", "--a-values", "2",
                        "--z-values", "1", "--h-values", "0.05"]),
        ],
    )
    def test_experiment_checks_every_cell_before_the_sweep(
        self, tmp_path, monkeypatch, target, values
    ):
        draws = record_calls(monkeypatch, "simulate_poisson_beta", substat.experiments)
        clustered = record_calls(monkeypatch, "simulate_thomas", substat.experiments)
        out = tmp_path / "cells.csv"
        args = ["experiment", target, "--replications", "2"]
        assert main([*args, *values, "--out", str(out)]) == 1
        assert draws == clustered == [] and not out.exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            (["--a-values", "2,3,2.0", "--z-values", "1", "--h-values", "0.05"], "a_values repeats 2.0"),
            (["--a-values", "2", "--z-values", "1,1", "--h-values", "0.05"], "z_values repeats 1.0"),
            (["--a-values", "2", "--z-values", "1", "--h-values", "0.05,.05"], "h_values repeats 0.05"),
        ],
    )
    def test_experiment_refuses_a_repeated_value_before_the_sweep(
        self, tmp_path, monkeypatch, capsys, values, message
    ):
        draws = record_calls(monkeypatch, "simulate_poisson_beta", substat.experiments)
        out = tmp_path / "cells.csv"
        args = ["experiment", "table1", "--process", "poisson", "--replications", "2"]
        assert main([*args, *values, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert draws == [] and not out.exists()

    def test_apply_refuses_a_repeated_bandwidth_before_the_first_fit(
        self, tmp_path, monkeypatch, capsys
    ):
        data = self.simulate_file(tmp_path)
        (tmp_path / "grids").mkdir()
        fits = record_calls(monkeypatch, "fit_theta", substat.io)
        out = tmp_path / "report.csv"
        args = ["apply", "--data", str(data), "--region", "0,2,0,1", "--out", str(out)]
        grids = ["--grid-dir", str(tmp_path / "grids")]
        assert main([*args, *grids, "--h-values", "0.05,0.05"]) == 1
        assert "h_values repeats 0.05" in capsys.readouterr().err
        assert fits == [] and not out.exists()
        assert not any((tmp_path / "grids").iterdir())

    def test_select_bandwidth_refuses_a_repeated_candidate_before_any_score(
        self, tmp_path, monkeypatch, capsys
    ):
        data = self.simulate_file(tmp_path)
        estimators = record_calls(monkeypatch, "SubstationaryIntensity", substat.estimate)
        out = tmp_path / "cv.csv"
        args = ["select-bandwidth", "--data", str(data), "--region", "0,2,0,1", "--out", str(out)]
        assert main([*args, "--candidates", "0.05,0.1,.05"]) == 1
        assert "usage error: candidates repeats 0.05" in capsys.readouterr().err
        assert estimators == [] and not out.exists()

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # two points 0.8 apart: at these bandwidths each one's leave-one-out estimate is 0
        pair = tmp_path / "pair.csv"
        pair.write_text("x,y\n0.1,0.1\n0.9,0.9\n")
        code = main(
            [
                "select-bandwidth", "--data", str(pair), "--region", "0,1,0,1",
                "--candidates", "0.001,0.002",
            ]
        )
        assert code == 3
        assert "numerical failure: every bandwidth candidate" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["estimate", "experiments", "geometry", "io", "kernels", "simulate"])
def test_the_package_exports_every_public_name_of_each_module(module):
    names = getattr(substat, module).__all__
    assert {name: getattr(substat, name, None) for name in names} == {
        name: getattr(getattr(substat, module), name) for name in names
    }
    assert set(names) <= set(substat.__all__)
    assert len(substat.__all__) == len(set(substat.__all__))


def test_the_package_ships_no_test_instrument():
    # the quadrature oracle and its Gaussians live in tests/oracles.py
    gone = ("QuadratureError", "correction_substat_quadrature", "kernel_1d", "normal_pdf")
    assert [name for name in gone if hasattr(substat, name) or hasattr(substat.kernels, name)] == []
    assert "return_parents" not in inspect.signature(substat.simulate_thomas).parameters


def test_importing_the_package_loads_no_scipy_module_but_special():
    # a fresh interpreter, since this one has imported scipy for other tests;
    # the package's work, not only its import, must leave the heavy modules out
    code = """
import sys
import numpy as np
import substat.cli
from substat import PointPattern, Subspace, Window, bandwidth_cv_scores
from substat import correction_substat_closed, fit_theta
rng = np.random.default_rng(7)
pattern = PointPattern(rng.uniform(0, 2, 80), rng.beta(3, 3, 80), Window(2, 1))
fit_theta(pattern, 0.1, search_halfwidth_deg=6.0)
bandwidth_cv_scores(pattern, Subspace(0.0), (0.05, 0.1))
print(correction_substat_closed(Subspace(0.0), Window(1, 1), 0.05, 0.5))
heavy = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.stats")
print(sorted(name for name in heavy if name in sys.modules))
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
    correction, loaded = run.stdout.splitlines()
    assert float(correction) == pytest.approx(1.0, rel=1e-9)
    assert loaded == "[]"
