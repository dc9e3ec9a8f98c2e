"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line with its headline numbers so a verbose run
doubles as the acceptance report.  Replication counts follow the desk
protocol (R=100 with fixed seeds); the published values quoted in the
assertions come from thousand-replication runs, so the bands allow for
Monte Carlo spread.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from substat.estimate import SubstationaryIntensity
from substat.experiments import (
    ExperimentPlan,
    run_table1,
    run_table2,
)
from substat.geometry import PointPattern, Subspace, Window, v_range
from substat.io import run_application_pipeline
from substat.kernels import correction_substat_closed, normal_cdf
from substat.simulate import PoissonBetaModel, RngStream, simulate_poisson_beta

from oracles import correction_substat_quadrature, normal_pdf

MASTER_SEED = 20260809

# ---------------------------------------------------------------------------
# criterion 1: closed-form boundary correction equals the quadrature oracle,
# and the direct four-branch transcription is recovered at unit window height
# ---------------------------------------------------------------------------


def _direct_branch_formula(theta: float, z: float, omega: float, h: float, v: float) -> float:
    """Four-branch closed form written out verbatim, one branch per angle sign."""
    phi, Phi = normal_pdf, normal_cdf
    if theta == 0.0:
        return z * (Phi((omega - v) / h) - Phi(-v / h))
    if theta == -math.pi / 2:
        return omega * (Phi((z - v) / h) - Phi(-v / h))
    s, c = math.sin(theta), math.cos(theta)
    if theta > 0:
        knee = omega * c - z * s
        lo_knee, hi_knee = min(knee, 0.0), max(knee, 0.0)
        return (
            (z / c + v / (s * c)) * (Phi((lo_knee - v) / h) - Phi((-z * s - v) / h))
            + h / (s * c) * (phi((-z * s - v) / h) - phi((lo_knee - v) / h))
            + min(z / c, omega / s) * (Phi((hi_knee - v) / h) - Phi((lo_knee - v) / h))
            + (omega * c - v) / (s * c) * (Phi((omega * c - v) / h) - Phi((hi_knee - v) / h))
            - h / (s * c) * (phi((hi_knee - v) / h) - phi((omega * c - v) / h))
        )
    lo_knee = min(-z * s, omega * c)
    hi_knee = max(-z * s, omega * c)
    top = -z * s + omega * c
    return (
        -v / (s * c) * (Phi((lo_knee - v) / h) - Phi(-v / h))
        - h / (s * c) * (phi(-v / h) - phi((lo_knee - v) / h))
        + min(z / c, -omega / s) * (Phi((hi_knee - v) / h) - Phi((lo_knee - v) / h))
        + (z * s - omega * c + v) / (s * c) * (Phi((top - v) / h) - Phi((hi_knee - v) / h))
        + h / (s * c) * (phi((hi_knee - v) / h) - phi((top - v) / h))
    )


def test_criterion_1_boundary_correction_equivalence():
    thetas = (0.0, -math.pi / 2, math.pi / 4, -1.2, 0.3)
    windows = ((1.0, 1.0), (10.0, 1.0), (2.0, 3.0))
    bandwidths = (0.01, 0.05, 0.1)
    worst_oracle = 0.0
    for theta in thetas:
        sub = Subspace(theta)
        for dims in windows:
            w = Window(*dims)
            lo, hi = v_range(sub, w)
            for h in bandwidths:
                for k in range(20):
                    v = lo + (k + 0.5) / 20 * (hi - lo)
                    oracle = correction_substat_quadrature(sub, w, h, v)
                    closed = correction_substat_closed(sub, w, h, v)
                    worst_oracle = max(worst_oracle, abs(closed - oracle) / oracle)
    assert worst_oracle < 1e-6

    worst_direct = 0.0
    for theta in (0.0, -math.pi / 2, 0.3, 1.1, -0.3, -1.1):
        sub = Subspace(theta)
        for z in (1.0, 3.0):
            w = Window(z, 1.0)
            lo, hi = v_range(sub, w)
            for h in bandwidths:
                for k in range(15):
                    v = lo + (k + 0.5) / 15 * (hi - lo)
                    direct = _direct_branch_formula(theta, z, 1.0, h, v)
                    closed = correction_substat_closed(sub, w, h, v)
                    worst_direct = max(worst_direct, abs(closed - direct) / direct)
    assert worst_direct < 1e-9
    print(
        f"\ncriterion 1: PASS (oracle gap {worst_oracle:.2e}, "
        f"unit-height transcription gap {worst_direct:.2e})"
    )


# ---------------------------------------------------------------------------
# criterion 2: the horizontal-axis estimator reduces to the direct formula
# ---------------------------------------------------------------------------


def test_criterion_2_axis_reduction():
    rng = np.random.default_rng(MASTER_SEED)
    sqrt_2pi = math.sqrt(2 * math.pi)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(0.5, 10.0)
        n = rng.integers(5, 300)
        x = rng.uniform(0, z, n)
        y = rng.uniform(0, 1, n)
        pat = PointPattern(x, y, Window(z, 1.0))
        h = rng.uniform(0.01, 0.2)
        grid = rng.uniform(0.02, 0.98, 25)
        est = SubstationaryIntensity(pat, 0.0, h)
        got = est.evaluate(grid)
        direct = np.array(
            [
                np.sum(np.exp(-((y - v) ** 2) / (2 * h * h)))
                / (sqrt_2pi * h)
                / (z * (normal_cdf((1 - v) / h) - normal_cdf(-v / h)))
                for v in grid
            ]
        )
        worst = max(worst, np.max(np.abs(got - direct) / direct))
    assert worst < 1e-12
    print(f"\ncriterion 2: PASS (worst relative gap {worst:.2e} over 100 patterns)")


# ---------------------------------------------------------------------------
# criterion 3: direction-estimate error on the replication protocol
# ---------------------------------------------------------------------------


def test_criterion_3_direction_error_cells():
    lines = []

    plan = ExperimentPlan(
        "poisson", (3.0,), (10.0,), (0.05,), 100, MASTER_SEED, "table1"
    )
    got = run_table1(plan, threads=0).cell("poisson", 3, 10, 0.05, "theta_hat").metric_value
    assert got <= 0.35  # published 0.11
    lines.append(f"poisson a=3 z=10 h=0.05 -> {got:.3f} deg (<= 0.35)")

    plan = ExperimentPlan(
        "poisson", (1.5,), (1.0,), (0.01,), 100, MASTER_SEED, "table1"
    )
    got = run_table1(plan, threads=0).cell("poisson", 1.5, 1, 0.01, "theta_hat").metric_value
    assert 2.8 <= got <= 6.5  # published 4.24
    lines.append(f"poisson a=1.5 z=1 h=0.01 -> {got:.3f} deg (in [2.8, 6.5])")

    plan = ExperimentPlan(
        "thomas", (3.0,), (10.0,), (0.05, 0.1), 100, MASTER_SEED, "table1"
    )
    result = run_table1(plan, threads=0)
    got_h10 = result.cell("thomas", 3, 10, 0.1, "theta_hat").metric_value
    assert 0.2 <= got_h10 <= 0.8  # published 0.35
    lines.append(f"thomas a=3 z=10 h=0.1 -> {got_h10:.3f} deg (in [0.2, 0.8])")
    got_h05 = result.cell("thomas", 3, 10, 0.05, "theta_hat").metric_value
    assert got_h05 <= 1.0  # published 0.34
    lines.append(f"thomas a=3 z=10 h=0.05 -> {got_h05:.3f} deg (<= 1.0)")

    print("\ncriterion 3: PASS")
    for line in lines:
        print(f"  {line}")


# ---------------------------------------------------------------------------
# criterion 4: intensity-estimator risk on the replication protocol
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table2_poisson_a1_z1():
    plan = ExperimentPlan("poisson", (1.0,), (1.0,), (0.05,), 100, MASTER_SEED, "table2")
    return run_table2(plan, threads=0)


@pytest.fixture(scope="module")
def table2_poisson_a2_z10():
    plan = ExperimentPlan("poisson", (2.0,), (10.0,), (0.05,), 100, MASTER_SEED, "table2")
    return run_table2(plan, threads=0)


@pytest.fixture(scope="module")
def table2_poisson_a3_z10():
    plan = ExperimentPlan("poisson", (3.0,), (10.0,), (0.05,), 100, MASTER_SEED, "table2")
    return run_table2(plan, threads=0)


def test_criterion_4_intensity_risk_cells(
    table2_poisson_a1_z1, table2_poisson_a2_z10, table2_poisson_a3_z10
):
    lines = []

    stationary = table2_poisson_a1_z1.cell("poisson", 1, 1, 0.05, "stationary").metric_value
    assert 8.0 <= stationary <= 12.5  # published 10.33, exact Poisson value 10
    lines.append(f"a=1 z=1 stationary -> {stationary:.2f} (in [8.0, 12.5])")

    known = table2_poisson_a2_z10.cell("poisson", 2, 10, 0.05, "substat_known").metric_value
    assert 8.92 * 0.65 <= known <= 8.92 * 1.35
    lines.append(f"a=2 z=10 known-direction -> {known:.2f} (8.92 +- 35%)")

    smooth2d = table2_poisson_a2_z10.cell("poisson", 2, 10, 0.05, "kernel2d").metric_value
    assert 57.41 * 0.85 <= smooth2d <= 57.41 * 1.15
    lines.append(f"a=2 z=10 bivariate smoother -> {smooth2d:.2f} (57.41 +- 15%)")

    fitted = table2_poisson_a2_z10.cell("poisson", 2, 10, 0.05, "substat_fitted").metric_value
    assert 9.33 * 0.65 <= fitted <= 9.33 * 1.35
    lines.append(f"a=2 z=10 fitted-direction -> {fitted:.2f} (9.33 +- 35%)")

    flat = table2_poisson_a2_z10.cell("poisson", 2, 10, 0.05, "stationary").metric_value
    assert 44.82 * 0.65 <= flat <= 44.82 * 1.35
    lines.append(f"a=2 z=10 constant -> {flat:.2f} (44.82 +- 35%)")

    known3 = table2_poisson_a3_z10.cell("poisson", 3, 10, 0.05, "substat_known").metric_value
    smooth3 = table2_poisson_a3_z10.cell("poisson", 3, 10, 0.05, "kernel2d").metric_value
    ratio = known3 / smooth3
    assert ratio <= 0.3  # published ratio about 0.14
    lines.append(f"a=3 z=10 efficiency ratio -> {ratio:.3f} (<= 0.3)")

    # ordering oracle: rerunning the a=3, z=10 row under fresh master seeds
    # must reproduce the row ordering (knowing the direction never hurts on
    # average, and both subspace smoothers beat the other two)
    seeds_ok = 0
    seed_count = 12
    for k in range(seed_count):
        plan = ExperimentPlan(
            "poisson", (3.0,), (10.0,), (0.05,), 12, MASTER_SEED + 100 + k, "table2"
        )
        res = run_table2(plan, threads=0)
        vals = {
            name: res.cell("poisson", 3, 10, 0.05, name).metric_value
            for name in ("substat_known", "substat_fitted", "kernel2d", "stationary")
        }
        ordered = (
            vals["substat_known"] <= vals["substat_fitted"]
            and vals["substat_fitted"] < vals["stationary"]
            and vals["substat_fitted"] < vals["kernel2d"]
        )
        seeds_ok += ordered
    assert seeds_ok >= math.ceil(0.95 * seed_count)
    lines.append(f"a=3 z=10 row ordering held for {seeds_ok}/{seed_count} master seeds")

    # aggregate version of the same invariant, in every computed cell
    for result, (a, z) in (
        (table2_poisson_a1_z1, (1, 1)),
        (table2_poisson_a2_z10, (2, 10)),
        (table2_poisson_a3_z10, (3, 10)),
    ):
        k = result.cell("poisson", a, z, 0.05, "substat_known")
        f = result.cell("poisson", a, z, 0.05, "substat_fitted")
        slack = 2 * math.hypot(k.mc_standard_error, f.mc_standard_error)
        assert k.metric_value <= f.metric_value + slack

    print("\ncriterion 4: PASS")
    for line in lines:
        print(f"  {line}")


def test_table2_cluster_process_cell():
    # published row: 24.30, 27.19, 125.90, 66.37
    plan = ExperimentPlan("thomas", (3.0,), (5.0,), (0.05,), 100, MASTER_SEED, "table2")
    result = run_table2(plan, threads=0)
    known = result.cell("thomas", 3, 5, 0.05, "substat_known").metric_value
    fitted = result.cell("thomas", 3, 5, 0.05, "substat_fitted").metric_value
    smooth2d = result.cell("thomas", 3, 5, 0.05, "kernel2d").metric_value
    stationary = result.cell("thomas", 3, 5, 0.05, "stationary").metric_value
    assert 24.30 * 0.65 <= known <= 24.30 * 1.35
    assert 27.19 * 0.65 <= fitted <= 27.19 * 1.35
    assert 125.90 * 0.85 <= smooth2d <= 125.90 * 1.15
    assert 66.37 * 0.65 <= stationary <= 66.37 * 1.35
    print(
        f"\ncluster-process risk row: PASS ({known:.2f}, {fitted:.2f}, "
        f"{smooth2d:.2f}, {stationary:.2f})"
    )


# ---------------------------------------------------------------------------
# criterion 5: translation equalities of the simulators
# ---------------------------------------------------------------------------


def _box_count(pat, x0, x1, y0, y1):
    return int(np.sum((pat.x >= x0) & (pat.x < x1) & (pat.y >= y0) & (pat.y < y1)))


def test_criterion_5_translation_equalities():
    reps = 2000
    lines = []
    # a box and its horizontal translate collect the same expected count
    for a in (1.0, 2.0, 3.0):
        model = PoissonBetaModel(a, Window(1.0))
        diffs = np.empty(reps)
        for i in range(reps):
            pat = simulate_poisson_beta(model, RngStream(MASTER_SEED + 1, 10_000 + i))
            diffs[i] = _box_count(pat, 0.0, 0.2, 0.1, 0.3) - _box_count(
                pat, 0.5, 0.7, 0.1, 0.3
            )
        se = diffs.std(ddof=1) / math.sqrt(reps)
        assert abs(diffs.mean()) < 3 * se
        lines.append(f"translate a={a}: |mean diff| {abs(diffs.mean()):.4f} < 3*SE {3*se:.4f}")

    # equal slice lengths imply equal expected counts even without translation:
    # two half-width strips against one strip of the combined width
    model = PoissonBetaModel(2.0, Window(1.0))
    diffs = np.empty(reps)
    for i in range(reps):
        pat = simulate_poisson_beta(model, RngStream(MASTER_SEED + 2, 20_000 + i))
        split = _box_count(pat, 0.0, 0.25, 0.4, 0.6) + _box_count(pat, 0.75, 1.0, 0.4, 0.6)
        joined = _box_count(pat, 0.25, 0.75, 0.4, 0.6)
        diffs[i] = split - joined
    se = diffs.std(ddof=1) / math.sqrt(reps)
    assert abs(diffs.mean()) < 3 * se
    lines.append(f"equal-slice: |mean diff| {abs(diffs.mean()):.4f} < 3*SE {3*se:.4f}")

    print("\ncriterion 5: PASS")
    for line in lines:
        print(f"  {line}")


# ---------------------------------------------------------------------------
# criterion 6: risk decay as the window grows with h ~ z^(-1/2)/10
# ---------------------------------------------------------------------------


def test_criterion_6_mse_decay_with_window_growth():
    truth = PoissonBetaModel(2.0, Window(1.0)).intensity(0.5)
    mses = []
    for z in (1.0, 5.0, 25.0):
        model = PoissonBetaModel(2.0, Window(z))
        h = 1.0 / (math.sqrt(z) * 10.0)
        errs = np.empty(200)
        for i in range(200):
            pat = simulate_poisson_beta(model, RngStream(MASTER_SEED + 3, int(z * 1000) + i))
            est = SubstationaryIntensity(pat, 0.0, h)
            errs[i] = (est.evaluate(0.5) - truth) ** 2
        mses.append(errs.mean())
    assert mses[0] > mses[1] > mses[2]
    print(
        f"\ncriterion 6: PASS (MSE at z=1,5,25: {mses[0]:.1f} > {mses[1]:.1f} > {mses[2]:.1f})"
    )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical experiment output across thread counts
# ---------------------------------------------------------------------------


def test_criterion_7_thread_count_determinism(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "process = poisson\n"
        "a_values = 2.0\n"
        # z=50 expects 5000 points, above the thread pool's threshold, so the
        # four-thread run replicates that cell on a pool
        "z_values = 1.0, 50.0\n"
        "h_values = 0.05\n"
        "replications = 3\n"
    )
    outputs = []
    for threads, name in ((1, "one.csv"), (4, "four.csv")):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "substat.cli", "experiment", "table1",
                "--config", str(cfg), "--seed", "11", "--threads", str(threads),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print("\ncriterion 7: PASS (CSV bytes identical across --threads 1 and 4)")


# ---------------------------------------------------------------------------
# criterion 8: application pipeline behavior on synthetic data
# ---------------------------------------------------------------------------


def test_criterion_8_application_pipeline():
    directional = simulate_poisson_beta(
        PoissonBetaModel(3.0, Window(10.0)), RngStream(MASTER_SEED + 4, 0)
    )
    report = run_application_pipeline(directional, [0.05])
    row = report.rows[0]
    assert abs(row.theta_hat_deg) < 1.0
    assert row.delta_loglik >= 0.0

    # 100 seeded runs: strictly stronger than the required 90% of 50
    model = PoissonBetaModel(1.0, Window(1.0))
    runs = 100
    ignorable = 0
    for i in range(runs):
        pat = simulate_poisson_beta(model, RngStream(MASTER_SEED + 5, i))
        rep = run_application_pipeline(pat, [0.05])
        ignorable += rep.rows[0].ignorable
    assert ignorable >= 0.9 * runs
    print(
        f"\ncriterion 8: PASS (directional fit {row.theta_hat_deg:.3f} deg, "
        f"gain {row.delta_loglik:.2f}; flat-truth gain ignorable in {ignorable}/{runs} runs)"
    )
