import math

import numpy as np
import pytest

from mondrianforest import (
    BoxRegion,
    SyntheticTask,
    classification_sweep,
    estimate_risk,
    expected_leaf_count,
    lipschitz_risk_bound,
    rate_sweep,
    tree_vs_forest,
    verify_cell_distribution,
    verify_diameter,
    verify_leaf_count,
    verify_restriction,
    RiskBoundParams,
)
from mondrianforest import harness
from mondrianforest.harness import _poisson_chisquare


# -- tasks -------------------------------------------------------------------

def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask(kind="smooth")
    with pytest.raises(ValueError):
        SyntheticTask(kind="lipschitz_1d", d=2)
    with pytest.raises(ValueError):
        SyntheticTask(kind="linear_1d", target="pyramid")
    with pytest.raises(ValueError):
        SyntheticTask(kind="classification_d", target="pyramid")
    with pytest.raises(ValueError):
        SyntheticTask(kind="c2_d", d=2, target="sine_wave_probability")


def test_linear_task_is_one_plus_x():
    task = SyntheticTask(kind="linear_1d", sigma=0.0)
    X = np.array([[0.0], [0.25], [1.0]])
    assert np.array_equal(task.f(X), np.array([1.0, 1.25, 2.0]))
    assert task.lipschitz == 1.0 and task.sup_f == 2.0


def test_task_constants_scale_with_dimension():
    task = SyntheticTask(kind="c2_d", d=4)
    assert task.grad_sup == pytest.approx(math.pi / 2.0)
    assert task.hess_sup == pytest.approx(math.pi**2 / 4.0)
    lip = SyntheticTask(kind="lipschitz_d", d=9)
    assert lip.sup_f == pytest.approx(1.5)


def test_task_sampling_shapes_and_noise():
    from mondrianforest import RngStream

    task = SyntheticTask(kind="lipschitz_d", d=3, sigma=0.5)
    X, y = task.sample_data(2000, RngStream(4))
    assert X.shape == (2000, 3) and y.shape == (2000,)
    resid = y - task.f(X)
    assert abs(resid.std() - 0.5) < 0.05
    clf = SyntheticTask(kind="classification_d", d=1)
    _, labels = clf.sample_data(500, RngStream(5))
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_bayes_risk_quadrature_matches_closed_form():
    task = SyntheticTask(kind="classification_d", d=1)
    # min(eta, 1-eta) = 1/2 - |sin(2 pi x)| / 2 integrates to 1/2 - 1/pi
    assert task.bayes_risk() == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-9)
    assert SyntheticTask(kind="classification_d", target="coin_flip").bayes_risk() == \
        pytest.approx(0.5, abs=1e-12)


# -- estimate_risk -----------------------------------------------------------

def test_constant_noiseless_zero_lifetime_risk_is_exactly_zero():
    task = SyntheticTask(kind="lipschitz_1d", target="constant", sigma=0.0)
    risk, se = estimate_risk(task, n=10, lifetime=0.0, n_trees=2, replicates=3,
                             n_test=100, seed=1)
    assert risk == 0.0 and se == 0.0


def test_risk_below_lipschitz_bound():
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    risk, se = estimate_risk(task, n=1000, lifetime=10.0, n_trees=5, replicates=6,
                             n_test=1024, seed=2)
    bound = lipschitz_risk_bound(RiskBoundParams(
        d=1, lifetime=10.0, n=1000, sigma2=0.01, lipschitz=1.0, sup_f=0.5))
    assert risk <= bound + 3 * se


def test_risk_replicates_validation():
    task = SyntheticTask(kind="lipschitz_1d")
    with pytest.raises(ValueError):
        estimate_risk(task, 10, 1.0, 1, replicates=1, n_test=10, seed=0)


def test_risk_is_deterministic_given_seed():
    task = SyntheticTask(kind="linear_1d", sigma=0.3)
    a = estimate_risk(task, 50, 2.0, 3, replicates=4, n_test=64, seed=9)
    b = estimate_risk(task, 50, 2.0, 3, replicates=4, n_test=64, seed=9)
    assert a == b


def test_more_test_points_shrink_the_standard_error():
    task = SyntheticTask(kind="linear_1d", sigma=1.0)
    _, se_small = estimate_risk(task, 40, 5.0, 1, replicates=40, n_test=16, seed=3)
    _, se_big = estimate_risk(task, 40, 5.0, 1, replicates=40, n_test=4096, seed=3)
    assert se_big < se_small


def test_parallel_replicates_match_serial():
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.2)
    serial = estimate_risk(task, 60, 3.0, 2, replicates=4, n_test=128, seed=7, workers=1)
    parallel = estimate_risk(task, 60, 3.0, 2, replicates=4, n_test=128, seed=7, workers=2)
    assert serial == parallel


@pytest.fixture
def pools(monkeypatch):
    """Sizes of the process pools built; the pools map in-process."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return built


POOLED_EXPERIMENTS = {
    # experiment(workers), replicate count of the whole experiment
    "rate_sweep": (lambda workers: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.2), [20, 40, 80], "fixed", 3.0, 1,
        replicates=2, seed=5, n_test=16, workers=workers), 6),
    "tree_vs_forest": (lambda workers: tree_vs_forest(
        20, [1.0, 4.0], 2, replicates=2, seed=5, n_test=16, curved_n=20,
        workers=workers), 12),
    "classification_sweep": (lambda workers: classification_sweep(
        1, [16, 32], "lipschitz", 1, replicates=3, seed=5, workers=workers), 6),
}


@pytest.mark.parametrize("name", sorted(POOLED_EXPERIMENTS))
@pytest.mark.parametrize("cpus", [4, 64])
def test_experiment_builds_one_capped_pool(pools, monkeypatch, name, cpus):
    experiment, payloads = POOLED_EXPERIMENTS[name]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    pooled = experiment(64)
    assert pools == [min(64, payloads, cpus)]
    assert pooled.to_json() == experiment(1).to_json()
    assert len(pools) == 1  # one worker builds no pool


@pytest.mark.parametrize("workers", [0, -2])
def test_risk_workers_validation(pools, workers):
    task = SyntheticTask(kind="lipschitz_1d")
    with pytest.raises(ValueError, match="workers"):
        estimate_risk(task, 10, 1.0, 1, replicates=2, n_test=10, seed=0, workers=workers)
    assert pools == []


# -- verify operations -------------------------------------------------------

def test_verify_leaf_count_passes_and_echoes_config():
    report = verify_leaf_count(2, 5.0, samples=1200, seed=3)
    assert report.passed
    assert report.config == {"d": 2, "lifetime": 5.0, "samples": 1200, "seed": 3}
    assert report.oracle["expected_leaf_count"] == expected_leaf_count(5.0, 2)
    verdict = report.verdicts[0]
    assert "4" in verdict.rule and verdict.sample_size == 1200


def test_verify_leaf_count_zero_lifetime_exact():
    report = verify_leaf_count(3, 0.0, samples=50, seed=1)
    row = report.grid[0]
    assert row["mean_leaves"] == 1.0 and row["se"] == 0.0
    assert report.passed


def test_verify_leaf_count_1d_includes_poisson_gof():
    report = verify_leaf_count(1, 3.0, samples=3000, seed=11)
    names = [v.name for v in report.verdicts]
    assert "poisson-splits-gof" in names
    assert report.passed


def test_poisson_chisquare_rejects_wrong_law():
    rng = np.random.default_rng(0)
    wrong = rng.poisson(4.5, size=3000)
    _, _, pvalue = _poisson_chisquare(wrong, 3.0)
    assert pvalue < 1e-6
    right = rng.poisson(3.0, size=3000)
    _, _, p_ok = _poisson_chisquare(right, 3.0)
    assert p_ok > 1e-3


def test_verify_cell_distribution_small_run_passes():
    report = verify_cell_distribution(1, 10.0, [0.5], samples=1500, seed=5)
    assert report.passed
    names = {v.name for v in report.verdicts}
    assert {"atom-left-x0", "atom-right-x0", "ks-left-x0", "ks-right-x0",
            "independence-left-x0-right-x0"} <= names


def test_verify_cell_distribution_rejects_boundary_point():
    with pytest.raises(ValueError):
        verify_cell_distribution(2, 5.0, [0.0, 0.5], samples=10, seed=1)


def test_cell_distribution_atoms_shrink_with_lifetime():
    small = verify_cell_distribution(1, 2.0, [0.5], samples=400, seed=6)
    large = verify_cell_distribution(1, 8.0, [0.5], samples=400, seed=6)
    assert small.oracle["atom-left-x0"] > large.oracle["atom-left-x0"]


def test_verify_diameter_passes_and_brackets_freq():
    report = verify_diameter(2, 4.0, [0.5, 0.5], samples=1500, seed=7)
    assert report.passed
    freqs = [row["tail_freq"] for row in report.grid]
    assert freqs == sorted(freqs, reverse=True)
    tiny = verify_diameter(1, 3.0, [0.5], samples=300, seed=8,
                           delta_grid=[0.0, 10.0])
    rows = tiny.grid
    assert rows[0]["tail_freq"] == 1.0 and rows[0]["bound"] >= 1.0
    assert rows[1]["tail_freq"] == 0.0


def test_verify_restriction_unit_sub_matches_cube_law():
    report = verify_restriction(2, 3.0, BoxRegion.unit(2), samples=400, seed=9)
    assert report.oracle["expected_leaf_count_box"] == expected_leaf_count(3.0, 2)
    assert report.passed


def test_verify_restriction_zero_lifetime_always_one_leaf():
    sub = BoxRegion([0.2, 0.1], [0.6, 0.4])
    report = verify_restriction(2, 0.0, sub, samples=60, seed=10)
    assert report.grid[0]["mean_restricted"] == 1.0
    assert report.passed


def test_verify_restriction_rejects_outside_sub():
    with pytest.raises(ValueError):
        verify_restriction(2, 2.0, BoxRegion([0.5, 0.5], [1.2, 0.8]), samples=10, seed=1)


# -- sweeps ------------------------------------------------------------------

def test_rate_sweep_needs_three_points():
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    with pytest.raises(ValueError):
        rate_sweep(task, [256, 512], "lipschitz", 1.0, 1, replicates=2, seed=1)


def test_rate_sweep_small_run_reports_slope():
    # a desk-size smoke run: the slope is noisy at this scale, so only its
    # sign and rough magnitude are checked (the schedule-scale sweep lives in
    # the acceptance suite)
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    report = rate_sweep(task, [128, 512, 2048, 8192], "lipschitz", 1.0, 1,
                        replicates=8, seed=2, n_test=1024)
    assert report.oracle["slope"] < -0.25
    assert report.oracle["slope_target"] == pytest.approx(-2.0 / 3.0)
    assert {row["n"] for row in report.grid} == {128, 512, 2048, 8192}


def test_rate_sweep_c2_schedule_reaches_smooth_rate():
    # risk conditional on the 0.1-interior (the smooth-target theory excludes
    # the boundary layer); schedule scale is a free parameter and 5 puts the
    # lifetime range into the asymptotic regime at these sample sizes
    task = SyntheticTask(kind="c2_d", d=1, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "c2", 5.0, "c2",
                        replicates=16, seed=1, n_test=4096, eval_margin=0.1)
    assert report.oracle["slope_target"] == pytest.approx(-0.8)
    assert abs(report.oracle["slope"] - (-0.8)) <= 0.15
    assert report.passed
    trees = [row["n_trees"] for row in report.grid]
    assert trees == sorted(trees) and trees[0] >= 1


def test_rate_sweep_fixed_schedule_is_shallower():
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    tuned = rate_sweep(task, [256, 1024, 4096], "lipschitz", 1.0, 1,
                       replicates=6, seed=3, n_test=512)
    flat = rate_sweep(task, [256, 1024, 4096], "fixed", 4.0, 1,
                      replicates=6, seed=3, n_test=512)
    assert flat.oracle["slope"] > tuned.oracle["slope"]
    assert flat.oracle["slope"] > -0.45
    assert flat.verdicts == []


def test_tree_vs_forest_single_tree_forest_matches_tree_column():
    report = tree_vs_forest(100, [2.0, 6.0], m_large=1, replicates=3, seed=4,
                            curved_n=150, n_test=256)
    curved = [row for row in report.grid if row["task"] == "curved"]
    trees = {row["lifetime"]: row["risk"] for row in curved if row["n_trees"] == 1}
    # with m_large=1 the forest rows repeat the tree rows exactly
    assert len(curved) == 4
    for lam in (2.0, 6.0):
        risks = [row["risk"] for row in curved if row["lifetime"] == lam]
        assert risks[0] == risks[1] == trees[lam]


def test_tree_vs_forest_requires_lower_bound_regime():
    with pytest.raises(ValueError):
        tree_vs_forest(17, [1.0], m_large=2, replicates=2, seed=1)


def test_forest_risk_not_worse_within_noise():
    report = tree_vs_forest(400, [4.0], m_large=30, replicates=6, seed=5,
                            curved_n=2000, n_test=512)
    curved = [row for row in report.grid if row["task"] == "curved"]
    tree_risk = next(r for r in curved if r["n_trees"] == 1)
    forest_risk = next(r for r in curved if r["n_trees"] == 30)
    slack = 2 * math.hypot(tree_risk["se"], forest_risk["se"])
    assert forest_risk["risk"] <= tree_risk["risk"] + slack


def test_classification_certain_labels_zero_excess():
    report = classification_sweep(1, [4, 8], "fixed", 1, replicates=3, seed=6,
                                  scale=0.0, target="certain_one")
    assert all(row["risk"] == 0.0 for row in report.grid)
    assert report.oracle["bayes_risk"] == pytest.approx(0.0, abs=1e-12)


def test_classification_coin_flip_zero_excess():
    report = classification_sweep(1, [16, 32], "fixed", 2, replicates=3, seed=7,
                                  scale=2.0, target="coin_flip")
    for row in report.grid:
        assert row["risk"] == pytest.approx(0.0, abs=1e-12)


def test_classification_excess_decreases_on_default_target():
    report = classification_sweep(1, [2**9, 2**13], "lipschitz", 20,
                                  replicates=12, seed=8)
    risks = [row["risk"] for row in report.grid]
    assert risks[0] > risks[1]
    assert report.config["evaluation"] == "exact-1d"


# -- reports -----------------------------------------------------------------

def test_reports_are_deterministic():
    a = verify_leaf_count(2, 3.0, samples=300, seed=12)
    b = verify_leaf_count(2, 3.0, samples=300, seed=12)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_report_json_excludes_timing_by_default():
    report = verify_leaf_count(1, 2.0, samples=200, seed=13)
    assert report.wall_clock > 0
    assert "wall_clock" not in report.to_json()
    assert "wall_clock_seconds" in report.to_json(include_timing=True)


def test_report_csv_column_order():
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    report = rate_sweep(task, [64, 128, 256], "lipschitz", 1.0, 1,
                        replicates=2, seed=14, n_test=128)
    header = report.to_csv().splitlines()[0]
    assert header.startswith("n,lifetime,n_trees,risk,se")


def test_verdict_only_report_csv_lists_verdicts():
    report = verify_cell_distribution(1, 5.0, [0.5], samples=300, seed=15)
    lines = report.to_csv().splitlines()
    assert lines[0] == "verdict,passed,statistic,threshold,rule,sample_size"
    assert len(lines) == 1 + len(report.verdicts)
