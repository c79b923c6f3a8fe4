import math
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mondrianforest import (
    BoxRegion,
    SyntheticTask,
    classification_sweep,
    estimate_risk,
    expected_leaf_count,
    fit_forest,
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


@pytest.mark.parametrize("d", [2.5, 2.0, True, "2"])
def test_task_refuses_a_dimension_that_is_not_an_int(d):
    # 2.5 was accepted and only failed later, inside numpy, once data were drawn
    with pytest.raises(ValueError, match=rf"d must be an int >= 1, got {re.escape(repr(d))}$"):
        SyntheticTask(kind="lipschitz_d", d=d)


def test_task_keeps_a_numpy_int_dimension_as_an_int():
    task = SyntheticTask(kind="lipschitz_d", d=np.int64(2))
    assert type(task.d) is int and task.d == 2


def test_task_refuses_an_unknown_target():
    with pytest.raises(ValueError, match=r"^unknown target 'nope'$"):
        SyntheticTask(kind="lipschitz_d", d=2, target="nope")


def test_bayes_risk_refuses_a_regression_task():
    with pytest.raises(ValueError, match=r"^bayes_risk is defined for classification tasks$"):
        SyntheticTask(kind="lipschitz_1d").bayes_risk()


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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_probability_targets_depend_on_the_first_coordinate_alone(d):
    # SyntheticTask.bayes_risk integrates min(eta, 1 - eta) over x1 alone
    gen = np.random.default_rng(d)
    X = gen.random((64, d))
    moved = np.column_stack([X[:, 0], gen.random((64, d - 1))])
    targets = [name for name, spec in harness._TARGETS.items()
               if spec.eta_antiderivative is not None]
    assert targets
    for target in targets:
        task = SyntheticTask(kind="classification_d", d=d, target=target)
        assert np.array_equal(task.f(X), task.f(moved)), target


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


@pytest.mark.parametrize("name", ["verify_cell_distribution", "verify_restriction"])
def test_parallel_samples_match_serial(monkeypatch, name):
    # a real pool pickles every payload, its statistic included, and every value
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    experiment, _ = POOLED_EXPERIMENTS[name]
    assert experiment(2).to_json() == experiment(1).to_json()
    assert built == [2]


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
        workers=workers), 8),
    "classification_sweep": (lambda workers: classification_sweep(
        1, [16, 32], "lipschitz", 1, replicates=3, seed=5, workers=workers), 6),
    # experiment(workers), partition sample count of the whole experiment
    "verify_leaf_count": (lambda workers: verify_leaf_count(
        1, 3.0, samples=40, seed=5, workers=workers), 40),
    "verify_cell_distribution": (lambda workers: verify_cell_distribution(
        2, 4.0, [0.5, 0.25], samples=40, seed=5, workers=workers), 40),
    "verify_diameter": (lambda workers: verify_diameter(
        2, 3.0, [0.5, 0.5], samples=40, seed=5, workers=workers), 40),
    "verify_restriction": (lambda workers: verify_restriction(
        2, 4.0, BoxRegion([0.2, 0.1], [0.6, 0.4]), samples=40, seed=5, workers=workers), 80),
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


@pytest.mark.parametrize("n, most_chunks", [(360, 360 // 2), (10_000, 10_000 // 32)])
def test_map_ships_shrinking_chunks_that_end_one_payload_at_a_time(monkeypatch, n, most_chunks):
    # long chunks while much is left; single payloads at the end, where the
    # costliest replicates of a grid sit
    shipped = []

    class ChunkPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            shipped.extend(len(chunk) for chunk in chunks)
            return map(fn, chunks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", ChunkPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert harness._map(lambda p: -p, list(range(n)), 2) == [-p for p in range(n)]
    assert shipped[0] == n // 32
    assert shipped == sorted(shipped, reverse=True)
    assert shipped[-62:] == [1] * 62
    assert len(shipped) < most_chunks


@pytest.mark.parametrize("workers", [0, -2])
def test_risk_workers_validation(pools, workers):
    task = SyntheticTask(kind="lipschitz_1d")
    with pytest.raises(ValueError, match="workers"):
        estimate_risk(task, 10, 1.0, 1, replicates=2, n_test=10, seed=0, workers=workers)
    assert pools == []


def test_map_refuses_a_fractional_worker_count_before_building_a_pool(monkeypatch):
    # with 8 CPUs, 2.5 workers used to reach the chunk slicing and die there with a TypeError
    def no_pool(max_workers):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    with pytest.raises(ValueError, match=r"^workers must be an int >= 1, got 2\.5$"):
        harness._map(abs, list(range(100)), 2.5)


def test_verifiers_refuse_a_bool_worker_count(pools):
    # True used to run the samples in-process as one worker
    with pytest.raises(ValueError, match=r"^workers must be an int >= 1, got True$"):
        verify_leaf_count(1, 3.0, samples=40, seed=5, workers=True)
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


@pytest.mark.parametrize("x", [[0.5, math.nan], [math.nan, 0.5], [0.5, -math.inf]])
@pytest.mark.parametrize("workers", [1, 2])
def test_verify_cell_distribution_rejects_a_non_finite_point_before_drawing(monkeypatch, x,
                                                                          workers):
    # nan fails every comparison, so the interior check is written for it to fail there
    def no_sampling(*args):
        raise AssertionError("partitions were drawn for a point that is not interior")

    monkeypatch.setattr(harness, "_sample_legs", no_sampling)
    with pytest.raises(ValueError, match="x must be strictly interior to the unit cube"):
        verify_cell_distribution(2, 5.0, x, samples=10, seed=1, workers=workers)


@pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_verify_cell_distribution_refuses_a_point_of_another_shape_before_drawing(monkeypatch,
                                                                                 x):
    def no_sampling(*args):
        raise AssertionError("partitions were drawn for a point of the wrong shape")

    monkeypatch.setattr(harness, "_sample_legs", no_sampling)
    with pytest.raises(ValueError, match=r"^x must have shape \(2,\)$"):
        verify_cell_distribution(2, 5.0, x, samples=10, seed=1)


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


SWEEPS_OF_TREE_RULE = {
    "rate_sweep": lambda m_rule: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [64, 128, 256], "lipschitz", 1.0,
        m_rule, replicates=2, seed=1),
    "classification_sweep": lambda m_rule: classification_sweep(
        1, [32, 64], "lipschitz", m_rule, replicates=2, seed=1),
    "estimate_risk": lambda m_rule: estimate_risk(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), 64, 1.0, m_rule, replicates=2,
        n_test=16, seed=1),
    "tree_vs_forest": lambda m_rule: tree_vs_forest(
        32, [1.0, 4.0], m_rule, replicates=2, seed=1, n_test=16, curved_n=64),
}


@pytest.mark.parametrize("m_rule, message", [
    (2.5, r"tree count must be an int >= 1, got 2\.5"),
    (True, r"tree count must be an int >= 1, got True"),
    ("8", r"tree count must be an int >= 1, got '8'"),
    (None, r"tree count must be an int >= 1, got None"),
    (0, r"tree count must be >= 1"),
])
@pytest.mark.parametrize("sweep", sorted(SWEEPS_OF_TREE_RULE))
def test_sweeps_refuse_a_tree_count_that_is_not_an_int_before_drawing(
        monkeypatch, sweep, m_rule, message):
    # a float or a bool used to be truncated by int(): 2.5 ran 2 trees and True ran 1
    def no_sampling(*args, **kwargs):
        raise AssertionError("data was drawn before the tree count was checked")

    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=message):
        SWEEPS_OF_TREE_RULE[sweep](m_rule)


@pytest.mark.parametrize("sweep", ["rate_sweep", "classification_sweep", "tree_vs_forest"])
def test_reports_write_a_numpy_int_tree_count_as_an_int(sweep):
    # the tree rule takes a numpy int, which json.dumps cannot write as itself
    report = SWEEPS_OF_TREE_RULE[sweep](np.int64(2))
    key = "m_large" if sweep == "tree_vs_forest" else "m_rule"
    assert type(report.config[key]) is int
    assert report.to_json() == SWEEPS_OF_TREE_RULE[sweep](2).to_json()


SWEEPS_OF_SIZE = {
    "rate_sweep": lambda n: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [n, 32, 64], "lipschitz", 1.0, 1,
        replicates=2, seed=1),
    "classification_sweep": lambda n: classification_sweep(
        1, [n, 64], "lipschitz", 1, replicates=2, seed=1),
    "estimate_risk": lambda n: estimate_risk(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), n, 1.0, 1, replicates=2,
        n_test=16, seed=1),
    "tree_vs_forest": lambda n: tree_vs_forest(
        32, [1.0, 4.0], 2, replicates=2, seed=1, n_test=16, curved_n=n),
}


@pytest.mark.parametrize("n, message", [
    (16.7, r"n must be an int >= 1, got 16\.7"),
    (True, r"n must be an int >= 1, got True"),
    ("16", r"n must be an int >= 1, got '16'"),
    (0, r"n must be >= 1"),
])
@pytest.mark.parametrize("sweep", sorted(SWEEPS_OF_SIZE))
def test_risk_experiments_refuse_a_size_that_is_not_an_int_before_drawing(
        monkeypatch, sweep, n, message):
    # the sweeps used to run int(n): 16.7 ran at n = 16 and True at n = 1
    def no_sampling(*args, **kwargs):
        raise AssertionError("data was drawn before the size was checked")

    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=message):
        SWEEPS_OF_SIZE[sweep](n)


def no_sampling(*args, **kwargs):
    raise AssertionError("data was drawn before the counts were checked")


RISK_EXPERIMENTS = {
    "rate_sweep": lambda replicates=2, n_test=16: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [16, 32, 64], "lipschitz", 1.0, 1,
        replicates=replicates, seed=1, n_test=n_test),
    "classification_sweep": lambda replicates=2, n_test=16: classification_sweep(
        1, [16, 64], "lipschitz", 1, replicates=replicates, seed=1, n_test=n_test),
    "estimate_risk": lambda replicates=2, n_test=16: estimate_risk(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), 16, 1.0, 1, replicates=replicates,
        n_test=n_test, seed=1),
    "tree_vs_forest": lambda replicates=2, n_test=16: tree_vs_forest(
        32, [1.0, 4.0], 2, replicates=replicates, seed=1, n_test=n_test, curved_n=16),
}


@pytest.mark.parametrize("argument, value, message", [
    ("replicates", 3.0, r"replicates must be an int >= 2, got 3\.0"),
    ("replicates", True, r"replicates must be an int >= 2, got True"),
    ("replicates", "3", r"replicates must be an int >= 2, got '3'"),
    ("replicates", 1, r"replicates must be >= 2"),
    ("n_test", 16.5, r"n_test must be an int >= 1, got 16\.5"),
    ("n_test", True, r"n_test must be an int >= 1, got True"),
    ("n_test", 0, r"n_test must be >= 1"),
])
@pytest.mark.parametrize("experiment", sorted(RISK_EXPERIMENTS))
def test_risk_experiments_refuse_a_count_that_is_not_an_int_before_drawing(
        monkeypatch, experiment, argument, value, message):
    # range() refused replicates=3.0 with a TypeError, and n_test=16.5 failed the same
    # way only after a replicate had drawn its data and fitted its forest
    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=message):
        RISK_EXPERIMENTS[experiment](**{argument: value})


EXPERIMENTS_OF_EVAL_MARGIN = {
    "rate_sweep": lambda margin: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [16, 32, 64], "lipschitz", 1.0, 1,
        replicates=2, seed=1, n_test=16, eval_margin=margin),
    "estimate_risk": lambda margin: estimate_risk(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), 16, 1.0, 1, replicates=2,
        n_test=16, seed=1, eval_margin=margin),
}


@pytest.mark.parametrize("margin", [0.5, -0.25, math.nan])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS_OF_EVAL_MARGIN))
def test_risk_experiments_refuse_a_margin_outside_zero_to_one_half_before_drawing(
        monkeypatch, experiment, margin):
    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=r"^eval_margin must be in \[0, 1/2\)$"):
        EXPERIMENTS_OF_EVAL_MARGIN[experiment](margin)


def test_classification_sweep_refuses_a_grid_of_one_size_before_drawing(monkeypatch):
    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=r"^n_grid must contain at least 2 points$"):
        classification_sweep(1, [64], "lipschitz", 1, replicates=2, seed=1)


def test_rate_sweep_refuses_to_fit_a_slope_to_zero_risks():
    # a constant target without noise, at lifetime 0, is fitted exactly at every size
    task = SyntheticTask(kind="lipschitz_d", d=1, target="constant", sigma=0.0)
    with pytest.raises(ValueError, match=r"^risks must be positive to fit a log-log slope; "
                                         r"add noise or bias$"):
        rate_sweep(task, [16, 32, 64], "fixed", 0.0, 1, replicates=2, seed=1, n_test=16)


def test_tree_vs_forest_refuses_a_size_that_is_not_an_int_before_drawing(monkeypatch):
    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=r"n must be an int >= 1, got '32'"):
        tree_vs_forest("32", [1.0, 4.0], 2, replicates=2, seed=1, n_test=16, curved_n=16)


def no_partitions(*args, **kwargs):
    raise AssertionError("a partition was drawn before the sizes were checked")


LAW_EXPERIMENTS = {
    "verify_leaf_count": (lambda d=1, samples=100: verify_leaf_count(d, 1.0, samples, 0),
                          ("d", "samples")),
    "verify_cell_distribution": (lambda d=1, samples=100: verify_cell_distribution(
        d, 1.0, [0.5] * int(d), samples, 0), ("d", "samples")),
    "verify_diameter": (lambda d=1, samples=100: verify_diameter(
        d, 1.0, [0.5] * int(d), samples, 0), ("d", "samples")),
    "verify_restriction": (lambda d=1, samples=100: verify_restriction(
        d, 1.0, BoxRegion([0.25] * int(d), [0.75] * int(d)), samples, 0), ("d", "samples")),
    "classification_sweep": (lambda d=1: classification_sweep(
        d, [16, 64], "lipschitz", 1, replicates=2, seed=1), ("d",)),
}
BAD_SIZES = {"samples": [100.0, "100"], "d": [2.0, True]}


@pytest.mark.parametrize("experiment, argument, value", [
    (experiment, argument, value) for experiment, (_, arguments) in LAW_EXPERIMENTS.items()
    for argument in arguments for value in BAD_SIZES[argument]])
def test_law_experiments_refuse_a_size_that_is_not_an_int_before_drawing(
        monkeypatch, experiment, argument, value):
    # range() refused samples=100.0 and np.zeros refused d=2.0 with a TypeError, and
    # classification_sweep(2.0, ...) failed in its Bayes quadrature
    monkeypatch.setattr(harness, "sample_mondrian", no_partitions)
    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    run, _ = LAW_EXPERIMENTS[experiment]
    with pytest.raises(ValueError, match=rf"must be an int >= \d, got {re.escape(repr(value))}$"):
        run(**{argument: value})


@pytest.mark.parametrize("experiment", ["rate_sweep", "classification_sweep", "tree_vs_forest"])
def test_reports_write_numpy_int_counts_as_ints(experiment):
    # a verdict's sample size is replicates times a count, which json.dumps cannot write
    # as a numpy int
    report = RISK_EXPERIMENTS[experiment](replicates=np.int64(2), n_test=np.int64(16))
    assert report.to_json() == RISK_EXPERIMENTS[experiment]().to_json()


def test_reports_write_numpy_int_sizes_as_ints():
    # a grid row keeps its size as a Python int, which json.dumps can write
    report = tree_vs_forest(np.int64(32), [1.0, 4.0], 3, 2, 0, n_test=64, curved_n=np.int64(64))
    assert {type(row["n"]) for row in report.grid} == {int}
    assert report.to_json() == tree_vs_forest(32, [1.0, 4.0], 3, 2, 0, n_test=64,
                                              curved_n=64).to_json()
    task = SyntheticTask(kind="lipschitz_1d", sigma=0.1)
    sweep = rate_sweep(task, np.array([32, 64, 128]), "lipschitz", 1.0, 1, replicates=2,
                       seed=1, n_test=16)
    assert sweep.to_json() == rate_sweep(task, [32, 64, 128], "lipschitz", 1.0, 1,
                                         replicates=2, seed=1, n_test=16).to_json()


SWEEPS_OF_SCHEDULE = {
    "rate_sweep": lambda schedule: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [64, 128, 256], schedule, 1.0, 1,
        replicates=2, seed=1),
    "classification_sweep": lambda schedule: classification_sweep(
        1, [32, 64], schedule, 1, replicates=2, seed=1),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS_OF_SCHEDULE))
def test_sweeps_refuse_an_unknown_schedule_before_drawing(monkeypatch, sweep):
    # both sweeps name every schedule they take, "fixed" included
    def no_sampling(*args, **kwargs):
        raise AssertionError("data was drawn before the schedule was checked")

    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=r"unknown schedule 'quadratic'; expected one of "
                                         r"\['c2', 'consistency', 'fixed', 'lipschitz'\]$"):
        SWEEPS_OF_SCHEDULE[sweep]("quadratic")


EXPERIMENTS_OF_FIXED_LIFETIME = {
    "rate_sweep": lambda lifetime: rate_sweep(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), [64, 128, 256], "fixed", lifetime, 1,
        replicates=2, seed=1),
    "classification_sweep": lambda lifetime: classification_sweep(
        1, [32, 64], "fixed", 1, replicates=2, seed=1, scale=lifetime),
    "estimate_risk": lambda lifetime: estimate_risk(
        SyntheticTask(kind="lipschitz_1d", sigma=0.1), 64, lifetime, 1, replicates=2,
        n_test=16, seed=1),
    # a bad curved lifetime is refused before the linear stage runs
    "tree_vs_forest": lambda lifetime: tree_vs_forest(
        32, [1.0, 4.0], 2, replicates=2, seed=1, n_test=16, curved_n=64,
        curved_lambda_grid=[1.0, lifetime]),
}


@pytest.mark.parametrize("lifetime", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS_OF_FIXED_LIFETIME))
def test_experiments_refuse_a_bad_fixed_lifetime_before_drawing(monkeypatch, experiment,
                                                                lifetime):
    def no_sampling(*args, **kwargs):
        raise AssertionError("data was drawn before the lifetime was checked")

    monkeypatch.setattr(SyntheticTask, "sample_data", no_sampling)
    with pytest.raises(ValueError, match=rf"lifetime must be finite and >= 0, got {lifetime} "
                                         r"\(under schedule 'fixed' it is the scale\)$"):
        EXPERIMENTS_OF_FIXED_LIFETIME[experiment](lifetime)


def test_tree_rule_takes_numpy_ints():
    assert type(harness._row(100, 1, "fixed", 1.0, np.int64(3))["n_trees"]) is int
    assert harness._row(100, 1, "fixed", 1.0, np.int64(3))["n_trees"] == 3


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
    # the paper's contrast: a single tree's bias stays lambda^-2, so on the same schedule
    # its risk falls only like n^(-2/(d+4)) = n^-0.4; tree m of replicate r is drawn from
    # the same stream in both sweeps, so the single tree is tree 0 of each forest
    tree = rate_sweep(task, [2**k for k in range(8, 15)], "c2", 5.0, 1,
                      replicates=16, seed=1, n_test=4096, eval_margin=0.1)
    assert tree.oracle["slope"] > -0.65
    assert tree.oracle["slope"] - report.oracle["slope"] > 0.25


def test_rate_sweep_lipschitz_schedule_reaches_the_rate_in_two_dimensions():
    # the Lipschitz rate n^(-2/(d+2)) holds in any dimension; at d=2 it is -1/2
    task = SyntheticTask(kind="lipschitz_d", d=2, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "lipschitz", 1.0, 8,
                        replicates=24, seed=1, n_test=4096, slope_tolerance=0.15)
    assert report.oracle["slope_target"] == pytest.approx(-0.5)
    assert abs(report.oracle["slope"] - (-0.5)) <= 0.15
    assert report.passed


# The scales below come from the risk bounds at each task's constants (sigma^2 = 0.01,
# and for C² eps = 0.1, p0 = p1 = 1, c_p = 0 and M = forest_size_schedule("c2", n, d)):
# the lifetime that minimises the bound, divided by the schedule's n^(1/(d+4)) or
# n^(1/(d+2)), at n = 2^8, 2^11 and 2^14.

def test_rate_sweep_c2_schedule_reaches_the_rate_in_two_dimensions():
    # c2_risk_bound is least at 2.50, 2.58 and 2.62 times n^(1/6); the C² rate at d=2 is -2/3
    task = SyntheticTask(kind="c2_d", d=2, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "c2", 2.6, "c2",
                        replicates=16, seed=1, n_test=4096, slope_tolerance=0.15,
                        eval_margin=0.1)
    assert report.oracle["slope_target"] == pytest.approx(-2.0 / 3.0)
    assert abs(report.oracle["slope"] - (-2.0 / 3.0)) <= 0.15
    assert report.passed


def test_rate_sweep_c2_schedule_reaches_the_rate_in_three_dimensions():
    # c2_risk_bound is least at 1.92, 2.00 and 2.07 times n^(1/7); the C² rate at d=3 is -4/7
    task = SyntheticTask(kind="c2_d", d=3, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "c2", 2.0, "c2",
                        replicates=16, seed=1, n_test=4096, slope_tolerance=0.15,
                        eval_margin=0.1)
    assert report.oracle["slope_target"] == pytest.approx(-4.0 / 7.0)
    assert abs(report.oracle["slope"] - (-4.0 / 7.0)) <= 0.15
    assert report.passed


def test_rate_sweep_lipschitz_schedule_reaches_the_rate_in_three_dimensions():
    # lipschitz_risk_bound is least at 0.91, 0.95 and 0.98 times n^(1/5), so scale 1.0 as at
    # d=2; the Lipschitz rate at d=3 is -2/5
    task = SyntheticTask(kind="lipschitz_d", d=3, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "lipschitz", 1.0, 8,
                        replicates=24, seed=1, n_test=4096, slope_tolerance=0.15)
    assert report.oracle["slope_target"] == pytest.approx(-0.4)
    assert abs(report.oracle["slope"] - (-0.4)) <= 0.15
    assert report.passed


def test_rate_sweep_lipschitz_schedule_reaches_the_rate_in_five_dimensions():
    # lipschitz_risk_bound is least at 0.72, 0.77 and 0.82 times n^(1/7); the Lipschitz rate
    # at d=5 is -2/7, and a tolerance of 0.10 keeps the C² rate -4/9 outside the band
    task = SyntheticTask(kind="lipschitz_d", d=5, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "lipschitz", 0.77, 8,
                        replicates=24, seed=1, n_test=4096, slope_tolerance=0.10)
    assert report.oracle["slope_target"] == pytest.approx(-2.0 / 7.0)
    assert abs(report.oracle["slope"] - (-2.0 / 7.0)) <= 0.10
    assert report.passed


def test_rate_sweep_c2_schedule_reaches_the_rate_in_five_dimensions():
    # c2_risk_bound is least at 1.35, 1.42 and 1.49 times n^(1/9); the C² rate at d=5 is -4/9
    task = SyntheticTask(kind="c2_d", d=5, sigma=0.1)
    report = rate_sweep(task, [2**k for k in range(8, 15)], "c2", 1.42, "c2",
                        replicates=16, seed=1, n_test=4096, slope_tolerance=0.15,
                        eval_margin=0.1)
    assert report.oracle["slope_target"] == pytest.approx(-4.0 / 9.0)
    assert abs(report.oracle["slope"] - (-4.0 / 9.0)) <= 0.15
    assert report.passed


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("task", [SyntheticTask(kind="c2_d", d=1, sigma=0.1),
                                  SyntheticTask(kind="lipschitz_d", d=2, sigma=0.2)],
                         ids=["d1-prefix-sums", "d2-routed"])
def test_a_shared_fit_scores_each_tree_count_as_its_own_fit(monkeypatch, task, workers):
    # one point of rows (1, m) fits m trees once per replicate and scores the leading
    # tree and the whole forest; two one-row points fit each count on the same streams
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    rows = [harness._row(300, task.d, "fixed", 6.0, m) for m in (1, 5)]
    shared = [dict(row) for row in rows]
    harness._estimate_grid([(shared, task, (1, 0))], harness._quadratic_risk, 0.0,
                           replicates=3, n_test=128, seed=8, workers=workers)
    harness._estimate_grid([([row], task, (1, 0)) for row in rows], harness._quadratic_risk,
                           0.0, replicates=3, n_test=128, seed=8, workers=workers)
    assert shared == rows
    assert rows[0]["risk"] != rows[1]["risk"]


def test_tree_vs_forest_fits_each_replicate_once(monkeypatch):
    calls = []

    def counting_fit_forest(box, d, lifetime, n_trees, X, y, master_seed):
        calls.append((len(X), n_trees))
        return fit_forest(box, d, lifetime, n_trees, X, y, master_seed=master_seed)

    monkeypatch.setattr(harness, "fit_forest", counting_fit_forest)
    tree_vs_forest(20, [1.0, 4.0], 3, replicates=2, seed=5, n_test=16, curved_n=30,
                   curved_lambda_grid=[2.0, 8.0])
    # 2 linear and 2 curved lifetimes, 2 replicates each; a curved replicate fits
    # its m_large-tree forest once and scores tree 0 as the single tree
    assert sorted(calls) == [(20, 1)] * 4 + [(30, 3)] * 4


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
