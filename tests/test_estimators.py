import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mondrianforest import (
    BoxRegion,
    MondrianForestModel,
    MondrianPartition,
    RngStream,
    fit_forest,
    fit_tree,
    forest_size_schedule,
    lifetime_schedule,
    model_from_json,
    model_to_json,
    predict_class,
    predict_forest,
    predict_tree,
    sample_mondrian,
    update_tree,
)
from mondrianforest import estimators
from mondrianforest.estimators import _scaled_int

UNIT1 = BoxRegion.unit(1)
UNIT2 = BoxRegion.unit(2)


def make_partition(seed=3, lifetime=4.0, box=UNIT2):
    return sample_mondrian(box, lifetime, RngStream(seed))


def make_data(n=150, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 1.0 + X[:, 0] + 0.1 * rng.standard_normal(n)
    return X, y


# -- trees -------------------------------------------------------------------

def test_empty_fit_predicts_zero_everywhere():
    model = fit_tree(make_partition(), np.empty((0, 2)), np.empty(0))
    assert model.n_seen == 0
    X = np.random.default_rng(1).random((50, 2))
    assert np.all(predict_tree(model, X) == 0.0)


def test_constant_labels_predict_constant():
    part = make_partition()
    X, _ = make_data()
    model = fit_tree(part, X, np.full(X.shape[0], 2.5))
    preds = predict_tree(model, X)
    assert np.all(preds == 2.5)


def test_single_leaf_partition_predicts_global_mean():
    part = make_partition(lifetime=0.0)
    X, y = make_data()
    model = fit_tree(part, X, y)
    expected = math.fsum(y) / len(y)
    assert predict_tree(model, np.array([0.123, 0.456])) == pytest.approx(expected, rel=1e-15)


def test_prediction_is_piecewise_constant():
    part = make_partition()
    X, y = make_data()
    model = fit_tree(part, X, y)
    cells = [leaf.box for leaf in part.leaves()]
    target = max(range(len(cells)), key=lambda i: cells[i].volume)
    box = cells[target]
    mid = (box.lower + box.upper) / 2
    shifted = mid + (box.upper - box.lower) * 0.2
    assert predict_tree(model, mid) == predict_tree(model, shifted)


def test_fit_rejects_points_outside_box_with_index():
    part = make_partition()
    X = np.array([[0.5, 0.5], [0.5, 1.5]])
    with pytest.raises(ValueError, match=r"\[1\]"):
        fit_tree(part, X, np.zeros(2))


def test_forest_names_the_callers_rows_outside_the_box_in_one_dimension():
    # a 1-d forest routes its rows sorted by x; the error must still name the rows as given
    X = np.array([[0.5], [math.nan], [0.1], [2.0], [0.3]])
    with pytest.raises(ValueError, match=r"^points outside the root box at indices \[1, 3\]$"):
        fit_forest(UNIT1, 1, 3.0, 2, X, np.zeros(5), master_seed=4)


def test_fit_rejects_nonfinite_labels():
    part = make_partition()
    with pytest.raises(ValueError):
        fit_tree(part, np.array([[0.5, 0.5]]), np.array([math.nan]))


@pytest.mark.parametrize("X, y, message", [
    (np.zeros(4), np.zeros(4), r"^X must have shape \(n, 2\)$"),
    (np.zeros((4, 3)), np.zeros(4), r"^X must have shape \(n, 2\)$"),
    (np.zeros((4, 2)), np.zeros(3), r"^y must have shape \(n,\)$"),
    (np.zeros((4, 2)), np.zeros((4, 1)), r"^y must have shape \(n,\)$"),
], ids=["X-1d", "X-columns", "y-rows", "y-2d"])
def test_fit_refuses_data_of_the_wrong_shape_before_routing(monkeypatch, X, y, message):
    part = make_partition()

    def no_routing(self, X):
        raise AssertionError("rows were routed before their shapes were checked")

    monkeypatch.setattr(MondrianPartition, "leaf_indices", no_routing)
    with pytest.raises(ValueError, match=message):
        fit_tree(part, X, y)


def test_leaf_statistics_counts_and_sums():
    part = make_partition()
    X, y = make_data(80)
    model = fit_tree(part, X, y)
    stats = model.leaf_statistics()
    assert sum(s.count for s in stats) == model.n_seen == 80
    assert math.fsum(s.label_sum for s in stats) == pytest.approx(math.fsum(y), rel=1e-14)
    by_leaf = model.leaf_stats
    assert set(by_leaf) == set(part.leaves())


def test_class_counts_for_binary_labels():
    part = make_partition(lifetime=0.0)
    y = np.array([1.0, 0.0, 1.0, 1.0])
    model = fit_tree(part, np.random.default_rng(0).random((4, 2)), y)
    stats = model.leaf_statistics()[0]
    assert stats.class_counts == (1, 3)


@pytest.mark.parametrize("labels", [[0.5], [-1.0], [1.0, 2.0]])
def test_class_counts_refuse_labels_that_are_not_zero_or_one(labels):
    part = make_partition(lifetime=0.0)
    model = fit_tree(part, np.full((len(labels), 2), 0.5), np.array(labels))
    with pytest.raises(ValueError, match=r"^labels were not all in \{0, 1\}$"):
        model.leaf_statistics()[0].class_counts


# -- streaming updates -------------------------------------------------------

def test_update_on_empty_model_equals_single_point_fit():
    part = make_partition()
    x, y = np.array([0.3, 0.8]), 1.7
    empty = fit_tree(part, np.empty((0, 2)), np.empty(0))
    updated = update_tree(empty, x, y)
    direct = fit_tree(part, x[None, :], np.array([y]))
    assert updated._totals == direct._totals
    assert np.array_equal(updated._counts, direct._counts)


def test_fold_of_updates_equals_batch_fit_exactly():
    part = make_partition()
    X, y = make_data(120)
    batch = fit_tree(part, X, y)
    model = fit_tree(part, np.empty((0, 2)), np.empty(0))
    for xi, yi in zip(X, y):
        model = update_tree(model, xi, yi)
    assert model._totals == batch._totals
    assert np.array_equal(model._counts, batch._counts)
    probe = np.random.default_rng(5).random((64, 2))
    assert np.array_equal(predict_tree(model, probe), predict_tree(batch, probe))


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
def test_update_refuses_a_label_that_is_not_finite(label):
    model = fit_tree(make_partition(), np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match=rf"^labels must be finite, got {label}$"):
        update_tree(model, [0.5, 0.5], label)


@pytest.mark.parametrize("d, x, label, message", [
    (1, 0.5, 1.0, r"^x must have shape \(1,\)$"),
    (1, np.float64(0.5), 1.0, r"^x must have shape \(1,\)$"),
    (1, [[0.5]], 1.0, r"^x must have shape \(1,\)$"),
    (2, [0.5], 1.0, r"^x must have shape \(2,\)$"),
    (2, [0.5, 0.5, 0.5], 1.0, r"^x must have shape \(2,\)$"),
    (2, [[0.2, 0.3]], 1.0, r"^x must have shape \(2,\)$"),
    (2, [math.nan, 0.5], 1.0, r"^points outside the root box at indices \[0\]$"),
    (2, [1.5, 0.5], 1.0, r"^points outside the root box at indices \[0\]$"),
    # the point's shape is checked first, then the label, then the root box
    (2, [0.5], math.nan, r"^x must have shape \(2,\)$"),
    (2, [1.5, 0.5], math.inf, r"^labels must be finite, got inf$"),
], ids=["d1-scalar", "d1-numpy-scalar", "d1-row", "d2-short", "d2-long", "d2-row", "d2-nan",
        "d2-outside", "shape-before-label", "label-before-box"])
def test_update_refuses_a_bad_point_in_order(d, x, label, message):
    model = fit_tree(make_partition(box=BoxRegion.unit(d)), np.empty((0, d)), np.empty(0))
    with pytest.raises(ValueError, match=message):
        update_tree(model, x, label)


def test_update_does_not_mutate_input_model():
    part = make_partition()
    X, y = make_data(30)
    base = fit_tree(part, X, y)
    snapshot = list(base._totals)
    update_tree(base, np.array([0.5, 0.5]), 9.0)
    assert base._totals == snapshot


def test_update_then_predict_reflects_new_mean():
    part = make_partition(lifetime=0.0)
    model = fit_tree(part, np.array([[0.2, 0.2]]), np.array([1.0]))
    model = update_tree(model, np.array([0.9, 0.9]), 2.0)
    assert predict_tree(model, np.array([0.5, 0.5])) == 1.5


def test_permutation_invariance_is_bit_exact():
    part = make_partition()
    rng = np.random.default_rng(8)
    # adversarial magnitudes: naive float accumulation would differ across orders
    X = rng.random((300, 2))
    y = rng.standard_normal(300) * np.exp(rng.uniform(-20, 20, 300))
    reference = fit_tree(part, X, y)
    probe = rng.random((100, 2))
    expected = predict_tree(reference, probe)
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(300)
        permuted = fit_tree(part, X[perm], y[perm])
        assert permuted._totals == reference._totals
        assert np.array_equal(predict_tree(permuted, probe), expected)


# -- one accumulation path: properties -----------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# every finite float: subnormals, both zeros and +-max included
LABELS = st.floats(allow_nan=False, allow_infinity=False)
POINTS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@st.composite
def labelled_data(draw, max_n=24):
    rows = draw(st.lists(st.tuples(POINTS, LABELS), max_size=max_n))
    X = np.array([x for x, _ in rows], dtype=np.float64).reshape(len(rows), 2)
    y = np.array([v for _, v in rows], dtype=np.float64)
    return X, y


def same_statistics(a, b):
    return (np.array_equal(a._counts, b._counts) and a._totals == b._totals
            and a.n_seen == b.n_seen)


@PROPERTY
@given(labelled_data(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_fold_of_updates_equals_batch_fit_on_any_order(data, seed, random):
    X, y = data
    part = sample_mondrian(UNIT2, 3.0, RngStream(seed))
    model = fit_tree(part, np.empty((0, 2)), np.empty(0))
    for xi, yi in zip(X, y):
        model = update_tree(model, xi, yi)
    order = list(range(len(y)))
    random.shuffle(order)
    probe = np.vstack([X, np.random.default_rng(seed).random((16, 2))])
    for batch in (fit_tree(part, X, y), fit_tree(part, X[order], y[order])):
        assert same_statistics(model, batch)
        assert predict_tree(model, probe).tobytes() == predict_tree(batch, probe).tobytes()


@PROPERTY
@given(labelled_data(), st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from([0.0, 1.5, 4.0]))
def test_forest_tree_m_equals_fit_tree_on_child_stream_m(data, seed, n_trees, lifetime):
    X, y = data
    forest = fit_forest(UNIT2, 2, lifetime, n_trees, X, y, master_seed=RngStream(seed))
    for m, tree in enumerate(forest.trees):
        part = sample_mondrian(UNIT2, lifetime, RngStream(seed).child(m))
        assert tree.partition.structurally_equal(part)
        assert same_statistics(tree, fit_tree(part, X, y))


def reference_sums(part, X, y):
    """Exact leaf sums the slow way: each label's Python int added to its leaf."""
    totals = [0] * part.n_leaves
    for rank, value in zip(part.leaf_indices(X).tolist(), y.tolist()):
        totals[rank] += _scaled_int(value)
    return totals


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
            sys.float_info.min, -2.5e-310, 1.0, -3.0, 1e-300, 7e300]


@PROPERTY
@given(st.lists(LABELS, min_size=1, max_size=40), st.integers(0, 2**32 - 1))
@example(EXTREMES, 0)
@example(EXTREMES[::-1] * 3, 1)
def test_limb_sums_equal_the_python_int_reference(labels, seed):
    y = np.array(labels)
    X = np.random.default_rng(seed).random((y.size, 1))
    part = sample_mondrian(UNIT1, 4.0, RngStream(seed))
    assert fit_tree(part, X, y)._totals == reference_sums(part, X, y)


def test_one_float_bincount_stays_below_two_to_the_53():
    # a limb is below 2^32 in magnitude, so a float64 sum over a label group's rows is
    # an exact integer
    assert estimators._GROUP_ROWS * 2**32 <= 2**53


def test_one_int64_prefix_sum_stays_below_two_to_the_63():
    # a limb is below 2^32 in magnitude, so a prefix sum over a label group's rows fits
    # an int64
    assert estimators._GROUP_ROWS * (2**32 - 1) < 2**63


def test_limb_sums_stay_exact_across_row_chunks(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.random((200, 2))
    part = make_partition(seed=5)
    # labels at many limb offsets split into index blocks, labels at one into views
    for y in (rng.standard_normal(200) * np.exp2(rng.integers(-1074, 1000, 200)),
              rng.standard_normal(200)):
        whole = fit_tree(part, X, y)
        monkeypatch.setattr(estimators, "_GROUP_ROWS", 7)
        assert max(limbs.shape[1] for _, _, limbs in estimators._split_limbs(y).groups) <= 7
        chunked = fit_tree(part, X, y)
        monkeypatch.undo()
        assert chunked._totals == whole._totals == reference_sums(part, X, y)


def test_one_tiny_label_keeps_three_limb_rows():
    # each label's three limbs sit at its own offset, so one 5e-324 among ordinary
    # labels keeps 3 limbs per label (the one array grew to 36 rows spanning all offsets)
    rng = np.random.default_rng(14)
    X = rng.random((100_000, 1))
    y = np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(X.shape[0])
    y[5] = 5e-324
    labels = estimators._split_limbs(y)
    assert {limbs.shape[0] for _, _, limbs in labels.groups} == {3}
    assert sum(limbs.shape[1] for _, _, limbs in labels.groups) == y.size
    part = make_partition(seed=2, lifetime=16.0, box=UNIT1)
    assert fit_tree(part, X, y)._totals == reference_sums(part, X, y)


# -- forests -----------------------------------------------------------------

def test_forest_of_one_tree_equals_tree():
    X, y = make_data()
    forest = fit_forest(UNIT2, 2, 4.0, 1, X, y, master_seed=11)
    tree_part = sample_mondrian(UNIT2, 4.0, RngStream(11).child(0))
    tree = fit_tree(tree_part, X, y)
    probe = np.random.default_rng(2).random((40, 2))
    assert np.array_equal(predict_forest(forest, probe), predict_tree(tree, probe))


def test_forest_prefix_trees_shared_across_sizes():
    X, y = make_data()
    small = fit_forest(UNIT2, 2, 3.0, 3, X, y, master_seed=21)
    large = fit_forest(UNIT2, 2, 3.0, 7, X, y, master_seed=21)
    for a, b in zip(small.trees, large.trees):
        assert a.partition.structurally_equal(b.partition)
        assert a._totals == b._totals
    probe = np.random.default_rng(3).random((20, 2))
    stacked = large.per_tree_predictions(probe)[:3]
    assert np.array_equal(stacked, small.per_tree_predictions(probe))


def test_forest_empty_data_predicts_zero():
    forest = fit_forest(UNIT2, 2, 3.0, 4, np.empty((0, 2)), np.empty(0), master_seed=5)
    probe = np.random.default_rng(4).random((10, 2))
    assert np.all(predict_forest(forest, probe) == 0.0)


def test_forest_rejects_zero_trees():
    with pytest.raises(ValueError):
        fit_forest(UNIT2, 2, 3.0, 0, np.empty((0, 2)), np.empty(0), master_seed=5)


@pytest.mark.parametrize("n_trees", [2.5, True, 2.0, "3"])
def test_forest_takes_only_an_int_tree_count(n_trees):
    # 2.5 used to raise a TypeError from range(), and True fitted 1 tree
    with pytest.raises(ValueError, match=rf"^n_trees must be an int >= 1, got {n_trees!r}$"):
        fit_forest(UNIT2, 2, 3.0, n_trees, np.empty((0, 2)), np.empty(0), master_seed=5)


def test_forest_takes_a_numpy_int_tree_count():
    forest = fit_forest(UNIT2, 2, 3.0, np.int64(3), np.empty((0, 2)), np.empty(0), master_seed=5)
    assert forest.n_trees == 3


def test_forest_mean_matches_per_tree_predictions():
    X, y = make_data(400)
    forest = fit_forest(UNIT2, 2, 5.0, 16, X, y, master_seed=31)
    probe = np.random.default_rng(6).random((128, 2))
    mean = forest.per_tree_predictions(probe).mean(axis=0)
    assert np.max(np.abs(predict_forest(forest, probe) - mean)) < 1e-14


def tree_order_mean(forest, x):
    """The forest rule written out: tree predictions summed in tree order, over the tree count."""
    total = 0.0
    for tree in forest.trees:
        total = total + predict_tree(tree, x)
    return total / forest.n_trees


def test_forest_predict_is_the_tree_order_mean_bit_for_bit():
    X, y = make_data(400)
    # 13 trees: dividing by a power of two would be exact and hide the order
    forest = fit_forest(UNIT2, 2, 5.0, 13, X, y, master_seed=31)
    probe = np.random.default_rng(7).random((64, 2))
    batch = predict_forest(forest, probe)
    assert batch.dtype == np.float64 and batch.tobytes() == tree_order_mean(forest, probe).tobytes()
    point = predict_forest(forest, probe[5])
    assert type(point) is float and point == tree_order_mean(forest, probe[5]) == batch[5]
    assert predict_forest(forest, probe.tolist()).tobytes() == batch.tobytes()
    assert predict_forest(forest, probe[5].tolist()) == point


def counting_leaf_means(monkeypatch):
    """Spy on ``_leaf_mean``; the returned list gets one entry per call."""
    calls = []
    mean = estimators._leaf_mean

    def spy(total, count):
        calls.append(count)
        return mean(total, count)

    monkeypatch.setattr(estimators, "_leaf_mean", spy)
    return calls


def test_a_point_derives_only_its_own_leaf_mean_in_each_tree(monkeypatch):
    # a batch with fewer rows than a tree has leaves (a point, say) derives the mean of
    # each row's leaf alone; a point's value is still its row's in any batch, bit for bit
    X, y = make_data(400)
    forest = fit_forest(UNIT2, 2, 6.0, 5, X, y, master_seed=17)
    probe = np.random.default_rng(9).random((300, 2))
    leaves = [tree.n_leaves for tree in forest.trees]
    assert max(leaves) < len(probe)
    batch = predict_forest(forest, probe)
    per_tree = forest.per_tree_predictions(probe)
    calls = counting_leaf_means(monkeypatch)
    for i, x in enumerate(probe[:40]):
        calls.clear()
        point = predict_forest(forest, x)
        assert type(point) is float and np.float64(point).tobytes() == batch[i].tobytes()
        assert len(calls) == forest.n_trees
        calls.clear()
        assert [predict_tree(tree, x) for tree in forest.trees] == per_tree[:, i].tolist()
        assert len(calls) == forest.n_trees
    few = probe[:min(leaves) - 1]
    calls.clear()
    assert predict_forest(forest, few).tobytes() == batch[:len(few)].tobytes()
    assert len(calls) == len(few) * forest.n_trees
    calls.clear()
    assert predict_forest(forest, probe).tobytes() == batch.tobytes()
    assert calls == [c for tree in forest.trees for c in tree._counts.tolist()]


def test_per_tree_predictions_of_one_point_has_one_value_per_tree():
    X, y = make_data()
    forest = fit_forest(UNIT2, 2, 4.0, 6, X, y, master_seed=12)
    probe = np.random.default_rng(8).random((9, 2))
    single = forest.per_tree_predictions(probe[3])
    assert single.shape == (6,) and single.dtype == np.float64
    assert np.array_equal(single, forest.per_tree_predictions(probe)[:, 3])
    assert single.tolist() == [predict_tree(tree, probe[3]) for tree in forest.trees]


def test_forest_unanimous_trees_return_common_value():
    # single-leaf trees all see every sample, so every tree predicts 3.25
    X = np.random.default_rng(0).random((30, 2))
    forest = fit_forest(UNIT2, 2, 0.0, 5, X, np.full(30, 3.25), master_seed=41)
    assert np.all(forest.per_tree_predictions(np.array([0.5, 0.5])) == 3.25)
    assert predict_forest(forest, np.array([0.5, 0.5])) == 3.25


@pytest.mark.parametrize("lifetime", [-1.0, math.inf, math.nan])
def test_forest_rejects_bad_lifetime(lifetime):
    with pytest.raises(ValueError, match="lifetime must be finite"):
        fit_forest(UNIT2, 2, lifetime, 1, np.empty((0, 2)), np.empty(0), master_seed=1)


def test_forest_dimension_checks():
    with pytest.raises(ValueError):
        fit_forest(UNIT2, 3, 2.0, 1, np.empty((0, 3)), np.empty(0), master_seed=1)


@pytest.mark.parametrize("n", [0, 1, 2, 400])
def test_one_dimensional_forest_on_shuffled_rows_equals_a_per_tree_replay(n):
    # a 1-d forest sorts its rows by x; exact sums must make that invisible, with tied x
    # (on thresholds and box edges too) and labels at several limb offsets
    rng = np.random.default_rng(n)
    lifetime, seed, n_trees = 6.0, 17, 5
    first = sample_mondrian(UNIT1, lifetime, RngStream(seed).child(0))
    values = np.concatenate([first.threshold[first.split_dim >= 0], np.linspace(0.0, 1.0, 9)])
    X = rng.choice(values, size=(n, 1))
    y = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 1000, n))
    if n > 2:
        assert len(estimators._split_limbs(y).groups) > 1
    shuffle = rng.permutation(n)
    forest = fit_forest(UNIT1, 1, lifetime, n_trees, X[shuffle], y[shuffle], master_seed=seed)
    probe = np.concatenate([values, rng.random(32)])[:, None]
    total = 0.0
    for m, tree in enumerate(forest.trees):
        replay = fit_tree(sample_mondrian(UNIT1, lifetime, RngStream(seed).child(m)), X, y)
        assert tree.partition.structurally_equal(replay.partition)
        assert same_statistics(tree, replay)
        total = total + predict_tree(replay, probe)
    assert predict_forest(forest, probe).tobytes() == (total / n_trees).tobytes()


def counting_routes(monkeypatch):
    """Replace ``leaf_indices`` by a spy; the returned list gets each call's row shape."""
    calls = []
    route = MondrianPartition.leaf_indices

    def spy(self, X):
        calls.append(np.shape(X))
        return route(self, X)

    monkeypatch.setattr(MondrianPartition, "leaf_indices", spy)
    return calls


def test_one_dimensional_forest_routes_no_row_and_a_tree_fit_routes_once(monkeypatch):
    # a 1-d forest sums each leaf as a run of its sorted rows; fit_tree still routes
    calls = counting_routes(monkeypatch)
    X = np.random.default_rng(3).random((500, 1))
    forest = fit_forest(UNIT1, 1, 8.0, 4, X, X[:, 0], master_seed=2)
    assert calls == []
    fit_tree(forest.trees[0].partition, X, X[:, 0])
    assert calls == [(500, 1)]


def assert_forest_trees_are_tree_fits(monkeypatch, box, X, y, routed):
    """Fit a forest in one label group and in groups of at most 7 rows; every tree
    equals ``fit_tree`` on its partition (ranks and ``bincount``), and both fits
    give the same bits.  ``routed`` is the forest's expected ``leaf_indices`` calls."""
    n = len(y)
    calls = counting_routes(monkeypatch)
    fits = []
    for group_rows in (estimators._GROUP_ROWS, 7):
        monkeypatch.setattr(estimators, "_GROUP_ROWS", group_rows)
        groups = estimators._split_limbs(y).groups
        assert sum(limbs.shape[1] for _, _, limbs in groups) == n
        assert max(limbs.shape[1] for _, _, limbs in groups) <= group_rows
        calls.clear()
        fits.append(fit_forest(box, box.dim, 7.0, 6, X, y, master_seed=29).trees)
        assert calls == routed
        for tree in fits[-1]:
            replay = fit_tree(tree.partition, X, y)
            assert tree._counts.dtype == replay._counts.dtype and same_statistics(tree, replay)
    for a, b in zip(*fits):
        assert a.partition.structurally_equal(b.partition) and same_statistics(a, b)


def labels_at(rng, n, offsets):
    """Normal labels at one limb offset, or spread over several with subnormals."""
    y = rng.standard_normal(n)
    if offsets == "several":
        y = y * np.exp2(rng.integers(-1074, 1000, n))
        y[::7] = 5e-324
    return y


@pytest.mark.parametrize("offsets", ["one", "several"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 300])
def test_one_dimensional_forest_sums_the_same_from_prefixes_and_from_ranks(monkeypatch, n,
                                                                           offsets):
    # a 1-d forest sums each leaf from prefix sums of its sorted rows and routes none;
    # fit_tree routes the rows and sums by bincount, and must give every bit, with half
    # the rows tied on thresholds and box edges
    rng = np.random.default_rng(n)
    first = sample_mondrian(UNIT1, 7.0, RngStream(29).child(0))
    ties = np.concatenate([first.threshold[first.split_dim >= 0], [0.0, 0.5, 1.0]])
    X = np.where(rng.random((n, 1)) < 0.5, rng.choice(ties, size=(n, 1)), rng.random((n, 1)))
    y = labels_at(rng, n, offsets)
    assert (len(estimators._split_limbs(y).groups) > 1) == (offsets == "several" and n >= 2)
    assert_forest_trees_are_tree_fits(monkeypatch, UNIT1, X, y, routed=[])


@pytest.mark.parametrize("offsets", ["one", "several"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 300])
def test_two_dimensional_forest_sums_the_same_in_groups_of_any_size(monkeypatch, n, offsets):
    rng = np.random.default_rng(n)
    X = np.where(rng.random((n, 2)) < 0.25, rng.choice([0.0, 0.5, 1.0], size=(n, 2)),
                 rng.random((n, 2)))
    assert_forest_trees_are_tree_fits(monkeypatch, UNIT2, X, labels_at(rng, n, offsets),
                                      routed=[(n, 2)] * 6)


def test_one_dimensional_forest_above_the_group_bound_equals_tree_fits(monkeypatch):
    # one row more than a label group holds: the labels split into two views of the
    # sorted rows, each with its own prefix sums, and still no row is routed
    bound = estimators._GROUP_ROWS
    rng = np.random.default_rng(21)
    X = rng.random((bound + 1, 1))
    y = rng.standard_normal(bound + 1)
    assert [rows for _, rows, _ in estimators._split_limbs(y).groups] == [
        slice(0, bound), slice(bound, 2 * bound)]
    calls = counting_routes(monkeypatch)
    forest = fit_forest(UNIT1, 1, 8.0, 2, X, y, master_seed=3)
    assert calls == []
    for tree in forest.trees:
        assert same_statistics(tree, fit_tree(tree.partition, X, y))


@pytest.mark.parametrize("lifetime, rows, message", [
    (3.0, [[0.5], [1.5], [0.2], [-0.1], [0.9], [math.nan]],
     "points outside the root box at indices [1, 3, 5]"),
    (3.0, [[0.0], [1.0], [1.0000000000000002]], "points outside the root box at indices [2]"),
    (-1.0, [[0.5], [0.1]], "lifetime must be finite and >= 0, got -1.0"),
    (math.inf, [[0.5], [2.0]], "lifetime must be finite and >= 0, got inf"),
    (math.nan, [[0.5], [0.1]], "lifetime must be finite and >= 0, got nan"),
])
def test_one_dimensional_forest_refuses_bad_input_before_it_sorts(lifetime, rows, message):
    # the sort and the prefix sums come after the checks routing used to make: the
    # lifetime first, then the rows outside the box, named as the caller ordered them
    X = np.array(rows)
    with pytest.raises(ValueError) as info:
        fit_forest(UNIT1, 1, lifetime, 3, X, np.zeros(len(rows)), master_seed=4)
    assert str(info.value) == message


# -- classification ----------------------------------------------------------

def test_classifier_empty_data_predicts_class_zero():
    forest = fit_forest(UNIT2, 2, 3.0, 3, np.empty((0, 2)), np.empty(0), master_seed=7)
    assert predict_class(forest, np.array([0.5, 0.5])) == 0


def test_classifier_unanimous_ones():
    X = np.random.default_rng(1).random((50, 2))
    forest = fit_forest(UNIT2, 2, 2.0, 3, X, np.ones(50), master_seed=8)
    assert predict_class(forest, np.array([0.5, 0.5])) == 1


def test_classifier_tie_at_half_goes_to_class_one():
    X, part = np.array([[0.5, 0.5]]), make_partition(lifetime=0.0)
    zero_tree = fit_tree(part, X, np.array([0.0]))
    one_tree = fit_tree(part, X, np.array([1.0]))
    forest = MondrianForestModel([zero_tree, one_tree], 0.0, 0)
    assert predict_forest(forest, np.array([0.25, 0.75])) == 0.5
    assert predict_class(forest, np.array([0.25, 0.75])) == 1


@pytest.mark.parametrize("seed", [2.5, True, -1, (7, 1.5), (), 2**64])
def test_forest_model_refuses_a_master_seed_it_would_truncate_or_could_not_load(seed):
    tree = fit_tree(make_partition(lifetime=0.0), np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="master_seed") as info:
        MondrianForestModel([tree], 0.0, seed)
    assert "\n" not in str(info.value)


def test_forest_model_takes_numpy_int_seeds_as_python_ints():
    tree = fit_tree(make_partition(lifetime=0.0), np.empty((0, 2)), np.empty(0))
    root = MondrianForestModel([tree], 0.0, np.int64(7))
    derived = MondrianForestModel([tree], 0.0, (np.uint64(7), np.int32(3)))
    assert (type(root.master_seed), root.master_seed) == (int, 7)
    assert derived.master_seed == (7, 3) and set(map(type, derived.master_seed)) == {int}
    assert '"master_seed":[7,3]' in model_to_json(derived).replace(" ", "")


def test_classifier_agrees_with_half_threshold_everywhere():
    rng = np.random.default_rng(9)
    X = rng.random((500, 2))
    y = (rng.random(500) < 0.4).astype(float)
    forest = fit_forest(UNIT2, 2, 5.0, 7, X, y, master_seed=51)
    probe = rng.random((300, 2))
    values = predict_forest(forest, probe)
    assert np.array_equal(predict_class(forest, probe), (values >= 0.5).astype(np.int64))


# -- schedules ---------------------------------------------------------------

def test_lifetime_schedule_exact_powers():
    assert lifetime_schedule("lipschitz", 2**12, 1) == pytest.approx(16.0, rel=1e-12)
    assert lifetime_schedule("c2", 2**12, 2) == pytest.approx(4.0, rel=1e-12)
    # n^(1/(d+4)) at n=16, d=4 is 16^(1/8) = sqrt(2)
    assert lifetime_schedule("c2", 16, 4) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert lifetime_schedule("consistency", 2**8, 2) == pytest.approx(4.0, rel=1e-12)
    assert lifetime_schedule("lipschitz", 1000, 1, scale=2.0) == \
        pytest.approx(2.0 * 1000 ** (1 / 3), rel=1e-12)


def test_lifetime_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        lifetime_schedule("quadratic", 100, 2)
    with pytest.raises(ValueError):
        lifetime_schedule("lipschitz", 0, 2)
    with pytest.raises(ValueError):
        lifetime_schedule("lipschitz", 100, 2, scale=0.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("schedule", [
    lambda scale: lifetime_schedule("lipschitz", 100, 1, scale=scale),
    lambda scale: forest_size_schedule("c2", 100, 1, scale=scale),
], ids=["lifetime", "forest-size"])
def test_schedules_refuse_a_scale_that_is_not_finite_and_positive(schedule, scale):
    # a nan scale used to give a nan lifetime and an infinite one an OverflowError
    with pytest.raises(ValueError, match=rf"scale must be finite and > 0, got {scale}$"):
        schedule(scale)


@pytest.mark.parametrize("n, d, message", [
    (2.5, 2, r"^n must be an int >= 1, got 2\.5$"),
    (100, 1.5, r"^d must be an int >= 1, got 1\.5$"),
    (100, 0, r"^d must be >= 1, got 0$"),
], ids=["n-float", "d-float", "d-zero"])
@pytest.mark.parametrize("schedule", [
    lambda n, d: lifetime_schedule("lipschitz", n, d),
    lambda n, d: forest_size_schedule("c2", n, d),
], ids=["lifetime", "forest-size"])
def test_schedules_refuse_a_size_or_dimension_that_is_not_a_positive_int(schedule, n, d, message):
    # n = 2.5 and d = 1.5 used to pass a bare `< 1` and return a schedule value
    with pytest.raises(ValueError, match=message):
        schedule(n, d)


def test_consistency_schedule_keeps_cells_per_sample_vanishing():
    for d in (1, 2, 3):
        ratios = [
            lifetime_schedule("consistency", n, d) ** d / n
            for n in (2**8, 2**10, 2**12, 2**14, 2**16)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < ratios[0] / 3


def test_forest_size_schedule_values():
    assert forest_size_schedule("c2", 32, 4) == 3
    assert forest_size_schedule("c2", 1, 3) == 1
    sizes = [forest_size_schedule("c2", n, 2) for n in (10, 100, 1000, 10000)]
    assert sizes == sorted(sizes)
    with pytest.raises(ValueError):
        forest_size_schedule("lipschitz", 32, 4)


# -- serialization -----------------------------------------------------------

def test_tree_model_roundtrip_bit_exact():
    part = make_partition()
    X, y = make_data(90)
    model = fit_tree(part, X, y)
    clone = model_from_json(model_to_json(model))
    probe = np.random.default_rng(7).random((64, 2))
    assert np.array_equal(predict_tree(clone, probe), predict_tree(model, probe))
    assert clone._totals == model._totals


def test_forest_model_roundtrip_bit_exact():
    X, y = make_data(60)
    forest = fit_forest(UNIT2, 2, 3.0, 4, X, y, master_seed=61)
    clone = model_from_json(model_to_json(forest))
    probe = np.random.default_rng(8).random((32, 2))
    assert np.array_equal(predict_forest(clone, probe), predict_forest(forest, probe))
    assert clone.master_seed == forest.master_seed


def test_model_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        model_from_json('{"schema": "bogus/1"}')


def test_forest_document_of_another_schema_is_refused():
    with pytest.raises(ValueError, match=r"^unsupported forest model schema: 'x'$"):
        estimators.forest_model_from_dict({"schema": "x"})


def test_model_json_refuses_what_is_not_a_model():
    with pytest.raises(TypeError, match=r"^not a model: object$"):
        model_to_json(object())
