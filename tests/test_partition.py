import math

import numpy as np
import pytest

from mondrianforest import (
    BoxRegion,
    RngStream,
    SplitLimitError,
    cell_l2_diameter,
    expected_leaf_count,
    expected_leaf_count_box,
    extend,
    leaf_cells,
    leaf_count,
    locate_leaf,
    partition_from_json,
    partition_to_json,
    prune,
    restrict,
    sample_mondrian,
)
from mondrianforest.partition import validate_partition

UNIT2 = BoxRegion.unit(2)


def sample(seed, lifetime=4.0, box=UNIT2):
    return sample_mondrian(box, lifetime, RngStream(seed))


# -- boxes -------------------------------------------------------------------

def test_box_basoches():
    box = BoxRegion([0.0, 0.25], [0.5, 1.0])
    assert box.dim == 2
    assert box.linear_dimension == 1.25
    assert box.volume == 0.375
    assert box.l2_diameter == pytest.approx(math.hypot(0.5, 0.75))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxRegion([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxRegion([0.5], [0.2])
    with pytest.raises(ValueError):
        BoxRegion([0.0], [math.inf])


def test_unit_box_closed_everywhere():
    box = BoxRegion.unit(3)
    assert box.left_closed.all()
    assert box.contains([0.0, 0.0, 0.0])
    assert box.contains([1.0, 1.0, 1.0])


def test_split_edge_flags():
    left, right = BoxRegion.unit(1).split(0, 0.3)
    assert left.contains([0.3]) and not right.contains([0.3])
    assert right.contains([0.30000000000000004])
    assert left.upper[0] == right.lower[0] == 0.3


def test_degenerate_box_diameter_zero():
    box = BoxRegion([0.2, 0.7], [0.2, 0.7])
    assert cell_l2_diameter(box) == 0.0


def test_unit_square_diameter():
    assert cell_l2_diameter(UNIT2) == pytest.approx(math.sqrt(2.0))


# -- sampling ----------------------------------------------------------------

def test_zero_lifetime_single_leaf():
    part = sample(1, lifetime=0.0)
    assert leaf_count(part) == 1
    assert leaf_cells(part) == [UNIT2]
    assert part.root.pending_clock > 0


def test_degenerate_box_never_splits():
    box = BoxRegion([0.4, 0.6], [0.4, 0.6])
    part = sample_mondrian(box, 10.0, RngStream(3))
    assert leaf_count(part) == 1
    assert math.isinf(part.root.pending_clock)


def test_partially_degenerate_box_splits_positive_axes_only():
    box = BoxRegion([0.0, 0.3], [1.0, 0.3])
    part = sample_mondrian(box, 5.0, RngStream(4))
    assert leaf_count(part) > 1
    for node in part.iter_nodes():
        if node.split is not None:
            assert node.split.dim == 0


def test_negative_lifetime_rejected():
    with pytest.raises(ValueError):
        sample_mondrian(UNIT2, -1.0, RngStream(0))


@pytest.mark.parametrize("lifetime", [math.inf, math.nan])
@pytest.mark.parametrize("grow", [
    lambda lam: sample_mondrian(BoxRegion.unit(1), lam, RngStream(0), max_splits=0),
    lambda lam: extend(sample(3, 1.0), lam, RngStream(1), max_splits=0),
    lambda lam: prune(sample(3, 1.0), lam),
], ids=["sample", "extend", "prune"])
def test_non_finite_lifetime_rejected(grow, lifetime):
    # a zero split budget makes a missing check fail fast instead of hanging
    with pytest.raises(ValueError, match="finite"):
        grow(lifetime)


def test_split_budget_guard_raises():
    with pytest.raises(SplitLimitError):
        sample_mondrian(BoxRegion.unit(1), 60.0, RngStream(5), max_splits=5)


def test_determinism_across_runs():
    assert sample(42, 5.0).structurally_equal(sample(42, 5.0))


def test_distinct_seeds_distinct_partitions():
    assert not sample(1, 5.0).structurally_equal(sample(2, 5.0))


@pytest.mark.parametrize("seed", range(6))
def test_sampled_partitions_satisfy_invariants(seed):
    validate_partition(sample(seed, 5.0))


def test_leaf_count_equals_splits_plus_one():
    part = sample(7, 6.0)
    assert leaf_count(part) == part.n_splits + 1


def test_leaf_count_mean_matches_oracle():
    counts = np.array([
        sample_mondrian(UNIT2, 5.0, RngStream(1000, (i,))).n_leaves
        for i in range(1500)
    ])
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected_leaf_count(5.0, 2)) <= 4 * se


def test_first_split_dimension_frequency():
    # box [0,1] x [0,3]: axis 1 carries 3/4 of the linear dimension
    box = BoxRegion([0.0, 0.0], [1.0, 3.0])
    picks = []
    for i in range(10_000):
        part = sample_mondrian(box, 0.5, RngStream(31, (i,)))
        if part.root.split is not None:
            picks.append(part.root.split.dim)
    freq = np.mean(np.array(picks) == 1)
    assert abs(freq - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / len(picks))


# -- covering and location ---------------------------------------------------

def test_locate_single_leaf_returns_root():
    part = sample(1, lifetime=0.0)
    assert locate_leaf(part, [0.4, 0.9]) is part.root


def test_locate_threshold_goes_left():
    part = sample(8, 3.0)
    node = part.root
    assert node.split is not None
    x = np.array([0.5, 0.5])
    x[node.split.dim] = node.split.threshold
    leaf = locate_leaf(part, x)
    probe = node.left
    while probe.split is not None:
        probe = probe.left if x[probe.split.dim] <= probe.split.threshold else probe.right
    assert leaf is probe


def test_locate_outside_root_box_rejected():
    with pytest.raises(ValueError):
        locate_leaf(sample(1), [1.5, 0.5])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_point_in_exactly_one_leaf(seed):
    part = sample(seed, 4.0)
    cells = leaf_cells(part)
    rng = np.random.default_rng(seed)
    for x in rng.random((333, 2)):
        owners = [c for c in cells if c.contains(x)]
        assert len(owners) == 1
        assert locate_leaf(part, x).box == owners[0]


def test_batch_leaf_indices_match_single_location():
    part = sample(12, 5.0)
    X = np.random.default_rng(0).random((200, 2))
    ranks = part.leaf_indices(X)
    cells = leaf_cells(part)
    for x, rank in zip(X, ranks):
        assert locate_leaf(part, x).box == cells[rank]


def test_batch_leaf_indices_reports_offender():
    part = sample(12, 2.0)
    X = np.array([[0.5, 0.5], [1.2, 0.5], [0.1, 0.1]])
    with pytest.raises(ValueError, match=r"\[1\]"):
        part.leaf_indices(X)


def test_leaf_cells_orders_and_volumes():
    part = sample(3, 5.0)
    cells = leaf_cells(part)
    assert len(cells) == leaf_count(part)
    total = sum(c.volume for c in cells)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_single_split_shares_threshold_face():
    part = sample(8, 3.0)
    node = part.root
    pruned = part
    while pruned.n_splits > 1:
        pruned = prune(pruned, node.split.time)
    left, right = leaf_cells(pruned)
    axis = pruned.root.split.dim
    assert left.upper[axis] == right.lower[axis] == pruned.root.split.threshold


# -- birth times -------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 5, 9])
def test_birth_times_strictly_increase(seed):
    # split times strictly exceed the node's birth time, children are born at
    # the parent's split time, and no split outlives the lifetime
    part = sample(seed, 6.0)
    stack = [part.root]
    while stack:
        node = stack.pop()
        if node.split is not None:
            assert node.split.time > node.birth_time
            assert node.split.time <= part.lifetime
            assert node.left.birth_time == node.split.time
            assert node.right.birth_time == node.split.time
            stack.append(node.left)
            stack.append(node.right)
        else:
            assert node.pending_clock > part.lifetime


# -- prune / extend ----------------------------------------------------------

def test_prune_identity_at_same_lifetime():
    part = sample(21, 4.0)
    assert prune(part, 4.0).structurally_equal(part)


def test_prune_to_zero_keeps_first_split_clock():
    part = sample(22, 4.0)
    assert part.root.split is not None
    stub = prune(part, 0.0)
    assert leaf_count(stub) == 1
    assert stub.root.pending_clock == part.root.split.time


def test_prune_above_lifetime_rejected():
    part = sample(23, 2.0)
    with pytest.raises(ValueError):
        prune(part, 3.0)


def test_extend_identity_at_same_lifetime():
    part = sample(24, 3.0)
    assert extend(part, 3.0, RngStream(99)).structurally_equal(part)


def test_extend_below_lifetime_rejected():
    part = sample(25, 3.0)
    with pytest.raises(ValueError):
        extend(part, 2.0, RngStream(99))


@pytest.mark.parametrize("seed", range(8))
def test_prune_extend_roundtrip_is_identity(seed):
    part = sample_mondrian(UNIT2, 2.0, RngStream(seed))
    grown = extend(part, 5.0, RngStream(seed + 1000))
    validate_partition(grown)
    assert grown.n_leaves >= part.n_leaves
    assert prune(grown, 2.0).structurally_equal(part)


def test_extend_keeps_existing_structure():
    part = sample(26, 2.0)
    grown = extend(part, 6.0, RngStream(7))
    assert prune(grown, 2.0).structurally_equal(part)
    for node in grown.iter_nodes():
        if node.split is not None and node.split.time <= 2.0:
            assert node.split.time <= part.lifetime


def test_extend_matches_direct_sampling_in_distribution():
    lam1, lam2, n = 2.0, 5.0, 800
    extended = np.array([
        extend(sample_mondrian(UNIT2, lam1, RngStream(1, (i,))), lam2,
               RngStream(2, (i,))).n_leaves
        for i in range(n)
    ])
    direct = np.array([
        sample_mondrian(UNIT2, lam2, RngStream(3, (i,))).n_leaves for i in range(n)
    ])
    joint_se = math.hypot(extended.std(ddof=1), direct.std(ddof=1)) / math.sqrt(n)
    assert abs(extended.mean() - direct.mean()) <= 4 * joint_se
    oracle = expected_leaf_count(lam2, 2)
    assert abs(extended.mean() - oracle) <= 4 * extended.std(ddof=1) / math.sqrt(n)


# -- restriction -------------------------------------------------------------

def test_restrict_to_root_box_preserves_leaves():
    part = sample(30, 4.0)
    again = restrict(part, UNIT2)
    assert [c for c in leaf_cells(again)] == leaf_cells(part)


def test_restrict_single_leaf_partition():
    part = sample(31, 0.0)
    sub = BoxRegion([0.2, 0.1], [0.6, 0.4])
    r = restrict(part, sub)
    assert leaf_count(r) == 1
    assert r.root.box == sub


def test_restrict_requires_containment():
    part = sample(32, 3.0)
    with pytest.raises(ValueError):
        restrict(part, BoxRegion([0.5, 0.5], [1.5, 0.9]))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_restrict_produces_valid_partition_of_sub(seed):
    part = sample(seed, 5.0)
    sub = BoxRegion([0.2, 0.1], [0.6, 0.4])
    r = restrict(part, sub)
    validate_partition(r)
    assert r.root.box == sub
    rng = np.random.default_rng(seed)
    pts = sub.lower + rng.random((200, 2)) * (sub.upper - sub.lower)
    for x in pts:
        owners = [c for c in leaf_cells(r) if c.contains(x)]
        assert len(owners) == 1


def test_restrict_keeps_split_times_and_volume():
    part = sample(33, 5.0)
    sub = BoxRegion([0.2, 0.1], [0.6, 0.4])
    r = restrict(part, sub)
    original_times = {n.split.time for n in part.iter_nodes() if n.split is not None}
    for node in r.iter_nodes():
        if node.split is not None:
            assert node.split.time in original_times
    assert sum(c.volume for c in leaf_cells(r)) == pytest.approx(sub.volume, rel=1e-12)


def test_restrict_leaf_count_mean_matches_product_law():
    sub = BoxRegion([0.2, 0.1], [0.6, 0.4])
    counts = np.array([
        restrict(sample_mondrian(UNIT2, 5.0, RngStream(41, (i,))), sub).n_leaves
        for i in range(1200)
    ])
    oracle = expected_leaf_count_box(5.0, sub.side_lengths)
    assert oracle == pytest.approx(7.5)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - oracle) <= 4 * se


# -- serialization -----------------------------------------------------------

def test_json_roundtrip_preserves_structure():
    part = sample(50, 5.0)
    clone = partition_from_json(partition_to_json(part))
    assert clone.structurally_equal(part)
    validate_partition(clone)


def test_json_emission_is_bit_stable():
    part = sample(51, 5.0)
    assert partition_to_json(part) == partition_to_json(part)
    clone = partition_from_json(partition_to_json(part))
    assert partition_to_json(clone, include_provenance=False) == \
        partition_to_json(part, include_provenance=False)


def test_json_schema_tag_is_checked():
    part = sample(52, 1.0)
    text = partition_to_json(part).replace("mondrian-partition/1", "bogus/9")
    with pytest.raises(ValueError):
        partition_from_json(text)


def test_infinite_pending_clock_roundtrips():
    box = BoxRegion([0.1, 0.1], [0.1, 0.1])
    part = sample_mondrian(box, 3.0, RngStream(1))
    clone = partition_from_json(partition_to_json(part))
    assert math.isinf(clone.root.pending_clock)
