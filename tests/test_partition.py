import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrianforest import (
    BoxRegion,
    MondrianForestModel,
    MondrianPartition,
    RngStream,
    SplitLimitError,
    cell_l2_diameter,
    expected_leaf_count,
    expected_leaf_count_box,
    extend,
    fit_forest,
    fit_tree,
    leaf_cells,
    leaf_count,
    locate_leaf,
    partition_from_dict,
    partition_from_json,
    partition_to_json,
    prune,
    restrict,
    sample_mondrian,
    update_tree,
)
from mondrianforest import partition as partition_module
from mondrianforest.partition import _TABLE_ROW_LEVELS, _PlacedRows, validate_partition

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
    assert (BoxRegion.unit(2) == 3) is False  # through NotImplemented, not an error


def test_box_validation():
    with pytest.raises(ValueError):
        BoxRegion([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxRegion([0.5], [0.2])
    with pytest.raises(ValueError):
        BoxRegion([0.0], [math.inf])


@pytest.mark.parametrize("call, message", [
    (lambda: BoxRegion([], []), r"^box must have at least one axis$"),
    (lambda: BoxRegion.unit(0), r"^dim must be >= 1, got 0$"),
    (lambda: UNIT2.contains([0.5]), r"^point has dimension 1, box has 2$"),
    (lambda: UNIT2.contains([[0.2, 0.3]]), r"^point has shape \(1, 2\), box has dimension 2$"),
    (lambda: BoxRegion.unit(1).contains(0.5), r"^point has shape \(\), box has dimension 1$"),
    (lambda: UNIT2.split(0, 1.0), r"^threshold 1\.0 not interior to \[0\.0, 1\.0\] on axis 0$"),
    (lambda: UNIT2.split(1, 0.0), r"^threshold 0\.0 not interior to \[0\.0, 1\.0\] on axis 1$"),
    (lambda: sample(3).leaf_indices(np.array([0.5, 0.5])), r"^X must have shape \(n, 2\)$"),
    (lambda: sample(3).leaf_indices(np.full((3, 3), 0.5)), r"^X must have shape \(n, 2\)$"),
    (lambda: restrict(sample(3), BoxRegion.unit(1)), r"^sub-box dimension mismatch$"),
], ids=["box-no-axis", "unit-dim-0", "contains-dim", "contains-2d-point", "contains-scalar",
         "split-at-upper", "split-at-lower",
        "leaf-indices-1d", "leaf-indices-columns", "restrict-dim"])
def test_boxes_and_partitions_refuse_a_wrong_dimension_or_threshold(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("lower, upper", [([-1e308], [1e308]), ([0.0, 0.0], [1e308, 1e308])],
                         ids=["side-overflows", "sides-sum-overflows"])
def test_box_whose_side_lengths_overflow_is_rejected(lower, upper):
    # an infinite linear dimension draws clock 0 and no interior threshold, so
    # sampling such a box would spin or exhaust the split budget
    with pytest.raises(ValueError, match="sum to a finite value"):
        BoxRegion(lower, upper)


def test_box_with_the_largest_finite_linear_dimension_is_accepted():
    box = BoxRegion([0.0, 0.0], [1e308, 7e307])
    assert box.linear_dimension == 1.7e308
    assert sample_mondrian(box, 0.0, RngStream(0)).n_leaves == 1


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


BELOW_HALF = math.nextafter(0.5, 0.0)


@pytest.mark.parametrize("outer, inner, expected", [
    (([0.0], [1.0], [True]), ([0.0], [1.0], [True]), True),
    (([0.0], [1.0], [True]), ([0.0], [1.0], [False]), True),
    (([0.0], [1.0], [False]), ([0.0], [1.0], [True]), False),
    (([0.0], [1.0], [False]), ([0.0], [1.0], [False]), True),
    (([0.5], [1.0], [True]), ([BELOW_HALF], [1.0], [False]), True),
    (([0.5], [1.0], [True]), ([BELOW_HALF], [1.0], [True]), False),
    (([0.5], [1.0], [False]), ([BELOW_HALF], [1.0], [False]), False),
    (([BELOW_HALF], [1.0], [False]), ([0.5], [1.0], [True]), True),
    (([0.0], [1.0], [True]), ([0.2], [0.8], [False]), True),
    (([0.0], [1.0], [True]), ([0.2], [1.5], [True]), False),
    (([0.0], [1.0], [False]), ([1.0], [1.0], [True]), True),
    (([0.0], [1.0], [False]), ([0.0], [0.0], [True]), False),
    (([0.0, 0.0], [1.0, 1.0], [True, False]), ([0.0, 0.0], [1.0, 1.0], [False, True]), False),
    (([0.0, 0.0], [1.0, 1.0], [True, True]), ([0.0], [1.0], [True]), False),
], ids=["same", "equal-lower-inner-open", "equal-lower-outer-open", "equal-lower-both-open",
        "one-ulp-below-a-closed-edge-open", "one-ulp-below-a-closed-edge-closed",
        "one-ulp-below-an-open-edge", "closed-edge-one-ulp-above-an-open-one",
        "strictly-inside", "upper-past", "zero-width-on-the-upper",
        "zero-width-on-an-open-lower", "one-axis-of-two-fails", "other-dimension"])
def test_contains_box_compares_the_point_sets(outer, inner, expected):
    # (0.5 - ulp, 1] and [0.5, 1] hold the same floats, so either contains the other
    assert BoxRegion(*outer).contains_box(BoxRegion(*inner)) is expected


def test_box_with_an_open_side_of_zero_width_is_refused():
    # (0.5, 0.5] holds no point: such a box used to be accepted, and a partition
    # restricted to it could route no point at all
    with pytest.raises(ValueError, match=r"box is empty on axis 0: its lower edge 0\.5 is open"):
        BoxRegion([0.5], [0.5], [False])
    with pytest.raises(ValueError, match=r"box is empty on axis 1"):
        BoxRegion([0.0, 0.5], [1.0, 0.5], [False, False])
    with pytest.raises(ValueError, match=r"box is empty on axis 0"):
        restrict(sample_mondrian(UNIT2, 3.0, RngStream(1)),
                 BoxRegion([0.5, 0.2], [0.5, 0.8], [False, True]))
    assert BoxRegion([0.5], [0.5], [True]).contains([0.5])


@st.composite
def boxes_and_edge_points(draw):
    """A 1-3-d box with open edges and closed zero-width sides, and points on and
    one float around each of its edges."""
    d = draw(st.integers(1, 3))
    lower = draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    width = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=d, max_size=d))
    closed = [w == 0.0 or draw(st.booleans()) for w in width]
    box = BoxRegion(lower, np.add(lower, width), closed)
    candidates = [[lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), (lo + up) / 2,
                   up, np.nextafter(up, -np.inf), np.nextafter(up, np.inf), np.nan]
                  for lo, up in zip(box.lower, box.upper)]
    rows = draw(st.lists(st.tuples(*(st.sampled_from(c) for c in candidates)),
                         min_size=1, max_size=12))
    return box, np.array(rows, dtype=np.float64)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(boxes_and_edge_points(), st.sampled_from([0.0, 1.0, 3.0]), st.integers(0, 2**32 - 1))
def test_contains_is_what_leaf_indices_accepts(case, scale, seed):
    box, X = case
    lifetime = scale * box.dim / (box.linear_dimension or 1.0)
    part = sample_mondrian(box, lifetime, RngStream(seed))
    inside = [box.contains(x) for x in X]
    for x, accepted in zip(X, inside):
        if accepted:
            assert part.leaf_indices(x[None]).shape == (1,)
        else:
            with pytest.raises(ValueError, match="outside the root box"):
                part.leaf_indices(x[None])
    outside = [i for i, accepted in enumerate(inside) if not accepted]
    if outside:
        with pytest.raises(ValueError, match=rf"at indices \[{', '.join(map(str, outside))}\]$"):
            part.leaf_indices(X)
    else:
        assert part.leaf_indices(X).shape == (len(X),)


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


@pytest.mark.parametrize("grow", [
    lambda rng: sample_mondrian(BoxRegion.unit(2), 0.0, rng, max_splits=-1),
    lambda rng: extend(sample(3, 1.0), 5.0, rng, max_splits=-3),
], ids=["sample", "extend"])
def test_negative_split_budget_rejected_before_growing(grow):
    rng = RngStream(9)
    with pytest.raises(ValueError, match="max_splits must be >= 0"):
        grow(rng)
    assert rng.counter == 0


@pytest.mark.parametrize("budget, message", [
    (2.5, r"^max_splits must be an int >= 0, got 2\.5$"),
    (True, r"^max_splits must be an int >= 0, got True$"),
], ids=["float", "bool"])
@pytest.mark.parametrize("grow", [
    lambda rng, budget: sample_mondrian(BoxRegion.unit(2), 0.0, rng, max_splits=budget),
    lambda rng, budget: extend(sample(3, 1.0), 5.0, rng, max_splits=budget),
], ids=["sample", "extend"])
def test_a_split_budget_that_is_not_an_int_is_refused_before_growing(grow, budget, message):
    # 2.5 used to pass a bare `< 0` and True to grow on a budget of 1
    rng = RngStream(9)
    with pytest.raises(ValueError, match=message):
        grow(rng, budget)
    assert rng.counter == 0


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


class ZeroAt(RngStream):
    """A stream that hands out an extra 0.0 as its scalar draw number ``at``.

    The draws around it are those of ``RngStream(seed)``, so a rule that redraws
    the 0.0 reproduces the plain stream's result with one more draw counted.
    """

    def __init__(self, seed, at):
        super().__init__(seed)
        self.at = at

    def uniform(self):
        if self.counter + 1 == self.at:
            self.counter += 1
            return 0.0
        return super().uniform()


def test_a_threshold_on_the_cell_edge_is_redrawn():
    # the root draws its clock, its axis and then its threshold: a 0.0 as the third
    # draw puts the threshold on the lower edge, and one more uniform replaces it
    plain = sample(8, 3.0)
    scripted = sample_mondrian(UNIT2, 3.0, ZeroAt(8, 3))
    assert plain.root.split is not None
    assert 0.0 < scripted.root.split.threshold < 1.0
    assert scripted.structurally_equal(plain)
    assert scripted.seed_provenance["draws"] == plain.seed_provenance["draws"] + 1


def test_a_uniform_of_zero_is_redrawn_for_a_clock():
    # -log1p(-0.0) / rate is a clock of 0, which would not keep split times increasing
    rng = ZeroAt(8, 1)
    clock = rng.exponential(2.0)
    assert math.isfinite(clock) and clock > 0
    assert clock == RngStream(8).exponential(2.0)
    assert rng.counter == 2
    # the root's clock is the sampler's first draw
    scripted = sample_mondrian(UNIT2, 3.0, ZeroAt(8, 1))
    assert scripted.structurally_equal(sample(8, 3.0))
    assert scripted.seed_provenance["draws"] == sample(8, 3.0).seed_provenance["draws"] + 1


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


def reference_cells(part):
    """(index, box, birth time) of every node in preorder, from ``BoxRegion.split``."""
    out, stack = [], [(0, part.box, 0.0)]
    while stack:
        index, box, birth = stack.pop()
        out.append((index, box, birth))
        axis = int(part.split_dim[index])
        if axis >= 0:
            left, right = box.split(axis, float(part.threshold[index]))
            clock = float(part.clock[index])
            stack.append((int(part.right[index]), right, clock))
            stack.append((index + 1, left, clock))
    return out


VIEW_PARTITIONS = {
    "d1": lambda: sample_mondrian(BoxRegion.unit(1), 8.0, RngStream(40)),
    "d2-open-axis": lambda: sample_mondrian(
        BoxRegion([-1.0, 2.0], [3.0, 2.5], [True, False]), 3.0, RngStream(41)),
    "d3": lambda: sample_mondrian(BoxRegion.unit(3), 4.0, RngStream(42)),
    "d2-restricted": lambda: restrict(
        sample(43, 8.0), BoxRegion([0.2, 0.1], [0.6, 0.4], [False, True])),
}


@pytest.mark.parametrize("name", sorted(VIEW_PARTITIONS))
def test_views_match_a_reference_descent(name):
    part = VIEW_PARTITIONS[name]()
    assert part.n_splits > 3
    ref = reference_cells(part)
    nodes = list(part.iter_nodes())
    assert [node.index for node in nodes] == [index for index, _, _ in ref]
    for node, (_, box, birth) in zip(nodes, ref):
        assert node.box == box
        assert node.birth_time == birth
        assert (node.children is None) is node.is_leaf
    leaves = part.leaves()
    assert len(leaves) == part.n_leaves
    assert all(a is b for a, b in zip(leaves, [node for node in nodes if node.is_leaf], strict=True))
    # a point on a threshold: the reference leaf is the one whose cell holds it
    ref_leaves = [(index, box) for index, box, _ in ref if part.split_dim[index] < 0]
    for node, (_, box, _) in zip(nodes, ref):
        if node.split is None:
            continue
        x = (box.lower + box.upper) / 2
        x[node.split.dim] = node.split.threshold
        owners = [index for index, box in ref_leaves if box.contains(x)]
        assert len(owners) == 1
        leaf = locate_leaf(part, x)
        assert leaf.index == owners[0]
        assert leaf is leaves[[index for index, _ in ref_leaves].index(owners[0])]


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
    assert partition_to_json(clone) == partition_to_json(part)


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


@pytest.mark.parametrize("name", sorted(VIEW_PARTITIONS))
def test_one_row_leaf_indices_match_the_batch(name):
    # a single row takes the scalar walk, a batch the level loop: they must agree,
    # points on thresholds included
    part = VIEW_PARTITIONS[name]()
    box = part.box
    rows = [box.lower + (box.upper - box.lower) * u
            for u in np.random.default_rng(3).uniform(0.01, 1.0, (40, part.dim))]
    for index, cell, _ in reference_cells(part):
        axis = int(part.split_dim[index])
        if axis >= 0:
            x = (cell.lower + cell.upper) / 2
            x[axis] = part.threshold[index]
            rows.append(x)
    X = np.array(rows)
    batch = part.leaf_indices(X)
    assert [part.leaf_indices(X[i:i + 1]).tolist() for i in range(len(X))] == [
        [rank] for rank in batch.tolist()]


def test_one_row_on_an_open_lower_edge_is_rejected():
    part = VIEW_PARTITIONS["d2-open-axis"]()
    assert part.leaf_indices([[0.5, 2.1]]).shape == (1,)
    with pytest.raises(ValueError, match=r"indices \[0\]"):
        part.leaf_indices([[0.5, 2.0]])


# -- 1-d batches route by searchsorted -------------------------------------------


@st.composite
def one_d_partitions(draw):
    """A 1-d partition of a box of any offset, width and lower-edge flag, maybe restricted."""
    lower = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    box = BoxRegion([lower], [lower + width], [draw(st.booleans())])
    lifetime = draw(st.one_of(st.just(0.0), st.floats(0.0, 64.0))) / width
    part = sample_mondrian(box, lifetime, RngStream(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        a, b = draw(st.floats(0.01, 0.5)), draw(st.floats(0.5, 1.0))
        lo, hi = lower + width * a, lower + width * b
        part = restrict(part, BoxRegion([lo], [hi], [draw(st.booleans()) or lo == hi]))
    return part


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(one_d_partitions(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_one_d_batch_routing_equals_the_scalar_walk(part, fractions):
    lo, hi = float(part.box.lower[0]), float(part.box.upper[0])
    first = lo if part.box.left_closed[0] else math.nextafter(lo, hi)
    points = [first, hi, *part.threshold[part.split_dim >= 0].tolist(),
              *(min(max(lo + (hi - lo) * u, first), hi) for u in fractions)]
    X = np.array(points)[:, None]
    rank = {node.index: r for r, node in enumerate(part.leaves())}
    walked = [rank[part.locate_leaf(x).index] for x in X]
    assert part.leaf_indices(X).tolist() == walked
    assert [part.leaf_indices(X[i:i + 1]).item() for i in range(len(X))] == walked


# -- batches in 2 or more dimensions ----------------------------------------------


@st.composite
def multi_d_partitions(draw):
    """A partition at d = 2-4 of a box of any offsets, widths and lower-edge flags.

    The lifetime may be 0 (no split); the partition may be restricted to a
    sub-box, which opens the lower edges that the draw leaves open.
    """
    d = draw(st.integers(2, 4))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    closed = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    box = BoxRegion(lower, lower + width, closed)
    # at most about 3^d leaves for a cube
    lifetime = draw(st.one_of(st.just(0.0), st.floats(0.5, 2.0))) * d / box.linear_dimension
    part = sample_mondrian(box, lifetime, RngStream(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        a = np.array(draw(st.lists(st.floats(0.01, 0.45), min_size=d, max_size=d)))
        b = np.array(draw(st.lists(st.floats(0.55, 1.0), min_size=d, max_size=d)))
        part = restrict(part, BoxRegion(lower + width * a, lower + width * b,
                                        draw(st.lists(st.booleans(), min_size=d, max_size=d))))
    return part


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(multi_d_partitions(), st.lists(st.floats(0.0, 1.0), max_size=24))
def test_multi_d_batch_routing_equals_the_scalar_walk(part, fractions):
    box, d = part.box, part.dim
    lo, hi = box.lower, box.upper
    first = np.where(box.left_closed, lo, np.nextafter(lo, hi))
    corners = [np.where(np.array(bits, dtype=bool), hi, first)
               for bits in np.ndindex(*(2,) * d)]
    on_thresholds = []
    for node in part.iter_nodes():
        if not node.is_leaf:
            x = (node.box.lower + node.box.upper) / 2
            x[node.split.dim] = node.split.threshold
            on_thresholds.append(x)
    inside = [lo + (hi - lo) * u for u in np.reshape(fractions[:len(fractions) // d * d], (-1, d))]
    X = np.clip(np.array(corners + on_thresholds + inside), first, hi)
    rank = {node.index: r for r, node in enumerate(part.leaves())}
    walked = [rank[part.locate_leaf(x).index] for x in X]
    assert part.leaf_indices(X).tolist() == walked
    assert [part.leaf_indices(X[i:i + 2]).tolist() for i in range(len(X) - 1)] == [
        walked[i:i + 2] for i in range(len(X) - 1)]


@pytest.mark.parametrize("d", [1, 2])
def test_batch_leaf_indices_names_every_nan_and_open_edge_row(d):
    # the whole-array check only clears a batch; a failing one is named row by row
    box = BoxRegion(np.zeros(d), np.full(d, 4.0), [False] + [True] * (d - 1))
    part = sample_mondrian(box, 2.0, RngStream(44))
    X = np.full((5, d), 2.0)
    X[1, d - 1] = math.nan
    X[3, 0] = 0.0  # on the open lower edge
    with pytest.raises(ValueError, match=r"outside the root box at indices \[1, 3\]$"):
        part.leaf_indices(X)
    X[1, d - 1], X[3, 0] = 4.0, math.nextafter(0.0, 1.0)
    walked = [part.leaves().index(part.locate_leaf(x)) for x in X]
    assert part.leaf_indices(X).tolist() == walked


def test_batch_inside_a_box_that_is_not_a_cube_routes():
    # rows past the smallest upper or the largest lower bound fail the whole-array check
    # but not the box; rows past their own axis's bound are still named
    part = sample_mondrian(BoxRegion([0.0, -3.0], [1.0, 5.0]), 2.0, RngStream(45))
    X = np.array([[0.5, 4.5], [0.25, -2.5], [1.0, -3.0]])
    walked = [part.leaves().index(part.locate_leaf(x)) for x in X]
    assert part.leaf_indices(X).tolist() == walked
    for outside in ([1.5, 0.5], [-1.0, 0.5]):
        with pytest.raises(ValueError, match=r"indices \[1\]$"):
            part.leaf_indices([[0.5, 0.5], outside])


# -- a forest's placed batch reads each tree's leaf table ----------------------------


def counting_tables(mp):
    """Spy on the group builder of leaf tables; the returned list gets each built table's
    size, tree by tree."""
    built = []
    build = partition_module._leaf_tables

    def spy(parts, columns, depth):
        tables = build(parts, columns, depth)
        built.extend(table.size for _, _, table in tables)
        return tables

    mp.setattr(partition_module, "_leaf_tables", spy)
    return built


def grid(part):
    """``(counts, cells)``: each axis's number of thresholds, and the cells of the grid they
    cut the root box into."""
    counts = np.bincount(part.split_dim[part.split_dim >= 0], minlength=part.dim).tolist()
    return counts, math.prod(k + 1 for k in counts)


def depth(node):
    """Levels below ``node``: the level loop's passes over the rows."""
    return 0 if node.is_leaf else 1 + max(depth(child) for child in node.children)


def table_rows(part):
    """The fewest rows a placed batch needs to read ``part``'s leaf table: as many values
    (rows times axes) as the grid has cells, and enough rows that the level loop would take
    _TABLE_ROW_LEVELS row-levels per axis (none suffice for a tree without splits)."""
    levels = depth(part.root)
    return (max(-(-grid(part)[1] // part.dim), -(-_TABLE_ROW_LEVELS * part.dim // levels))
            if levels else math.inf)


def tiled(X, n):
    """``n`` rows: the rows of ``X`` over and over."""
    return X[np.arange(n) % len(X)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(multi_d_partitions(), st.sampled_from([2.0, 1.0, 3.0]),
       st.lists(st.floats(0.0, 1.0), max_size=24), st.integers(0, 2**32 - 1))
def test_placed_rows_read_the_leaves_of_the_level_loop(part, scale, fractions, seed):
    # extended to a lifetime of at least scale * d / |C|, a partition mostly has splits, and
    # their thresholds more neighbours (one with none always takes the level loop)
    lifetime = max(part.lifetime, scale * part.dim / part.box.linear_dimension)
    part = extend(part, lifetime, RngStream(seed, (1,)))
    box, d = part.box, part.dim
    lo, hi = box.lower, box.upper
    first = np.where(box.left_closed, lo, np.nextafter(lo, hi))
    middle = (first + hi) / 2
    corners = [np.where(np.array(bits, dtype=bool), hi, first) for bits in np.ndindex(*(2,) * d)]
    faces = [np.where(np.arange(d) == axis, edge, middle) for axis in range(d) for edge in (first, hi)]
    on_thresholds = []
    for node in part.iter_nodes():
        if not node.is_leaf:
            for value in (-np.inf, None, np.inf):  # one float below, on and one float above
                x = (node.box.lower + node.box.upper) / 2
                x[node.split.dim] = (node.split.threshold if value is None
                                     else np.nextafter(node.split.threshold, value))
                on_thresholds.append(x)
    inside = [lo + (hi - lo) * u for u in np.reshape(fractions[:len(fractions) // d * d], (-1, d))]
    X = np.clip(np.array(corners + faces + on_thresholds + inside), first, hi)
    cells, least, levels = grid(part)[1], table_rows(part), depth(part.root)
    # the table is read when its cells number no more than the batch's values and the
    # level loop would take enough row-levels: with max(least, len(X)) rows it is, and
    # with one row fewer than either bound the level loop runs instead
    for n, table in ((max(least, len(X)), True),
                     (min(-(-cells // d),
                          -(-_TABLE_ROW_LEVELS * d // levels) if levels else math.inf) - 1,
                      False)):
        if n < 2 or n > 16384:
            continue
        rows = tiled(X, n)
        walked = part.leaf_indices(rows)
        with pytest.MonkeyPatch.context() as mp:
            built = counting_tables(mp)
            assert part.leaf_indices(_PlacedRows(rows, [part])).tolist() == walked.tolist()
        assert built == ([cells] if table else [])
        assert all(size <= n * d for size in built)
        # a forest of this tree and two more predicts its trees' mean from placed rows,
        # byte for byte, and fits every tree as fit_tree does
        y = np.random.default_rng(seed).standard_normal(n)
        others = [sample_mondrian(box, part.lifetime, RngStream(seed).child(m)) for m in range(2)]
        trees = [fit_tree(p, rows, y) for p in [part, *others]]
        forest = MondrianForestModel(trees, part.lifetime, seed)
        mean = sum(tree.predict(rows) for tree in trees) / 3
        assert forest.predict(rows).tobytes() == mean.tobytes()
        fitted = fit_forest(box, d, part.lifetime, 2, rows, y, seed)
        for tree, p in zip(fitted.trees, others):
            alone = fit_tree(p, rows, y)
            assert tree.partition.structurally_equal(p)
            assert tree._counts.tolist() == alone._counts.tolist()
            assert tree._totals == alone._totals


def test_equal_thresholds_in_two_subtrees_route_through_the_table():
    # axis 0 is split at 0.3 and at 0.7 on both sides of the root's split of axis 1, one
    # pair nested the other way round from the other; the grid has an empty slab between
    # each pair, and rows on, one float below and one float above each threshold route
    # as locate_leaf says, in a batch too small for the table (the level loop) and in one
    # large enough
    def split(axis, threshold, time):
        return {"split": {"dim": axis, "threshold": threshold, "time": time}}

    leaf = {"leaf": {"pending_clock": 2.0}}
    part = partition_from_dict({
        "schema": "mondrian-partition/1", "dim": 2, "lifetime": 1.0,
        "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "left_closed": [True, True]},
        "nodes": [split(1, 0.5, 0.1),
                  split(0, 0.3, 0.2), leaf, split(0, 0.7, 0.3), leaf, leaf,
                  split(0, 0.7, 0.2), split(0, 0.3, 0.3), leaf, leaf, leaf],
        "seed_provenance": None})
    near = [v for t in (0.3, 0.5, 0.7) for v in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
    X = np.array([(a, b) for a in [0.0, *near, 1.0] for b in [0.0, *near, 1.0]])
    ranks = {node.index: r for r, node in enumerate(part.leaves())}
    walked = [ranks[part.locate_leaf(x).index] for x in X]
    assert grid(part) == ([4, 1], 10)
    with pytest.MonkeyPatch.context() as mp:
        built = counting_tables(mp)
        assert part.leaf_indices(_PlacedRows(X, [part])).tolist() == walked
        assert built == []
        rows = tiled(X, table_rows(part))
        assert part.leaf_indices(_PlacedRows(rows, [part])).tolist() == tiled(np.array(walked),
                                                                      len(rows)).tolist()
    assert built == [10]
    assert sorted(set(walked)) == list(range(6))


def test_a_grid_larger_than_the_batch_takes_the_level_loop(monkeypatch):
    # a d = 3 tree with more grid cells than the batch has values never builds its table,
    # which is therefore never larger than the batch it serves
    part = sample_mondrian(BoxRegion.unit(3), 2.0, RngStream(8))
    cells = grid(part)[1]
    X = np.random.default_rng(8).random((200, 3))
    assert X.size < cells
    built = counting_tables(monkeypatch)
    assert part.leaf_indices(_PlacedRows(X, [part])).tolist() == part.leaf_indices(X).tolist()
    assert built == []
    rows = tiled(X, table_rows(part))
    assert part.leaf_indices(_PlacedRows(rows, [part])).tolist() == part.leaf_indices(rows).tolist()
    assert built == [cells]


@pytest.mark.parametrize("d, lifetime, n", [(2, 0.4, 256), (2, 1.5, 1024), (3, 0.5, 1024)])
def test_a_small_batch_through_a_shallow_tree_takes_the_level_loop(monkeypatch, d, lifetime, n):
    # the table's build costs more than a few levels of the loop over a small batch, so a
    # placed batch whose grid fits but whose loop would take too few row-levels is routed
    # by the loop, and no tree of such a forest sorts the batch
    X = np.random.default_rng(d).random((n, d))
    built = counting_tables(monkeypatch)
    forest = fit_forest(BoxRegion.unit(d), d, lifetime, 4, X, X[:, 0], 3)
    placed = _PlacedRows(X, [tree.partition for tree in forest.trees])
    for tree in forest.trees:
        part = tree.partition
        assert grid(part)[1] <= n < table_rows(part)
        assert part.leaf_indices(placed).tolist() == part.leaf_indices(X).tolist()
    assert built == []
    assert placed._columns is None


@st.composite
def pooled_forests(draw):
    """Partitions at d = 2-4 whose thresholds come from a few values per axis, with rows.

    The trees share the pools, so thresholds repeat within a tree (two
    subtrees split an axis at one value) and across trees; a tree may repeat
    another's partition object, or lie on a sub-box of the forest's box.  The
    rows lie on the box's least members and upper edges, on every pool value
    and one float either side of it, and anywhere in the box; the last entry
    is their number.
    """
    d = draw(st.integers(2, 4))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    box = BoxRegion(lower, lower + width, draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    pools = [sorted({lower.item(a) + width.item(a) * k / 8
                     for k in draw(st.lists(st.integers(1, 7), min_size=1, max_size=7))})
             for a in range(d)]

    def tree(on):
        nodes = []

        def grow(lo, hi, level):
            choices = [(a, v) for a in range(d) for v in pools[a] if lo[a] < v < hi[a]]
            if level < 5 and choices and draw(st.integers(0, 3)):
                a, v = draw(st.sampled_from(choices))
                nodes.append({"split": {"dim": a, "threshold": v, "time": (level + 1) / 8}})
                grow(lo, [v if b == a else h for b, h in enumerate(hi)], level + 1)
                grow([v if b == a else l for b, l in enumerate(lo)], hi, level + 1)
            else:
                nodes.append({"leaf": {"pending_clock": 2.0}})

        grow(on.lower.tolist(), on.upper.tolist(), 0)
        return partition_from_dict({
            "schema": "mondrian-partition/1", "dim": d, "lifetime": 1.0,
            "box": {"lower": on.lower.tolist(), "upper": on.upper.tolist(),
                    "left_closed": on.left_closed.tolist()},
            "nodes": nodes, "seed_provenance": None})

    sub = BoxRegion(lower + width / 4, lower + width, box.left_closed)
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new"] * 6 + ["same"] * 3 + ["sub"]))
        parts.append(draw(st.sampled_from(parts)) if kind == "same" and parts
                     else tree(sub if kind == "sub" else box))
    first = box._lowest
    edges = [np.where(np.array(bits, dtype=bool), box.upper, first)
             for bits in np.ndindex(*(2,) * d)]
    middle = (first + box.upper) / 2
    on_pools = [np.where(np.arange(d) == a, x, middle) for a in range(d) for v in pools[a]
                for x in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]
    inside = [lower + width * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d,
                                                     max_size=d)))
              for _ in range(draw(st.integers(0, 8)))]
    X = np.clip(np.array(edges + on_pools + inside), first, box.upper)
    return parts, X, draw(st.integers(len(X), 2048))


def outcome(part, X):
    """The leaf ranks of the rows of ``X`` in ``part``, or the message that refuses them."""
    try:
        return part.leaf_indices(X).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pooled_forests(), st.sampled_from(["rule", "all", "alone", "filled"]))
def test_group_built_tables_give_the_ranks_of_the_level_loop(forest, budget):
    # a placed batch gives every tree of a forest the leaf ranks that the level loop gives
    # the unplaced rows, or refuses the rows with the same message; the trees that read a
    # table are those whose grid has no more cells than the batch has values and whose
    # loop would take enough row-levels, and they fill groups in order up to the budget.
    # "rule" keeps the rules, on 8 times the rows so that trees of 2 levels or more can
    # pass them; "all" lets every tree of one level or more read its table, "alone" breaks
    # the groups at every tree, and "filled" sets the budget to the largest table, which
    # then fills a group alone
    parts, X, n = forest
    n *= 8 if budget == "rule" else 1
    rows = tiled(X, n)
    row_levels = _TABLE_ROW_LEVELS if budget == "rule" else 1
    reading = [p for p in dict.fromkeys(parts)
               if grid(p)[1] <= rows.size and n * depth(p.root) >= row_levels * p.dim]
    largest = max((grid(p)[1] for p in reading), default=1)
    per_value = {"alone": 0, "filled": Fraction(largest, rows.size)}.get(budget, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition_module, "_TABLE_ROW_LEVELS", row_levels)
        mp.setattr(partition_module, "_GROUP_CELLS_PER_VALUE", per_value)
        built = counting_tables(mp)
        placed = _PlacedRows(rows, parts)
        assert [outcome(p, placed) for p in parts] == [outcome(p, rows) for p in parts]
        # a second batch through the same trees reads the depths and grids derived once
        again = _PlacedRows(rows[::-1], parts)
        assert [outcome(p, again) for p in parts] == [outcome(p, rows[::-1]) for p in parts]
    plan = placed._plan
    assert plan is not None or all(isinstance(outcome(p, rows), str) for p in parts)
    if plan is None:
        return
    assert [plan[p][0] for p in parts] == [depth(p.root) for p in parts]
    groups = list({id(group): group for _, group in plan.values() if group is not None}.values())
    assert [p for group in groups for p in group] == reading
    cells = [[grid(p)[1] for p in group] for group in groups]
    assert all(len(c) == 1 or sum(c) <= per_value * rows.size for c in cells)
    assert all(sum(c) + after[0] > per_value * rows.size for c, after in zip(cells, cells[1:]))
    assert all(size in [grid(p)[1] for p in reading] for size in built)
    if budget == "alone":
        assert all(len(c) == 1 for c in cells)
    if budget == "filled" and reading:
        assert [largest] in cells


# -- one point takes the scalar walk ------------------------------------------------


@st.composite
def partitions_and_points(draw):
    """A partition at d = 1-3 from sample_mondrian, extend or restrict, with points.

    The box has any offsets, widths and lower-edge flags; a restricted box may
    open its lower edges and put one on a threshold of the partition it
    restricts.  The points lie inside the box: at its least members and
    upper edges (corners and faces), at its middle, on thresholds, and
    anywhere; each comes with a label and a place in a shuffled order.
    """
    d = draw(st.integers(1, 3))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    box = BoxRegion(lower, lower + width, draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    # 1 + lifetime * |C| leaves on average in 1-d, more from 2-d on; the first entries
    # are drawn most, so 0 (one leaf) comes last
    lifetime = draw(st.sampled_from([4.0, 8.0, 2.0, 1.0, 0.0])) / box.linear_dimension
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    part = sample_mondrian(box, lifetime, rng)
    op = draw(st.sampled_from(["sample", "extend", "restrict"]))
    if op == "extend":
        part = extend(part, 2.0 * lifetime, rng)
    elif op == "restrict":
        a = lower + width * np.array(draw(st.lists(st.floats(0.01, 0.45), min_size=d, max_size=d)))
        b = lower + width * np.array(draw(st.lists(st.floats(0.55, 1.0), min_size=d, max_size=d)))
        for axis in range(d):
            on_axis = [t for j, t in zip(part.split_dim.tolist(), part.threshold.tolist())
                       if j == axis and a[axis] < t < b[axis]]
            if on_axis and draw(st.booleans()):
                a[axis] = draw(st.sampled_from(on_axis))
        part = restrict(part, BoxRegion(a, b, draw(st.lists(st.booleans(), min_size=d,
                                                            max_size=d))))
    box = part.box
    least = np.where(box.left_closed, box.lower, np.nextafter(box.lower, np.inf))
    upper = box.upper
    splits = np.flatnonzero(part.split_dim >= 0).tolist()
    candidates = [[least[j], upper[j], (least[j] + upper[j]) / 2,
                   *part.threshold[part.split_dim == j].tolist()] for j in range(d)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, candidates)), min_size=1, max_size=10))
    for index in draw(st.lists(st.sampled_from(splits), max_size=8)) if splits else []:
        node = part._node(index)  # the middle of its cell, on its threshold
        x = (node.box.lower + node.box.upper) / 2
        x[node.split.dim] = node.split.threshold
        rows.append(x)
    for u in draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), max_size=6)):
        rows.append(box.lower + (upper - box.lower) * np.array(u))
    X = np.clip(np.array(rows, dtype=np.float64), least, upper)
    labels = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(X), max_size=len(X)))
    order = draw(st.permutations(range(len(X))))
    return part, X, np.array(labels), order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(partitions_and_points())
def test_one_point_routes_as_it_does_in_a_batch(case):
    part, X, y, order = case
    box, n = part.box, len(X)
    leaves = np.flatnonzero(part.split_dim < 0)
    ranks = [part.leaf_indices(x[None]).item() for x in X]
    # a 2-row batch takes searchsorted in 1-d and the level loop from 2-d on
    assert [part.leaf_indices(np.stack([X[i], X[(i + 1) % n]])).tolist() for i in range(n)] == [
        [ranks[i], ranks[(i + 1) % n]] for i in range(n)]
    assert [part.locate_leaf(x).index for x in X] == leaves[ranks].tolist()
    assert all(box.contains(x) for x in X)
    empty = fit_tree(part, np.empty((0, part.dim)), np.empty(0))
    model = empty
    for i in order:
        model = update_tree(model, X[i], y[i])
    batch = fit_tree(part, X, y)
    assert model._counts.tolist() == batch._counts.tolist()
    assert model._totals == batch._totals
    least = np.where(box.left_closed, box.lower, np.nextafter(box.lower, np.inf))
    for axis in range(part.dim):
        for value in (np.nextafter(least[axis], -np.inf), np.nextafter(box.upper[axis], np.inf),
                      math.nan):
            bad = X[0].copy()
            bad[axis] = value
            assert not box.contains(bad)
            with pytest.raises(ValueError, match=r"^points outside the root box at indices \[0\]$"):
                part.leaf_indices(bad[None])
            with pytest.raises(ValueError, match=r"^points outside the root box at indices \[1\]$"):
                part.leaf_indices(np.stack([X[0], bad]))
            with pytest.raises(ValueError, match=rf"^point {re.escape(str(bad.tolist()))} is "
                                                 "outside the root box$"):
                part.locate_leaf(bad)
            with pytest.raises(ValueError, match=r"^points outside the root box at indices \[0\]$"):
                update_tree(empty, bad, 1.0)


# -- a side with no float strictly inside cannot be split ----------------------------

THIN_SIDE = (1.0, math.nextafter(1.0, 2.0))


def test_sampling_a_side_with_no_interior_float_raises_instead_of_hanging():
    # a + (b - a) * u is a or b for every draw u, so the threshold redraw would never end
    with pytest.raises(ValueError, match=r"side \[1\.0, 1\.0000000000000002\] on axis 0"):
        sample_mondrian(BoxRegion([THIN_SIDE[0]], [THIN_SIDE[1]]), 1e18, RngStream(0))


def test_extending_into_a_side_with_no_interior_float_raises():
    part = sample_mondrian(BoxRegion([0.5, THIN_SIDE[0]], [0.5, THIN_SIDE[1]]), 0.0, RngStream(0))
    assert part.n_leaves == 1 and part.clock[0] < 1e18
    with pytest.raises(ValueError, match="no float lies strictly inside it"):
        extend(part, 1e18, RngStream(1))
