"""Axis-aligned boxes and Mondrian partitions.

A Mondrian partition of a box is a rooted binary tree of axis-aligned splits,
each born at a random time: a cell with linear dimension ``|C|`` (the sum of
its side lengths) waits an Exp(|C|) time, then splits along axis ``j`` with
probability proportional to its side length, at a threshold uniform on that
side.  The recursion stops at a lifetime ``lambda``; every leaf keeps the
candidate split time that exceeded the lifetime (its *pending clock*).

A :class:`MondrianPartition` stores its root box, lifetime, provenance and
four read-only node arrays in preorder (left subtree first): ``split_dim``
(-1 at a leaf), ``threshold``, ``clock`` (the split time of an internal node,
the pending clock of a leaf) and ``right`` (the right child's index; the left
child of node ``i`` is ``i + 1``).  Birth times (the parent's clock), cell
boxes and leaf ranks are derived when asked for; :class:`PartitionNode` is a
read-only view of one node.

Rows find their leaves by :meth:`MondrianPartition.leaf_indices`.  One point
takes the scalar walk from the root, a 1-d batch ``searchsorted`` on the
sorted thresholds, and a batch in 2 or more dimensions a level loop that moves
every row one node down per level, as many times as the tree is deep.  A batch
that a forest placed for all its trees (:class:`_PlacedRows`, each column
sorted when first read, and checked against a root box once per box) is read
from the tree's leaf table instead, when the table has no more cells than the
batch has values (so it is no larger than the batch in bytes) and the batch is
large enough to pay for the table's build (the level loop would take at least
``_TABLE_ROW_LEVELS`` row-levels per axis): the tree's thresholds, sorted per
axis, cut the root box into a grid whose every cell lies in one leaf, and a
row's cell on each axis is counted on the sorted column for all rows at once.
A tree's depth and grid are derived once, in one pass over all the trees that
lack them (:func:`_depths_and_cells`), and the placement builds the tables of
the trees that read one a group at a time, in one pass over the group's node
arrays laid end to end (:func:`_leaf_tables`); a group's tables hold at most
``_GROUP_CELLS_PER_VALUE`` cells per value of the batch.

Partition and model files hold the node arrays as columns of JSON values
(``split_dim``, ``threshold`` per split, ``clock``), which
:func:`_checked_partitions` reads and checks for all the trees of a file in
one numpy pass: right children from the running count of splits against
leaves, birth times from the parents' clocks, and each split's cell edges by
pointer jumping to the nearest ancestor that set them (:func:`_inherited`,
which also gives the trees their depths and the leaf tables their leaves'
boxes).

A node's clock never changes once drawn: :func:`prune` turns a node whose
split time is past the new lifetime into a leaf with that pending clock, and
:func:`extend` splits a leaf whose pending clock is within the new lifetime
at exactly that clock.  This makes lifetime extension exact: extending and
pruning back reproduces the original partition node for node.

Conventions, fixed so that sampling is bit-reproducible:

* draw order per cell is clock, then split axis, then threshold;
  the left subtree is always processed before the right one;
* a cell's side lengths are carried from its parent, which sets only the
  split axis's side, by the same ``upper - lower`` difference; its linear
  dimension is their sum in numpy's order (sequential below 8 axes, pairwise
  from 8 on), as ``(upper - lower).sum()`` does;
* a point equal to a threshold belongs to the left child (closed-left);
* thresholds are redrawn if they land exactly on a cell boundary;
* degenerate cells (``|C| == 0``) never split and carry an infinite
  pending clock.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, _natural

__all__ = [
    "SplitLimitError",
    "BoxRegion",
    "SplitRecord",
    "PartitionNode",
    "MondrianPartition",
    "sample_mondrian",
    "prune",
    "extend",
    "restrict",
    "locate_leaf",
    "leaf_cells",
    "leaf_count",
    "cell_l2_diameter",
    "partition_to_dict",
    "partition_from_dict",
    "partition_to_json",
    "partition_from_json",
    "validate_partition",
]

PARTITION_SCHEMA = "mondrian-partition/1"

DEFAULT_MAX_SPLITS = 1_000_000

# a placed batch reads a tree's leaf table only where the level loop would take at
# least this many row-levels (rows times the tree's depth) per axis, and where the
# table has no more cells than the batch has values: a table's build has a fixed cost,
# which a group of trees shares, and its read, per row and axis, costs about what the
# loop spends per row and level.  Timed on 310 shapes with a build per tree (70-100 us
# at d = 2-4; trees of 2-204 leaves, batches of 16-16384 rows; a 2-core Xeon, numpy
# 2.4), the rule took the slower path by more than 10 % once (1.28x), where a table
# read whenever it fits the batch ran up to 4.6x slower than the level loop.  On
# 4-tree forests (d = 2-4, lifetime t/d with t <= 48, 1024-24576 rows) with a tree
# between the cell bound of one cell per value and one of a cell per row, three sweeps
# with the group build found the value bound faster in 30-32 of 38, losing 0.5-2.7 ms
# in all (the worst, 1.16-1.64x, a different forest each time), where the row bound
# lost 15.6-22.3 ms
_TABLE_ROW_LEVELS = 6144

# a placed batch builds the leaf tables of its reading trees a group at a time, and a
# group's tables together hold at most this many cells per value of the batch: the
# placement's sorted columns and their ranks hold two, so no group outgrows them in bytes
_GROUP_CELLS_PER_VALUE = 2


class SplitLimitError(RuntimeError):
    """Raised when sampling would exceed the configured split budget."""


class BoxRegion:
    """Axis-aligned hyper-rectangle with per-axis lower-edge inclusion flags.

    Upper edges are always inclusive; ``left_closed[j]`` says whether the
    lower edge on axis ``j`` is inclusive.  Splitting at threshold ``s``
    produces a left child closed at ``s`` and a right child open at its new
    lower edge, so the two children partition the parent exactly.  A box is
    never empty: an open lower edge equal to its upper edge is refused.
    """

    __slots__ = ("lower", "upper", "left_closed", "_lowest")

    def __init__(self, lower, upper, left_closed=None):
        lower = np.asarray(lower, dtype=np.float64).copy()
        upper = np.asarray(upper, dtype=np.float64).copy()
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if lower.size == 0:
            raise ValueError("box must have at least one axis")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("lower must be <= upper on every axis")
        with np.errstate(over="ignore"):  # an infinite |C| draws clock 0 and never a threshold
            if not math.isfinite((upper - lower).sum()):
                raise ValueError("box side lengths must sum to a finite value")
        if left_closed is None:
            left_closed = np.ones(lower.shape, dtype=bool)
        else:
            left_closed = np.asarray(left_closed, dtype=bool).copy()
            if left_closed.shape != lower.shape:
                raise ValueError("left_closed must match the box dimension")
        self._adopt(lower, upper, left_closed)
        empty = np.flatnonzero(self._lowest > upper)
        if empty.size:
            axis = empty.item(0)
            raise ValueError(f"box is empty on axis {axis}: its lower edge {lower.item(axis)!r} "
                             "is open and equal to its upper edge")

    @classmethod
    def unit(cls, dim: int) -> "BoxRegion":
        """The unit cube [0, 1]^dim, closed on all edges."""
        dim = _natural(dim, "dim", 1)
        return cls(np.zeros(dim), np.ones(dim))

    @classmethod
    def _make(cls, lower, upper, left_closed) -> "BoxRegion":
        # trusted internal constructor: arrays are adopted (and may be
        # shared between boxes) rather than copied and validated
        box = object.__new__(cls)
        box._adopt(lower, upper, left_closed)
        return box

    def _adopt(self, lower, upper, left_closed) -> None:
        # each axis's least member, the one encoding of an open lower edge: x > lower
        # is x >= the next float up, so membership is lowest <= x <= upper
        lowest = np.where(left_closed, lower, np.nextafter(lower, np.inf))
        for array in (lower, upper, left_closed, lowest):
            array.setflags(write=False)
        self.lower, self.upper, self.left_closed, self._lowest = lower, upper, left_closed, lowest

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def side_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def linear_dimension(self) -> float:
        """Sum of the side lengths; the split intensity of the cell."""
        return float((self.upper - self.lower).sum())

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def l2_diameter(self) -> float:
        """Euclidean length of the main diagonal."""
        return float(np.sqrt(np.sum((self.upper - self.lower) ** 2)))

    def contains(self, x) -> bool:
        """Point membership under the edge-inclusion flags."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.lower.shape:
            if x.ndim == 1:
                raise ValueError(f"point has dimension {x.size}, box has {self.dim}")
            raise ValueError(f"point has shape {x.shape}, box has dimension {self.dim}")
        # least <= x <= upper on the point's Python floats: one point pays for no
        # numpy reduction, and nan fails both comparisons
        point = x.tolist()
        return (all(map(operator.le, self._lowest.tolist(), point))
                and all(map(operator.le, point, self.upper.tolist())))

    def contains_box(self, other: "BoxRegion") -> bool:
        """Whether ``other`` is contained in this box as a point set."""
        return other.dim == self.dim and bool(np.all(other._lowest >= self._lowest)
                                              and np.all(other.upper <= self.upper))

    def split(self, dim: int, threshold: float) -> tuple["BoxRegion", "BoxRegion"]:
        """Left/right children for a split strictly inside axis ``dim``."""
        a, b = self.lower[dim], self.upper[dim]
        if not (a < threshold < b):
            raise ValueError(f"threshold {threshold} not interior to [{a}, {b}] on axis {dim}")
        left_upper = self.upper.copy()
        left_upper[dim] = threshold
        right_lower = self.lower.copy()
        right_lower[dim] = threshold
        right_flags = self.left_closed.copy()
        right_flags[dim] = False
        left = BoxRegion._make(self.lower, left_upper, self.left_closed)
        right = BoxRegion._make(right_lower, self.upper, right_flags)
        return left, right

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxRegion):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.left_closed, other.left_closed)
        )

    def __repr__(self) -> str:  # pragma: no cover
        sides = ", ".join(
            f"{'[' if c else '('}{lo:g}, {up:g}]"
            for lo, up, c in zip(self.lower, self.upper, self.left_closed)
        )
        return f"BoxRegion({sides})"


def cell_l2_diameter(box: BoxRegion) -> float:
    """Euclidean diagonal length of a cell; 0 for degenerate cells."""
    return box.l2_diameter


@dataclass(frozen=True)
class SplitRecord:
    """One split: axis, threshold strictly inside the cell, and birth time."""

    dim: int
    threshold: float
    time: float


@dataclass(frozen=True, eq=False)
class PartitionNode:
    """Read-only view of node ``index`` of a :class:`MondrianPartition`.

    Internal nodes carry a :class:`SplitRecord` and two children; leaves
    carry a pending clock, the already-drawn candidate split time that
    exceeded the partition lifetime (``inf`` for degenerate cells).  Reaching
    a node twice gives the same view while either reference is alive.
    """

    partition: "MondrianPartition"
    index: int
    box: BoxRegion
    birth_time: float  # the parent's split time, 0 at the root

    @property
    def is_leaf(self) -> bool:
        return bool(self.partition.split_dim[self.index] < 0)

    @property
    def split(self):
        """The node's :class:`SplitRecord`, None at a leaf."""
        p, i = self.partition, self.index
        if self.is_leaf:
            return None
        return SplitRecord(int(p.split_dim[i]), float(p.threshold[i]), float(p.clock[i]))

    @property
    def pending_clock(self):
        """The leaf's pending clock, None at an internal node."""
        return float(self.partition.clock[self.index]) if self.is_leaf else None

    @property
    def children(self):
        """(left, right) for internal nodes, None for leaves."""
        if self.is_leaf:
            return None
        p, i = self.partition, self.index
        return p._node(i + 1), p._node(p.right.item(i))

    @property
    def left(self):
        return None if self.is_leaf else self.children[0]

    @property
    def right(self):
        return None if self.is_leaf else self.children[1]


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _check_in_root_box(box: BoxRegion, X: np.ndarray) -> None:
    """ValueError naming the rows of ``X`` (shape (n, dim)) that lie outside ``box``.

    One point, ``X`` of shape (dim,), is row 0 and is checked by ``box.contains``.
    """
    if X.ndim == 1:
        if not box.contains(X):
            raise ValueError("points outside the root box at indices [0]")
        return
    lowest, upper = box._lowest, box.upper
    # the whole-array min and max clear a batch inside the bounds of every axis (nan
    # fails them), and only a batch they cannot clear pays for the per-row mask
    if X.size and not (X.min() >= lowest.max() and X.max() <= upper.min()):
        bad = np.flatnonzero(~((X >= lowest) & (X <= upper)).all(axis=1))
        if bad.size:
            raise ValueError(f"points outside the root box at indices {bad.tolist()}")


class _PlacedRows:
    """A batch ``rows`` (shape (n, dim)) placed once for the partitions ``trees`` of a forest.

    ``columns()`` is ``(sorted, rank)``, each of shape (dim, n): every column in
    ascending order, and each row's place in it, sorted when a tree first reads
    them, so a batch that no tree reads from its table is never sorted.  A
    forest places its batch once, and :meth:`MondrianPartition.leaf_indices`
    reads each tree's leaves from the placement; ``shape`` is the batch's.
    ``check_in(box)`` checks the rows against a tree's root box once per box:
    the trees of a grown or loaded forest share one box object, and a forest
    built by hand from trees on other boxes checks each of them.
    ``route(tree)`` gives a tree its depth and, where it reads one, its leaf
    table.  The first call takes every tree's depth and grid, derived once
    per partition (:func:`_depths_and_cells`); the trees that read a table
    fill groups in the forest's order, each group's tables holding at most
    ``_GROUP_CELLS_PER_VALUE`` cells per value of the batch, and a group's
    tables are built together (:func:`_leaf_tables`) when its first tree asks.
    Only the last group built is kept.
    """

    __slots__ = ("rows", "_trees", "_columns", "_box", "_plan", "_tables")

    def __init__(self, rows: np.ndarray, trees: list):
        self.rows = rows
        self._trees = trees
        self._columns = self._box = self._plan = None
        self._tables = {}

    def check_in(self, box: BoxRegion) -> None:
        if box is not self._box:
            _check_in_root_box(box, self.rows)
            self._box = box

    def columns(self) -> tuple:
        if self._columns is None:
            order = np.argsort(self.rows.T, axis=1)
            rank = np.empty_like(order)
            np.put_along_axis(rank, order, np.arange(self.rows.shape[0]), axis=1)
            self._columns = np.take_along_axis(self.rows.T, order, axis=1), rank
        return self._columns

    def route(self, tree: "MondrianPartition") -> tuple:
        """``(levels, table)``: the tree's depth, and its ``(steps, counts, table)`` (see
        :func:`_leaf_tables`) where it reads its leaf table, else None."""
        if self._plan is None:
            self._plan = self._planned()
        levels, group = self._plan[tree]
        if group is None:
            return levels, None
        if tree not in self._tables:
            deepest = max(self._plan[part][0] for part in group)
            self._tables = dict(zip(group, _leaf_tables(group, self.columns()[0], deepest)))
        return levels, self._tables[tree]

    def _planned(self) -> dict:
        """Each tree's ``(levels, group)``: its depth, and the trees whose tables are built
        with its own, or None where it takes the level loop."""
        (n, d), values = self.rows.shape, self.rows.size
        # a tree of another dimension is refused by its own shape check and has no plan
        trees = [part for part in self._trees if part.dim == d]
        plan, group, filled = {}, None, math.inf
        for part, (depth, cells) in zip(trees, _depths_and_cells(trees)):
            # a tree reads its leaf table where the table has no more cells than the batch
            # has values and the level loop would take at least _TABLE_ROW_LEVELS row-levels
            # per axis
            read = n * depth >= _TABLE_ROW_LEVELS * d and cells <= values
            if read and part not in plan:
                if filled + cells > _GROUP_CELLS_PER_VALUE * values:
                    group, filled = [], 0
                group.append(part)
                filled += cells
            plan.setdefault(part, (depth, group if read else None))
        return plan

    @property
    def shape(self) -> tuple:
        return self.rows.shape


def _end_to_end(parts: list) -> tuple:
    """``(dim, splits, right, parent, starts, lengths)``: the node arrays of the partitions
    ``parts`` laid end to end, the split nodes, ``right`` and ``parent`` counted from the
    first root (a root is its own parent), and each tree's first node and node count."""
    lengths = np.array([part.split_dim.size for part in parts])
    starts = np.cumsum(lengths) - lengths
    dim = np.concatenate([part.split_dim for part in parts])
    right = np.concatenate([part.right for part in parts]) + np.repeat(starts, lengths)
    splits = np.flatnonzero(dim >= 0)
    parent = np.arange(dim.size)
    parent[splits + 1] = parent[right[splits]] = splits
    return dim, splits, right, parent, starts, lengths


def _depths_and_cells(parts: list) -> list:
    """Each tree's ``(levels, cells)``: its depth, and the cells of the grid its sorted
    thresholds cut its root box into (the product of ``count + 1`` over the axes, as a float,
    exact up to 2^53 and only compared).  They are derived once per partition, in one pass
    over all the trees of ``parts`` that lack them."""
    new = [part for part in dict.fromkeys(parts) if part._shape is None]
    if new:
        dim, splits, right, parent, starts, lengths = _end_to_end(new)
        n, d = dim.size, new[0].dim
        # a subtree ends where the left subtree of its nearest ancestor that it lies left
        # of ends (at that ancestor's right child), or with its tree; a node's depth counts
        # the splits whose subtree holds it below the split: +1 after each, -1 at its end
        end = _inherited(parent, np.concatenate((splits + 1, starts)),
                         np.concatenate((right[splits], starts + lengths)),
                         np.zeros(1, dtype=np.intp), int(lengths.max() // 2).bit_length())[0]
        depth = np.cumsum(np.bincount(splits + 1, minlength=n + 1)
                          - np.bincount(end[splits], minlength=n + 1))
        tree = np.repeat(np.arange(len(new)), lengths)[splits]
        counts = np.bincount(tree * d + dim[splits], minlength=len(new) * d).reshape(-1, d)
        for part, shape in zip(new, zip(np.maximum.reduceat(depth[:n], starts).tolist(),
                                        np.prod(counts + 1.0, axis=1).tolist())):
            part._shape = shape
    return [part._shape for part in parts]


def _leaf_tables(parts: list, columns: np.ndarray, depth: int) -> list:
    """The leaf tables of the partitions ``parts``, none deeper than ``depth``, over a batch's
    sorted ``columns`` (shape (dim, n)), built in one pass: per tree ``(steps, counts, table)``.

    Axis ``a``'s ``K_a`` thresholds of a tree, sorted, cut its root box into
    ``K_a + 1`` slabs; slab ``c`` holds the points with ``c`` of them strictly
    below, which is the closed-left rule, and each cell of the grid lies in one
    leaf.  ``table`` holds the tree's leaf ranks over its grid in C order,
    ``steps[a]`` each slab's offset into it, and ``counts[a]`` the number of
    the batch's values in each slab, so that ``np.repeat(steps[a], counts[a])``
    is the offset of each value of the sorted column.  A split at sorted place
    ``k`` leaves slabs ``[lo, k]`` to its left child and ``[k + 1, hi]`` to its
    right, so equal thresholds in two subtrees stay exact: the slab between
    them holds no point.
    """
    dim, splits, right, parent, starts, lengths = _end_to_end(parts)
    (d, n), t, size, k = columns.shape, len(parts), dim.size, splits.size
    # each slab's top: the thresholds, and per tree and axis an infinite top for its last
    # slab, in one stable sort keyed by (axis, tree), so block a * t + tree holds the tree's
    # slabs on axis a in order, and a top's place in its block is its slab
    last_tree, last_axis = np.divmod(np.arange(t * d), d)
    axis = np.concatenate((dim[splits], last_axis))
    block = axis * t + np.concatenate((np.repeat(np.arange(t), lengths)[splits], last_tree))
    tops = np.concatenate((np.concatenate([part.threshold for part in parts])[splits],
                           np.full(t * d, math.inf)))
    order = np.lexsort((tops, block))
    slabs = np.bincount(block, minlength=d * t)
    firsts = np.cumsum(slabs) - slabs
    slab = np.arange(block.size) - np.repeat(firsts, slabs)
    place = np.empty_like(slab)
    place[order] = slab
    sizes = np.cumprod(slabs.reshape(d, t)[::-1], axis=0)[::-1]
    strides = np.concatenate((sizes[1:], np.ones((1, t), dtype=sizes.dtype)))
    cells = sizes[0]
    offsets = np.cumsum(cells) - cells
    # each leaf's box in slabs, lo_a on row a and hi_a on row d + a: a split sets lo at its
    # right child and hi at its left one, and a last slab sets hi at its tree's root
    box = _inherited(parent, np.concatenate((axis[:k] * size + right[splits],
                                             (axis + d) * size + np.concatenate(
                                                 (splits + 1, starts[last_tree])))),
                     np.concatenate((place[:k] + 1, place)), np.zeros(2 * d, dtype=np.intp),
                     depth.bit_length())[:, dim < 0]
    leaves = (lengths + 1) // 2
    owner = np.repeat(np.arange(t), leaves)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(leaves) - leaves, leaves)
    # a leaf's cells are runs along the last axis, one per cell of its box on the others:
    # each run's start is marked with its own place, one forward fill by maximum gives
    # every cell its run's start, and the start gives the leaf
    stride = strides[:, owner]
    start = offsets[owner] + (box[:d] * stride).sum(axis=0)
    span, run = box[d:] - box[:d] + 1, np.arange(owner.size)
    for a in range(d - 1):
        width = span[a, run]
        pick = np.repeat(np.arange(run.size), width)
        run = run[pick]
        start = start[pick] + (np.arange(pick.size) - np.repeat(np.cumsum(width) - width, width)
                               ) * stride[a, run]
    marks = np.zeros(offsets[-1] + cells[-1], dtype=np.intp)
    marks[start] = start
    np.maximum.accumulate(marks, out=marks)
    table = np.empty_like(marks)
    table[start] = rank[run]
    table = table[marks]
    # a slab's count is the sorted column's values up to its top less those up to the top
    # before it, which closes the block before (all n values) at a block's first slab
    tops = tops[order]
    below = np.empty_like(slab)
    edges = [*firsts[::t].tolist(), slab.size]
    for a in range(d):
        below[edges[a]:edges[a + 1]] = np.searchsorted(columns[a], tops[edges[a]:edges[a + 1]],
                                                       side="right")
    counts = below.copy()
    counts[1:] -= below[:-1]
    counts[firsts[1:]] += n
    steps = slab * np.repeat(strides.ravel(), slabs)
    ends = (firsts + slabs).tolist()
    firsts = firsts.tolist()
    return [([steps[firsts[b]:ends[b]] for b in range(i, d * t, t)],
             [counts[firsts[b]:ends[b]] for b in range(i, d * t, t)], table[offset:offset + cell])
            for i, (offset, cell) in enumerate(zip(offsets.tolist(), cells.tolist()))]


class MondrianPartition:
    """A sampled Mondrian partition: root box, lifetime, node arrays, provenance.

    ``split_dim``, ``threshold``, ``clock`` and ``right`` are the preorder
    node arrays described in the module docstring.  Immutable after
    construction; :func:`prune`, :func:`extend` and :func:`restrict` return
    new partitions.  Concurrent reads are safe.
    """

    __slots__ = ("box", "lifetime", "seed_provenance", "split_dim", "threshold", "clock",
                 "right", "_views", "_shape")

    def __init__(self, box: BoxRegion, lifetime: float, split_dim, threshold, clock, right,
                 seed_provenance=None):
        self.box = box
        self.lifetime = float(lifetime)
        self.seed_provenance = seed_provenance
        self.split_dim = _frozen(split_dim, np.int64)
        self.threshold = _frozen(threshold, np.float64)
        self.clock = _frozen(clock, np.float64)
        self.right = _frozen(right, np.int64)
        # views are interned weakly: the same node gives the same object while
        # anyone holds it, and the partition keeps none alive
        self._views = weakref.WeakValueDictionary()
        # (depth, grid cells), derived by _depths_and_cells when a batch first needs them
        self._shape = None

    def _arrays(self):
        return (self.split_dim, self.threshold, self.clock, self.right)

    def __reduce__(self):
        return (MondrianPartition, (self.box, self.lifetime, *self._arrays(), self.seed_provenance))

    @property
    def dim(self) -> int:
        return self.box.dim

    # -- traversal ---------------------------------------------------------

    def _node(self, index: int) -> PartitionNode:
        # the one derivation of a cell: descend from the root, narrowing the box and taking
        # the clock of each split passed; thresholds are interior, so a split opens the
        # lower edge it moves and no other lower edge leaves the root's value
        node = self._views.get(index)
        if node is None:
            box, at, birth = self.box, 0, 0.0
            lower, upper = box.lower.tolist(), box.upper.tolist()
            dims, thrs, clocks, rights = self._arrays()
            while at != index:
                axis, threshold, birth = dims.item(at), thrs.item(at), clocks.item(at)
                if index < rights.item(at):
                    upper[axis], at = threshold, at + 1
                else:
                    lower[axis], at = threshold, rights.item(at)
            lower = np.array(lower)
            cell = BoxRegion._make(lower, np.array(upper), box.left_closed & (lower == box.lower))
            node = self._views[index] = PartitionNode(self, index, cell, birth)
        return node

    @property
    def root(self) -> PartitionNode:
        return self._node(0)

    def iter_nodes(self):
        """Depth-first, left-before-right node iterator (the array order)."""
        return map(self._node, range(self.split_dim.size))

    def leaves(self):
        """Leaves in depth-first, left-first order."""
        return [self._node(i) for i in np.flatnonzero(self.split_dim < 0).tolist()]

    @property
    def n_leaves(self) -> int:
        return (self.split_dim.size + 1) // 2

    @property
    def n_splits(self) -> int:
        return self.split_dim.size // 2

    # -- point location ----------------------------------------------------

    def locate_leaf(self, x) -> PartitionNode:
        """Unique leaf containing ``x``; ties on a threshold go left."""
        x = np.asarray(x, dtype=np.float64)
        if not self.box.contains(x):
            raise ValueError(f"point {x.tolist()} is outside the root box")
        return self._node(self._descend(x.tolist())[0])

    def _descend(self, point: list) -> tuple[int, int]:
        # the scalar walk from the root to the leaf holding ``point``, ties going left; it
        # returns the leaf's node index and its rank: a right turn at node i passes the
        # (right[i] - i) // 2 leaves of its left subtree, nodes i + 1 to right[i] - 1
        dims, thrs, rights = self.split_dim, self.threshold, self.right
        node = rank = 0
        while (axis := dims.item(node)) >= 0:
            if point[axis] <= thrs.item(node):
                node += 1
            else:
                right = rights.item(node)
                rank += (right - node) // 2
                node = right
        return node, rank

    def leaf_indices(self, X) -> np.ndarray:
        """DFS-left-first leaf index for each row of ``X`` (shape (n, dim)).

        ``X`` may also be a batch placed for many trees (:class:`_PlacedRows`).
        """
        placed = X if isinstance(X, _PlacedRows) else None
        X = np.asarray(X if placed is None else X.rows, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"X must have shape (n, {self.dim})")
        if X.shape[0] == 1:
            # one row (as in predicting at a point): the scalar walk, which counts the
            # leaf's rank as it goes, costs less than the batch checks and loops
            _check_in_root_box(self.box, X[0])
            return np.array([self._descend(X[0].tolist())[1]])
        if placed is None:
            _check_in_root_box(self.box, X)
        else:
            placed.check_in(self.box)
        dim, thr, right = self.split_dim, self.threshold, self.right
        if self.dim == 1:
            # 1-d leaves are intervals in preorder, split at the sorted thresholds; a
            # point on a threshold goes left (closed-left), as side="left" places it
            return np.searchsorted(np.sort(thr[dim >= 0]), X[:, 0], side="left")
        if placed is None:
            levels, table = _depths_and_cells([self])[0][0], None
        else:
            levels, table = placed.route(self)
        if table is not None:
            # a placed batch reads each row's leaf from the tree's leaf table: a row's slab
            # on axis a is its place among the slab counts on the sorted column
            steps, counts, table = table
            flat = 0
            for rank, step, count in zip(placed.columns()[1], steps, counts):
                flat = flat + np.repeat(step, count)[rank]
            return table[flat]
        # every row moves one node down per level: child[2 * i + 1] is node i's right
        # child, child[2 * i] its left; a leaf is both of its own children, so a row that
        # reaches it stays whatever it compares, and a point on a threshold goes left
        leaf = dim < 0
        node = np.arange(dim.size)
        child = np.stack((np.where(leaf, node, node + 1), np.where(leaf, node, right)),
                         axis=1).ravel()
        axis = np.where(leaf, 0, dim)
        x, row = X.ravel(), np.arange(0, X.size, self.dim)
        cur = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(levels):
            cur = child[2 * cur + (x[row + axis[cur]] > thr[cur])]
        return (np.cumsum(leaf) - 1)[cur]

    def structurally_equal(self, other: "MondrianPartition") -> bool:
        """Node-for-node equality of boxes, splits, times, and pending clocks.

        Seed provenance is not compared.
        """
        return (self.lifetime == other.lifetime and self.box == other.box
                and all(map(np.array_equal, self._arrays(), other._arrays())))


def _check_lifetime(lifetime: float, name: str) -> None:
    # an infinite or nan lifetime never stops a cell, so growth would not end
    if not 0.0 <= lifetime < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {lifetime}")


def _linear_dimension(sides: list) -> float:
    # numpy's pairwise sum, the bits of (upper - lower).sum() from 8 axes on
    return float(np.sum(sides))


def _grow(box: BoxRegion, lifetime: float, rng, max_splits: int, source=None):
    """Preorder node lists of a partition of ``box`` grown to ``lifetime``.

    The one growth loop behind :func:`sample_mondrian` (no ``source``), and
    :func:`extend`, :func:`prune` and :func:`restrict` (the partition itself
    as ``source``).  A cell copied from a source node takes that node's
    clock; any other cell draws an Exp(|C|) clock from its birth time.  A
    cell whose clock is past ``lifetime`` becomes a leaf that keeps it.
    Otherwise the cell copies the source split, or draws an axis and a
    threshold when its source node is a leaf or it has none; only drawn
    splits count against ``max_splits``.  A source split that misses the
    interior of the cell, which happens only under :func:`restrict`, is
    dropped for the child that covers the cell.
    """
    _natural(max_splits, "max_splits")
    if source is not None:
        src_dim, src_thr, src_clock, src_right = (a.tolist() for a in source._arrays())
    if rng is not None:
        exponential, categorical, uniform = rng.exponential, rng.categorical, rng.uniform
    # the same bits as numpy's (upper - lower).sum(): in order below 8 axes, by a
    # C-level reduce that runs no Python frame per cell, pairwise from 8 on (Python's
    # own sum may compensate, so it is not used)
    linear_dimension = (_linear_dimension if box.dim >= 8
                        else functools.partial(functools.reduce, operator.add))
    if box.dim == 1:
        # a one-axis cell's linear dimension is its side, and its axis is forced: the
        # draw spends the one uniform of a categorical draw (a cell that splits has a
        # finite clock, so a side > 0, and the categorical checks cannot fire)
        linear_dimension = operator.itemgetter(0)

        def categorical(sides):
            uniform()
            return 0
    dims, thrs, clocks, rights = [], [], [], []
    drawn = 0
    # (source node or -1, birth time, lower, upper, side lengths, node whose right
    # child this cell is or -1); a split changes one side, so each child copies its
    # parent's sides and sets the split axis's by the subtraction upper - lower would do
    lower, upper = box.lower.tolist(), box.upper.tolist()
    sides = [u - l for l, u in zip(lower, upper)]
    stack = [(0 if source is not None else -1, 0.0, lower, upper, sides, -1)]
    while stack:
        src, birth, lower, upper, sides, parent = stack.pop()
        node = len(dims)
        if parent >= 0:
            rights[parent] = node
        if src >= 0:
            while src_dim[src] >= 0:
                axis, threshold = src_dim[src], src_thr[src]
                if lower[axis] < threshold < upper[axis]:
                    break
                src = src + 1 if threshold >= upper[axis] else src_right[src]
            clock = src_clock[src]
        else:
            clock = birth + exponential(linear_dimension(sides))
        rights.append(-1)
        clocks.append(clock)
        if clock > lifetime:
            dims.append(-1)
            thrs.append(0.0)
            continue
        if src >= 0 and src_dim[src] >= 0:
            axis, threshold = src_dim[src], src_thr[src]
            left_src, right_src = src + 1, src_right[src]
        else:
            if drawn >= max_splits:
                raise SplitLimitError(f"partition exceeded the split budget of {max_splits}; "
                                      "raise max_splits or lower the lifetime")
            drawn += 1
            axis = categorical(sides)
            a, b = lower[axis], upper[axis]
            threshold = a + (b - a) * uniform()
            while not (a < threshold < b):
                # checked only on a redraw, which is rare, so sampling pays nothing for it
                if math.nextafter(a, b) == b:
                    raise ValueError(f"cannot split the cell side [{a!r}, {b!r}] on axis "
                                     f"{axis}: no float lies strictly inside it; lower the "
                                     "lifetime")
                threshold = a + (b - a) * uniform()
            left_src = right_src = -1
        dims.append(axis)
        thrs.append(threshold)
        left_upper, right_lower, left_sides = upper.copy(), lower.copy(), sides.copy()
        left_upper[axis] = right_lower[axis] = threshold
        left_sides[axis] = threshold - lower[axis]
        sides[axis] = upper[axis] - threshold
        stack.append((right_src, clock, right_lower, upper, sides, node))
        stack.append((left_src, clock, lower, left_upper, left_sides, -1))
    return dims, thrs, clocks, rights


def sample_mondrian(box: BoxRegion, lifetime: float, rng: RngStream,
                    max_splits: int = DEFAULT_MAX_SPLITS) -> MondrianPartition:
    """Sample a Mondrian partition of ``box`` with the given lifetime.

    Each cell draws an Exp(|C|) clock; if the accumulated time stays within
    the lifetime the cell splits (axis with probability proportional to side
    length, threshold uniform on the side) and both children recurse,
    otherwise the cell becomes a leaf and keeps the clock as its pending
    clock.  Degenerate cells (|C| = 0) never split.

    Raises
    ------
    ValueError
        If ``lifetime`` is negative or not finite, ``max_splits`` is negative,
        or a split is drawn on a cell side with no float strictly inside it.
    SplitLimitError
        If the construction would exceed ``max_splits`` splits.
    """
    _check_lifetime(lifetime, "lifetime")
    counter_before = rng.counter
    nodes = _grow(box, lifetime, rng, max_splits)
    provenance = {"op": "sample", "algorithm": "philox4x64", "seed": rng.seed,
                  "stream_path": list(rng.path), "draws": rng.counter - counter_before}
    return MondrianPartition(box, lifetime, *nodes, provenance)


def prune(partition: MondrianPartition, new_lifetime: float) -> MondrianPartition:
    """Remove every split born after ``new_lifetime``.

    A removed subtree collapses to a leaf whose pending clock is the earliest
    removed split time (its own split time, since times increase downward).
    """
    _check_lifetime(new_lifetime, "new_lifetime")
    if new_lifetime > partition.lifetime:
        raise ValueError(
            f"new_lifetime {new_lifetime} exceeds lifetime {partition.lifetime}; use extend"
        )
    # every source leaf's clock is past the old lifetime, hence past the new
    # one, so the loop only copies and cuts (as for restrict): it never draws
    nodes = _grow(partition.box, new_lifetime, None, 0, partition)
    provenance = {"op": "prune", "base": partition.seed_provenance}
    return MondrianPartition(partition.box, new_lifetime, *nodes, provenance)


def extend(partition: MondrianPartition, new_lifetime: float, rng: RngStream,
           max_splits: int = DEFAULT_MAX_SPLITS) -> MondrianPartition:
    """Continue the construction to a larger lifetime.

    Existing structure is untouched.  A leaf whose pending clock falls within
    the new lifetime splits exactly at that clock (axis and threshold drawn
    fresh) and the recursion resumes below it; other leaves persist with
    their clocks.  Because the retained clock has the memoryless conditional
    law, the output is marginally a Mondrian partition at the new lifetime,
    and pruning back at the old lifetime restores the input exactly.
    ``max_splits`` bounds the number of new splits and must be >= 0.
    """
    _check_lifetime(new_lifetime, "new_lifetime")
    if new_lifetime < partition.lifetime:
        raise ValueError(
            f"new_lifetime {new_lifetime} is below lifetime {partition.lifetime}; use prune"
        )
    counter_before = rng.counter
    nodes = _grow(partition.box, new_lifetime, rng, max_splits, partition)
    provenance = {"op": "extend", "base": partition.seed_provenance, "algorithm": "philox4x64",
                  "seed": rng.seed, "stream_path": list(rng.path),
                  "draws": rng.counter - counter_before}
    return MondrianPartition(partition.box, new_lifetime, *nodes, provenance)


def restrict(partition: MondrianPartition, sub: BoxRegion) -> MondrianPartition:
    """Partition of ``sub`` induced by an existing partition.

    Splits whose threshold lies strictly inside ``sub`` on their axis are
    kept with their birth times and their cells clipped to ``sub``; splits
    that miss the interior of ``sub`` are dropped and the walk descends into
    the child that covers ``sub``.  Node birth times become the maximum over
    retained ancestors' split times.  Leaves inherit the pending clock of the
    original leaf they were clipped from.
    """
    if sub.dim != partition.dim:
        raise ValueError("sub-box dimension mismatch")
    if not partition.box.contains_box(sub):
        raise ValueError("sub-box is not contained in the root box")
    nodes = _grow(sub, partition.lifetime, None, 0, partition)
    provenance = {"op": "restrict", "base": partition.seed_provenance}
    return MondrianPartition(sub, partition.lifetime, *nodes, provenance)


def locate_leaf(partition: MondrianPartition, x) -> PartitionNode:
    """Leaf of ``partition`` whose cell contains ``x``."""
    return partition.locate_leaf(x)


def leaf_cells(partition: MondrianPartition) -> list[BoxRegion]:
    """Leaf boxes in depth-first, left-first order."""
    return [leaf.box for leaf in partition.leaves()]


def leaf_count(partition: MondrianPartition) -> int:
    """Number of leaves; always one more than the number of splits."""
    return partition.n_leaves


# -- validation and serialization --------------------------------------------


# the node columns of a file, in the order they are read: split_dim per node, threshold
# per split node, clock per node (null for an infinite clock)
_NODE_COLUMNS = ("split_dim", "threshold", "clock")


def _inherited(parent: np.ndarray, at: np.ndarray, value: np.ndarray, base: np.ndarray,
               rounds: int) -> np.ndarray:
    """Each node's value in each row, shape ``(rows, n)``, from its nearest ancestor that sets it.

    ``parent`` holds each node's parent, and a root itself.  ``at`` holds the
    flat places ``row * n + node`` where a node sets a row, to ``value``, and
    counts as its own nearest ancestor there; a root that sets no value in a
    row holds ``base[row]``.  Every node points at its parent, or at itself
    where it sets the row, and pointer jumping halves each path per round, so
    ``rounds`` with ``2^rounds`` above every node's depth resolve them all.
    """
    n = parent.size
    pointer = (parent + n * np.arange(base.size)[:, None]).ravel()
    pointer[at] = at
    values = np.repeat(base, n)
    values[at] = value
    for _ in range(rounds):
        pointer = pointer[pointer]
    return values[pointer].reshape(base.size, n)


def _checked_partitions(box: BoxRegion, lifetime: float, blocks: list):
    """The one reader of node columns: the partitions of ``blocks``, checked in one pass.

    ``blocks`` are the trees of one file on one root box and lifetime: dicts
    holding the columns :data:`_NODE_COLUMNS`, lists of JSON values as
    :func:`_node_columns` writes them, and an optional ``seed_provenance``.  A
    partition file is a file of one tree.  The checks are
    :func:`validate_partition`'s, and numpy runs the per-node ones on the
    columns of all the trees at once (:func:`_checked_nodes`).  The partitions
    are yielded in file order up to the first tree that fails, where that
    tree's ValueError (or the KeyError or TypeError of a missing or ill-typed
    column) is raised, so a caller that checks each yielded tree's leaf
    statistics before it takes the next reports errors in file order.  Within
    a tree the checks run in this order: the columns' keys and the lifetime,
    their types, their lengths, then the first failing node in preorder with
    the first of its checks that fails (a record past the tree's end, the
    axis, a leaf's pending clock or a split's time, the threshold), and last a
    node list that ends before its tree does.
    """
    columns, error = [], None
    for block in blocks:
        try:
            dims, thrs, clocks = (block[key] for key in _NODE_COLUMNS)
            provenance = block.get("seed_provenance")
            _check_lifetime(lifetime, "lifetime")
            _typed(dims, {int}, "split_dim")
            _typed(thrs, _NUMBER, "threshold")
            _typed(clocks, _NUMBER | {type(None)}, "clock")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            error = exc
            break
        columns.append((dims, thrs, clocks, provenance))
    dims = list(itertools.chain.from_iterable(c[0] for c in columns))
    try:
        dim = np.array(dims, dtype=np.int64)
    except OverflowError:  # an axis past int64 is outside [0, d) all the same
        dim = np.array([min(max(axis, -2), box.dim) for axis in dims], dtype=np.int64)
    splits_before = np.concatenate(([0], np.cumsum(dim >= 0)))
    thrs, clocks, at = [], [], 0
    for t, (dims_t, thrs_t, clocks_t, _) in enumerate(columns):
        try:
            if (len(thrs_t) != splits_before[at + len(dims_t)] - splits_before[at]
                    or len(clocks_t) != len(dims_t)):
                raise ValueError("threshold needs one value per split node and clock one per node")
            # numpy refuses an int past the float range as float() does; null reads as nan
            arrays = np.array(thrs_t, dtype=np.float64), np.array(clocks_t, dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            error = exc
            del columns[t:]
            break
        thrs.append(arrays[0])
        clocks.append(arrays[1])
        at += len(dims_t)
    if columns:
        checked = _checked_nodes(box, lifetime, dim[:at], np.concatenate(thrs),
                                 np.concatenate(clocks), [c[:3] for c in columns])
        for (_, _, _, provenance), nodes in zip(columns, checked):
            yield MondrianPartition(box, lifetime, *nodes, provenance)
    if error is not None:
        raise error


def _checked_nodes(box: BoxRegion, lifetime: float, dim, thresholds, clock, columns):
    """Each tree's node arrays ``(split_dim, threshold, clock, right)``, checked, in order.

    ``dim``, ``thresholds`` (split nodes only) and ``clock`` (null as nan) are
    the trees' typed columns end to end, and ``columns`` each tree's own
    lists, which the messages quote.  It raises at the first tree that fails,
    once the trees before it have been taken.
    """
    d, n = box.dim, dim.size
    lengths = np.array([len(c[0]) for c in columns], dtype=np.intp)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    node = np.arange(n)
    split = dim >= 0
    at_split = np.flatnonzero(split)
    thr = np.zeros(n)
    thr[at_split] = thresholds
    for i in np.flatnonzero(np.isnan(clock)).tolist():
        t = np.searchsorted(stops, i, side="right")
        if columns[t][2][i - starts[t]] is None:
            clock[i] = math.inf
    # preorder counts +1 per split and -1 per leaf, and a tree ends at its first running
    # count of -1: the nodes after it are extra, and a tree with no such count is cut short
    step = np.where(split, 1, -1)
    count = np.cumsum(step)
    count -= np.repeat(np.concatenate(([0], count))[starts], lengths)
    ends = np.flatnonzero(count == -1)
    end = np.append(ends, n)[np.searchsorted(ends, starts)]
    extra = node > np.repeat(end, lengths)
    # a split's right child is the next node whose count before it equals the split's, as
    # no node between them has it: the split's successor in one stable sort of those
    # counts, keyed apart per tree (keys of 16 bits or less sort by radix)
    key = count - step + np.repeat(2 * starts + lengths, lengths)
    order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")
    same = key[order[1:]] == key[order[:-1]]
    right = np.full(n, -1)
    right[order[:-1][same]] = order[1:][same]
    right[~split] = -1
    parent = node.copy()
    lefts = at_split[at_split + 1 < np.repeat(stops, lengths)[at_split]]
    parent[lefts + 1] = lefts
    rights = at_split[right[at_split] >= 0]
    parent[right[rights]] = rights
    birth = np.where(parent == node, 0.0, clock[parent])
    in_range = (dim >= -1) & (dim < d)
    bad = (extra | ~in_range | ((dim == -1) & ~(clock > lifetime))
           | (split & ~((birth < clock) & (clock <= lifetime))))
    # a split on axis a is the upper edge on a (row d + a) of the cells in its left subtree
    # and the lower edge (row a) of those in its right one; only splits are checked against
    # their cells, and only splits have children, so the edges are passed over the splits
    up = parent[at_split]
    sets = np.flatnonzero((up != at_split) & in_range[up])
    row = dim[up[sets]] + np.where(right[up[sets]] == at_split[sets], 0, d)
    cell = _inherited(np.searchsorted(at_split, up), row * at_split.size + sets, thr[up[sets]],
                      np.concatenate((box.lower, box.upper)), int(lengths.max()).bit_length())
    axis = np.where(in_range[at_split], dim[at_split], 0)
    k = np.arange(at_split.size)
    bad[at_split] |= ~((cell[axis, k] < thr[at_split]) & (thr[at_split] < cell[axis + d, k]))
    failing = np.flatnonzero(bad)
    first = np.append(failing, n)[np.searchsorted(failing, starts)]
    right[at_split] -= np.repeat(starts, lengths)[at_split]
    for t, (dims_t, _, _) in enumerate(columns):
        start, stop, at = starts[t], stops[t], first[t]
        if at < stop:
            i, axis = at - start, dims_t[at - start]
            if extra[at]:
                raise ValueError("extra node records after the tree was complete")
            if not -1 <= axis < d:
                raise ValueError(f"node {i}: split dim {axis} is outside [0, {d})")
            c, b = clock[at].item(), birth[at].item()
            if axis == -1:
                raise ValueError(f"node {i}: pending clock {c} <= lifetime {lifetime}")
            if not b < c <= lifetime:
                raise ValueError(f"node {i}: split time {c} not in ({b}, {lifetime}]")
            raise ValueError(f"node {i}: threshold {thr[at].item()} not inside its cell on "
                             f"axis {axis}")
        if end[t] >= stop:
            raise ValueError("truncated node list")
        yield dim[start:stop], thr[start:stop], clock[start:stop], right[start:stop]


def _node_columns(partition: MondrianPartition) -> tuple[list, list, list]:
    """``(split_dim, threshold, clock)``, the one writer of the node columns of files.

    ``threshold`` holds split nodes only, and ``clock`` None for an infinite clock.
    """
    p = partition
    return (p.split_dim.tolist(), p.threshold[p.split_dim >= 0].tolist(),
            [None if math.isinf(c) else c for c in p.clock.tolist()])


def validate_partition(partition: MondrianPartition) -> None:
    """Check the structural invariants; raise ValueError on a violation.

    The checks of a loaded file, run on the partition's node columns: they
    form a preorder binary tree whose split axes lie in ``[0, dim)``,
    thresholds are interior to their cells, split times strictly exceed the
    parent's clock and stay within the lifetime, and leaf pending clocks are
    past the lifetime; ``right`` is that tree's, and leaf thresholds are 0.
    """
    p = partition
    columns = dict(zip(_NODE_COLUMNS, _node_columns(p)))
    checked = next(_checked_partitions(p.box, p.lifetime, [columns]))
    if not checked.structurally_equal(p):
        raise ValueError("right-child indices or leaf thresholds do not match the preorder tree")


_NUMBER = {int, float}


def _field(value, kinds: set, what: str):
    """``value`` if its JSON type is one of ``kinds``, else ValueError."""
    # decoded JSON values have exact types, so JSON true and false never pass
    # for the numbers 1 and 0
    if type(value) not in kinds:
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


def _typed(values, kinds: set, what: str) -> list:
    """``values`` if it is a list whose items have the JSON types ``kinds``, else ValueError.

    The rule of :func:`_field` for a whole column at once.
    """
    if not set(map(type, _field(values, {list}, what))) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ValueError(f"{what} has the wrong type: {bad!r}")
    return values


def _lifetime(data: dict) -> float:
    return float(_field(data["lifetime"], _NUMBER, "lifetime"))


def partition_to_dict(partition: MondrianPartition) -> dict:
    """JSON-ready dict: root box, depth-first node records and seed provenance.

    Internal nodes serialize as ``{"split": {"dim", "threshold", "time"}}``
    (0-based axis), leaves as ``{"leaf": {"pending_clock"}}`` with ``null``
    for an infinite clock.  Boxes and birth times are reconstructed from the
    split records on load.
    """
    dims, thresholds, clocks = _node_columns(partition)
    splits = iter(thresholds)
    nodes = [{"leaf": {"pending_clock": clock}} if dim < 0
             else {"split": {"dim": dim, "threshold": next(splits), "time": clock}}
             for dim, clock in zip(dims, clocks)]
    return {
        "schema": PARTITION_SCHEMA,
        "dim": partition.dim,
        "lifetime": partition.lifetime,
        "box": _box_to_dict(partition.box),
        "nodes": nodes,
        "seed_provenance": partition.seed_provenance,
    }


def _box_to_dict(box: BoxRegion) -> dict:
    return {"lower": box.lower.tolist(), "upper": box.upper.tolist(),
            "left_closed": box.left_closed.tolist()}


def _box_from_dict(data: dict) -> BoxRegion:
    """A root box from its JSON form ``{"lower": [...], "upper": [...], "left_closed": [...]}``."""
    return BoxRegion(*(_typed(data[key], kinds, f"box {key}") for key, kinds in
                       (("lower", _NUMBER), ("upper", _NUMBER), ("left_closed", {bool}))))


def partition_from_dict(data: dict) -> MondrianPartition:
    """Inverse of :func:`partition_to_dict`.

    Raises ValueError for any document that is not a valid partition: a wrong
    schema tag, a missing key or ill-typed field, a truncated or overlong node
    list, or a violated invariant (see :func:`validate_partition`).
    """
    try:
        if data.get("schema") != PARTITION_SCHEMA:
            raise ValueError(f"unsupported partition schema: {data.get('schema')!r}")
        box = _box_from_dict(data["box"])
        if _field(data["dim"], {int}, "dim") != box.dim:
            raise ValueError(f"dim {data['dim']} does not match the {box.dim}-d box")
        lifetime = _lifetime(data)
        dims, thrs, clocks = [], [], []
        for rec in _field(data["nodes"], {list}, "nodes"):
            if "split" in rec:
                split = rec["split"]
                dims.append(split["dim"])
                thrs.append(split["threshold"])
                clocks.append(split["time"])
                if _field(dims[-1], {int}, "split dim") < 0:  # -1 would read as a leaf
                    raise ValueError(f"split dim {dims[-1]} is negative")
            elif "leaf" in rec:
                dims.append(-1)
                clocks.append(rec["leaf"]["pending_clock"])
            else:
                raise ValueError(f"node record must contain 'split' or 'leaf': {rec!r}")
        block = dict(zip(_NODE_COLUMNS, (dims, thrs, clocks)),
                     seed_provenance=data.get("seed_provenance"))
        return next(_checked_partitions(box, lifetime, [block]))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed partition document: {exc!r}") from None


def partition_to_json(partition: MondrianPartition) -> str:
    return json.dumps(partition_to_dict(partition), indent=2)


def _json_loads(text: str, what: str, **kwargs):
    """``json.loads``, with a document nested past the recursion limit as a ValueError."""
    try:
        return json.loads(text, **kwargs)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def partition_from_json(text: str) -> MondrianPartition:
    return partition_from_dict(_json_loads(text, "partition JSON"))
