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
every row one node down per level.  A batch that a forest placed for all its
trees (:class:`_PlacedRows`, each column sorted when first read) is read from
the tree's leaf table instead, when the table is no larger than the batch and
the batch large enough to pay for the table's build (the level loop would
take at least ``_TABLE_ROW_LEVELS`` row-levels per axis): the tree's
thresholds, sorted per axis, cut the root box into a grid whose every cell
lies in one leaf, and a row's cell on each axis is counted on the sorted
column for all rows at once.

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
# least this many row-levels (rows times the tree's depth) per axis: the table's build
# costs some 70-100 us at d = 2-4 whatever the batch, and its read, per row and axis,
# about what the loop spends per row and level.  Timed on 310 shapes (trees of 2-204
# leaves, batches of 16-16384 rows, d = 2-4; a 2-core Xeon, numpy 2.4), the rule took
# the slower path by more than 10 % once (1.28x), where a table read whenever it fits
# the batch ran up to 4.6x slower than the level loop
_TABLE_ROW_LEVELS = 6144


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
    """A batch ``rows`` (shape (n, dim)) with each column sorted once, for many trees.

    ``columns()`` is ``(sorted, rank)``, each of shape (dim, n): every column in
    ascending order, and each row's place in it, sorted when a tree first reads
    them, so a batch that no tree reads from its table is never sorted.  A
    forest places its batch once, and :meth:`MondrianPartition.leaf_indices`
    reads each tree's leaves from the placement; ``shape`` is the batch's.
    """

    __slots__ = ("rows", "_columns")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self._columns = None

    def columns(self) -> tuple:
        if self._columns is None:
            order = np.argsort(self.rows.T, axis=1)
            rank = np.empty_like(order)
            np.put_along_axis(rank, order, np.arange(self.rows.shape[0]), axis=1)
            self._columns = np.take_along_axis(self.rows.T, order, axis=1), rank
        return self._columns

    @property
    def shape(self) -> tuple:
        return self.rows.shape


class MondrianPartition:
    """A sampled Mondrian partition: root box, lifetime, node arrays, provenance.

    ``split_dim``, ``threshold``, ``clock`` and ``right`` are the preorder
    node arrays described in the module docstring.  Immutable after
    construction; :func:`prune`, :func:`extend` and :func:`restrict` return
    new partitions.  Concurrent reads are safe.
    """

    __slots__ = ("box", "lifetime", "seed_provenance", "split_dim", "threshold", "clock",
                 "right", "_views")

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
        _check_in_root_box(self.box, X)
        dim, thr, right = self.split_dim, self.threshold, self.right
        if self.dim == 1:
            # 1-d leaves are intervals in preorder, split at the sorted thresholds; a
            # point on a threshold goes left (closed-left), as side="left" places it
            return np.searchsorted(np.sort(thr[dim >= 0]), X[:, 0], side="left")
        depth, rights = [0] * dim.size, right.tolist()
        for i in np.flatnonzero(dim >= 0).tolist():  # preorder: a parent comes before its children
            depth[i + 1] = depth[rights[i]] = depth[i] + 1
        levels = max(depth)
        if (placed is not None and len(X) * levels >= _TABLE_ROW_LEVELS * self.dim
                and self._grid()[1] <= len(X)):
            # a placed batch reads each row's leaf from the leaf table, which is never
            # larger than the batch: a row's slab on axis a is the number of sorted
            # thresholds below it, counted for all rows at once on the sorted column
            edges, steps, table = self._leaf_table()
            flat = 0
            for column, rank, edge, step in zip(*placed.columns(), edges, steps):
                per_slab = np.diff(np.searchsorted(column, edge, side="right"))
                flat = flat + np.repeat(step, per_slab)[rank]
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

    def _grid(self) -> tuple[list, int]:
        """``(counts, cells)``: each axis's number of thresholds, and the cells of the grid
        they cut the root box into, the product of ``count + 1`` over the axes."""
        counts = np.bincount(self.split_dim[self.split_dim >= 0], minlength=self.dim).tolist()
        return counts, math.prod(k + 1 for k in counts)

    def _leaf_table(self):
        """``(edges, steps, table)``: the leaf rank of each cell of the tree's threshold grid.

        Axis ``a``'s ``K_a`` thresholds, sorted, cut the root box into ``K_a + 1``
        slabs; slab ``c`` holds the points with ``c`` of them strictly below,
        which is the closed-left rule, and each cell of the grid lies in one
        leaf.  ``edges[a]`` is the sorted thresholds between -inf and inf,
        ``steps[a]`` each slab's offset into ``table``, the leaf ranks over the
        grid in C order.  A split at sorted place ``k`` leaves slabs ``[lo, k]``
        to its left child and ``[k + 1, hi]`` to its right, so equal thresholds
        in two subtrees stay exact: the slab between them holds no point.
        """
        dim, thr, right = self.split_dim, self.threshold, self.right
        d, n = self.dim, dim.size
        splits = np.flatnonzero(dim >= 0)
        axis = dim[splits]
        order = np.lexsort((thr[splits], axis))
        counts, cells = self._grid()
        firsts = [sum(counts[:a]) for a in range(d)]
        strides = [math.prod(k + 1 for k in counts[a + 1:]) for a in range(d)]
        place = np.empty(splits.size, dtype=np.intp)
        place[order] = np.arange(splits.size) - np.repeat(firsts, counts)
        # each leaf's box in slabs, scaled by the strides: row a of `value` holds lo_a and
        # row d + a holds hi_a + 1, set at a split's right and left child respectively and
        # passed down to the nodes below; every node points at its parent, or at itself
        # where its row is set (the root holds lo = 0 and hi + 1 = cells, past the
        # table), and pointer jumping finds each leaf's nearest setting ancestor
        parent = np.zeros(n, dtype=np.intp)
        parent[splits + 1] = parent[right[splits]] = splits
        pointer = (parent + np.arange(0, 2 * d * n, n)[:, None]).ravel()
        value = np.zeros(2 * d * n, dtype=np.intp)
        value[d * n::n] = cells
        lo_at = axis * n + right[splits]
        hi_at = (axis + d) * n + splits + 1
        pointer[lo_at], pointer[hi_at] = lo_at, hi_at
        value[lo_at] = value[hi_at] = (place + 1) * np.array(strides)[axis]
        for _ in range(splits.size.bit_length()):  # 2^rounds > splits >= depth
            pointer = pointer[pointer]
        leaves = np.flatnonzero(dim < 0)
        box = value[pointer.reshape(2 * d, n)[:, leaves]]
        # paint the ranks by a difference array: leaf r adds (-1)^|S| r at its corner that
        # takes hi + 1 on the axes in S and lo on the others (row c of `corners` takes hi + 1
        # on axis a when bit a of c is set); a corner past the table lands in the last bin,
        # which is dropped, and one cumsum per axis turns the differences into the ranks
        corners = box[[0, d]]
        for a in range(1, d):
            corners = np.concatenate((corners + box[a], corners + box[a + d]))
        signs = [(-1.0) ** bin(c).count("1") for c in range(2 ** d)]
        weights = np.multiply.outer(signs, np.arange(leaves.size, dtype=np.float64))
        diff = np.bincount(np.minimum(corners, cells).ravel(), weights.ravel(), cells + 1)
        table = diff[:cells].astype(np.intp).reshape([k + 1 for k in counts])
        for a in range(d):
            np.cumsum(table, axis=a, out=table)
        ordered = thr[splits][order].tolist()
        edges = [np.array([-math.inf, *ordered[f:f + k], math.inf]) for f, k in zip(firsts, counts)]
        steps = [np.arange(0, (k + 1) * s, s) for k, s in zip(counts, strides)]
        return edges, steps, table.ravel()

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


def _checked_partition(box: BoxRegion, lifetime: float, dims, thrs, clocks,
                       provenance=None) -> MondrianPartition:
    """The one reader of the node columns; ValueError if they are invalid.

    The columns are lists of JSON values, as :func:`_node_columns` writes them;
    the checks are :func:`validate_partition`'s.
    """
    _check_lifetime(lifetime, "lifetime")
    _typed(dims, {int}, "split_dim")
    _typed(thrs, _NUMBER, "threshold")
    _typed(clocks, _NUMBER | {type(None)}, "clock")
    if len(thrs) != sum(axis >= 0 for axis in dims) or len(clocks) != len(dims):
        raise ValueError("threshold needs one value per split node and clock one per node")
    splits = iter(thrs)
    thrs = [float(next(splits)) if axis >= 0 else 0.0 for axis in dims]
    clocks = [math.inf if c is None else float(c) for c in clocks]
    dim, rights = box.dim, []
    # (node whose right child this cell is or -1, birth time, lower, upper)
    stack = [(-1, 0.0, box.lower.tolist(), box.upper.tolist())]
    for node, (axis, threshold, clock) in enumerate(zip(dims, thrs, clocks)):
        if not stack:
            raise ValueError("extra node records after the tree was complete")
        parent, birth, lower, upper = stack.pop()
        if parent >= 0:
            rights[parent] = node
        rights.append(-1)
        if not -1 <= axis < dim:
            raise ValueError(f"node {node}: split dim {axis} is outside [0, {dim})")
        if axis == -1:
            if not clock > lifetime:
                raise ValueError(f"node {node}: pending clock {clock} <= lifetime {lifetime}")
            continue
        if not birth < clock <= lifetime:
            raise ValueError(f"node {node}: split time {clock} not in ({birth}, {lifetime}]")
        if not lower[axis] < threshold < upper[axis]:
            raise ValueError(f"node {node}: threshold {threshold} not inside its cell on axis {axis}")
        left_upper, right_lower = upper.copy(), lower.copy()
        left_upper[axis] = right_lower[axis] = threshold
        stack.append((node, clock, right_lower, upper))
        stack.append((-1, clock, lower, left_upper))
    if stack:
        raise ValueError("truncated node list")
    return MondrianPartition(box, lifetime, dims, thrs, clocks, rights, provenance)


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
    checked = _checked_partition(p.box, p.lifetime, *_node_columns(p))
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
        return _checked_partition(box, lifetime, dims, thrs, clocks, data.get("seed_provenance"))
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
