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

A node's clock never changes once drawn: :func:`prune` turns a node whose
split time is past the new lifetime into a leaf with that pending clock, and
:func:`extend` splits a leaf whose pending clock is within the new lifetime
at exactly that clock.  This makes lifetime extension exact: extending and
pruning back reproduces the original partition node for node.

Conventions, fixed so that sampling is bit-reproducible:

* draw order per cell is clock, then split axis, then threshold;
  the left subtree is always processed before the right one;
* a cell's linear dimension is summed in numpy's order (sequential below
  8 axes, pairwise from 8 on), as ``(upper - lower).sum()`` does;
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

from .rng import RngStream

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
]

PARTITION_SCHEMA = "mondrian-partition/1"

DEFAULT_MAX_SPLITS = 1_000_000


class SplitLimitError(RuntimeError):
    """Raised when sampling would exceed the configured split budget."""


class BoxRegion:
    """Axis-aligned hyper-rectangle with per-axis lower-edge inclusion flags.

    Upper edges are always inclusive; ``left_closed[j]`` says whether the
    lower edge on axis ``j`` is inclusive.  Splitting at threshold ``s``
    produces a left child closed at ``s`` and a right child open at its new
    lower edge, so the two children partition the parent exactly.
    """

    __slots__ = ("lower", "upper", "left_closed")

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
        if left_closed is None:
            left_closed = np.ones(lower.shape, dtype=bool)
        else:
            left_closed = np.asarray(left_closed, dtype=bool).copy()
            if left_closed.shape != lower.shape:
                raise ValueError("left_closed must match the box dimension")
        lower.setflags(write=False)
        upper.setflags(write=False)
        left_closed.setflags(write=False)
        self.lower = lower
        self.upper = upper
        self.left_closed = left_closed

    @classmethod
    def unit(cls, dim: int) -> "BoxRegion":
        """The unit cube [0, 1]^dim, closed on all edges."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls(np.zeros(dim), np.ones(dim))

    @classmethod
    def _make(cls, lower, upper, left_closed) -> "BoxRegion":
        # trusted internal constructor: arrays are adopted (and may be
        # shared between boxes) rather than copied and validated
        box = object.__new__(cls)
        lower.setflags(write=False)
        upper.setflags(write=False)
        left_closed.setflags(write=False)
        box.lower = lower
        box.upper = upper
        box.left_closed = left_closed
        return box

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
            raise ValueError(f"point has dimension {x.size}, box has {self.dim}")
        at_lower_ok = np.where(self.left_closed, x >= self.lower, x > self.lower)
        return bool(np.all(at_lower_ok) and np.all(x <= self.upper))

    def contains_box(self, other: "BoxRegion") -> bool:
        """Whether ``other`` is contained in this box as a point set."""
        if other.dim != self.dim:
            return False
        lower_ok = (other.lower > self.lower) | (
            (other.lower == self.lower) & (self.left_closed | ~other.left_closed)
        )
        return bool(np.all(lower_ok) and np.all(other.upper <= self.upper))

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
        split = self.split
        if split is None:
            return None
        p, i = self.partition, self.index
        left_box, right_box = self.box.split(split.dim, split.threshold)
        return (p._node(i + 1, left_box, split.time),
                p._node(int(p.right[i]), right_box, split.time))

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

    def _node(self, index: int, box: BoxRegion, birth_time: float) -> PartitionNode:
        node = self._views.get(index)
        if node is None:
            node = self._views[index] = PartitionNode(self, index, box, birth_time)
        return node

    @property
    def root(self) -> PartitionNode:
        return self._node(0, self.box, 0.0)

    def iter_nodes(self):
        """Depth-first, left-before-right node iterator."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(reversed(node.children))

    def leaves(self):
        """Leaves in depth-first, left-first order."""
        return [node for node in self.iter_nodes() if node.is_leaf]

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
        lower, upper, closed = (a.tolist() for a in (self.box.lower, self.box.upper,
                                                     self.box.left_closed))
        dims, thrs, clocks, rights = self._arrays()
        point, node, birth = x.tolist(), 0, 0.0
        while dims.item(node) >= 0:
            axis, threshold, birth = dims.item(node), thrs.item(node), clocks.item(node)
            if point[axis] <= threshold:
                upper[axis], node = threshold, node + 1
            else:
                lower[axis], closed[axis], node = threshold, False, rights.item(node)
        box = BoxRegion._make(np.array(lower), np.array(upper), np.array(closed))
        return self._node(node, box, birth)

    def leaf_indices(self, X) -> np.ndarray:
        """DFS-left-first leaf index for each row of ``X`` (shape (n, dim))."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"X must have shape (n, {self.dim})")
        box = self.box
        at_lower_ok = np.where(box.left_closed, X >= box.lower, X > box.lower)
        bad = np.nonzero(~(at_lower_ok.all(axis=1) & (X <= box.upper).all(axis=1)))[0]
        if bad.size:
            raise ValueError(f"points outside the root box at indices {bad.tolist()}")
        dim, thr, right = self.split_dim, self.threshold, self.right
        pos = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while rows.size:
            cur = pos[rows]
            internal = dim[cur] >= 0
            rows = rows[internal]
            if rows.size == 0:
                break
            cur = cur[internal]
            go_left = X[rows, dim[cur]] <= thr[cur]
            pos[rows] = np.where(go_left, cur + 1, right[cur])
        leaf_rank = np.cumsum(dim < 0) - 1
        return leaf_rank[pos]

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
    # the same bits as numpy's (upper - lower).sum(): in order below 8 terms,
    # pairwise from 8 on (Python's own sum may compensate, so it is not used)
    return float(np.sum(sides)) if len(sides) >= 8 else functools.reduce(operator.add, sides)


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
    if source is not None:
        src_dim, src_thr, src_clock, src_right = (a.tolist() for a in source._arrays())
    dims, thrs, clocks, rights = [], [], [], []
    drawn = 0
    # (source node or -1, birth time, lower, upper, node whose right child
    # this cell is or -1)
    stack = [(0 if source is not None else -1, 0.0, box.lower.tolist(), box.upper.tolist(), -1)]
    while stack:
        src, birth, lower, upper, parent = stack.pop()
        node = len(dims)
        if parent >= 0:
            rights[parent] = node
        sides = [u - l for l, u in zip(lower, upper)]
        if src >= 0:
            while src_dim[src] >= 0:
                axis, threshold = src_dim[src], src_thr[src]
                if lower[axis] < threshold < upper[axis]:
                    break
                src = src + 1 if threshold >= upper[axis] else src_right[src]
            clock = src_clock[src]
        else:
            clock = birth + rng.exponential(_linear_dimension(sides))
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
            axis = rng.categorical(sides)
            a, b = lower[axis], upper[axis]
            threshold = a + (b - a) * rng.uniform()
            while not (a < threshold < b):
                threshold = a + (b - a) * rng.uniform()
            left_src = right_src = -1
        dims.append(axis)
        thrs.append(threshold)
        left_upper, right_lower = upper.copy(), lower.copy()
        left_upper[axis] = right_lower[axis] = threshold
        stack.append((right_src, clock, right_lower, upper, node))
        stack.append((left_src, clock, lower, left_upper, -1))
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
        If ``lifetime`` is negative or not finite.
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
    ``max_splits`` bounds the number of new splits.
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


def _check_nodes(box: BoxRegion, lifetime: float, dims, thrs, clocks) -> list:
    """Right-child indices of valid preorder node lists; ValueError if they are invalid."""
    _check_lifetime(lifetime, "lifetime")
    rights = []
    # (node whose right child this cell is or -1, birth time, lower, upper)
    stack = [(-1, 0.0, box.lower.tolist(), box.upper.tolist())]
    for node, (axis, threshold, clock) in enumerate(zip(dims, thrs, clocks)):
        if not stack:
            raise ValueError("extra node records after the tree was complete")
        parent, birth, lower, upper = stack.pop()
        if parent >= 0:
            rights[parent] = node
        rights.append(-1)
        if not -1 <= axis < box.dim:
            raise ValueError(f"node {node}: split dim {axis} is outside [0, {box.dim})")
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
    return rights


def validate_partition(partition: MondrianPartition) -> None:
    """Check the structural invariants; raise ValueError on a violation.

    The node arrays must form a preorder binary tree in which split axes lie
    in ``[0, dim)``, every threshold is interior to its cell, split times
    strictly exceed the parent's clock and stay within the lifetime, and
    every leaf's pending clock is past the lifetime.  Runs on every
    :func:`partition_from_dict`.
    """
    p = partition
    rights = _check_nodes(p.box, p.lifetime, p.split_dim.tolist(), p.threshold.tolist(),
                          p.clock.tolist())
    if rights != p.right.tolist():
        raise ValueError("right-child indices do not match the preorder tree")


_NUMBER = (int, float)


def _field(value, kind, what: str):
    """``value`` if it has the JSON type ``kind``, else ValueError."""
    # JSON true and false must not pass for the numbers 1 and 0
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


def partition_to_dict(partition: MondrianPartition, include_provenance: bool = True) -> dict:
    """JSON-ready dict: root box plus depth-first node records.

    Internal nodes serialize as ``{"split": {"dim", "threshold", "time"}}``
    (0-based axis), leaves as ``{"leaf": {"pending_clock"}}`` with ``null``
    for an infinite clock.  Boxes and birth times are reconstructed from the
    split records on load.
    """
    box = partition.box
    nodes = [
        {"leaf": {"pending_clock": None if math.isinf(clock) else clock}}
        if dim < 0
        else {"split": {"dim": dim, "threshold": threshold, "time": clock}}
        for dim, threshold, clock in zip(
            partition.split_dim.tolist(), partition.threshold.tolist(), partition.clock.tolist()
        )
    ]
    out = {
        "schema": PARTITION_SCHEMA,
        "dim": partition.dim,
        "lifetime": partition.lifetime,
        "box": {
            "lower": box.lower.tolist(),
            "upper": box.upper.tolist(),
            "left_closed": box.left_closed.tolist(),
        },
        "nodes": nodes,
    }
    if include_provenance:
        out["seed_provenance"] = partition.seed_provenance
    return out


def partition_from_dict(data: dict) -> MondrianPartition:
    """Inverse of :func:`partition_to_dict`.

    Raises ValueError for any document that is not a valid partition: a wrong
    schema tag, a missing key or ill-typed field, a truncated or overlong node
    list, or a violated invariant (see :func:`validate_partition`).
    """
    try:
        if data.get("schema") != PARTITION_SCHEMA:
            raise ValueError(f"unsupported partition schema: {data.get('schema')!r}")
        box = BoxRegion(*(
            [_field(v, kind, f"box {key}") for v in _field(data["box"][key], list, f"box {key}")]
            for key, kind in (("lower", _NUMBER), ("upper", _NUMBER), ("left_closed", bool))
        ))
        if _field(data["dim"], int, "dim") != box.dim:
            raise ValueError(f"dim {data['dim']} does not match the {box.dim}-d box")
        lifetime = float(_field(data["lifetime"], _NUMBER, "lifetime"))
        dims, thrs, clocks = [], [], []
        for rec in _field(data["nodes"], list, "nodes"):
            if "split" in rec:
                split = rec["split"]
                dims.append(_field(split["dim"], int, "split dim"))
                if dims[-1] < 0:
                    raise ValueError(f"split dim {dims[-1]} is negative")
                thrs.append(float(_field(split["threshold"], _NUMBER, "threshold")))
                clocks.append(float(_field(split["time"], _NUMBER, "split time")))
            elif "leaf" in rec:
                clock = rec["leaf"]["pending_clock"]
                dims.append(-1)
                thrs.append(0.0)
                clocks.append(math.inf if clock is None
                              else float(_field(clock, _NUMBER, "pending clock")))
            else:
                raise ValueError(f"node record must contain 'split' or 'leaf': {rec!r}")
        rights = _check_nodes(box, lifetime, dims, thrs, clocks)
        return MondrianPartition(box, lifetime, dims, thrs, clocks, rights,
                                 data.get("seed_provenance"))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed partition document: {exc!r}") from None


def partition_to_json(partition: MondrianPartition, **kwargs) -> str:
    return json.dumps(partition_to_dict(partition, **kwargs), indent=2)


def partition_from_json(text: str) -> MondrianPartition:
    return partition_from_dict(json.loads(text))
