"""Mondrian tree and forest regressors and the plug-in classifier.

Partitions are sampled independently of the data (the defining property of a
purely random forest); fitting only aggregates per-leaf label statistics, so
a fitted tree stores one count and one label sum per leaf.  Empty leaves
predict exactly 0.  A forest is the plain arithmetic mean of its trees, and
tree ``m`` is derived from ``(master_seed, m)`` alone, so growing a forest
never changes the trees it already has.

Label sums are accumulated exactly, as integers in units of 2^-1074 (the
smallest positive float64).  Exact integer addition is associative and
commutative, which buys two properties float accumulation cannot offer:
permuting the training data leaves every prediction bit-identical, and a fold
of single-point updates equals a batch fit exactly.

A batch fit splits its labels once (once per forest) into three 32-bit limbs
each, at the label's own 32-bit offset counted from the smallest binary
exponent among the labels, each exponent clamped at -1021, the least normal
one: label ``i`` is ``sum_k limbs[k, i] * 2^(32 (o_i + k))`` units of
``2^(low - 53)``, so there are 3 limbs per label however far the exponents
spread.  A subnormal's mantissa is then its own value in 2^-1074 units, so
every place in 2^-1074 units is a left shift, as is every label's exact int.
The split is the label's two's complement: the two low limbs lie in [0, 2^32)
and the top limb carries the sign, below 2^21 in magnitude.  Labels are
grouped by offset (ordinary data has one group), at most 2^21 rows to a group,
so any float64 or int64 sum of a group's limbs (each below 2^32 in magnitude)
is exact: 2^21 * 2^32 = 2^53.  Per tree, one float64 ``bincount`` over the
rows' leaf ranks sums each limb row per leaf, and each leaf's limb and group
sums fold into one Python int.  An update checks its one point against the
root box on Python floats, finds its leaf's rank by the scalar walk from the
root, and adds its one label's exact integer into that leaf directly.  It runs
no numpy reduction and no batch routing, so past copying the leaf statistics a
step costs one walk of the tree's depth.

A 1-d forest fit routes no row.  It sorts its rows by x once per forest (row
order changes no exact sum) and keeps each group's limb rows as int64 prefix
sums.  A 1-d leaf is an interval, so on the sorted rows it is a run found by
placing the tree's sorted thresholds in the sorted x, and each of its limb sums
is the difference of two prefix entries.  The lifetime and root-box checks run
on the rows as given, so an error names the caller's rows.

From 2-d on, a forest of 2 or more trees places a batch of 2 or more rows once
for all its trees, in fitting and in prediction: each column is sorted once,
when a tree first reads it (``partition._PlacedRows``), and each tree whose
leaf table pays on that batch reads its rows' leaves from it; the others take
the level loop (see :mod:`.partition`).  Each tree still checks the rows against
its own root box, so an error names the same rows.  A prediction derives each
leaf's mean from the exact sums, or, for fewer rows than the tree has leaves
(a point, say), only the means of the rows' leaves.

Models are saved as compact JSON (``mondrian-forest-model/2`` and
``mondrian-tree-model/2``): the shared fields once, then per tree flat node
columns and per leaf a count and the exact sum as ``sum_odd << sum_shift``.
The first schemas (``/1``) still load.  ``partition._node_columns`` writes
the node columns and ``partition._checked_partition`` reads them, a ``/1``
tree's through :func:`partition_from_dict`; :func:`_tree_model` checks leaf
statistics, so a file of either schema gets every check.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import dataclass

import numpy as np

from .partition import (
    BoxRegion,
    MondrianPartition,
    _box_from_dict,
    _box_to_dict,
    _check_in_root_box,
    _check_lifetime,
    _checked_partition,
    _field,
    _json_loads,
    _lifetime,
    _node_columns,
    _PlacedRows,
    _typed,
    partition_from_dict,
    partition_to_dict,  # noqa: F401  the benchmark's tracer wraps this name here
    sample_mondrian,
)
from .rng import RngStream, _natural

__all__ = [
    "LeafStatistics",
    "MondrianTreeModel",
    "MondrianForestModel",
    "fit_tree",
    "predict_tree",
    "update_tree",
    "fit_forest",
    "predict_forest",
    "predict_class",
    "lifetime_schedule",
    "forest_size_schedule",
    "tree_model_to_dict",
    "tree_model_from_dict",
    "forest_model_to_dict",
    "forest_model_from_dict",
    "model_to_json",
    "model_from_json",
]

TREE_MODEL_SCHEMA = "mondrian-tree-model/2"
FOREST_MODEL_SCHEMA = "mondrian-forest-model/2"
# the first schemas, still read: one partition document and [count, "sum"] pairs per tree
_TREE_MODEL_V1 = "mondrian-tree-model/1"
_FOREST_MODEL_V1 = "mondrian-forest-model/1"

# label values are scaled by 2^1074 to integers; 2^-1074 is the smallest
# positive float64, so every finite float64 is an exact multiple of it
_SCALE_BITS = 1074


def _scaled_int(value: float) -> int:
    """Exact integer representation of a finite float64 in 2^-1074 units."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"labels must be finite, got {value}")
    num, den = value.as_integer_ratio()  # den is a power of two, at most 2^1074
    return num << _SCALE_BITS + 1 - den.bit_length()


# labels enter leaf sums as limbs below 2^32 in magnitude, and a float64 sum (or an
# int64 prefix sum) of integers stays exact below 2^53, so a label group holds at
# most 2^21 rows
_GROUP_ROWS = 1 << 21
_LIMB_MASK = (1 << 32) - 1


@dataclass(frozen=True)
class _Limbs:
    """Labels split for exact summation, grouped by limb offset.

    In the group ``(offset, rows, limbs)``, the i-th label that ``rows`` selects
    (ascending row indices or a slice of consecutive rows) is
    ``sum_k limbs[k, i] << 32 (offset + k)`` units of 2^(unit - 1074).  Places
    are counted from the least exponent, clamped at -1021, so ``unit >= 0`` and
    a subnormal's mantissa is its value in 2^-1074 units.  Limbs 0 and 1 lie in
    [0, 2^32) and limb 2 holds the sign.  Each group holds 3 rows, so the limbs
    take 3 values per label however far the labels' exponents spread, and at
    most ``_GROUP_ROWS`` labels.

    When the labels belong to rows sorted by x, ``x`` holds that sorted
    coordinate and each group holds, in place of its limbs, their int64 prefix
    sums along the rows with a leading 0, shape (3, n_rows + 1).
    """

    groups: list  # (offset, rows, (3, n_rows) float64 of integers in (-2^32, 2^32))
    unit: int
    x: np.ndarray | None = None


def _split_limbs(y: np.ndarray, x: np.ndarray | None = None) -> _Limbs:
    # y = mant * 2^(e - 53), |mant| < 2^53; e is clamped at the least normal exponent,
    # so a subnormal's mant is its own value in 2^-1074 units
    e = np.maximum(np.frexp(y)[1], -1021)
    mant = np.ldexp(y, 53 - e).astype(np.int64)
    nonzero = mant != 0
    low = int(e[nonzero].min()) if nonzero.any() else 0
    offset, bit = np.divmod(np.where(nonzero, e - low, 0), 32)
    # mant << bit in two's complement spans three limbs: the low 32 bits shifted
    # (in [0, 2^63)) and the signed high 22 bits shifted plus the carry out of the
    # low part (below 2^53 in magnitude); the top limb is that sum's signed high part
    lo = (mant & _LIMB_MASK) << bit
    hi = (lo >> 32) + ((mant >> 32) << bit)
    limbs = np.array([lo & _LIMB_MASK, hi & _LIMB_MASK, hi >> 32], dtype=np.float64)
    offsets = np.flatnonzero(np.bincount(offset, minlength=1)).tolist() or [0]
    if len(offsets) == 1:  # views of consecutive rows, so the limbs are not copied
        groups = [(offsets[0], slice(s, s + _GROUP_ROWS), limbs[:, s:s + _GROUP_ROWS])
                  for s in range(0, max(y.size, 1), _GROUP_ROWS)]
    else:
        groups = [(o, block, limbs[:, block]) for o in offsets
                  for rows in [np.flatnonzero(offset == o)]
                  for block in np.split(rows, range(_GROUP_ROWS, rows.size, _GROUP_ROWS))]
    if x is not None:
        groups = [(o, rows, _prefix(group)) for o, rows, group in groups]
    return _Limbs(groups, low - 53 + _SCALE_BITS, x)


def _prefix(limbs: np.ndarray) -> np.ndarray:
    """Exact int64 prefix sums of limb rows along the rows, with a leading 0."""
    prefix = np.zeros((limbs.shape[0], limbs.shape[1] + 1), dtype=np.int64)
    np.cumsum(limbs, axis=1, dtype=np.int64, out=prefix[:, 1:])
    return prefix


# a leaf's exact sum is at most its count times this (the largest float)
_MAX_SCALED = _scaled_int(sys.float_info.max)


def _leaf_mean(total: int, count: int) -> float:
    """Correctly rounded ``total / count`` in float units; exactly 0 for an empty leaf."""
    if count == 0:
        return 0.0
    try:
        return total / (count << _SCALE_BITS)  # int/int division is correctly rounded
    except OverflowError:  # rounds past the largest float
        return math.inf if total > 0 else -math.inf


@dataclass(frozen=True)
class LeafStatistics:
    """Per-leaf sample count and exact label sum.

    ``scaled_sum`` is the exact sum of the leaf's labels in 2^-1074 units;
    ``label_sum`` and ``mean`` are its correctly rounded float views.
    """

    count: int
    scaled_sum: int

    @property
    def label_sum(self) -> float:
        return _leaf_mean(self.scaled_sum, 1)

    @property
    def mean(self) -> float:
        """Leaf prediction: average label, or exactly 0 for an empty leaf."""
        return _leaf_mean(self.scaled_sum, self.count)

    @property
    def class_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1) for binary 0/1 labels."""
        ones, rem = divmod(self.scaled_sum, 1 << _SCALE_BITS)
        if rem != 0 or not 0 <= ones <= self.count:
            raise ValueError("labels were not all in {0, 1}")
        return (self.count - ones, ones)


class MondrianTreeModel:
    """A partition plus per-leaf label statistics.

    Treat as immutable: :func:`update_tree` returns a new model.  Refitting
    on the same data in any order reproduces identical statistics, because
    label accumulation is exact.
    """

    __slots__ = ("partition", "_counts", "_totals")

    def __init__(self, partition: MondrianPartition, counts: np.ndarray, totals: list[int]):
        self.partition = partition
        self._counts = counts
        self._totals = totals

    @property
    def n_leaves(self) -> int:
        return len(self._totals)

    @property
    def n_seen(self) -> int:
        return sum(self._counts.tolist())  # exact, where an int64 sum could wrap

    def leaf_statistics(self) -> list[LeafStatistics]:
        """Statistics per leaf, in depth-first leaf order."""
        return [LeafStatistics(int(c), t) for c, t in zip(self._counts, self._totals)]

    @property
    def leaf_stats(self) -> dict:
        """Map from leaf node to its statistics."""
        return dict(zip(self.partition.leaves(), self.leaf_statistics()))

    def predict(self, x):
        """Prediction at a point (1-d input) or batch of points (2-d input)."""
        # the one path from rows to leaf means, derived from the exact sums on each call
        # (a forest passes its placed batch, which leaf_indices reads as rows)
        if not isinstance(x, _PlacedRows):
            x = np.asarray(x, dtype=np.float64)
            if x.ndim == 1:
                return float(self.predict(x[None, :])[0])
        ranks = self.partition.leaf_indices(x)
        if ranks.size < self.n_leaves:
            # fewer rows than leaves (a point, say): derive only the rows' leaf means
            ranks = ranks.tolist()
            return np.array([_leaf_mean(self._totals[r], c)
                             for r, c in zip(ranks, self._counts[ranks].tolist())],
                            dtype=np.float64)
        means = np.array([_leaf_mean(t, c) for c, t in zip(self._counts.tolist(), self._totals)],
                         dtype=np.float64)
        return means[ranks]


def fit_tree(partition: MondrianPartition, X, y) -> MondrianTreeModel:
    """Aggregate labels into the leaves of a fixed partition.

    ``X`` has shape (n, dim), ``y`` shape (n,).  The partition is untouched;
    points outside the root box raise a ValueError naming the offending rows.
    """
    X, y = _check_data(partition.dim, X, y)
    return _accumulate(partition, X, _split_limbs(y))


def _check_data(dim: int, X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"X must have shape (n, {dim})")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have shape (n,)")
    if not np.isfinite(y).all():
        raise ValueError("labels must be finite")
    return X, y


def _accumulate(partition: MondrianPartition, X: np.ndarray, labels,
                base: MondrianTreeModel | None = None) -> MondrianTreeModel:
    """The one producer of leaf sums: the rows of ``X``, or ``base`` plus the point ``X``.

    A batch brings its labels as :class:`_Limbs`.  Each group gives a (3,
    n_leaves) int64 array of limb sums, from ``bincount`` over the rows' leaf
    ranks or, when the labels carry rows sorted by x (a 1-d forest, which routes
    no row), as differences of prefix sums at each leaf's first and last row;
    the fold makes one exact int per leaf.  An update's point, shape (dim,),
    takes the scalar walk, which gives its leaf's rank; the update adds its one
    label, an exact int in 2^-1074 units, and a count of 1 to that leaf
    (splitting one label into limbs costs more than the whole update).  Every
    leaf sum is an exact int either way, so a fold of updates equals a batch fit.
    """
    n_leaves = partition.n_leaves
    if base is not None:
        _check_in_root_box(partition.box, X)
        rank = partition._descend(X.tolist())[1]
        counts, totals = base._counts.copy(), list(base._totals)
        counts[rank] += 1
        totals[rank] += labels
        return MondrianTreeModel(partition, counts, totals)
    if labels.x is None:
        ranks = partition.leaf_indices(X)
        counts = np.bincount(ranks, minlength=n_leaves)
    else:
        # 1-d leaves are intervals in preorder, so on sorted rows leaf i holds the rows
        # ends[i]:ends[i + 1]; a point on a threshold goes left (closed-left), as
        # side="right" places it
        thresholds = np.sort(partition.threshold[partition.split_dim >= 0])
        ends = np.concatenate(([0], np.searchsorted(labels.x, thresholds, side="right"),
                               [labels.x.size]))
        counts = np.diff(ends)
    parts = []
    for offset, rows, limbs in labels.groups:
        if labels.x is None:
            sums = np.array([np.bincount(ranks[rows], weights=limb, minlength=n_leaves)
                             for limb in limbs], dtype=np.int64)
        else:
            # the run ends counted in the group's own rows (see _Limbs)
            at = (np.searchsorted(rows, ends) if isinstance(rows, np.ndarray)
                  else np.maximum(np.minimum(ends, rows.stop) - rows.start, 0))
            sums = np.diff(limbs[:, at], axis=1)
        # each leaf's limb sums as one Python int at the group's place in 2^-1074 units
        shift = 32 * offset + labels.unit
        parts.append([(c << 64) + (b << 32) + a << shift for a, b, c in zip(*sums.tolist())])
    totals = parts[0] if len(parts) == 1 else [sum(leaf) for leaf in zip(*parts)]
    return MondrianTreeModel(partition, counts, totals)


def predict_tree(model: MondrianTreeModel, x):
    """Leaf-mean prediction; exactly 0 on empty leaves."""
    return model.predict(x)


def update_tree(model: MondrianTreeModel, x, y) -> MondrianTreeModel:
    """New model equivalent to refitting on the data plus one point.

    ``x`` has shape (dim,).  ValueError for a point of another shape, then for
    a label that is not finite, then for a point outside the root box.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.partition.dim,):
        raise ValueError(f"x must have shape ({model.partition.dim},)")
    return _accumulate(model.partition, x, _scaled_int(y), base=model)


class MondrianForestModel:
    """Average of independently grown Mondrian trees.

    Tree ``m`` is grown from the child stream ``(master_seed, m)``, so models
    with different tree counts share their leading trees exactly.
    ``master_seed`` is an int for a root stream, or ``(seed, path...)`` when
    the forest was grown from a derived stream.
    """

    __slots__ = ("trees", "lifetime", "master_seed")

    def __init__(self, trees: list[MondrianTreeModel], lifetime: float, master_seed):
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self.trees = list(trees)
        self.lifetime = float(lifetime)
        # int() would truncate 2.5 and take True as 1, and the model file would then
        # name a seed the trees were not grown from
        entries = tuple(_natural(entry, "master_seed") for entry in
                        (master_seed if isinstance(master_seed, tuple) else (master_seed,)))
        if not entries or entries[0] >= 2**64:
            raise ValueError(f"master_seed must be a 64-bit seed or a tuple of one and a path, "
                             f"got {master_seed!r}")
        self.master_seed = entries if isinstance(master_seed, tuple) else entries[0]

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def per_tree_predictions(self, x) -> np.ndarray:
        """Each tree's prediction, one row (or one value for a point) per tree."""
        x = np.asarray(x, dtype=np.float64)
        return np.array([tree.predict(x) for tree in self.trees])

    def predict(self, x):
        """Arithmetic mean of tree predictions, summed in tree order; a float for a point."""
        x = _placed(np.asarray(x, dtype=np.float64), self.n_trees)
        return sum(tree.predict(x) for tree in self.trees) / self.n_trees

    def predict_class(self, x):
        """Plug-in classifier: 1 where the regression estimate is >= 1/2."""
        return predict_class(self, x)


def fit_forest(box: BoxRegion, d: int, lifetime: float, n_trees: int, X, y,
               master_seed) -> MondrianForestModel:
    """Grow ``n_trees`` independent partitions and fit each with the data.

    ``master_seed`` is an integer, or an :class:`RngStream` whose children
    drive the trees (used for composing experiments from derived streams).
    """
    # range() would refuse 2.5 with a TypeError and take True as 1 tree
    n_trees = _natural(n_trees, "n_trees", 1)
    if box.dim != d:
        raise ValueError(f"box has dimension {box.dim}, expected {d}")
    X, y = _check_data(d, X, y)
    if isinstance(master_seed, RngStream):
        master = master_seed
        master_seed = (master.seed,) + master.path
    else:
        master = RngStream(master_seed)
    if d == 1:
        # sums are exact, so row order changes no bit; on sorted rows each tree's leaves
        # are runs of rows, summed from prefix sums without routing any row.  The checks
        # that routing made run before the sort, so a bad input's error names its rows
        _check_lifetime(lifetime, "lifetime")
        _check_in_root_box(box, X)
        order = np.argsort(X[:, 0])
        X, y = X[order], y[order]
    labels = _split_limbs(y, X[:, 0] if d == 1 else None)
    rows = _placed(X, n_trees)
    trees = [_accumulate(sample_mondrian(box, lifetime, master.child(m)), rows, labels)
             for m in range(n_trees)]
    return MondrianForestModel(trees, lifetime, master_seed)


def _placed(X: np.ndarray, n_trees: int):
    """``X`` placed once for all trees, or ``X`` itself where one tree or row, or d = 1, would
    not share the sort (see :class:`partition._PlacedRows`, sorted only if a tree's table
    reads it)."""
    if X.ndim == 2 and X.shape[0] >= 2 and X.shape[1] >= 2 and n_trees >= 2:
        return _PlacedRows(X)
    return X


def predict_forest(model: MondrianForestModel, x):
    """Forest prediction: exact mean of the tree predictions."""
    return model.predict(x)


def predict_class(model, x):
    """Plug-in class label(s) of a forest or tree model; exactly 1/2 maps to class 1."""
    pred = model.predict(x)
    if np.ndim(pred) == 0:
        return int(pred >= 0.5)
    return (pred >= 0.5).astype(np.int64)


_LIFETIME_EXPONENTS = {
    "lipschitz": lambda d: 1.0 / (d + 2),
    "c2": lambda d: 1.0 / (d + 4),
    # any exponent in (0, 1/d) keeps lifetime^d / n vanishing; 1/(2d) is our
    # pick among the valid regimes and is not canonical
    "consistency": lambda d: 1.0 / (2 * d),
}


def lifetime_schedule(kind: str, n: int, d: int, scale: float = 1.0) -> float:
    """Lifetime as a function of the sample size.

    ``lipschitz``: scale * n^(1/(d+2)); ``c2``: scale * n^(1/(d+4));
    ``consistency``: scale * n^(1/(2d)).
    """
    if kind not in _LIFETIME_EXPONENTS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {sorted(_LIFETIME_EXPONENTS)}")
    _check_schedule_args(n, d, scale)
    return scale * float(n) ** _LIFETIME_EXPONENTS[kind](d)


def forest_size_schedule(kind: str, n: int, d: int, scale: float = 1.0) -> int:
    """Tree count as a function of the sample size: ceil(scale * n^(2/(d+4)))."""
    if kind != "c2":
        raise ValueError(f"unknown forest-size schedule kind {kind!r}; expected 'c2'")
    _check_schedule_args(n, d, scale)
    raw = scale * float(n) ** (2.0 / (d + 4))
    # pow can land a hair above an exact integer; don't let that inflate ceil
    return max(1, math.ceil(raw - 1e-9))


def _check_schedule_args(n: int, d: int, scale: float) -> None:
    _natural(n, "n", 1)
    _natural(d, "d", 1)
    # a nan scale would give a nan lifetime and an infinite one an overflowing tree count
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")


# -- serialization ----------------------------------------------------------

# no leaf sum within an int64 count times the largest float reaches
# 2^_MAX_SUM_SHIFT, so a larger shift is refused before it is applied
_MAX_SUM_SHIFT = _MAX_SCALED.bit_length() + 63
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def _odd_shift(total: int) -> tuple[int, int]:
    """``(odd, shift)`` with ``total == odd << shift`` and ``odd`` odd, or ``(0, 0)``."""
    shift = (total & -total).bit_length() - 1
    return (total >> shift, shift) if total else (0, 0)


def _tree_columns(model: MondrianTreeModel) -> dict:
    """One tree as flat columns: preorder nodes, then one count and sum per leaf."""
    odd, shift = zip(*map(_odd_shift, model._totals))
    return dict(zip(("split_dim", "threshold", "clock"), _node_columns(model.partition)),
                count=model._counts.tolist(), sum_odd=list(odd), sum_shift=list(shift),
                seed_provenance=model.partition.seed_provenance)


def tree_model_to_dict(model: MondrianTreeModel) -> dict:
    """A ``mondrian-tree-model/2`` document: root box, lifetime, ``n_seen`` and the columns.

    A leaf's exact label sum is ``sum_odd << sum_shift`` in 2^-1074 units, so
    a round trip preserves predictions bit-exactly.
    """
    p = model.partition
    return {"schema": TREE_MODEL_SCHEMA, "lifetime": p.lifetime, "box": _box_to_dict(p.box),
            "n_seen": model.n_seen, **_tree_columns(model)}


def _check_shared(trees: list[MondrianTreeModel], lifetime: float) -> None:
    """ValueError unless the trees share ``lifetime``, one root box and one ``n_seen``.

    Every tree of a forest is grown on one box and fitted on all of its data.
    """
    if any(t.partition.lifetime != lifetime for t in trees) or any(
            a.partition.box != b.partition.box or a.n_seen != b.n_seen
            for a, b in zip(trees, trees[1:])):
        raise ValueError(f"the trees do not share the forest lifetime {lifetime!r}, one root box "
                         "and one n_seen")


def forest_model_to_dict(model: MondrianForestModel) -> dict:
    """A ``mondrian-forest-model/2`` document; the shared fields are written once."""
    _check_shared(model.trees, model.lifetime)
    first = model.trees[0]
    return {"schema": FOREST_MODEL_SCHEMA, "lifetime": model.lifetime,
            "master_seed": model.master_seed, "box": _box_to_dict(first.partition.box),
            "n_seen": first.n_seen, "trees": [_tree_columns(t) for t in model.trees]}


def _tree_model(partition: MondrianPartition, counts, totals, n_seen) -> MondrianTreeModel:
    """The one builder of a loaded tree, under both model schemas.

    Checks the leaf statistics of a checked partition: one count >= 0 and one
    exact sum per leaf, each sum no larger in magnitude than its count times
    the largest float, and counts that add up to ``n_seen``.
    """
    if not len(_typed(counts, {int}, "leaf count")) == len(totals) == partition.n_leaves:
        raise ValueError("the leaf statistics do not match the partition's leaves")
    if min(counts) < 0:
        raise ValueError(f"leaf count {min(counts)} is negative")
    if any(abs(total) > count * _MAX_SCALED for count, total in zip(counts, totals)):
        raise ValueError("a leaf sum is beyond its count times the largest float")
    if _field(n_seen, {int}, "n_seen") != sum(counts):
        raise ValueError(f"n_seen {n_seen!r} is not the sum of the leaf counts")
    return MondrianTreeModel(partition, np.array(counts, dtype=np.int64), totals)


def _tree_from_columns(block: dict, box: BoxRegion, lifetime: float, n_seen) -> MondrianTreeModel:
    partition = _checked_partition(box, lifetime, block["split_dim"], block["threshold"],
                                   block["clock"], block.get("seed_provenance"))
    odd = _typed(block["sum_odd"], {int}, "sum_odd")
    shift = _typed(block["sum_shift"], {int}, "sum_shift")
    if len(odd) != len(shift):
        raise ValueError("sum_odd and sum_shift differ in length")
    # a leaf sum is odd << shift, or (0, 0); the shift is bounded before any is applied
    for o, k in zip(odd, shift):
        if (o % 2 == 0 or not 0 <= k < _MAX_SUM_SHIFT) and (o, k) != (0, 0):
            raise ValueError(f"leaf sum ({o}, {k}) is neither (0, 0) nor an odd part "
                             f"with a shift in [0, {_MAX_SUM_SHIFT})")
    return _tree_model(partition, block["count"], list(map(operator.lshift, odd, shift)), n_seen)


def _tree_from_v1(data: dict) -> MondrianTreeModel:
    """A ``mondrian-tree-model/1`` document: a partition document plus ``[count, "sum"]`` pairs."""
    if data.get("schema") != _TREE_MODEL_V1:
        raise ValueError(f"unsupported tree model schema: {data.get('schema')!r}")
    partition = partition_from_dict(data["partition"])
    counts, totals = [], []
    for entry in _field(data["leaf_stats"], {list}, "leaf_stats"):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"malformed leaf_stats entry: {entry!r}")
        if not _CANONICAL_INT.fullmatch(_field(entry[1], {str}, "leaf sum")):
            raise ValueError(f"leaf sum {entry[1]!r} is not a canonical decimal integer")
        counts.append(entry[0])
        totals.append(int(entry[1]))
    return _tree_model(partition, counts, totals, data["n_seen"])


def tree_model_from_dict(data: dict) -> MondrianTreeModel:
    """Inverse of :func:`tree_model_to_dict`, for ``/2`` and ``/1`` documents.

    ValueError for a malformed document: both schemas run the same partition
    and leaf-statistics checks (see :func:`_tree_model`).
    """
    try:
        if data.get("schema") == TREE_MODEL_SCHEMA:
            return _tree_from_columns(data, _box_from_dict(data["box"]), _lifetime(data),
                                      data["n_seen"])
        return _tree_from_v1(data)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed tree model: {exc!r}") from None


def forest_model_from_dict(data: dict) -> MondrianForestModel:
    """Inverse of :func:`forest_model_to_dict`, for ``/2`` and ``/1`` documents.

    ValueError for a malformed document.  ``master_seed`` (a JSON list is a
    tuple) is checked by :class:`MondrianForestModel`.  A ``/1`` file
    stores each tree's lifetime, root box and ``n_seen``, so there the trees
    must share them, with the forest ``lifetime`` (see :func:`_check_shared`).
    """
    try:
        schema = data.get("schema")
        if schema not in (FOREST_MODEL_SCHEMA, _FOREST_MODEL_V1):
            raise ValueError(f"unsupported forest model schema: {schema!r}")
        lifetime = _lifetime(data)
        blocks = _field(data["trees"], {list}, "trees")
        if schema == FOREST_MODEL_SCHEMA:
            box = _box_from_dict(data["box"])
            trees = [_tree_from_columns(b, box, lifetime, data["n_seen"]) for b in blocks]
        else:
            trees = [_tree_from_v1(b) for b in blocks]
            _check_shared(trees, lifetime)
        seed = data["master_seed"]
        return MondrianForestModel(trees, lifetime, tuple(seed) if isinstance(seed, list) else seed)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed forest model: {exc!r}") from None


def model_to_json(model) -> str:
    """Compact JSON of a tree or forest model (schema ``/2``)."""
    if isinstance(model, MondrianForestModel):
        doc = forest_model_to_dict(model)
    elif isinstance(model, MondrianTreeModel):
        doc = tree_model_to_dict(model)
    else:
        raise TypeError(f"not a model: {type(model).__name__}")
    return json.dumps(doc, separators=(",", ":"))


def model_from_json(text: str):
    """A tree or forest model from JSON of schema ``/2`` or ``/1``."""
    data = _json_loads(text, "model JSON")
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema in (FOREST_MODEL_SCHEMA, _FOREST_MODEL_V1):
        return forest_model_from_dict(data)
    if schema in (TREE_MODEL_SCHEMA, _TREE_MODEL_V1):
        return tree_model_from_dict(data)
    raise ValueError(f"unsupported model schema: {schema!r}")
