"""Partition and model files are validated on load; bad ones exit 2."""

import copy
import csv
import json
import math
import os
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrianforest import (
    BoxRegion,
    MondrianForestModel,
    RngStream,
    SyntheticTask,
    fit_forest,
    fit_tree,
    model_from_json,
    model_to_json,
    partition_from_dict,
    partition_from_json,
    partition_to_dict,
    predict_class,
    sample_mondrian,
)
from mondrianforest import cli, harness
from mondrianforest.cli import run
from mondrianforest.estimators import (
    _MAX_SCALED,
    LeafStatistics,
    forest_model_from_dict,
    tree_model_from_dict,
)
from mondrianforest.partition import MondrianPartition, validate_partition


def tree_doc_v1(tree):
    """``tree`` as a ``mondrian-tree-model/1`` document: its partition plus [count, "sum"] pairs."""
    return {"schema": "mondrian-tree-model/1", "partition": partition_to_dict(tree.partition),
            "n_seen": tree.n_seen,
            "leaf_stats": [[c, str(t)] for c, t in zip(tree._counts.tolist(), tree._totals)]}


def model_doc_v1(model):
    """A tree or forest model as the ``/1`` JSON document the first model writer produced."""
    if isinstance(model, MondrianForestModel):
        doc = {"schema": "mondrian-forest-model/1", "lifetime": model.lifetime,
               "master_seed": model.master_seed, "trees": [tree_doc_v1(t) for t in model.trees]}
    else:
        doc = tree_doc_v1(model)
    return json.loads(json.dumps(doc))


PART = sample_mondrian(BoxRegion.unit(2), 3.0, RngStream(11))
PART_DOC = partition_to_dict(PART)
X = np.random.default_rng(0).random((40, 2))
Y = X[:, 0] + 0.5 * X[:, 1]
TREE = fit_tree(PART, X, Y)
FOREST = fit_forest(BoxRegion.unit(2), 2, 3.0, 2, X, Y, master_seed=4)
TREE_DOC = model_doc_v1(TREE)
FOREST_DOC = model_doc_v1(FOREST)
TREE_DOC_V2 = json.loads(model_to_json(TREE))
FOREST_DOC_V2 = json.loads(model_to_json(FOREST))


def first(doc, kind):
    """The first node record of ``kind`` ("split" or "leaf")."""
    return next(rec[kind] for rec in doc["nodes"] if kind in rec)


def second_split(doc):
    return [rec["split"] for rec in doc["nodes"] if "split" in rec][1]


def set_key(key, value):
    def edit(doc):
        doc[key] = value
    return edit


# axis 0 is the open side (0.5, 0.5], which holds no point
EMPTY_BOX = {"lower": [0.5, 0.0], "upper": [0.5, 1.0], "left_closed": [False, True]}


def one_leaf_of_empty_box(doc):
    """``doc``, a ``/2`` tree model, as an unfitted one-leaf tree of :data:`EMPTY_BOX`."""
    doc.update(box=copy.deepcopy(EMPTY_BOX), n_seen=0, split_dim=[-1], threshold=[],
               clock=[None], count=[0], sum_odd=[0], sum_shift=[0])


PARTITION_DEFECTS = {
    "missing-nodes": lambda d: d.pop("nodes"),
    "missing-box": lambda d: d.pop("box"),
    "missing-lifetime": lambda d: d.pop("lifetime"),
    "missing-split-time": lambda d: first(d, "split").pop("time"),
    "missing-pending-clock": lambda d: first(d, "leaf").pop("pending_clock"),
    "not-a-dict": lambda d: d.update(box=[0, 1]),
    "dim-as-string": set_key("dim", "2"),
    "dim-mismatch": set_key("dim", 3),
    "lifetime-as-null": set_key("lifetime", None),
    "negative-lifetime": set_key("lifetime", -1.0),
    "nodes-as-dict": set_key("nodes", {}),
    "left-closed-as-ints": lambda d: d["box"].update(left_closed=[1, 1]),
    "lower-as-strings": lambda d: d["box"].update(lower=["0", "0"]),
    "threshold-as-string": lambda d: first(d, "split").update(threshold="0.5"),
    "split-dim-as-bool": lambda d: first(d, "split").update(dim=True),
    "split-dim-out-of-range": lambda d: first(d, "split").update(dim=7),
    "split-dim-negative": lambda d: first(d, "split").update(dim=-1),
    "threshold-on-boundary": lambda d: first(d, "split").update(threshold=0.0),
    "threshold-outside-cell": lambda d: first(d, "split").update(threshold=1.5),
    "threshold-nan": lambda d: first(d, "split").update(threshold=math.nan),
    "split-time-above-lifetime": lambda d: first(d, "split").update(time=99.0),
    "split-time-not-above-parent": lambda d: second_split(d).update(
        time=first(d, "split")["time"]),
    "split-time-zero": lambda d: first(d, "split").update(time=0.0),
    "pending-clock-below-lifetime": lambda d: first(d, "leaf").update(pending_clock=0.1),
    "pending-clock-at-lifetime": lambda d: first(d, "leaf").update(pending_clock=3.0),
    "unknown-record": lambda d: d["nodes"].insert(1, {"branch": {}}),
    "truncated-nodes": lambda d: d["nodes"].pop(),
    "extra-nodes": lambda d: d["nodes"].append({"leaf": {"pending_clock": None}}),
    "huge-integer-time": lambda d: first(d, "split").update(time=10**400),
    "box-sides-overflow": lambda d: d["box"].update(lower=[-1e308, 0.0], upper=[1e308, 1.0]),
    "box-open-zero-width-side": lambda d: d.update(box=copy.deepcopy(EMPTY_BOX),
                                                   nodes=[{"leaf": {"pending_clock": None}}]),
}


@pytest.mark.parametrize("defect", sorted(PARTITION_DEFECTS))
def test_partition_loader_rejects_defect(defect):
    doc = copy.deepcopy(PART_DOC)
    PARTITION_DEFECTS[defect](doc)
    with pytest.raises(ValueError):
        partition_from_dict(doc)


def test_partition_loader_accepts_valid_document():
    clone = partition_from_dict(copy.deepcopy(PART_DOC))
    assert clone.structurally_equal(PART)
    validate_partition(clone)


@pytest.mark.parametrize("field, index, value", [
    ("split_dim", 0, 5),
    ("threshold", 0, 2.0),
    ("clock", 0, 99.0),
    ("clock", -1, 0.5),
    ("right", 0, 1),
])
def test_validate_partition_raises_on_corrupted_arrays(field, index, value):
    arrays = {name: getattr(PART, name).copy() for name in ("split_dim", "threshold", "clock", "right")}
    arrays[field][index] = value
    bad = MondrianPartition(PART.box, PART.lifetime, **arrays)
    with pytest.raises(ValueError):
        validate_partition(bad)


def test_validate_partition_refuses_a_threshold_at_a_leaf():
    # no file holds a leaf's threshold, so the in-memory check refuses one that is not 0
    threshold = PART.threshold.copy()
    threshold[-1] = 0.3  # the last node in preorder is a leaf
    bad = MondrianPartition(PART.box, PART.lifetime, PART.split_dim, threshold, PART.clock,
                            PART.right)
    with pytest.raises(ValueError, match="leaf thresholds"):
        validate_partition(bad)


def leaf_stats_entry(doc, value):
    doc["leaf_stats"][0] = value


MODEL_DEFECTS = {
    "negative-count": lambda d: d["leaf_stats"][0].__setitem__(0, -5),
    "negative-n-seen": set_key("n_seen", -1),
    "n-seen-not-the-count-sum": lambda d: d.update(n_seen=d["n_seen"] + 1),
    "n-seen-as-string": lambda d: d.update(n_seen=str(d["n_seen"])),
    "entry-too-short": lambda d: leaf_stats_entry(d, [1]),
    "entry-sum-as-number": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], 0]),
    "entry-count-as-string": lambda d: leaf_stats_entry(d, [str(d["leaf_stats"][0][0]), "0"]),
    "entry-sum-not-an-integer": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], "1.5"]),
    "entry-as-string": lambda d: leaf_stats_entry(d, "1,0"),
    "sum-beyond-float-range": lambda d: leaf_stats_entry(
        d, [d["leaf_stats"][0][0], str(10**700)]),
    "nonzero-sum-on-empty-leaf": lambda d: (leaf_stats_entry(d, [0, "7"]),
                                            d.update(n_seen=sum(c for c, _ in d["leaf_stats"]))),
    "stats-length-mismatch": lambda d: d["leaf_stats"].pop(),
    "stats-missing": lambda d: d.pop("leaf_stats"),
    "bad-partition": lambda d: first(d["partition"], "split").update(dim=7),
    # int() accepts these, but a written sum is never spelled so
    "sum-with-underscore": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], "1_000"]),
    "sum-with-spaces": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], " 12 "]),
    "sum-with-plus": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], "+5"]),
    "sum-arabic-indic-digit": lambda d: leaf_stats_entry(d, [d["leaf_stats"][0][0], "\u0663"]),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_tree_model_loader_rejects_defect(defect):
    doc = copy.deepcopy(TREE_DOC)
    MODEL_DEFECTS[defect](doc)
    with pytest.raises(ValueError):
        tree_model_from_dict(doc)


def split_index(doc, nth=0):
    """Index, in the ``/2`` node columns, of the ``nth`` split node."""
    return [i for i, dim in enumerate(doc["split_dim"]) if dim >= 0][nth]


def set_leaf(doc, leaf, **columns):
    for key, value in columns.items():
        doc[key][leaf] = value


def nonzero_leaf(doc):
    return next(i for i, shift in enumerate(doc["sum_shift"]) if shift > 0)


def empty_leaf(doc):
    set_leaf(doc, 0, count=0, sum_odd=7, sum_shift=0)
    doc["n_seen"] = sum(doc["count"])


def even_sum(doc):
    # the same value as the written pair, spelled with an even part
    leaf = nonzero_leaf(doc)
    set_leaf(doc, leaf, sum_odd=2 * doc["sum_odd"][leaf], sum_shift=doc["sum_shift"][leaf] - 1)


# a /2 twin of every /1 case above (same id), then cases only /2 can have
MODEL_DEFECTS_V2 = {
    "negative-count": lambda d: set_leaf(d, 0, count=-5),
    "negative-n-seen": set_key("n_seen", -1),
    "n-seen-not-the-count-sum": lambda d: d.update(n_seen=d["n_seen"] + 1),
    "n-seen-as-string": lambda d: d.update(n_seen=str(d["n_seen"])),
    "entry-too-short": lambda d: d["sum_shift"].pop(),
    "entry-sum-as-number": lambda d: set_leaf(d, 0, sum_odd=str(d["sum_odd"][0])),
    "entry-count-as-string": lambda d: set_leaf(d, 0, count=str(d["count"][0])),
    "entry-sum-not-an-integer": lambda d: set_leaf(d, 0, sum_odd=1.5),
    "entry-as-string": set_key("sum_odd", "1,0"),
    "sum-beyond-float-range": lambda d: set_leaf(d, 0, sum_odd=10**700 + 1, sum_shift=0),
    "nonzero-sum-on-empty-leaf": empty_leaf,
    "stats-length-mismatch": lambda d: d["count"].pop(),
    "stats-missing": lambda d: d.pop("count"),
    "bad-partition": lambda d: d["split_dim"].__setitem__(split_index(d), 7),
    "sum-with-underscore": lambda d: set_leaf(d, 0, sum_odd="1_000"),
    "sum-with-spaces": lambda d: set_leaf(d, 0, sum_odd=" 12 "),
    "sum-with-plus": lambda d: set_leaf(d, 0, sum_odd="+5"),
    "sum-arabic-indic-digit": lambda d: set_leaf(d, 0, sum_odd="\u0663"),
    "sum-shift-huge": lambda d: set_leaf(d, 0, sum_odd=1, sum_shift=10**12),
    "sum-shift-negative": lambda d: set_leaf(d, 0, sum_odd=1, sum_shift=-1),
    "sum-shift-as-bool": lambda d: set_leaf(d, 0, sum_odd=1, sum_shift=True),
    "sum-even-part": even_sum,
    "sum-zero-with-a-shift": lambda d: set_leaf(d, 0, sum_odd=0, sum_shift=3),
    "sum-columns-of-two-lengths": lambda d: d["sum_odd"].append(1),
    "threshold-per-node": lambda d: d.update(threshold=[0.5] * len(d["split_dim"])),
    "threshold-missing-one": lambda d: d["threshold"].pop(),
    "threshold-on-boundary": lambda d: d["threshold"].__setitem__(0, 0.0),
    "threshold-as-string": lambda d: d["threshold"].__setitem__(0, "0.5"),
    "clock-extra": lambda d: d["clock"].append(None),
    "clock-as-string": lambda d: d["clock"].__setitem__(0, "1"),
    "split-time-above-lifetime": lambda d: d["clock"].__setitem__(split_index(d), 99.0),
    "pending-clock-below-lifetime": lambda d: d["clock"].__setitem__(
        d["split_dim"].index(-1), 0.1),
    "split-dim-as-bool": lambda d: d["split_dim"].__setitem__(split_index(d), True),
    "split-dim-below-minus-one": lambda d: d["split_dim"].__setitem__(d["split_dim"].index(-1), -2),
    "nodes-truncated": lambda d: [d[key].pop() for key in ("split_dim", "clock")],
    "box-missing": lambda d: d.pop("box"),
    "box-as-list": set_key("box", [0, 1]),
    "lifetime-missing": lambda d: d.pop("lifetime"),
    "lifetime-as-null": set_key("lifetime", None),
    "box-open-zero-width-side": one_leaf_of_empty_box,
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS_V2))
def test_tree_model_v2_loader_rejects_defect(defect):
    doc = copy.deepcopy(TREE_DOC_V2)
    MODEL_DEFECTS_V2[defect](doc)
    with pytest.raises(ValueError):
        tree_model_from_dict(doc)


def test_huge_sum_shift_is_rejected_before_it_is_applied():
    # a shift of 10^12 would build a 125 GB int; the loader refuses it on sight
    doc = copy.deepcopy(TREE_DOC_V2)
    set_leaf(doc, 0, sum_odd=1, sum_shift=10**12)
    with pytest.raises(ValueError, match="shift in"):
        tree_model_from_dict(doc)


def test_every_v1_defect_has_a_v2_twin():
    assert set(MODEL_DEFECTS) <= set(MODEL_DEFECTS_V2)
    assert set(FOREST_DEFECTS) <= set(FOREST_DEFECTS_V2)


@pytest.mark.parametrize("sign", [1, -1])
def test_leaf_sum_beyond_float_range_rounds_to_infinity(sign):
    total = sign * 2 * _MAX_SCALED
    stats = LeafStatistics(2, total)
    assert stats.label_sum == sign * math.inf
    assert stats.mean == sign * sys.float_info.max
    doc = copy.deepcopy(TREE_DOC)
    doc["leaf_stats"][0] = [2, str(total)]
    doc["n_seen"] = sum(c for c, _ in doc["leaf_stats"])
    tree = tree_model_from_dict(doc)
    assert tree.leaf_statistics()[0] == stats
    box = tree.partition.leaves()[0].box
    assert tree.predict((box.lower + box.upper) / 2) == sign * sys.float_info.max


def one_d_tree_doc():
    part = sample_mondrian(BoxRegion.unit(1), 3.0, RngStream(5))
    return model_doc_v1(fit_tree(part, X[:, :1], Y))


def three_d_tree_doc_v2():
    # its splits use axis 2, which a 2-d forest's box does not have
    part = sample_mondrian(BoxRegion.unit(3), 3.0, RngStream(5))
    return json.loads(model_to_json(fit_tree(part, np.column_stack([X, X[:, 0]]), Y)))


def small_forest():
    # a forest with the same box and lifetime, fitted on 5 other rows
    return fit_forest(BoxRegion.unit(2), 2, 3.0, 2, X[:5], Y[:5] + 100.0, master_seed=4)


def small_forest_tree_doc():
    return model_doc_v1(small_forest())["trees"][1]


FOREST_DEFECTS = {
    "trees-missing": lambda d: d.pop("trees"),
    "trees-as-dict": lambda d: d.update(trees={}),
    "no-trees": lambda d: d.update(trees=[]),
    "seed-null": lambda d: d.update(master_seed=None),
    "seed-infinite": lambda d: d.update(master_seed=math.inf),
    "lifetime-as-list": lambda d: d.update(lifetime=[3.0]),
    "seed-fractional": set_key("master_seed", 1.5),
    "seed-bool": set_key("master_seed", True),
    "seed-negative": set_key("master_seed", -3),
    "seed-2-to-the-70": set_key("master_seed", 2**70),
    "seed-path-with-string": set_key("master_seed", [1, "x"]),
    "seed-path-negative": set_key("master_seed", [1, -2]),
    "seed-empty-list": set_key("master_seed", []),
    "lifetime-as-string": set_key("lifetime", "nan"),
    "lifetime-bool": set_key("lifetime", True),
    "lifetime-not-the-trees": set_key("lifetime", 99.0),
    "trees-of-two-dimensions": lambda d: d["trees"].__setitem__(1, one_d_tree_doc()),
    "trees-of-two-boxes": lambda d: d["trees"][1]["partition"]["box"].update(upper=[1.0, 2.0]),
    "trees-of-two-datasets": lambda d: d["trees"].__setitem__(1, small_forest_tree_doc()),
    "tree-of-the-other-schema": lambda d: d["trees"].__setitem__(1, copy.deepcopy(TREE_DOC_V2)),
}


@pytest.mark.parametrize("defect", sorted(FOREST_DEFECTS))
def test_forest_model_loader_rejects_defect(defect):
    doc = copy.deepcopy(FOREST_DOC)
    FOREST_DEFECTS[defect](doc)
    with pytest.raises(ValueError):
        forest_model_from_dict(doc)


# a /2 forest stores its lifetime, box and n_seen once, so the twins of the
# cases about trees that disagree give the one tree or box that does not fit
FOREST_DEFECTS_V2 = {
    **FOREST_DEFECTS,
    "trees-of-two-dimensions": lambda d: d["trees"].__setitem__(1, three_d_tree_doc_v2()),
    "trees-of-two-boxes": lambda d: d["box"].update(upper=[1.0, 0.01]),
    "trees-of-two-datasets": lambda d: d["trees"].__setitem__(
        1, json.loads(model_to_json(small_forest()))["trees"][1]),
    "tree-of-the-other-schema": lambda d: d["trees"].__setitem__(1, copy.deepcopy(TREE_DOC)),
    "n-seen-missing": lambda d: d.pop("n_seen"),
    "box-missing": lambda d: d.pop("box"),
    "tree-as-list": lambda d: d["trees"].__setitem__(0, [1, 2]),
}


@pytest.mark.parametrize("defect", sorted(FOREST_DEFECTS_V2))
def test_forest_model_v2_loader_rejects_defect(defect):
    doc = copy.deepcopy(FOREST_DOC_V2)
    FOREST_DEFECTS_V2[defect](doc)
    with pytest.raises(ValueError):
        forest_model_from_dict(doc)


def test_forest_writer_refuses_trees_that_do_not_share_the_written_fields():
    # a /2 forest writes lifetime, box and n_seen once; trees that differ would load wrong
    mixed = MondrianForestModel([FOREST.trees[0], small_forest().trees[1]], 3.0, 4)
    with pytest.raises(ValueError, match="do not share"):
        model_to_json(mixed)


@pytest.mark.parametrize("key, value", [("master_seed", [4, 0, 7]), ("master_seed", 2**64 - 1),
                                        ("lifetime", 3)],
                         ids=["seed-with-path", "seed-largest", "lifetime-as-int"])
def test_forest_model_loader_accepts_valid_metadata(key, value):
    doc = copy.deepcopy(FOREST_DOC)
    doc[key] = value
    forest = forest_model_from_dict(doc)
    assert json.loads(model_to_json(forest))[key] == value
    assert np.array_equal(forest.predict(X), forest_model_from_dict(FOREST_DOC).predict(X))


LABELS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.0, 4.0),
       st.lists(LABELS, min_size=1, max_size=30))
def test_v1_and_v2_files_load_to_the_same_model(d, seed, n_trees, lifetime, labels):
    y = np.array(labels)
    rng = np.random.default_rng(seed)
    Xd, probe = rng.random((y.size, d)), rng.random((16, d))
    for model in (fit_forest(BoxRegion.unit(d), d, lifetime, n_trees, Xd, y, master_seed=seed),
                  fit_tree(sample_mondrian(BoxRegion.unit(d), lifetime, RngStream(seed)), Xd, y)):
        v1 = model_from_json(json.dumps(model_doc_v1(model), indent=2))
        v2 = model_from_json(model_to_json(model))
        for loaded in (v1, v2):
            assert type(loaded) is type(model)
            for tree, ref in zip(getattr(loaded, "trees", [loaded]), getattr(model, "trees", [model])):
                assert all(np.array_equal(a, b) for a, b in zip(tree.partition._arrays(),
                                                                  ref.partition._arrays()))
                assert tree.partition.box == ref.partition.box
                assert tree.partition.lifetime == ref.partition.lifetime
                assert tree.partition.seed_provenance == ref.partition.seed_provenance
                assert tree._counts.tolist() == ref._counts.tolist()
                assert tree._totals == ref._totals
            assert loaded.predict(probe).tobytes() == model.predict(probe).tobytes()


V1_FILE = Path(__file__).parent / "data" / "forest_model_v1.json"


def test_a_file_from_the_v1_writer_still_predicts_what_it_did():
    # forest_model_v1.json was written by the /1 model writer (2 trees, 9 leaves, labels
    # with a subnormal, -1e300 and an exact zero); these predictions were recorded with it
    text = V1_FILE.read_text(encoding="utf-8")
    forest = model_from_json(text)
    probe = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.05], [0.3, 0.95], [0.0, 1.0]])
    assert [v.hex() for v in forest.predict(probe).tolist()] == [
        "-0x1.1602c05d1c9e6p+991", "-0x1.1602c05d1c9e6p+991", "0x1.a7cb4e2dae1b6p-3",
        "-0x1.c3c478974e816p+993", "-0x1.1602c05d1c9e6p+991"]
    assert text == json.dumps(model_doc_v1(forest), indent=2) + "\n"
    clone = model_from_json(model_to_json(forest))
    assert clone.predict(probe).tobytes() == forest.predict(probe).tobytes()


def test_model_loader_rejects_non_object():
    with pytest.raises(ValueError):
        model_from_json("[1, 2]")


def test_partitions_and_models_pickle():
    forest = forest_model_from_dict(FOREST_DOC)
    clone = pickle.loads(pickle.dumps(forest))
    for tree, copied in zip(forest.trees, clone.trees):
        assert copied.partition.structurally_equal(tree.partition)
    assert np.array_equal(clone.predict(X), forest.predict(X))
    assert pickle.loads(pickle.dumps(PART)).seed_provenance == PART.seed_provenance


# -- the CLI contract ----------------------------------------------------------

def predict_file(tmp_path, capsys, doc, *extra):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run(["predict", "--model", str(path), "--point", "0.3,0.6", *extra])
    return code, capsys.readouterr()


def tree_part(doc, tree=0):
    return doc["trees"][tree]["partition"]


@pytest.mark.parametrize("edit", [
    lambda d: first(tree_part(d, 1), "split").update(dim=7),
    lambda d: tree_part(d).pop("nodes"),
    lambda d: first(tree_part(d), "split").update(time=99),
    lambda d: first(tree_part(d), "leaf").update(pending_clock=0.1),
    lambda d: d["trees"][0]["leaf_stats"][0].__setitem__(0, -5),
    *FOREST_DEFECTS.values(),
], ids=["split-dim-7", "nodes-deleted", "split-time-99", "pending-clock-0.1", "count-minus-5",
        *FOREST_DEFECTS])
def test_predict_on_edited_model_exits_two_with_one_line(tmp_path, capsys, edit):
    doc = copy.deepcopy(FOREST_DOC)
    edit(doc)
    code, captured = predict_file(tmp_path, capsys, doc)
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("mondrian-forest predict: error:")


DEFECT_CASES = [(name, doc, defects, key)
                for name, doc, defects in [("tree-v1", TREE_DOC, MODEL_DEFECTS),
                                           ("tree-v2", TREE_DOC_V2, MODEL_DEFECTS_V2),
                                           ("forest-v2", FOREST_DOC_V2, FOREST_DEFECTS_V2)]
                for key in sorted(defects)]


@pytest.mark.parametrize("doc, defects, key", [case[1:] for case in DEFECT_CASES],
                         ids=[f"{name}-{key}" for name, _, _, key in DEFECT_CASES])
def test_predict_on_defective_model_exits_two_with_one_line(tmp_path, capsys, doc, defects, key):
    doc = copy.deepcopy(doc)
    defects[key](doc)
    code, captured = predict_file(tmp_path, capsys, doc)
    assert_one_line_exit_two(code, captured, "predict", "")


def nested_text(doc, key, depth):
    """``doc`` as JSON text with ``key`` set to an array nested ``depth`` deep."""
    return json.dumps(dict(doc, **{key: "@"})).replace('"@"', "[" * depth + "]" * depth)


def overflowing_box(doc):
    for tree in doc["trees"]:
        tree["partition"]["box"].update(lower=[-1e308, 0.0], upper=[1e308, 1.0])


def assert_one_line_exit_two(code, captured, command, message):
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"mondrian-forest {command}: error:")
    assert message in captured.err


def test_model_whose_box_sides_overflow_exits_two_with_one_line(tmp_path, capsys):
    doc = copy.deepcopy(FOREST_DOC)
    overflowing_box(doc)
    code, captured = predict_file(tmp_path, capsys, doc)
    assert_one_line_exit_two(code, captured, "predict", "sum to a finite value")


def test_model_whose_box_is_empty_exits_two_with_one_line(tmp_path, capsys):
    # such a box used to load, and then no point could be routed through the tree
    doc = copy.deepcopy(TREE_DOC_V2)
    one_leaf_of_empty_box(doc)
    code, captured = predict_file(tmp_path, capsys, doc)
    assert_one_line_exit_two(code, captured, "predict", "box is empty on axis 0")


def test_sub_box_whose_sides_overflow_exits_two_with_one_line(capsys):
    code = run(["verify-restriction", "--lifetime", "1", "--sub-lower=-1e308,0",
                "--sub-upper", "1e308,1", "--samples", "10"])
    assert_one_line_exit_two(code, capsys.readouterr(), "verify-restriction",
                             "sum to a finite value")


def test_deeply_nested_model_file_exits_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(nested_text(FOREST_DOC, "trees", 5000))
    code = run(["predict", "--model", str(path), "--point", "0.5,0.5"])
    assert_one_line_exit_two(code, capsys.readouterr(), "predict", "nested too deeply")


def test_deeply_nested_config_value_exits_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(nested_text({}, "d", 5000))
    code = run(["sample", "--lifetime", "0", "--config", str(path)])
    assert_one_line_exit_two(code, capsys.readouterr(), "sample", "nested too deeply")


def test_split_budget_exhaustion_exits_two_with_one_line(capsys):
    code = run(["sample", "--d", "1", "--lifetime", "100", "--max-splits", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "split budget of 10" in captured.err


def test_unsplittable_cell_side_exits_two_with_one_line(capsys, monkeypatch):
    # the CLI samples the unit cube, where the split budget stops growth long before a
    # cell side is one float wide, so a box of such a side stands in for it here
    thin = BoxRegion([1.0], [math.nextafter(1.0, 2.0)])
    monkeypatch.setattr(BoxRegion, "unit", classmethod(lambda cls, dim: thin))
    code = run(["sample", "--d", "1", "--lifetime", "1e18"])
    assert_one_line_exit_two(code, capsys.readouterr(), "sample",
                             "no float lies strictly inside it")


def _no_sampling(*args, **kwargs):
    raise AssertionError("a partition was drawn before the inputs were checked")


@pytest.mark.parametrize("argv, message", [
    (["verify-diameter", "--d", "2", "--lifetime", "1", "--x", "0.5"], "x must have shape (2,)"),
    (["verify-diameter", "--d", "2", "--lifetime", "1", "--x", "0.5,1.5"],
     "x must lie in the unit cube"),
    (["verify-diameter", "--d", "2", "--lifetime", "1", "--x", "0.5,nan"],
     "x must lie in the unit cube"),
    (["verify-diameter", "--d", "2", "--lifetime", "1", "--x", "0.5,0.5", "--threads", "2",
      "--samples", "1"], "samples must be >= 2"),
    (["verify-diameter", "--d", "2", "--lifetime", "nan", "--x", "0.5,0.5"],
     "lifetime must be finite and > 0, got nan"),
    (["verify-diameter", "--d", "2", "--lifetime", "inf", "--x", "0.5,0.5"],
     "lifetime must be finite and > 0, got inf"),
    (["verify-restriction", "--d", "2", "--lifetime", "1", "--sub-lower=0", "--sub-upper", "0.5"],
     "sub has dimension 1, the unit cube has 2"),
], ids=["diameter-x-too-short", "diameter-x-outside", "diameter-x-nan", "diameter-samples-1",
        "diameter-lifetime-nan", "diameter-lifetime-inf", "restriction-sub-dimension"])
def test_verifier_checks_its_inputs_before_drawing(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(harness, "sample_mondrian", _no_sampling)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _no_sampling)
    assert_one_line_exit_two(run(argv), capsys.readouterr(), argv[0], message)


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.11 PiB for an array"), "out of memory: Unable to allocate"),
    (MemoryError(), "out of memory: allocation failed"),
], ids=["numpy-message", "bare"])
def test_failed_allocation_exits_two_with_one_line(capsys, monkeypatch, error, message):
    # stands in for numpy's _ArrayMemoryError on a sample size too large to allocate
    def out_of_memory(self, n, rng):
        raise error

    monkeypatch.setattr(SyntheticTask, "sample_data", out_of_memory)
    code = run(["risk", "--n", "1000000000000000", "--lifetime", "1", "--replicates", "2"])
    assert_one_line_exit_two(code, capsys.readouterr(), "risk", message)


def test_risk_checks_its_tree_count_before_drawing(capsys, monkeypatch):
    # the one tree-count rule of the sweeps, applied before data is drawn or a pool starts
    monkeypatch.setattr(SyntheticTask, "sample_data", _no_sampling)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _no_sampling)
    code = run(["risk", "--n", "100", "--lifetime", "1", "--trees", "0", "--threads", "2"])
    assert_one_line_exit_two(code, capsys.readouterr(), "risk", "tree count must be >= 1")


@pytest.mark.parametrize("lifetime, value", [
    (["--lifetime", "nan"], "nan"),
    (["--lifetime", "-1"], "-1.0"),
    (["--schedule", "fixed", "--scale", "inf"], "inf"),
], ids=["lifetime-nan", "lifetime-negative", "fixed-scale-inf"])
def test_risk_checks_its_lifetime_before_drawing(capsys, monkeypatch, lifetime, value):
    # --lifetime X is the schedule "fixed" at scale X, checked by the sweeps' one row rule
    monkeypatch.setattr(SyntheticTask, "sample_data", _no_sampling)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _no_sampling)
    code = run(["risk", "--n", "100", *lifetime, "--threads", "2"])
    assert_one_line_exit_two(code, capsys.readouterr(), "risk",
                             f"lifetime must be finite and >= 0, got {value} ")


def test_predict_checks_its_flags_before_reading_the_model(tmp_path, capsys, monkeypatch):
    def no_loading(text):
        raise AssertionError("the model was read before the flags were checked")

    monkeypatch.setattr(cli, "model_from_json", no_loading)
    model = tmp_path / "model.json"
    model.write_text(model_to_json(FOREST), encoding="utf-8")
    code = run(["predict", "--model", str(model)])
    assert_one_line_exit_two(code, capsys.readouterr(), "predict",
                             "provide exactly one of --data or --point")


@pytest.mark.parametrize("argv, message", [
    (["sample", "--lifetime", "1", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
    (["verify-restriction", "--lifetime", "1", "--sub-lower", "-0.5,0", "--sub-upper", "0.5,0.5"],
     "argument --sub-lower: expected one argument"),
], ids=["unknown-flag", "list-value-starting-with-a-dash"])
def test_argparse_error_exits_two_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert_one_line_exit_two(exc.value.code, capsys.readouterr(), argv[0], message)


@pytest.mark.parametrize("argv", [
    ["verify-leaf-count", "--lifetime", "1", "--samples", "0"],
    ["verify-leaf-count", "--lifetime", "1", "--samples", "-3"],
    ["verify-restriction", "--lifetime", "1", "--sub-lower", "0.1,0.1",
     "--sub-upper", "0.5,0.5", "--samples", "1"],
    ["verify-diameter", "--lifetime", "1", "--x", "0.5,0.5", "--samples", "1"],
    ["verify-cell-dist", "--lifetime", "1", "--x", "0.5,0.5", "--samples", "0"],
    ["risk", "--n", "20", "--lifetime", "1", "--threads", "0"],
    ["classify-sweep", "--n-grid", "16,32", "--replicates", "1"],
    ["classify-sweep", "--d", "2", "--n-grid", "16,32", "--n-test", "0"],
    ["sample", "--d", "1", "--lifetime", "inf", "--max-splits", "0"],
    ["sample", "--d", "1", "--lifetime", "nan", "--max-splits", "0"],
    ["risk", "--n", "0", "--lifetime", "1"],
    ["tree-vs-forest", "--lambda-grid", "1,2", "--curved-n", "0"],
    ["fit", "--data", "absent.csv", "--lifetime", "1", "--format", "csv"],
    ["risk", "--n", "20", "--lifetime", "1", "--schedule", "lipschitz"],
    ["verify-leaf-count", "--lifetime", "1", "--threads", "-5"],
    ["fit", "--data", "absent.csv", "--lifetime", "1", "--threads", "0"],
    ["predict", "--model", "absent.json", "--point", "0.5,0.5", "--threads", "0"],
    ["rate-sweep", "--task", "lipschitz_1d", "--n-grid", "64,64,64", "--replicates", "2",
     "--n-test", "16", "--trees", "1"],
    ["verify-diameter", "--d", "2", "--lifetime", "1", "--x", "0.5,0.5", "--delta-grid", "nan"],
    ["risk", "--n", "16", "--lifetime", "1", "--sigma", "nan"],
    ["rate-sweep", "--task", "lipschitz_1d", "--n-grid", "32,64,128", "--replicates", "2",
     "--n-test", "16", "--trees", "1", "--slope-tolerance", "nan"],
    ["classify-sweep", "--n-grid", "16,16", "--replicates", "2", "--trees", "1"],
    ["tree-vs-forest", "--lambda-grid", "1,2", "--sigma2", "-1"],
    ["sample", "--d", "2", "--lifetime", "0", "--max-splits", "-1"],
], ids=["leaf-count-samples-0", "leaf-count-samples-minus-3", "restriction-samples-1",
        "diameter-samples-1", "cell-dist-samples-0", "risk-threads-0",
        "classify-replicates-1", "classify-n-test-0", "sample-lifetime-inf",
        "sample-lifetime-nan", "risk-n-0", "tree-vs-forest-curved-n-0",
        "fit-format-csv", "risk-lifetime-and-schedule", "leaf-count-threads-minus-5",
        "fit-threads-0", "predict-threads-0", "rate-sweep-repeated-sizes",
        "diameter-delta-nan", "risk-sigma-nan", "rate-sweep-tolerance-nan",
        "classify-repeated-sizes", "tree-vs-forest-sigma2-minus-1",
        "sample-max-splits-minus-1"])
def test_bad_argument_exits_two_with_one_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"mondrian-forest {argv[0]}: error:")


@pytest.mark.parametrize("config, message", [
    ({"d": None}, "--d expects a value, got null"),
    ({"d": 2.7}, "--d expects int, got 2.7"),
    ({"d": True}, "--d expects int, got True"),
    ({"lifetime": False}, "--lifetime expects float, got False"),
    ({"lifetime": 10**400}, "--lifetime is out of the float range"),
    ({"threads": None}, "--threads expects a value, got null"),
], ids=["d-null", "d-float", "d-bool", "lifetime-bool", "lifetime-huge-int",
         "threads-null"])
def test_bad_config_value_exits_two_with_one_line(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run(["sample", "--lifetime", "0", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("mondrian-forest sample: error:")
    assert message in captured.err


@pytest.mark.parametrize("argv, config, env, message", [
    (["verify-leaf-count", "--lifetime", "1", "--samples", "abc"], None, None,
     "--samples got 'abc'"),
    (["verify-leaf-count", "--lifetime", "1"], "samples=abc\n", None, "--samples got 'abc'"),
    (["verify-leaf-count", "--lifetime", "1"], '{"samples": "abc"}', None, "--samples got 'abc'"),
    (["sample", "--lifetime", "x"], None, None, "--lifetime got 'x'"),
    (["rate-sweep", "--n-grid", "8,16,x"], None, None, "--n-grid got '8,16,x'"),
    (["risk", "--n", "16", "--lifetime", "1", "--trees", "x"], None, None, "--trees got 'x'"),
    (["risk", "--n", "16", "--lifetime", "1"], '{"trees": 2.5}', None, "--trees got 2.5"),
    (["sample", "--lifetime", "0"], None, "abc", "MF_SEED must be an integer, got 'abc'"),
    (["sample", "--lifetime", "0"], None, " ", "MF_SEED must be an integer, got ' '"),
    (["sample", "--lifetime", "0", "--seed", "-1"], None, None,
     "--seed must be a 64-bit unsigned integer, got -1"),
    (["sample", "--lifetime", "0", "--seed", str(2**64)], None, None,
     f"--seed must be a 64-bit unsigned integer, got {2**64}"),
    (["sample", "--lifetime", "0"], "seed=-1\n", None,
     "--seed must be a 64-bit unsigned integer, got -1"),
    (["sample", "--lifetime", "0"], None, "-1", "MF_SEED must be a 64-bit unsigned integer, got -1"),
    (["predict", "--model", "absent.json", "--point", "0.5"], "classify=maybe\n", None,
     "--classify expects a boolean, got 'maybe'"),
    (["rate-sweep", "--n-grid", ","], None, None,
     "--n-grid got ',': expected a comma-separated list of integers"),
    (["verify-cell-dist", "--lifetime", "1", "--x", ","], None, None,
     "--x got ',': expected a comma-separated list of numbers"),
    (["sample", "--lifetime", "0", "--format", "xml"], None, None, "unknown format 'xml'"),
    (["sample", "--lifetime", "0"], "d 2\n", None, "line 1: expected key=value"),
], ids=["flag-samples", "config-line-samples", "config-json-samples", "flag-lifetime",
        "flag-n-grid", "flag-trees", "config-json-trees-float", "mf-seed-word", "mf-seed-blank",
        "flag-seed-negative", "flag-seed-2-to-the-64", "config-line-seed-negative",
        "mf-seed-negative", "config-line-classify-maybe", "flag-n-grid-empty", "flag-x-empty",
        "flag-format-xml", "config-line-without-equals"])
def test_a_value_that_fails_conversion_names_its_option(tmp_path, capsys, monkeypatch,
                                                        argv, config, env, message):
    # the conversion's own message names only the bad token, so the option is named before it
    if config is not None:
        path = tmp_path / "cfg.txt"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    if env is None:
        monkeypatch.delenv("MF_SEED", raising=False)
    else:
        monkeypatch.setenv("MF_SEED", env)
    assert_one_line_exit_two(run(argv), capsys.readouterr(), argv[0], message)


def test_verify_cell_dist_refuses_a_nan_point_with_one_line(capsys):
    code = run(["verify-cell-dist", "--lifetime", "1", "--x", "0.5,nan", "--samples", "10"])
    assert_one_line_exit_two(code, capsys.readouterr(), "verify-cell-dist",
                             "x must be strictly interior to the unit cube")


@pytest.mark.parametrize("text", ['{"d": 2, "d": 3}', '{"max-splits": 5, "max_splits": 100000}',
                                  "max-splits=5\nmax_splits=100000\n"],
                         ids=["json-repeated-key", "json-dash-and-underscore",
                              "lines-dash-and-underscore"])
def test_duplicate_config_key_exits_two_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text, encoding="utf-8")
    code = run(["sample", "--lifetime", "0", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("mondrian-forest sample: error: duplicate config key")


def test_integral_json_float_is_accepted_for_an_int_option(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d": 3.0}), encoding="utf-8")
    assert run(["sample", "--lifetime", "0", "--config", str(path)]) == 0
    assert partition_from_dict(json.loads(capsys.readouterr().out)).dim == 3


@pytest.mark.parametrize("argv, message", [
    (["fit", "--data", "absent.csv", "--lifetime", "1", "--format", "csv"], "fit emits JSON only"),
    (["fit", "--data", "absent.csv", "--lifetime", "1", "--threads", "0"], "--threads must be >= 1"),
    (["predict", "--model", "absent.json", "--point", "0.5", "--threads", "0"],
     "--threads must be >= 1"),
], ids=["fit-format-csv", "fit-threads-0", "predict-threads-0"])
def test_option_errors_are_reported_before_any_file_is_read(capsys, argv, message):
    assert run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("", "line 1"), ("x1,y\n0.5\n", "line 2"), ("x1,y\n", "no data rows"),
    ("x1,y\n0.5,1\nabc,1\n", "line 3"), ("x1,y\n1_0,1\n", "line 2"),
    ("x1,y\n0.5,1\n\nabc,1\n", "line 4: could not convert string to float: 'abc'"),
    ("x1,y\n0.5\nabc,1\n", "line 2: expected 2 values, got 1"),
    ("x1,y\nabc,1\n0.5\n", "line 2: could not convert string to float: 'abc'"),
    ("x1,y\n0.5,1_0\n", "line 2: could not convert string to float: '1_0'"),
    ("x1,y\n0.5,1\n0.5,1,2\n", "line 3: expected 2 values, got 3"),
    ("x1,y\n0.5,1\n\n" + "1" * 140_000 + ",1\n",
     "line 4: field larger than field limit (131072)"),
    ("x" + "1" * 140_000 + ",y\n0.5,1\n", "line 1: field larger than field limit (131072)"),
], ids=["empty-file", "short-row", "header-only", "not-a-number", "underscore",
        "blank-line-counted", "short-row-first", "not-a-number-first", "underscore-in-y",
        "long-row", "field-over-csv-limit", "header-field-over-csv-limit"])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_bad_data_csv_exits_two_with_one_line(tmp_path, capsys, command, text, line):
    data = tmp_path / "data.csv"
    data.write_text(text)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(FOREST_DOC))
    args = ["--lifetime", "1"] if command == "fit" else ["--model", str(model)]
    code = run([command, "--data", str(data), *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert line in captured.err


def test_fit_on_a_data_file_without_y_exits_two_with_one_line(tmp_path, capsys):
    # predict takes such a file, so this case stands outside the table above
    data = tmp_path / "data.csv"
    data.write_text("x1,x2\n0.5,0.5\n")
    code = run(["fit", "--data", str(data), "--lifetime", "1"])
    assert_one_line_exit_two(code, capsys.readouterr(), "fit", "fit needs a y column")


def test_fit_names_the_file_row_outside_the_box_in_one_dimension(tmp_path, capsys):
    # rows are sorted by x before a 1-d forest routes them; the message keeps the file's order
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0.7,1\n1.5,2\n0.2,3\n0.9,4\n")
    code = run(["fit", "--data", str(data), "--lifetime", "2", "--trees", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.rstrip().endswith("points outside the root box at indices [1]")


@pytest.mark.parametrize("header", ["x2,x1", "xa,zz,xb", "x1,x1", "x1,x3"])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_data_csv_columns_bind_by_name(tmp_path, capsys, command, header):
    data = tmp_path / "data.csv"
    width = header.count(",") + 2
    data.write_text(f"{header},y\n" + ",".join(["0.5"] * width) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(FOREST_DOC))
    args = ["--lifetime", "1"] if command == "fit" else ["--model", str(model)]
    code = run([command, "--data", str(data), *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"line 1: header '{header},y'" in captured.err


def test_data_csv_y_column_may_stand_between_x_columns(tmp_path, capsys):
    rows = np.column_stack([X, Y]).tolist()
    ordered, mixed = tmp_path / "ordered.csv", tmp_path / "mixed.csv"
    ordered.write_text("x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
    mixed.write_text("x1,y,x2\n" + "".join(f"{a!r},{c!r},{b!r}\n" for a, b, c in rows))
    outputs = []
    for data in (ordered, mixed):
        model = tmp_path / f"{data.stem}.json"
        assert run(["fit", "--data", str(data), "--lifetime", "3", "--trees", "2",
                    "--output", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
        outputs.append((model.read_text(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", [
    "x1,x2\r\n0.25,0.5\r\n0.75,0.125\r\n",
    'x1,x2\n"0.25",0.5\n0.75,"0.125"\n',
    "x1,x2\n 0.25 ,0.5\n0.75,  0.125\n",
    "x1,x2\n\uff10.\uff12\uff15,0.5\n0.75,0.125\n",
], ids=["crlf", "quoted", "padded", "full-width-digits"])
def test_data_csv_reads_what_float_reads(tmp_path, capsys, text):
    # csv.reader takes the quoting and line endings, float() the number grammar
    model = tmp_path / "model.json"
    model.write_text(json.dumps(FOREST_DOC))
    plain, form = tmp_path / "plain.csv", tmp_path / "form.csv"
    plain.write_bytes(b"x1,x2\n0.25,0.5\n0.75,0.125\n")
    form.write_bytes(text.encode("utf-8"))
    outputs = []
    for data in (plain, form):
        assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(set(json.loads(outputs[0])["predictions"])) == 2


def read_rows_one_by_one(path):
    """A data CSV with header x1,y read row by row: the reference for the one-pass reader."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path} line {reader.line_num}: expected {len(header)} "
                                 f"values, got {len(row)}")
            try:
                if "_" in "".join(row):
                    bad = next(v for v in row if "_" in v)
                    raise ValueError(f"could not convert string to float: {bad!r}")
                rows.append(list(map(float, row)))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    data = np.array(rows, dtype=np.float64)
    return data[:, :1], data[:, 1]


CSV_CELLS = ["0.5", "-1e-300", " 2 ", "nan", "\uff10.\uff15", '"3"', '"4\n5"', "", "abc", "1_0"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from(CSV_CELLS), max_size=3), max_size=6),
       st.sampled_from(["\n", "\r\n"]))
def test_one_pass_reader_matches_the_row_by_row_reader(rows, newline):
    # the same arrays, or the same refusal naming the same line and value
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(newline.join(["x1,y", *map(",".join, rows)]) + newline)
        outcomes = []
        for read in (lambda: cli._read_csv_matrix(path)[:2], lambda: read_rows_one_by_one(path)):
            try:
                outcomes.append(tuple(a.tobytes() for a in read()))
            except ValueError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_predict_classify_on_tree_model_uses_the_forest_rule(tmp_path, capsys):
    points = [[0.1, 0.1], [0.3, 0.6], [0.9, 0.2], [0.7, 0.95]]
    data = tmp_path / "query.csv"
    data.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE_DOC))
    code = run(["predict", "--model", str(path), "--data", str(data), "--classify"])
    captured = capsys.readouterr()
    assert code == 0
    tree = tree_model_from_dict(TREE_DOC)
    forest = MondrianForestModel([tree], PART.lifetime, 0)
    labels = json.loads(captured.out)["predictions"]
    assert labels == predict_class(forest, np.array(points)).tolist()
    assert labels == (tree.predict(np.array(points)) >= 0.5).astype(int).tolist()
    assert predict_class(tree, np.array(points[1])) == labels[1]


# -- fuzzing ------------------------------------------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 9), st.floats(),
    st.floats(-1.0, 4.0), st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
    st.just({}), st.just(str(10**400)),
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value, reached by a random path, replaced or deleted."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(1, 9))):
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JUNK)
    return doc


FUZZ = settings(max_examples=250, deadline=None, derandomize=True, database=None)


@FUZZ
@given(mutated(PART_DOC))
def test_mutated_partition_loads_valid_or_raises_value_error(doc):
    try:
        part = partition_from_dict(doc)
    except ValueError:
        return
    validate_partition(part)


@FUZZ
@given(st.one_of(mutated(TREE_DOC), mutated(FOREST_DOC), mutated(TREE_DOC_V2),
                 mutated(FOREST_DOC_V2)))
def test_mutated_model_loads_valid_and_predict_exits_zero_or_two(doc):
    text = json.dumps(doc)
    try:
        model = model_from_json(text)
    except ValueError:
        pass
    else:
        for tree in getattr(model, "trees", [model]):
            validate_partition(tree.partition)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for extra in ([], ["--classify"]):
            code = run(["predict", "--model", path, "--point", "0.3,0.6",
                        "--output", os.path.join(tmp, "out.json"), *extra])
            assert code in (0, 2)


NESTED_VALUES = [(PART_DOC, "nodes", partition_from_json), (PART_DOC, "box", partition_from_json),
                 (TREE_DOC, "leaf_stats", model_from_json), (FOREST_DOC, "trees", model_from_json),
                 (FOREST_DOC, "master_seed", model_from_json), (TREE_DOC_V2, "count", model_from_json),
                 (TREE_DOC_V2, "box", model_from_json), (FOREST_DOC_V2, "trees", model_from_json),
                 (FOREST_DOC_V2, "box", model_from_json)]


@FUZZ
@given(st.integers(1, 10_000), st.sampled_from(range(len(NESTED_VALUES))))
def test_nested_value_raises_value_error_at_any_depth(depth, case):
    # below the recursion limit the value is ill-typed; past it the decoder
    # gives up, and either way the loader raises ValueError
    doc, key, load = NESTED_VALUES[case]
    with pytest.raises(ValueError):
        load(nested_text(doc, key, depth))
