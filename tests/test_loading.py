"""Partition and model files are validated on load; bad ones exit 2."""

import copy
import json
import math
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrianforest import (
    BoxRegion,
    MondrianForestModel,
    RngStream,
    fit_forest,
    fit_tree,
    model_from_json,
    model_to_json,
    partition_from_dict,
    partition_to_dict,
    predict_class,
    sample_mondrian,
)
from mondrianforest.cli import run
from mondrianforest.estimators import forest_model_from_dict, tree_model_from_dict
from mondrianforest.partition import MondrianPartition, validate_partition

PART = sample_mondrian(BoxRegion.unit(2), 3.0, RngStream(11))
PART_DOC = partition_to_dict(PART)
X = np.random.default_rng(0).random((40, 2))
Y = X[:, 0] + 0.5 * X[:, 1]
TREE_DOC = json.loads(model_to_json(fit_tree(PART, X, Y)))
FOREST_DOC = json.loads(model_to_json(fit_forest(BoxRegion.unit(2), 2, 3.0, 2, X, Y, master_seed=4)))


def first(doc, kind):
    """The first node record of ``kind`` ("split" or "leaf")."""
    return next(rec[kind] for rec in doc["nodes"] if kind in rec)


def second_split(doc):
    return [rec["split"] for rec in doc["nodes"] if "split" in rec][1]


def set_key(key, value):
    def edit(doc):
        doc[key] = value
    return edit


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
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_tree_model_loader_rejects_defect(defect):
    doc = copy.deepcopy(TREE_DOC)
    MODEL_DEFECTS[defect](doc)
    with pytest.raises(ValueError):
        tree_model_from_dict(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("trees"),
    lambda d: d.update(trees={}),
    lambda d: d.update(trees=[]),
    lambda d: d.update(master_seed=None),
    lambda d: d.update(master_seed=math.inf),
    lambda d: d.update(lifetime=[3.0]),
], ids=["trees-missing", "trees-as-dict", "no-trees", "seed-null", "seed-infinite",
        "lifetime-as-list"])
def test_forest_model_loader_rejects_defect(edit):
    doc = copy.deepcopy(FOREST_DOC)
    edit(doc)
    with pytest.raises(ValueError):
        forest_model_from_dict(doc)


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
], ids=["split-dim-7", "nodes-deleted", "split-time-99", "pending-clock-0.1", "count-minus-5"])
def test_predict_on_edited_model_exits_two_with_one_line(tmp_path, capsys, edit):
    doc = copy.deepcopy(FOREST_DOC)
    edit(doc)
    code, captured = predict_file(tmp_path, capsys, doc)
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("mondrian-forest predict: error:")


def test_split_budget_exhaustion_exits_two_with_one_line(capsys):
    code = run(["sample", "--d", "1", "--lifetime", "100", "--max-splits", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "split budget of 10" in captured.err


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
], ids=["leaf-count-samples-0", "leaf-count-samples-minus-3", "restriction-samples-1",
        "diameter-samples-1", "cell-dist-samples-0", "risk-threads-0",
        "classify-replicates-1", "classify-n-test-0", "sample-lifetime-inf",
        "sample-lifetime-nan", "risk-n-0", "tree-vs-forest-curved-n-0"])
def test_bad_argument_exits_two_with_one_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"mondrian-forest {argv[0]}: error:")


@pytest.mark.parametrize("text, line", [("", "line 1"), ("x1,y\n0.5\n", "line 2"),
                                        ("x1,y\n", "no data rows")],
                         ids=["empty-file", "short-row", "header-only"])
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
@given(st.one_of(mutated(TREE_DOC), mutated(FOREST_DOC)))
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
