"""Partition and model files are validated on load; bad ones exit 2."""

import copy
import json
import math
import os
import pickle
import sys
import tempfile

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
from mondrianforest import harness
from mondrianforest.cli import run
from mondrianforest.estimators import (
    _MAX_SCALED,
    LeafStatistics,
    forest_model_from_dict,
    tree_model_from_dict,
)
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
    "box-sides-overflow": lambda d: d["box"].update(lower=[-1e308, 0.0], upper=[1e308, 1.0]),
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
    return json.loads(model_to_json(fit_tree(part, X[:, :1], Y)))


def small_forest_tree_doc():
    # tree 1 of a forest with the same box and lifetime, fitted on 5 other rows
    small = fit_forest(BoxRegion.unit(2), 2, 3.0, 2, X[:5], Y[:5] + 100.0, master_seed=4)
    return json.loads(model_to_json(small))["trees"][1]


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
}


@pytest.mark.parametrize("defect", sorted(FOREST_DEFECTS))
def test_forest_model_loader_rejects_defect(defect):
    doc = copy.deepcopy(FOREST_DOC)
    FOREST_DEFECTS[defect](doc)
    with pytest.raises(ValueError):
        forest_model_from_dict(doc)


@pytest.mark.parametrize("key, value", [("master_seed", [4, 0, 7]), ("master_seed", 2**64 - 1),
                                        ("lifetime", 3)],
                         ids=["seed-with-path", "seed-largest", "lifetime-as-int"])
def test_forest_model_loader_accepts_valid_metadata(key, value):
    doc = copy.deepcopy(FOREST_DOC)
    doc[key] = value
    forest = forest_model_from_dict(doc)
    assert json.loads(model_to_json(forest))[key] == value
    assert np.array_equal(forest.predict(X), forest_model_from_dict(FOREST_DOC).predict(X))


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
], ids=["diameter-x-too-short", "diameter-x-outside", "diameter-x-nan", "diameter-samples-1"])
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


NESTED_VALUES = [(PART_DOC, "nodes", partition_from_json), (PART_DOC, "box", partition_from_json),
                 (TREE_DOC, "leaf_stats", model_from_json), (FOREST_DOC, "trees", model_from_json),
                 (FOREST_DOC, "master_seed", model_from_json)]


@FUZZ
@given(st.integers(1, 10_000), st.sampled_from(range(len(NESTED_VALUES))))
def test_nested_value_raises_value_error_at_any_depth(depth, case):
    # below the recursion limit the value is ill-typed; past it the decoder
    # gives up, and either way the loader raises ValueError
    doc, key, load = NESTED_VALUES[case]
    with pytest.raises(ValueError):
        load(nested_text(doc, key, depth))
