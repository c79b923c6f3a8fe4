"""Source-level rules for the package itself."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mondrianforest
from mondrianforest import cli, estimators, harness, oracles, partition, rng

SOURCES = sorted(Path(mondrianforest.__file__).parent.glob("*.py"))


def test_the_package_republishes_each_modules_public_names():
    # each module's __all__ is its one list of public names; __init__.py joins them
    # rather than restating them, so a public addition is one edit
    modules = (rng, partition, estimators, oracles, harness)
    joined = [name for module in modules for name in module.__all__]
    assert mondrianforest.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert [name for module in modules for name in module.__all__
            if getattr(mondrianforest, name) is not getattr(module, name)] == []
    init = ast.parse(Path(mondrianforest.__file__).read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(init)
             if isinstance(node, (ast.List, ast.Tuple, ast.Set)) and node.elts
             and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)]
    assert found == []


def test_no_assert_statements_in_the_package():
    # invariants are checked with exceptions: `python -O` strips assert
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _draw_path_uses(tree):
    """Lines that build a numpy Generator or bit generator, or touch ``_gen``."""
    builders = {"Philox", "Generator", "default_rng"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in builders:
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "_gen":
            yield node.lineno


def test_rng_module_owns_the_only_draw_path():
    # a second Generator, or a reach into RngStream._gen, would draw around the
    # block buffer and break the scalar draw sequence and its count
    found = [f"{path.name}:{line}"
             for path in SOURCES if path.name != "rng.py"
             for line in _draw_path_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    rng_source = Path(mondrianforest.__file__).parent / "rng.py"
    assert list(_draw_path_uses(ast.parse(rng_source.read_text(encoding="utf-8"))))


def _scoped(tree, scope=""):
    """Every node below ``tree`` with the qualified name of the scope that encloses it."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        yield from _scoped(node, inner)


def _calls(tree, name):
    """The enclosing qualified name of every call to ``name`` in ``tree``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield scope


def test_draw_rules_live_only_in_the_stream():
    # RngStream.exponential and RngStream.categorical hold the one copy of each draw
    # rule; _grow takes them as bound methods, so a faster sampler cannot inline a
    # second copy that would have to stay bit-identical with the first
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "log1p" in (getattr(node, "attr", None), getattr(node, "id", None),
                            getattr(node, "name", None))]
    assert [where for where in found if not where.startswith("rng.py:")] == []
    assert _scopes_calling("log1p") == [("rng.py", "RngStream.exponential")]
    tree = ast.parse(Path(partition.__file__).read_text(encoding="utf-8"))
    grow = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_grow")
    read = {node.attr for node in ast.walk(grow) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "rng"}
    assert read == {"exponential", "categorical", "uniform"}

def test_partition_node_views_have_one_constructor():
    # MondrianPartition._node is the one derivation of a view's cell and birth
    # time; a second PartitionNode(...) call would bring back a second one
    found = [(path.name, scope)
             for path in SOURCES
             for scope in _calls(ast.parse(path.read_text(encoding="utf-8")), "PartitionNode")]
    assert found == [("partition.py", "MondrianPartition._node")]


def test_verdicts_have_one_constructor():
    # harness._verdict is the one pass/fail decision; a second Verdict(...)
    # call would bring back a PASS/FAIL worked out apart from its statistic
    found = [(path.name, scope)
             for path in SOURCES
             for scope in _calls(ast.parse(path.read_text(encoding="utf-8")), "Verdict")]
    assert found == [("harness.py", "_verdict")]


def test_cli_run_is_the_only_writer_of_output():
    # handlers return their artifact; cli.run alone writes it and turns a
    # report's verdicts into the exit code
    found = [(path.name, scope)
             for path in SOURCES
             for scope in _calls(ast.parse(path.read_text(encoding="utf-8")), "_write_output")]
    assert found == [("cli.py", "run")]


def _scopes_calling(name):
    return sorted({(path.name, scope)
                   for path in SOURCES
                   for scope in _calls(ast.parse(path.read_text(encoding="utf-8")), name)})


def test_tree_predict_is_the_one_path_from_rows_to_leaf_means():
    # rows reach leaves in _accumulate (fitting) and MondrianTreeModel.predict
    # alone; a forest averages its trees' predictions rather than routing rows
    # itself, and no leaf-mean cache sits beside the exact sums
    assert _scopes_calling("leaf_indices") == [
        ("estimators.py", "MondrianTreeModel.predict"), ("estimators.py", "_accumulate")]
    assert _scopes_calling("_leaf_mean") == [
        ("estimators.py", "LeafStatistics.label_sum"), ("estimators.py", "LeafStatistics.mean"),
        ("estimators.py", "MondrianTreeModel.predict")]


def test_one_point_takes_the_one_scalar_walk():
    # MondrianPartition._descend gives a point's leaf node and rank in one walk; only the
    # one-point paths take it (a one-row batch, locate_leaf and an update), a batch keeps
    # its level loop or searchsorted, and no rank is counted from the node arrays
    assert _scopes_calling("_descend") == [
        ("estimators.py", "_accumulate"), ("partition.py", "MondrianPartition.leaf_indices"),
        ("partition.py", "MondrianPartition.locate_leaf")]
    tree = ast.parse(Path(partition.__file__).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if "count_nonzero" in (getattr(node, "attr", None), getattr(node, "id", None))] == []


def test_a_forest_places_its_batch_and_each_tree_reads_its_one_leaf_table():
    # fit_forest and MondrianForestModel.predict place a batch (each column sorted once)
    # for all their trees by the one rule in _placed; MondrianPartition._leaf_table is the
    # one builder of a tree's leaf table, and leaf_indices its one reader; the grid's
    # threshold counts and cells are derived once, in MondrianPartition._grid, for the
    # reader's size rule and the builder alike
    assert _scopes_calling("_PlacedRows") == [("estimators.py", "_placed")]
    assert _scopes_calling("_placed") == [("estimators.py", "MondrianForestModel.predict"),
                                          ("estimators.py", "fit_forest")]
    assert _scopes_calling("_leaf_table") == [("partition.py", "MondrianPartition.leaf_indices")]
    assert _scopes_calling("_grid") == [("partition.py", "MondrianPartition._leaf_table"),
                                        ("partition.py", "MondrianPartition.leaf_indices")]
    assert [scope for path in SOURCES
            for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == "_leaf_table"] == [
        "MondrianPartition"]


def test_a_placed_forest_fit_routes_each_tree_once_with_the_batch_shape(monkeypatch):
    # perfbench/tracing.py counts routed points by np.shape of leaf_indices' argument, so
    # placed rows keep the batch's shape (n, d), and a 2-d forest routes once per tree
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    calls = []
    route = partition.MondrianPartition.leaf_indices

    def spy(self, X):
        calls.append((type(X).__name__, np.shape(X), tracing._rows_info({"X": X}, None)))
        return route(self, X)

    monkeypatch.setattr(partition.MondrianPartition, "leaf_indices", spy)
    X = np.random.default_rng(5).random((300, 2))
    estimators.fit_forest(partition.BoxRegion.unit(2), 2, 4.0, 3, X, X[:, 0], 5)
    assert calls == [("_PlacedRows", (300, 2), {"points": 300})] * 3


def test_tree_models_are_built_by_accumulation_and_the_one_loader():
    # fitting builds trees in _accumulate, and both model schemas load through
    # _tree_model, so every check of a loaded tree runs on every file
    found = sorted({scope for path in SOURCES if path.name == "estimators.py"
                    for scope in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                        "MondrianTreeModel")})
    assert found == ["_accumulate", "_tree_model"]


def test_partitions_are_built_by_the_growth_ops_and_the_one_checked_constructor():
    # a loaded partition and every loaded model tree go through _checked_partition;
    # a MondrianPartition(...) call elsewhere would build one that skipped its checks
    assert _scopes_calling("MondrianPartition") == [
        ("partition.py", scope)
        for scope in ("_checked_partition", "extend", "prune", "restrict", "sample_mondrian")]


def test_the_node_columns_have_one_writer_and_one_reader():
    # partition and model files share one node encoding (split_dim per node, threshold
    # per split node, clock per node with null for inf); partition._node_columns alone
    # writes it and partition._checked_partition alone reads it, type checks included
    assert _scopes_calling("_node_columns") == [
        ("estimators.py", "_tree_columns"), ("partition.py", "partition_to_dict"),
        ("partition.py", "validate_partition")]
    assert _scopes_calling("_checked_partition") == [
        ("estimators.py", "_tree_from_columns"), ("partition.py", "partition_from_dict"),
        ("partition.py", "validate_partition")]
    tree = ast.parse(Path(estimators.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_NUMBER" not in imported


def test_an_open_lower_edge_has_one_encoding():
    # BoxRegion derives each axis's least member once (the next float up on an open
    # edge), and contains, contains_box and leaf_indices read it; _grow's check that a
    # cell side has a float inside is the only other nextafter
    assert _scopes_calling("nextafter") == [("partition.py", "BoxRegion._adopt"),
                                            ("partition.py", "_grow")]


def test_cli_keeps_one_subcommand_table():
    # cli._SUBCOMMANDS maps each subcommand to its handler and options, and the parser and
    # run both read it; a second dict keyed by subcommand names could fall out of step
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    bound = {id(node.value): target.id for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    found = [bound.get(id(node), f"line {node.lineno}") for node in ast.walk(tree)
             if isinstance(node, ast.Dict) and len(set(cli._SUBCOMMANDS).intersection(
                 key.value for key in node.keys if isinstance(key, ast.Constant))) >= 2]
    assert found == ["_SUBCOMMANDS"]


def test_exact_leaf_sums_have_one_row_bound():
    # a label group of at most _GROUP_ROWS rows keeps every float64 bincount and int64
    # prefix sum of its limbs exact, and _split_limbs alone makes the groups; a second
    # row bound would bring back a chunk loop or a size fallback beside it
    modules = (mondrianforest, rng, partition, estimators, oracles, harness, cli)
    assert sorted(Path(module.__file__) for module in modules) == SOURCES
    assert [(module.__name__, name) for module in modules for name in vars(module)
            if name.endswith("_ROWS")] == [("mondrianforest.estimators", "_GROUP_ROWS")]
    assert sorted({(path.name, scope) for path in SOURCES
                   for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Name) and node.id == "_GROUP_ROWS"
                   and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute) and node.attr == "_GROUP_ROWS"}) == [
        ("estimators.py", "_split_limbs")]


def test_artifact_writers_take_only_the_artifact():
    # partitions are written with their seed provenance and reports without their
    # timing, always; a switch that drops or adds a field would write a second format
    writers = (partition.partition_to_dict, partition.partition_to_json,
               harness.ExperimentReport.to_dict, harness.ExperimentReport.to_json)
    assert [len(inspect.signature(writer).parameters) for writer in writers] == [1] * 4


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps package names by attribute (estimators.partition_to_dict
    # is imported there for it alone); removing one breaks the benchmark's traced run
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    points = tracing._patch_points(tracing.Tracer())
    assert points and all(callable(wrapper) for _, _, wrapper in points)


def test_one_map_builds_the_process_pool():
    # harness._map alone checks the worker cap and sizes the pool, so --threads
    # means the same thing to every experiment
    assert _scopes_calling("ProcessPoolExecutor") == [("harness.py", "_map")]


def test_rng_natural_is_the_one_integer_check():
    # a count is an int or a numpy int, never a bool, and at least some bound; rng._natural
    # holds that rule and its two messages, so a second copy cannot drift from them
    found = [(path.name, scope)
             for path in SOURCES
             for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
             and {ast.unparse(e) for e in node.args[1].elts} == {"int", "np.integer"}]
    assert found == [("rng.py", "_natural")]
    modules = (rng, partition, estimators, oracles, harness, cli)
    assert [module.__name__ for module in modules if "_size" in vars(module)] == []


def test_risk_grid_rows_have_one_builder():
    # harness._row turns a schedule, its scale and a tree rule into a grid row and
    # checks all three before any data is drawn; every risk experiment and CLI risk use it
    assert _scopes_calling("lifetime_schedule") == [("harness.py", "_row")]
    assert _scopes_calling("forest_size_schedule") == [("harness.py", "_row")]


def test_harness_draws_partitions_only_in_the_per_sample_function():
    # every Monte-Carlo partition of the law verifiers goes through the one map
    found = [scope for scope in _scopes_calling("sample_mondrian") if scope[0] == "harness.py"]
    assert found == [("harness.py", "_sample")]


def test_harness_fits_forests_only_in_the_per_replicate_function():
    # every risk replicate draws its data and fits its largest forest once, in the
    # one payload function; a second fit would refit trees a paired row shares
    found = [scope for scope in _scopes_calling("fit_forest") if scope[0] == "harness.py"]
    assert found == [("harness.py", "_replicate")]


def test_exact_leaf_sums_use_no_object_arrays():
    # each leaf's exact sum is a plain Python int built from its limb sums' tolist();
    # an object array would bring back a per-limb fold through numpy's object loops
    def is_object(value):
        return (isinstance(value, ast.Name) and value.id == "object"
                or isinstance(value, ast.Attribute) and value.attr == "object_"
                or isinstance(value, ast.Constant) and value.value in ("O", "object"))

    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.keyword) and node.arg == "dtype" and is_object(node.value)]
    assert found == []


def test_exact_scaled_ints_place_labels_by_left_shifts():
    # every label's place in 2^-1074 units is at least 0, so a scaled int or a leaf's
    # fold only shifts left; a right shift is the two's-complement split of the limbs
    # and the odd part of a saved sum, and one elsewhere would bring back a subnormal branch
    tree = ast.parse(Path(estimators.__file__).read_text(encoding="utf-8"))
    found = sorted({scope for scope, node in _scoped(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.RShift)})
    assert found == ["_odd_shift", "_split_limbs"]


def test_harness_draws_test_inputs_once_per_replicate():
    # a replicate draws its test inputs in _replicate and every row scores them;
    # a score that read a stream would redraw them once per row
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    found = sorted({scope for scope, node in _scoped(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "generator"})
    assert found == ["SyntheticTask.sample_data", "_replicate"]


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy was most of the package's import time; the harness imports it where it is used
    src = str(Path(mondrianforest.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, mondrianforest; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
