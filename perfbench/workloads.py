"""The benchmark's workloads: generated inputs, timed operations, output checks.

A workload is a list of operations.  Each operation is one top-level library
call, one CLI invocation or one fold/extension leg; its ``run`` is the timed
program call and its ``check`` turns the output into a digest, raising
:class:`CheckFailed` when a consistency check fails.  Checks run outside the
timed region.  Why each workload exists, and which layers it should and
should not move, is recorded in ``manifest.json`` beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from mondrianforest import cli, estimators, harness, partition
from mondrianforest.harness import ExperimentReport, SyntheticTask
from mondrianforest.partition import BoxRegion, partition_to_json
from mondrianforest.rng import RngStream

# harness replicate parallelism: one worker keeps the numbers about the
# program rather than the scheduler on a small shared machine
WORKERS = 1

# laws_mc Monte-Carlo sample counts per pass, and the restriction sub-box
RESTRICTION_BOX = BoxRegion([0.2, 0.1], [0.6, 0.4])
LEAF_COUNT_SAMPLES = 300
CELL_DIST_SAMPLES = 100
RESTRICTION_SAMPLES = 100
EXTENSION_SAMPLES = 100

# forest_risk_1d: the c09/c10 and c12 grids at reduced replicates and forest size
TVF_REPLICATES = 2
TVF_FOREST_TREES = 10
CLASSIFY_REPLICATES = 2

# model_cli_2d: the fit/predict shape of the project's baseline table
CLI_TRAIN_N = 8192
CLI_QUERY_N = 4096
CLI_TREES = 50
UPDATE_POINTS = 2000

# the small CLI round trip that gives laws_mc and forest_risk_1d their
# fit/predict metrics, run after each timed pass
PROBE_TRAIN_N = 4096
PROBE_QUERY_N = 2048
PROBE_TREES = 10


class CheckFailed(Exception):
    """An output failed a consistency check."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    checks: list[Op] = field(default_factory=list)  # once per run, after the first pass
    probe: list[Op] = field(default_factory=list)   # CLI round trip, after each pass
    round_trip: "CliRoundTrip | None" = None  # the fit/predict metrics come from it


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode("utf-8"))
    return h.hexdigest()


def report_digest(report: ExperimentReport) -> str:
    return sha256(report.to_json())


def failed_verdicts(output) -> list[str]:
    if isinstance(output, ExperimentReport):
        return [v.name for v in output.verdicts if not v.passed]
    return []


def leaf_stats_digest(trees) -> str:
    chunks = []
    for tree in trees:
        chunks.extend(f"{s.count}:{s.scaled_sum};" for s in tree.leaf_statistics())
        chunks.append("|")
    return sha256(*chunks)


def write_csv(path: str, X: np.ndarray, y: np.ndarray | None) -> None:
    header = [f"x{j + 1}" for j in range(X.shape[1])] + (["y"] if y is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(X.tolist()):
            writer.writerow([repr(v) for v in row] + ([repr(float(y[i]))] if y is not None else []))


def _exit_ok(code) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}")


class CliRoundTrip:
    """``mondrian-forest fit`` on a training CSV, then ``predict`` on a query CSV.

    The target is ``sine_mean`` plus N(0, 0.1^2) noise on the unit cube and
    the lifetime is the Lipschitz schedule for the training size.
    """

    def __init__(self, workdir: str, seed: int, tag: int, d: int, n: int, n_query: int,
                 trees: int):
        self.seed, self.d, self.trees = seed, d, trees
        self.X, self.y = SyntheticTask("c2_d", d=d, sigma=0.1).sample_data(
            n, RngStream(seed, (tag, 0)))
        self.Q = RngStream(seed, (tag, 1)).generator.random((n_query, d))
        self.lifetime = estimators.lifetime_schedule("lipschitz", n, d)
        prefix = os.path.join(workdir, f"cli{tag}")
        self.train, self.query = prefix + "-train.csv", prefix + "-query.csv"
        self.model, self.values, self.classes = (prefix + "-model.json",
                                                 prefix + "-values.json",
                                                 prefix + "-classes.json")
        write_csv(self.train, self.X, self.y)
        write_csv(self.query, self.Q, None)
        self.bytes_per_leaf = None

    def ops(self) -> list[Op]:
        return [
            Op("cli.fit", self.fit, self.check_fit),
            Op("cli.predict", lambda: self.predict(self.values, False),
               lambda code: self.check_predictions(code, self.values)),
            Op("cli.predict_classify", lambda: self.predict(self.classes, True),
               lambda code: self.check_predictions(code, self.classes)),
        ]

    def fit(self) -> int:
        return cli.run(["fit", "--data", self.train, "--lifetime", repr(self.lifetime),
                        "--trees", str(self.trees), "--seed", str(self.seed),
                        "--output", self.model])

    def predict(self, out: str, classify: bool) -> int:
        return cli.run(["predict", "--model", self.model, "--data", self.query,
                        "--output", out] + (["--classify"] if classify else []))

    def check_fit(self, code) -> str:
        # the raw model bytes are not pinned, so a new model schema stays
        # possible; its size is tracked by model_bytes_per_leaf instead
        _exit_ok(code)
        with open(self.model, encoding="utf-8") as handle:
            model = estimators.model_from_json(handle.read())
        leaves = sum(tree.n_leaves for tree in model.trees)
        self.bytes_per_leaf = os.path.getsize(self.model) / leaves
        return leaf_stats_digest(model.trees)

    @staticmethod
    def read_predictions(path: str) -> np.ndarray:
        with open(path, encoding="utf-8") as handle:
            return np.asarray(json.load(handle)["predictions"], dtype=np.float64)

    def check_predictions(self, code, path: str) -> str:
        _exit_ok(code)
        return sha256(self.read_predictions(path).tobytes())

    def in_memory_model(self):
        return estimators.fit_forest(BoxRegion.unit(self.d), self.d, self.lifetime,
                                     self.trees, self.X, self.y, master_seed=self.seed)

    def check_reload(self, model) -> str:
        """Predictions from the reloaded model file equal the in-memory model's."""
        values = model.predict(self.Q)
        classes = model.predict_class(self.Q).astype(np.float64)
        if values.tobytes() != self.read_predictions(self.values).tobytes():
            raise CheckFailed("reloaded-model predictions differ from the in-memory model")
        if classes.tobytes() != self.read_predictions(self.classes).tobytes():
            raise CheckFailed("reloaded-model classes differ from the in-memory model")
        return sha256(values.tobytes())


def check_replay(model, box: BoxRegion, master: RngStream, X, y) -> str:
    """``fit_forest`` equals sampling each tree from ``master.child(m)`` and ``fit_tree``."""
    for m, tree in enumerate(model.trees):
        part = partition.sample_mondrian(box, model.lifetime, master.child(m))
        replay = estimators.fit_tree(part, X, y)
        if partition_to_json(part) != partition_to_json(tree.partition):
            raise CheckFailed(f"tree {m}: replayed partition differs")
        if leaf_stats_digest([replay]) != leaf_stats_digest([tree]):
            raise CheckFailed(f"tree {m}: replayed leaf statistics differ")
    return leaf_stats_digest(model.trees)


# -- laws_mc -------------------------------------------------------------------


def _extension_leg(seed: int, samples: int):
    """Sample at lifetime 2.5, extend to 5, prune back, restrict the extension."""
    box = BoxRegion.unit(2)
    legs = []
    for i in range(samples):
        rng = RngStream(seed, (3, i))
        sampled = partition.sample_mondrian(box, 2.5, rng)
        extended = partition.extend(sampled, 5.0, rng)
        legs.append((sampled, extended, partition.prune(extended, 2.5),
                     partition.restrict(extended, RESTRICTION_BOX)))
    return legs


def _check_extension(legs) -> str:
    chunks, leaves = [], []
    for sampled, extended, pruned, restricted in legs:
        if not pruned.structurally_equal(sampled):
            raise CheckFailed("prune(extend(p)) differs from p")
        chunks += [partition_to_json(sampled), partition_to_json(extended),
                   partition_to_json(restricted)]
        leaves.append(extended.n_leaves)
    mean = float(np.mean(leaves))
    se = float(np.std(leaves, ddof=1) / np.sqrt(len(leaves)))
    expected = harness.expected_leaf_count(5.0, 2)
    if abs(mean - expected) > harness.MEAN_BAND_SE * se:
        raise CheckFailed(f"extended leaf-count mean {mean} is not within 4 SE of {expected}")
    return sha256(*chunks)


def laws_mc(seed: int, workdir: str) -> Workload:
    ops = [
        Op("verify_leaf_count.d2", lambda: harness.verify_leaf_count(
            2, 5.0, LEAF_COUNT_SAMPLES, seed), report_digest),
        Op("verify_leaf_count.d3", lambda: harness.verify_leaf_count(
            3, 3.0, LEAF_COUNT_SAMPLES, seed), report_digest),
        Op("verify_cell_distribution", lambda: harness.verify_cell_distribution(
            2, 10.0, [0.5, 0.5], CELL_DIST_SAMPLES, seed), report_digest),
        Op("verify_restriction", lambda: harness.verify_restriction(
            2, 5.0, RESTRICTION_BOX, RESTRICTION_SAMPLES, seed), report_digest),
        Op("extend_prune_restrict", lambda: _extension_leg(seed, EXTENSION_SAMPLES),
           _check_extension),
    ]
    probe = CliRoundTrip(workdir, seed, 1, 2, PROBE_TRAIN_N, PROBE_QUERY_N, PROBE_TREES)
    return Workload("laws_mc", ops, probe=probe.ops(), round_trip=probe)


# -- forest_risk_1d -------------------------------------------------------------


def forest_risk_1d(seed: int, workdir: str) -> Workload:
    ops = [
        Op("tree_vs_forest", lambda: harness.tree_vs_forest(
            3000, np.geomspace(1.0, 3000.0, 12).tolist(), TVF_FOREST_TREES, TVF_REPLICATES,
            seed, sigma2=1.0, n_test=2048, curved_n=10_000,
            curved_lambda_grid=np.geomspace(8.0, 256.0, 8).tolist(), curved_sigma=0.1,
            workers=WORKERS), report_digest),
        Op("classification_sweep", lambda: harness.classification_sweep(
            1, [2**9, 2**11, 2**13], "lipschitz", 50, CLASSIFY_REPLICATES, seed,
            workers=WORKERS), report_digest),
    ]
    # one replicate's shape from the curved leg, replayed tree by tree
    box = BoxRegion.unit(1)
    X, y = SyntheticTask("c2_d", d=1, sigma=0.1).sample_data(10_000, RngStream(seed, (4, 0)))
    master = RngStream(seed, (4, 1))
    lifetime = 32.0
    checks = [Op("fit_forest_equals_replay",
                 lambda: estimators.fit_forest(box, 1, lifetime, 10, X, y, master_seed=master),
                 lambda model: check_replay(model, box, master, X, y))]
    probe = CliRoundTrip(workdir, seed, 1, 1, PROBE_TRAIN_N, PROBE_QUERY_N, PROBE_TREES)
    return Workload("forest_risk_1d", ops, checks=checks, probe=probe.ops(), round_trip=probe)


# -- model_cli_2d ---------------------------------------------------------------


def _update_leg(model, X, y):
    for i in range(X.shape[0]):
        model = estimators.update_tree(model, X[i], y[i])
    return model


def _check_update(model, X, y) -> str:
    batch = estimators.fit_tree(model.partition, X, y)
    if batch.n_seen != model.n_seen or leaf_stats_digest([batch]) != leaf_stats_digest([model]):
        raise CheckFailed("update_tree fold differs from the fit_tree batch")
    return leaf_stats_digest([model])


def model_cli_2d(seed: int, workdir: str) -> Workload:
    rt = CliRoundTrip(workdir, seed, 2, 2, CLI_TRAIN_N, CLI_QUERY_N, CLI_TREES)
    tree = partition.sample_mondrian(BoxRegion.unit(2), rt.lifetime, RngStream(seed, (5,)))
    empty = estimators.fit_tree(tree, np.empty((0, 2)), np.empty(0))
    Xu, yu = rt.X[:UPDATE_POINTS], rt.y[:UPDATE_POINTS]
    ops = rt.ops() + [Op("update_tree_fold", lambda: _update_leg(empty, Xu, yu),
                         lambda model: _check_update(model, Xu, yu))]
    box, master = BoxRegion.unit(2), RngStream(seed)
    checks = [Op("reload_and_replay_equal_memory", rt.in_memory_model,
                 lambda model: sha256(rt.check_reload(model),
                                      check_replay(model, box, master, rt.X, rt.y)))]
    return Workload("model_cli_2d", ops, checks=checks, round_trip=rt)


WORKLOADS = {"laws_mc": laws_mc, "forest_risk_1d": forest_risk_1d,
             "model_cli_2d": model_cli_2d}
