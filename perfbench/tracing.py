"""Out-of-band span recorder for the traced benchmark run.

The benchmark measures each layer of ``mondrianforest`` from outside: it
replaces the public functions that one layer calls in the layer below with
thin timing wrappers, runs the workload, and restores the originals.  Nothing
in the package changes.  A span is
``[name, start, end, parent, tail, inner, info, pace]``.  ``tail`` is the
wrapper's own bookkeeping after the call (counting leaves, points and bytes)
and ``inner`` the bookkeeping of all descendants; both are left out of every
duration and self time.  ``info`` holds the counts, and ``pace`` the factor
that converts the operation's wall time to the reference pace (``pace.py``),
so that span times read in the same unit as the end-to-end metrics.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import pace
from mondrianforest import cli, estimators, harness, partition
from mondrianforest.estimators import MondrianForestModel
from mondrianforest.harness import SyntheticTask
from mondrianforest.partition import MondrianPartition
from mondrianforest.rng import RngStream

NAME, START, END, PARENT, TAIL, INNER, INFO, PACE = range(8)

HARNESS_OPS = ("verify_leaf_count", "verify_cell_distribution", "verify_restriction",
               "tree_vs_forest", "classification_sweep")
ORACLES = ("expected_leaf_count", "expected_leaf_count_box", "tree_lower_bound_1d",
           "truncated_exp_cdf", "diameter_tail_bound", "diameter_second_moment_bound")


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, 0.0, None, 1.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                rec[INFO] = hook(signature.bind(*args, **kwargs).arguments, result)
                rec[TAIL] = time.perf_counter() - rec[END]
            if parent >= 0:
                tracer.spans[parent][INNER] += rec[INNER] + rec[TAIL]
            return result

        return wrapper

    def set_pace(self, first: int, last: int | None, factor: float) -> None:
        """Give the spans ``first:last`` of one operation its pace factor."""
        for span in self.spans[first:last]:
            span[PACE] = factor


# -- counters taken from a wrapped call's arguments and result ---------------


def _partition_info(call, part):
    return {"dim": part.dim, "leaves": part.n_leaves, "draws": part.seed_provenance["draws"]}


def _rows_info(call, result):
    return {"points": int(np.shape(call["X"])[0])}


def _forest_info(call, model):
    rows = int(np.shape(call["X"])[0])
    leaves = empty = 0
    for tree in model.trees:
        counts = [s.count for s in tree.leaf_statistics()]
        leaves += len(counts)
        empty += counts.count(0)
    return {"points": rows, "trees": model.n_trees, "leaves": leaves, "empty": empty}


def _predict_info(call, result):
    return {"points": int(np.shape(call["x"])[0]), "trees": call["self"].n_trees}


def _bytes_info(call, text):
    return {"bytes": len(text.encode("utf-8"))}


def _cli_info(call, code):
    argv = list(call["argv"])
    paths = [argv[i + 1] for i, flag in enumerate(argv[:-1])
             if flag in ("--data", "--model", "--output")]
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}


def _patch_points(tracer: Tracer):
    """(owner, attribute, wrapper) for every layer boundary the benchmark times."""
    points = []

    def add(owner, attr, name, hook=None):
        points.append((owner, attr, tracer.wrap(name, getattr(owner, attr), hook)))

    for op in HARNESS_OPS:
        add(harness, op, f"harness.{op}")
    add(SyntheticTask, "sample_data", "harness.sample_data")
    for owner in (harness, estimators, partition):
        add(owner, "sample_mondrian", "partition.sample_mondrian", _partition_info)
    add(partition, "extend", "partition.extend", _partition_info)
    add(partition, "prune", "partition.prune")
    for owner in (harness, partition):
        add(owner, "restrict", "partition.restrict")
    add(MondrianPartition, "locate_leaf", "partition.locate_leaf")
    add(MondrianPartition, "leaf_indices", "partition.leaf_indices", _rows_info)
    add(estimators, "partition_to_dict", "partition.partition_to_dict")
    add(estimators, "partition_from_dict", "partition.partition_from_dict")
    for owner in (harness, cli, estimators):
        add(owner, "fit_forest", "estimators.fit_forest", _forest_info)
    add(estimators, "fit_tree", "estimators.fit_tree")
    add(estimators, "update_tree", "estimators.update_tree")
    add(MondrianForestModel, "predict", "estimators.predict", _predict_info)
    add(cli, "model_to_json", "estimators.model_to_json", _bytes_info)
    add(cli, "model_from_json", "estimators.model_from_json")
    for oracle in ORACLES:
        add(harness, oracle, f"oracles.{oracle}")
    add(cli, "run", "cli.run", _cli_info)
    return points


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    points = _patch_points(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, wrapper in points:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# -- aggregation -------------------------------------------------------------


def duration(span) -> float:
    """Paced time of the call, net of the bookkeeping of wrappers inside it."""
    return (span[END] - span[START] - span[INNER]) * span[PACE]


def self_times(spans) -> list[float]:
    """Duration of each span minus its children's durations."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= duration(s)
    return own


def high_percentile(values) -> tuple[float | None, float | None]:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, float(np.percentile(values, q))
    return None, None


def _by_name(spans) -> dict[str, list[int]]:
    indices: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        indices.setdefault(s[NAME], []).append(i)
    return indices


def span_table(spans) -> list[dict]:
    """Per span name: count, total, self total, median and high percentile."""
    own = self_times(spans)
    by_name = _by_name(spans)
    rows = []
    for name in sorted(by_name):
        durs = [duration(spans[i]) for i in by_name[name]]
        q, value = high_percentile(durs)
        rows.append({"name": name, "n": len(durs), "total_s": sum(durs),
                     "self_s": sum(own[i] for i in by_name[name]),
                     "median_s": statistics.median(durs), "pct": q, "pct_s": value})
    return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Totals and counts are per pass; per-call timings are medians.  A layer
    that does no work on the workload reports 0.
    """
    own = self_times(spans)
    by_name = _by_name(spans)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return duration(spans[i])

    def total(name):
        return sum(dur(i) for i in idx(name))

    def info_sum(name, key):
        return sum(spans[i][INFO][key] for i in idx(name))

    def median_ms(name):
        durs = [dur(i) for i in idx(name)]
        return 1e3 * statistics.median(durs) if durs else 0.0

    grown = idx("partition.sample_mondrian") + idx("partition.extend")
    leaves = sum(spans[i][INFO]["leaves"] for i in grown)
    draws = sum(spans[i][INFO]["draws"] for i in grown)
    per_dim = {}
    for d in (1, 2, 3):
        sel = [i for i in idx("partition.sample_mondrian") if spans[i][INFO]["dim"] == d]
        per_dim[d] = 1e6 * _ratio(sum(dur(i) for i in sel),
                                  sum(spans[i][INFO]["leaves"] for i in sel))
    fits = idx("estimators.fit_forest")
    point_trees = sum(spans[i][INFO]["points"] * spans[i][INFO]["trees"] for i in fits)
    predict_pt = sum(spans[i][INFO]["points"] * spans[i][INFO]["trees"]
                     for i in idx("estimators.predict"))
    harness_spans = {i for op in HARNESS_OPS for i in idx(f"harness.{op}")}
    replicates = sum(1 for name in ("estimators.fit_forest", "partition.sample_mondrian")
                     for i in idx(name) if spans[i][PARENT] in harness_spans)
    return {
        "rng.draws": draws / passes,
        "partition.sample_s": total("partition.sample_mondrian") / passes,
        "partition.sample_us_per_leaf.d1": per_dim[1],
        "partition.sample_us_per_leaf.d2": per_dim[2],
        "partition.sample_us_per_leaf.d3": per_dim[3],
        "partition.leaves": leaves / passes,
        "partition.splits": (leaves - len(grown)) / passes,
        "partition.draws_per_leaf": _ratio(draws, leaves),
        "partition.extend_us_per_leaf": 1e6 * _ratio(total("partition.extend"),
                                                     info_sum("partition.extend", "leaves")),
        "partition.restrict_s": total("partition.restrict") / passes,
        "partition.locate_us": 1e3 * median_ms("partition.locate_leaf"),
        "partition.route_ns_per_point_tree": 1e9 * _ratio(
            total("partition.leaf_indices"), info_sum("partition.leaf_indices", "points")),
        "partition.dict_dump_ms_per_tree": median_ms("partition.partition_to_dict"),
        "partition.dict_load_ms_per_tree": median_ms("partition.partition_from_dict"),
        "estimators.fit_s": total("estimators.fit_forest") / passes,
        "estimators.accumulate_ns_per_point_tree": 1e9 * _ratio(sum(own[i] for i in fits),
                                                                point_trees),
        "estimators.predict_ns_per_point_tree": 1e9 * _ratio(total("estimators.predict"),
                                                             predict_pt),
        "estimators.model_dump_ms": median_ms("estimators.model_to_json"),
        "estimators.model_load_ms": median_ms("estimators.model_from_json"),
        "estimators.model_bytes": info_sum("estimators.model_to_json", "bytes") / passes,
        "estimators.update_us": 1e3 * median_ms("estimators.update_tree"),
        "estimators.points_routed": info_sum("partition.leaf_indices", "points") / passes,
        "estimators.empty_leaf_frac": _ratio(sum(spans[i][INFO]["empty"] for i in fits),
                                             sum(spans[i][INFO]["leaves"] for i in fits)),
        "oracles.s": sum(total(f"oracles.{o}") for o in ORACLES) / passes,
        "harness.self_s": sum(own[i] for i in harness_spans) / passes,
        "harness.sample_data_s": total("harness.sample_data") / passes,
        "harness.replicates": replicates / passes,
        "cli.self_s": sum(own[i] for i in idx("cli.run")) / passes,
        "cli.io_bytes": info_sum("cli.run", "bytes") / passes,
    }


def rng_microloops(seed: int, repeats: int = 5) -> dict[str, float]:
    """Paced ns per ``RngStream.uniform()`` and us per ``RngStream.child()``, medians."""
    draws, children = 100_000, 5_000
    uniform_ns, child_us = [], []
    pacer = pace.Pacer()
    for r in range(repeats):
        stream = RngStream(seed, (9, r))
        t0 = time.perf_counter()
        for _ in range(draws):
            stream.uniform()
        uniform_ns.append(1e9 * (time.perf_counter() - t0) / draws)
        pacer.mark()
        t0 = time.perf_counter()
        for i in range(children):
            stream.child(i)
        child_us.append(1e6 * (time.perf_counter() - t0) / children)
        pacer.mark()
    factors = pacer.factors()
    return {"rng.uniform_ns": statistics.median(u * f for u, f in zip(uniform_ns, factors[::2])),
            "rng.child_us": statistics.median(c * f for c, f in zip(child_us, factors[1::2]))}
