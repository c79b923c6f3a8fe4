"""Tests of the benchmark itself.

Run from the root of a source checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from mondrianforest import harness

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_round_trip(tmp_path, seed=3):
    return workloads.CliRoundTrip(str(tmp_path), seed, 1, 2, n=256, n_query=64, trees=2)


def test_digest_check_catches_a_perturbed_prediction(tmp_path):
    rt = small_round_trip(tmp_path)
    clean = run.Ledger(None)
    clean.run_pass(rt.ops())
    assert clean.failed == 0

    def perturbed_predict():
        code = rt.predict(rt.values, False)
        values = rt.read_predictions(rt.values)
        values[0] = np.nextafter(values[0], np.inf)  # one ulp
        with open(rt.values, "w", encoding="utf-8") as handle:
            json.dump({"predictions": values.tolist()}, handle)
        return code

    ledger = run.Ledger({"digests": clean.expected})
    ops = rt.ops()
    ops[1] = workloads.Op("cli.predict", perturbed_predict, ops[1].check)
    ledger.run_pass(ops)
    assert ledger.attempted == 3
    assert ledger.failed == 1 and ledger.failures[0].startswith("cli.predict: digest")


def test_digest_check_catches_a_perturbed_report():
    op = workloads.Op("leaf_count", lambda: harness.verify_leaf_count(1, 2.0, 50, 0),
                      workloads.report_digest)
    clean = run.Ledger(None)
    clean.run_pass([op])
    report = op.run()
    report.grid[0]["mean_leaves"] += 1e-12
    perturbed = workloads.Op("leaf_count", lambda: report, workloads.report_digest)
    ledger = run.Ledger({"digests": clean.expected})
    ledger.run_pass([perturbed])
    assert ledger.failed == 1


def test_injected_failure_counts_in_ok_frac(tmp_path, monkeypatch):
    rt = small_round_trip(tmp_path)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    real = harness.verify_leaf_count
    monkeypatch.setattr(harness, "verify_leaf_count", flaky)
    op = workloads.Op("leaf_count", lambda: harness.verify_leaf_count(1, 2.0, 50, 0),
                      workloads.report_digest)
    workload = workloads.Workload("tiny", [op], probe=rt.ops(), round_trip=rt)
    ledger = run.Ledger(None)
    setup = [{"wall": 1.0, "scaled": 1.0}]
    per_pass = 1 + 3 * run.PROBE_REPEATS
    run.measure(workload, ledger, seconds=1e-9, setup=setup)
    assert ledger.failed == 0 and ledger.attempted == per_pass
    metrics = run.measure(workload, ledger, seconds=1e-9, setup=setup)
    assert ledger.failed == 1 and ledger.attempted == 2 * per_pass
    assert metrics["ok_frac"] == ((2 * per_pass - 1) / (2 * per_pass), "ratio")


def test_a_failed_consistency_check_counts():
    def broken(model):
        raise workloads.CheckFailed("update_tree fold differs from the fit_tree batch")

    ledger = run.Ledger(None)
    ledger.run_pass([workloads.Op("update_tree_fold", lambda: None, broken)])
    assert (ledger.attempted, ledger.failed) == (1, 1)


def run_benchmark(cwd, workload, trace, seconds="0.1"):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "laws_mc", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
