"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload laws_mc --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
``--trace 0`` times whole passes of the workload with nothing wrapped and
prints the end-to-end metrics; ``--trace 1`` alternates untraced passes with
traced ones and prints the per-layer metrics (see ``tracing.py``).  Times
are reported at the reference pace of ``pace.py``.  Every
operation's output is hashed and compared with the digest recorded in
``digests.json`` for the seed, or, for a seed without one, with the first
pass of the run; once per run the workload's consistency checks run too.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files go to
``.perfbench/`` in the checkout: inputs to a temporary directory removed at
the end, and the run's result (with spans, when traced) to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# the benchmark writes nowhere outside its checkout, bytecode caches included
sys.dont_write_bytecode = True

import pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_REPEATS = 3  # CLI round trips per pass, where the workload has a probe


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, generate the inputs and exit "
                             "(timed from outside to give setup_s)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**64) and --seconds > 0")
    return args


def check_source(workload: str) -> None:
    for path in (ROOT / "BENCHMARK.json", SRC / "mondrianforest" / "__init__.py"):
        if not path.is_file():
            raise SystemExit(f"perfbench: {path} is missing; run from a source checkout")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if workload not in names:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; expected one of {names}")


def import_package():
    """Put the checkout's ``src`` first on the path and import from it."""
    sys.path.insert(0, str(SRC))
    import mondrianforest

    if Path(mondrianforest.__file__).resolve().parent != SRC / "mondrianforest":
        raise SystemExit(f"perfbench: imported {mondrianforest.__file__}, not the checkout's")


def time_setup(workload: str, seed: int) -> list[dict]:
    """Wall time of fresh interpreters that import the package and build the inputs.

    Each is paced by the mean of the reference spawns just before and after it.
    """
    times = []
    spawn = pace.spawn_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-B", str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - t0
        before, spawn = spawn, pace.spawn_seconds()
        times.append({"wall": wall,
                      "scaled": wall * pace.REFERENCE_SPAWN_S / (0.5 * (before + spawn))})
    return times


def provenance(seed: int | None) -> dict:
    import numpy
    import scipy
    from workloads import WORKERS

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "start_method": multiprocessing.get_start_method(), "git_sha": sha,
            "seed": seed, "workers": WORKERS}


def recorded_digests(workload: str, seed: int, env: dict) -> tuple[dict | None, str]:
    """Recorded digests for the seed, if the recording environment matches."""
    data = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    entry = data["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return None, "no recorded digest for this seed: checked against the first pass"
    mismatch = {k: (v, env[k]) for k, v in data["environment"].items() if env[k] != v}
    if mismatch:
        return None, f"recorded under other versions {mismatch}: checked against the first pass"
    return entry, "recorded digests"


class Ledger:
    """Attempted and failed operations, digests and timings of one run."""

    def __init__(self, expected: dict | None):
        self.expected = dict(expected["digests"]) if expected else {}
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # seconds at the reference pace
        self.wall: dict[str, list[float]] = {}
        self.verdict_failures: dict[str, list[str]] = {}

    def run_pass(self, ops, tracer=None) -> float:
        """Run the operations back to back, then check their outputs.

        Returns the pass's paced time.  With a tracer, spans are recorded
        during the operations only, never during the checks.
        """
        if not ops:
            return 0.0
        pacer = pace.Pacer()
        runs, first_spans = [], []
        for op in ops:
            self.attempted += 1
            output = error = None
            if tracer is not None:
                first_spans.append(len(tracer.spans))
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                error = exc
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            pacer.mark()
            runs.append((op, output, error, wall))
        factors = pacer.factors()
        if tracer is not None:
            for first, last, factor in zip(first_spans, first_spans[1:] + [None], factors):
                tracer.set_pace(first, last, factor)
        paced = [run[3] * factor for run, factor in zip(runs, factors)]
        for run, seconds in zip(runs, paced):
            self._settle(*run, seconds)
        return sum(paced)

    def _settle(self, op, output, error, wall: float, paced: float) -> None:
        from workloads import CheckFailed, failed_verdicts

        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.failures.append(f"{op.name}: raised {error!r}")
            return
        self.times.setdefault(op.name, []).append(paced)
        self.wall.setdefault(op.name, []).append(wall)
        try:
            digest = op.check(output)
        except CheckFailed as exc:
            self.failures.append(f"{op.name}: {exc}")
            return
        self.verdict_failures[op.name] = failed_verdicts(output)
        want = self.expected.setdefault(op.name, digest)
        if digest != want:
            self.failures.append(f"{op.name}: digest {digest[:16]} != expected {want[:16]}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def warm(values: list[float]) -> list[float]:
    """Samples after the first, which pays for cold caches and lazy set-up."""
    return values[1:] if len(values) > 1 else values


def measure(workload, ledger: Ledger, seconds: float, setup: list[dict]) -> dict:
    """Untraced passes for ``seconds``, each followed by the CLI probe if any.

    The consistency checks run once, after the first pass.
    """
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        pass_times.append(ledger.run_pass(workload.ops))
        if len(pass_times) == 1:
            ledger.run_pass(workload.checks)
        for _ in range(PROBE_REPEATS):
            ledger.run_pass(workload.probe)
    wall = {name: warm(values) for name, values in ledger.wall.items()}
    wall["setup_s"] = [t["wall"] for t in setup]
    times = {name: warm(values) for name, values in ledger.times.items()}
    times["setup_s"] = [t["scaled"] for t in setup]
    for name in ("setup_s", *ledger.times):
        print(f"# {name}: median {statistics.median(times[name]):.6g} s at reference pace "
              f"({quartiles(times[name])}); wall median {statistics.median(wall[name]):.6g} s")
    print(f"# pass (paced): median {statistics.median(warm(pass_times)):.6g} s "
          f"({quartiles(warm(pass_times))})")
    ok = (ledger.attempted - ledger.failed) / ledger.attempted
    return {
        "setup_s": (statistics.median(times["setup_s"]), "s"),
        "run_s": (sum(statistics.median(times[op.name]) for op in workload.ops), "s"),
        "ok_frac": (ok, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "fit_s": (statistics.median(times["cli.fit"]), "s"),
        "predict_s": (statistics.median(times["cli.predict"] + times["cli.predict_classify"]),
                      "s"),
        "model_bytes_per_leaf": (workload.round_trip.bytes_per_leaf, "B"),
    }


def measure_traced(workload, ledger: Ledger, seconds: float, seed: int) -> tuple[dict, list]:
    """Alternate untraced and traced passes for ``seconds``; derive layer metrics."""
    import tracing
    from workloads import WORKERS

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(ledger.run_pass(workload.ops))
        if len(plain) == 1:
            ledger.run_pass(workload.checks)
        with tracing.installed(tracer):
            traced.append(ledger.run_pass(workload.ops, tracer))
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics.update(tracing.rng_microloops(seed))
    metrics["harness.workers"] = WORKERS
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"# untraced pass: median {statistics.median(plain):.6g} s ({quartiles(plain)})")
    print(f"# traced pass: median {statistics.median(traced):.6g} s ({quartiles(traced)})")
    for row in tracing.span_table(tracer.spans):
        pct = f"p{row['pct']:g}={row['pct_s']:.6g}" if row["pct"] else "p-: too few samples"
        print(f"# span {row['name']}: n={row['n']} total={row['total_s']:.6g} s "
              f"self={row['self_s']:.6g} s median={row['median_s']:.6g} s {pct}")
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return {m["name"]: (metrics[m["name"]], m["unit"]) for m in units}, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    check_source(args.workload)
    # one core for the run and its children, so the pace kernel and the
    # operations it scales share the core's contention
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = [] if args.trace or args.setup_only else time_setup(args.workload, args.seed)
    import_package()
    import workloads

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        facts = provenance(args.seed)
        expected, source = recorded_digests(args.workload, args.seed, facts)
        ledger = Ledger(expected)
        spans = None
        if args.trace:
            metrics, spans = measure_traced(workload, ledger, args.seconds, args.seed)
        else:
            metrics = measure(workload, ledger, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in ledger.failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value!r} {unit}")
    print(f"# digests: {source}")
    print(f"# provenance: {json.dumps(facts)}")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "provenance": facts, "digest_source": source,
        "result": result, "failures": ledger.failures, "op_times": ledger.times,
        "op_wall_times": ledger.wall,
        "digests": ledger.expected, "verdict_failures": ledger.verdict_failures,
        "spans": spans}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
