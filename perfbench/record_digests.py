"""Record the output digests that benchmark runs are checked against.

Usage, from the root of a source checkout::

    python3 perfbench/record_digests.py --seeds 0-19

For every workload and seed it runs one untraced pass, the consistency
checks and the CLI probe, and writes each operation's digest, together with
the verdicts that fail at the benchmark's reduced scale, to
``perfbench/digests.json``.  It refuses to record when any operation raises
or fails a check.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.import_package()
    import workloads

    facts = run.provenance(None)
    recorded = {"environment": {k: facts[k] for k in ("python", "numpy", "scipy")},
                "workloads": {}}
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        per_seed = recorded["workloads"][name] = {}
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT / "tmp")
            try:
                workload = build(seed, workdir)
                ledger = run.Ledger(None)
                for ops in (workload.ops, workload.checks, workload.probe):
                    ledger.run_pass(ops)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if ledger.failures:
                print(f"{name} seed {seed}: not recorded: {ledger.failures}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = {
                "digests": ledger.expected,
                "failed_verdicts": {op: names for op, names in ledger.verdict_failures.items()
                                    if names},
            }
            print(f"{name} seed {seed}: {len(ledger.expected)} digests, failed verdicts "
                  f"{per_seed[str(seed)]['failed_verdicts']}")
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
