"""Command-line front end.

Subcommands map one-to-one onto the harness operations, plus ``sample`` for
raw partitions and ``fit``/``predict`` for model files.  Every run echoes its
full configuration into the report it writes, and identical invocations
produce byte-identical artifacts (timings never enter the output).

Exit codes: 0 on success with all verdicts passing, 1 when any verdict
fails, 2 on usage errors (bad flags, bad config or model files, violated
preconditions, an exhausted split budget).  The seed resolution order is
``--seed``, then the config file, then the ``MF_SEED`` environment
variable, then 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import harness
from .estimators import (
    fit_forest,
    forest_size_schedule,
    lifetime_schedule,
    model_from_json,
    model_to_json,
    predict_class,
)
from .harness import ExperimentReport, SyntheticTask
from .partition import BoxRegion, SplitLimitError, partition_to_json, sample_mondrian
from .rng import RngStream

USAGE_ERROR = 2
VERDICT_FAILURE = 1


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of integers")
    return values


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _trees_rule(text: str):
    if str(text) == "c2":
        return "c2"
    return int(text)


@dataclass(frozen=True)
class _Opt:
    name: str
    convert: object
    default: object = None
    help: str = ""
    required: bool = False


_COMMON = [
    _Opt("seed", int, None, "random seed (fallback: MF_SEED environment variable, then 0)"),
    _Opt("output", str, "-", "output path, '-' for stdout"),
    _Opt("format", str, "json", "output format: json or csv"),
    _Opt("config", str, None, "flat key=value or JSON config file; flags override it"),
    _Opt("threads", int, 1, "worker process cap for replicate-level parallelism"),
]

_TASK_OPTS = [
    _Opt("task", str, "lipschitz_1d", "task kind: lipschitz_1d, lipschitz_d, c2_d, linear_1d, classification_d"),
    _Opt("target", str, "", "target function id (defaults to the task kind's canonical target)"),
    _Opt("d", int, 1, "input dimension"),
    _Opt("sigma", float, 0.1, "label noise standard deviation"),
]

_SUBCOMMANDS: dict[str, list[_Opt]] = {
    "sample": [
        _Opt("d", int, 2, "dimension of the unit cube"),
        _Opt("lifetime", float, None, "lifetime of the partition", required=True),
        _Opt("max-splits", int, 1_000_000, "split budget guard"),
    ],
    "verify-leaf-count": [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
    ],
    "verify-cell-dist": [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("x", _float_list, None, "interior point, comma separated", required=True),
        _Opt("samples", int, 5_000, "Monte-Carlo sample count"),
    ],
    "verify-diameter": [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("x", _float_list, None, "evaluation point, comma separated", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
        _Opt("delta-grid", _float_list, None, "tail thresholds (default: 10-point grid)"),
    ],
    "verify-restriction": [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("sub-lower", _float_list, None, "lower corner of the sub-box", required=True),
        _Opt("sub-upper", _float_list, None, "upper corner of the sub-box", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
    ],
    "risk": _TASK_OPTS + [
        _Opt("n", int, None, "training sample size", required=True),
        _Opt("lifetime", float, None, "lifetime (or use --schedule with --scale)"),
        _Opt("schedule", str, None, "lifetime schedule: lipschitz, c2, consistency"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 1, "tree count, or 'c2' for the sample-size rule"),
        _Opt("replicates", int, 8, "independent replicates"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("eval-margin", float, 0.0, "evaluate risk conditional on the margin-interior"),
    ],
    "rate-sweep": _TASK_OPTS + [
        _Opt("n-grid", _int_list, None, "sample sizes, comma separated (>= 3)", required=True),
        _Opt("schedule", str, "lipschitz", "lifetime schedule: lipschitz, c2, consistency, fixed"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 1, "tree count per point, or 'c2' for the rule"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("slope-tolerance", float, 0.15, "allowed |slope - target| in the verdict"),
        _Opt("eval-margin", float, 0.0, "evaluate risk conditional on the margin-interior"),
    ],
    "tree-vs-forest": [
        _Opt("n", int, 3000, "sample size for the linear lower-bound check"),
        _Opt("lambda-grid", _float_list, None, "lifetime grid, comma separated", required=True),
        _Opt("m-large", int, 100, "forest size for the curved-target comparison"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("sigma2", float, 1.0, "noise variance of the linear model"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("curved-n", int, 10_000, "sample size for the curved target"),
        _Opt("curved-lambda-grid", _float_list, None, "lifetime grid for the curved target"),
        _Opt("curved-sigma", float, 0.1, "noise level for the curved target"),
    ],
    "classify-sweep": [
        _Opt("d", int, 1, "input dimension"),
        _Opt("target", str, "", "conditional-probability target id"),
        _Opt("n-grid", _int_list, None, "sample sizes, comma separated", required=True),
        _Opt("schedule", str, "lipschitz", "lifetime schedule"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 50, "tree count, or 'c2' for the rule"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("n-test", int, 4096, "test points per replicate"),
    ],
    "fit": [
        _Opt("data", str, None, "CSV with header x1..xd,y", required=True),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("trees", int, 10, "forest size"),
    ],
    "predict": [
        _Opt("model", str, None, "model JSON produced by fit", required=True),
        _Opt("data", str, None, "CSV with header x1..xd (a y column is ignored)"),
        _Opt("point", _float_list, None, "single point, comma separated"),
        _Opt("classify", bool, False, "emit plug-in class labels instead of values"),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mondrian-forest",
        description="Mondrian partition sampling, tree/forest estimators, and "
                    "the Monte-Carlo verification harness.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, opts in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=(opts[0].help if opts else ""))
        for opt in opts + _COMMON:
            flag = "--" + opt.name
            if opt.convert is bool:
                sub.add_argument(flag, action="store_const", const=True, default=None,
                                 help=opt.help)
            else:
                sub.add_argument(flag, type=str, default=None, help=opt.help,
                                 metavar=opt.name.upper().replace("-", "_"))
    return parser


def load_config(path: str) -> dict:
    """Read a flat config file: JSON object, or one ``key=value`` per line.

    Keys use flag names (dashes or underscores).  Duplicate keys and nested
    JSON values are rejected.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    values: dict[str, object] = {}
    if stripped.startswith("{"):
        parsed = json.loads(stripped)
        if not isinstance(parsed, dict):
            raise ValueError("config JSON must be an object")
        for key, value in parsed.items():
            if isinstance(value, (dict, list)):
                raise ValueError(f"config key {key!r} must be flat (no nesting)")
            values[_norm_key(key)] = value
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = _norm_key(key.strip())
            if key in values:
                raise ValueError(f"duplicate config key {key!r}")
            values[key] = value.strip()
    return values


def _norm_key(key: str) -> str:
    return key.strip().lower().replace("-", "_")


def _resolve_options(args: argparse.Namespace, opts: list[_Opt]) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    spec = {_norm_key(opt.name): opt for opt in opts + _COMMON}
    merged = {key: opt.default for key, opt in spec.items()}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, raw in load_config(config_path).items():
            if key not in spec:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _convert(spec[key], raw)
    for key, opt in spec.items():
        raw = getattr(args, key, None)
        if raw is not None:
            merged[key] = _convert(opt, raw)
    if merged.get("seed") is None:
        env = os.environ.get("MF_SEED")
        merged["seed"] = int(env) if env else 0
    for key, opt in spec.items():
        if opt.required and merged[key] is None:
            raise ValueError(f"missing required option --{opt.name}")
    if merged.get("format") not in (None, "json", "csv"):
        raise ValueError(f"unknown format {merged['format']!r}")
    return merged


def _convert(opt: _Opt, raw):
    if raw is None:
        return None
    if opt.convert is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"--{opt.name} expects a boolean, got {raw!r}")
    if isinstance(raw, str):
        return opt.convert(raw)
    if opt.convert in (int, float):
        return opt.convert(raw)
    return opt.convert(str(raw))


def _write_output(text: str, path: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_report(report: ExperimentReport, cfg: dict) -> int:
    if cfg["format"] == "csv":
        _write_output(report.to_csv(), cfg["output"])
    else:
        _write_output(report.to_json(), cfg["output"])
    return 0 if report.passed else VERDICT_FAILURE


def _make_task(cfg: dict) -> SyntheticTask:
    return SyntheticTask(kind=cfg["task"], d=cfg["d"], target=cfg.get("target") or "",
                         sigma=cfg["sigma"])


def _read_csv_matrix(path: str) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Read a data file with header x1..xd[,y]; returns (X, y or None, d)."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} line 1: expected a header x1..xd[,y], found end of file")
        rows = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != len(header):
                raise ValueError(f"{path} line {reader.line_num}: expected {len(header)} "
                                 f"values, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    names = [h.strip() for h in header]
    x_cols = [i for i, h in enumerate(names) if h.startswith("x")]
    y_cols = [i for i, h in enumerate(names) if h == "y"]
    if not x_cols:
        raise ValueError("data file needs columns x1..xd (and optionally y)")
    data = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    X = data[:, x_cols]
    y = data[:, y_cols[0]] if y_cols else None
    return X, y, len(x_cols)


# -- subcommand implementations ----------------------------------------------


def _cmd_sample(cfg: dict) -> int:
    if cfg["format"] == "csv":
        raise ValueError("sample emits JSON only")
    part = sample_mondrian(BoxRegion.unit(cfg["d"]), cfg["lifetime"],
                           RngStream(cfg["seed"]), max_splits=cfg["max_splits"])
    _write_output(partition_to_json(part), cfg["output"])
    return 0


def _cmd_verify_leaf_count(cfg: dict) -> int:
    report = harness.verify_leaf_count(cfg["d"], cfg["lifetime"], cfg["samples"], cfg["seed"])
    return _emit_report(report, cfg)


def _cmd_verify_cell_dist(cfg: dict) -> int:
    report = harness.verify_cell_distribution(cfg["d"], cfg["lifetime"], cfg["x"],
                                              cfg["samples"], cfg["seed"])
    return _emit_report(report, cfg)


def _cmd_verify_diameter(cfg: dict) -> int:
    report = harness.verify_diameter(cfg["d"], cfg["lifetime"], cfg["x"],
                                     cfg["samples"], cfg["seed"],
                                     delta_grid=cfg["delta_grid"])
    return _emit_report(report, cfg)


def _cmd_verify_restriction(cfg: dict) -> int:
    sub = BoxRegion(cfg["sub_lower"], cfg["sub_upper"])
    report = harness.verify_restriction(cfg["d"], cfg["lifetime"], sub,
                                        cfg["samples"], cfg["seed"])
    return _emit_report(report, cfg)


def _resolved_lifetime(cfg: dict, n: int, d: int) -> float:
    if cfg.get("lifetime") is not None:
        return cfg["lifetime"]
    if cfg.get("schedule"):
        return lifetime_schedule(cfg["schedule"], n, d, cfg["scale"])
    raise ValueError("provide --lifetime or --schedule")


def _cmd_risk(cfg: dict) -> int:
    task = _make_task(cfg)
    lifetime = _resolved_lifetime(cfg, cfg["n"], task.d)
    trees = cfg["trees"]
    n_trees = forest_size_schedule("c2", cfg["n"], task.d) if trees == "c2" else trees
    risk, se = harness.estimate_risk(task, cfg["n"], lifetime, n_trees,
                                     cfg["replicates"], cfg["n_test"], cfg["seed"],
                                     workers=cfg["threads"],
                                     eval_margin=cfg["eval_margin"])
    report = ExperimentReport(
        name="risk",
        config={k: cfg[k] for k in ("task", "target", "d", "sigma", "n",
                                    "replicates", "n_test", "seed", "eval_margin")}
        | {"lifetime": lifetime, "n_trees": n_trees},
        grid=[{"n": cfg["n"], "lifetime": lifetime, "n_trees": n_trees,
               "risk": risk, "se": se}],
    )
    return _emit_report(report, cfg)


def _cmd_rate_sweep(cfg: dict) -> int:
    task = _make_task(cfg)
    report = harness.rate_sweep(task, cfg["n_grid"], cfg["schedule"], cfg["scale"],
                                cfg["trees"], cfg["replicates"], cfg["seed"],
                                n_test=cfg["n_test"],
                                slope_tolerance=cfg["slope_tolerance"],
                                workers=cfg["threads"],
                                eval_margin=cfg["eval_margin"])
    return _emit_report(report, cfg)


def _cmd_tree_vs_forest(cfg: dict) -> int:
    report = harness.tree_vs_forest(cfg["n"], cfg["lambda_grid"], cfg["m_large"],
                                    cfg["replicates"], cfg["seed"],
                                    sigma2=cfg["sigma2"], n_test=cfg["n_test"],
                                    curved_n=cfg["curved_n"],
                                    curved_lambda_grid=cfg["curved_lambda_grid"],
                                    curved_sigma=cfg["curved_sigma"],
                                    workers=cfg["threads"])
    return _emit_report(report, cfg)


def _cmd_classify_sweep(cfg: dict) -> int:
    report = harness.classification_sweep(cfg["d"], cfg["n_grid"], cfg["schedule"],
                                          cfg["trees"], cfg["replicates"], cfg["seed"],
                                          scale=cfg["scale"], n_test=cfg["n_test"],
                                          target=cfg.get("target") or "",
                                          workers=cfg["threads"])
    return _emit_report(report, cfg)


def _cmd_fit(cfg: dict) -> int:
    X, y, d = _read_csv_matrix(cfg["data"])
    if y is None:
        raise ValueError("fit needs a y column in the data file")
    model = fit_forest(BoxRegion.unit(d), d, cfg["lifetime"], cfg["trees"],
                       X, y, master_seed=cfg["seed"])
    _write_output(model_to_json(model), cfg["output"])
    return 0


def _cmd_predict(cfg: dict) -> int:
    with open(cfg["model"], "r", encoding="utf-8") as handle:
        model = model_from_json(handle.read())
    if (cfg.get("data") is None) == (cfg.get("point") is None):
        raise ValueError("provide exactly one of --data or --point")
    if cfg.get("point") is not None:
        X = np.asarray([cfg["point"]], dtype=np.float64)
    else:
        X, _, _ = _read_csv_matrix(cfg["data"])
    values = predict_class(model, X) if cfg["classify"] else model.predict(X)
    if cfg["format"] == "csv":
        lines = ["prediction"] + [repr(v) if isinstance(v, float) else str(v)
                                  for v in np.asarray(values).tolist()]
        _write_output("\n".join(lines) + "\n", cfg["output"])
    else:
        _write_output(json.dumps({"predictions": np.asarray(values).tolist()}, indent=2),
                      cfg["output"])
    return 0


_HANDLERS = {
    "sample": _cmd_sample,
    "verify-leaf-count": _cmd_verify_leaf_count,
    "verify-cell-dist": _cmd_verify_cell_dist,
    "verify-diameter": _cmd_verify_diameter,
    "verify-restriction": _cmd_verify_restriction,
    "risk": _cmd_risk,
    "rate-sweep": _cmd_rate_sweep,
    "tree-vs-forest": _cmd_tree_vs_forest,
    "classify-sweep": _cmd_classify_sweep,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        cfg = _resolve_options(args, _SUBCOMMANDS[args.subcommand])
        return _HANDLERS[args.subcommand](cfg)
    except (ValueError, OSError, SplitLimitError) as exc:
        print(f"mondrian-forest {args.subcommand}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
