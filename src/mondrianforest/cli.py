"""Command-line front end.

Subcommands map one-to-one onto the harness operations, plus ``sample`` for
raw partitions and ``fit``/``predict`` for model files.  Every run echoes its
full configuration into the report it writes, and identical invocations
produce byte-identical artifacts (timings never enter the output).  The
parser builds options only for the invoked subcommand, and when the first
argument names a subcommand it registers that one alone; otherwise (an
option or an unknown name first) it registers every subcommand, so the
top-level help and the "invalid choice" error list them all.

Exit codes: 0 on success with all verdicts passing, 1 when any verdict
fails, 2 on usage errors (bad flags, bad config or model files, violated
preconditions, an exhausted split budget, a failed allocation).  The seed
resolution order is ``--seed``, then the config file, then the ``MF_SEED``
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import harness
from .estimators import fit_forest, model_from_json, model_to_json, predict_class
from .harness import ExperimentReport, SyntheticTask
from .partition import (DEFAULT_MAX_SPLITS, BoxRegion, SplitLimitError, _json_loads,
                        partition_to_json, sample_mondrian)
from .rng import RngStream, _natural

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
    _Opt("threads", int, 1, "worker process cap for the Monte-Carlo samples and replicates "
                            "of the verify-*, risk, rate-sweep, tree-vs-forest and "
                            "classify-sweep subcommands; sample, fit and predict check it "
                            "and run in one process"),
]

_TASK_OPTS = [
    _Opt("task", str, "lipschitz_1d", "task kind: lipschitz_1d, lipschitz_d, c2_d, linear_1d, classification_d"),
    _Opt("target", str, "", "target function id (defaults to the task kind's canonical target)"),
    _Opt("d", int, 1, "input dimension"),
    _Opt("sigma", float, 0.1, "label noise standard deviation"),
]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line; subparsers inherit the class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The subcommands ``argv`` may invoke, with options only for the one it does.

    The top-level parser takes no option with a value, so the first token that
    is not an option names the subcommand, as it does for argparse.  A known
    subcommand as the first token is the only one registered: each subparser
    costs more to build than parsing does.  Any other first token registers
    them all, for the help and the errors that list them.
    """
    parser = _Parser(
        prog="mondrian-forest",
        description="Mondrian partition sampling, tree/forest estimators, and "
                    "the Monte-Carlo verification harness.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    invoked = next((token for token in argv if not token.startswith("-")), None)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        handler, opts = _SUBCOMMANDS[name]
        sub = subparsers.add_parser(name, help=handler.__doc__)
        if name != invoked:
            continue
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

    Keys use flag names (dashes or underscores).  Duplicate keys, including
    two spellings of one flag, and nested JSON values are rejected.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        # pairs rather than a dict, so that a repeated key is seen, not overwritten
        pairs = _json_loads(stripped, "config JSON", object_pairs_hook=list)
        for key, value in pairs:
            if isinstance(value, list):  # an array, or a nested object's pairs
                raise ValueError(f"config key {key!r} must be flat (no nesting)")
    else:
        pairs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            pairs.append((key, value.strip()))
    values: dict[str, object] = {}
    for key, value in pairs:
        key = _norm_key(key)
        if key in values:
            raise ValueError(f"duplicate config key {key!r}")
        values[key] = value
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
    source = "--seed"
    if merged["seed"] is None:
        source, env = "MF_SEED", os.environ.get("MF_SEED")
        try:
            merged["seed"] = int(env) if env else 0
        except ValueError:
            raise ValueError(f"MF_SEED must be an integer, got {env!r}") from None
    if not 0 <= merged["seed"] < 2**64:
        raise ValueError(f"{source} must be a 64-bit unsigned integer, got {merged['seed']}")
    for key, opt in spec.items():
        if opt.required and merged[key] is None:
            raise ValueError(f"missing required option --{opt.name}")
    if merged["format"] not in ("json", "csv"):
        raise ValueError(f"unknown format {merged['format']!r}")
    _natural(merged["threads"], "--threads", 1)
    return merged


def _convert(opt: _Opt, raw):
    if raw is None:
        raise ValueError(f"--{opt.name} expects a value, got null")
    if opt.convert is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"--{opt.name} expects a boolean, got {raw!r}")
    if opt.convert in (int, float) and not isinstance(raw, str):
        # a JSON bool is not a number, and an int option takes only integral values
        if isinstance(raw, bool) or (opt.convert is int and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise ValueError(f"--{opt.name} expects {opt.convert.__name__}, got {raw!r}")
        try:
            return opt.convert(raw)
        except OverflowError:  # a JSON int beyond the float range
            raise ValueError(f"--{opt.name} is out of the float range") from None
    try:
        return opt.convert(str(raw))
    except ValueError as exc:
        raise ValueError(f"--{opt.name} got {raw!r}: {exc}") from None


def _write_output(text: str, path: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _make_task(cfg: dict) -> SyntheticTask:
    return SyntheticTask(kind=cfg["task"], d=cfg["d"], target=cfg["target"],
                         sigma=cfg["sigma"])


def _read_csv_matrix(path: str) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Read a data file with header x1..xd[,y]; returns (X, y or None, d).

    Columns bind by name: x1..xd in file order, plus at most one y anywhere.
    All values go through ``float()`` in one pass; a value that is not a number
    is refused with its line.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path} line 1: expected a header x1..xd[,y], found end of file")
            names = [h.strip() for h in header]
            x_cols = [i for i, h in enumerate(names) if h != "y"]
            y_cols = [i for i, h in enumerate(names) if h == "y"]
            if not x_cols or len(y_cols) > 1 or [names[i] for i in x_cols] != [
                    f"x{j}" for j in range(1, len(x_cols) + 1)]:
                raise ValueError(f"{path} line 1: header {','.join(names)!r} is not x1..xd "
                                 "in order with at most one y column")
            rows, lines = [], []
            for row in reader:
                if row:  # blank lines are skipped, but counted in line numbers
                    rows.append(row)
                    lines.append(reader.line_num)
        except csv.Error as exc:
            # csv's own refusal, such as a field over its size limit
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    width = len(header)
    cells = list(chain.from_iterable(rows))
    # float() reads Python's digit grouping: "1_0" is 10.0
    if set(map(len, rows)) != {width} or "_" in "".join(cells):
        raise _first_bad_row(path, width, rows, lines)
    try:
        data = np.fromiter(map(float, cells), np.float64, len(cells)).reshape(len(rows), width)
    except ValueError:
        raise _first_bad_row(path, width, rows, lines) from None
    X = data[:, x_cols]
    y = data[:, y_cols[0]] if y_cols else None
    return X, y, len(x_cols)


def _first_bad_row(path: str, width: int, rows: list, lines: list) -> ValueError:
    """The refusal of the first row that is not ``width`` numbers, naming its line."""
    for row, line in zip(rows, lines):
        if len(row) != width:
            return ValueError(f"{path} line {line}: expected {width} values, got {len(row)}")
        bad = next((v for v in row if "_" in v), None)
        if bad is not None:
            return ValueError(f"{path} line {line}: could not convert string to float: {bad!r}")
        try:
            list(map(float, row))
        except ValueError as exc:
            return ValueError(f"{path} line {line}: {exc}")


# -- subcommand implementations ----------------------------------------------


def _cmd_sample(cfg: dict) -> str:
    """Sample a Mondrian partition of the unit cube, written as JSON."""
    if cfg["format"] == "csv":
        raise ValueError("sample emits JSON only")
    part = sample_mondrian(BoxRegion.unit(cfg["d"]), cfg["lifetime"],
                           RngStream(cfg["seed"]), max_splits=cfg["max_splits"])
    return partition_to_json(part)


def _cmd_verify_leaf_count(cfg: dict) -> ExperimentReport:
    """Check the mean leaf count against (1 + lifetime)^d; at d=1, the Poisson split law."""
    return harness.verify_leaf_count(cfg["d"], cfg["lifetime"], cfg["samples"], cfg["seed"],
                                     workers=cfg["threads"])


def _cmd_verify_cell_dist(cfg: dict) -> ExperimentReport:
    """Check the law of the cell around a point: edge atoms, KS fits, independence."""
    return harness.verify_cell_distribution(cfg["d"], cfg["lifetime"], cfg["x"],
                                            cfg["samples"], cfg["seed"], workers=cfg["threads"])


def _cmd_verify_diameter(cfg: dict) -> ExperimentReport:
    """Check the cell diameter at a point against its tail and second-moment bounds."""
    return harness.verify_diameter(cfg["d"], cfg["lifetime"], cfg["x"], cfg["samples"],
                                   cfg["seed"], delta_grid=cfg["delta_grid"],
                                   workers=cfg["threads"])


def _cmd_verify_restriction(cfg: dict) -> ExperimentReport:
    """Check leaf counts of partitions restricted to a sub-box against the product law."""
    sub = BoxRegion(cfg["sub_lower"], cfg["sub_upper"])
    return harness.verify_restriction(cfg["d"], cfg["lifetime"], sub, cfg["samples"], cfg["seed"],
                                      workers=cfg["threads"])


def _cmd_risk(cfg: dict) -> ExperimentReport:
    """Estimate the quadratic risk of a tree or forest over fresh replicates."""
    task = _make_task(cfg)
    if (cfg["lifetime"] is None) == (not cfg["schedule"]):
        raise ValueError("provide exactly one of --lifetime or --schedule")
    schedule, scale = (("fixed", cfg["lifetime"]) if cfg["lifetime"] is not None
                       else (cfg["schedule"], cfg["scale"]))
    row = harness._row(cfg["n"], task.d, schedule, scale, cfg["trees"])
    risk, se = harness.estimate_risk(task, row["n"], row["lifetime"], row["n_trees"],
                                     cfg["replicates"], cfg["n_test"], cfg["seed"],
                                     workers=cfg["threads"],
                                     eval_margin=cfg["eval_margin"])
    return ExperimentReport(
        name="risk",
        config={k: cfg[k] for k in ("task", "target", "d", "sigma", "n",
                                    "replicates", "n_test", "seed", "eval_margin")}
        | {"lifetime": row["lifetime"], "n_trees": row["n_trees"]},
        grid=[row | {"risk": risk, "se": se}],
    )


def _cmd_rate_sweep(cfg: dict) -> ExperimentReport:
    """Fit the log-log slope of risk against n and compare it with the schedule's rate."""
    task = _make_task(cfg)
    return harness.rate_sweep(task, cfg["n_grid"], cfg["schedule"], cfg["scale"],
                              cfg["trees"], cfg["replicates"], cfg["seed"],
                              n_test=cfg["n_test"], slope_tolerance=cfg["slope_tolerance"],
                              workers=cfg["threads"], eval_margin=cfg["eval_margin"])


def _cmd_tree_vs_forest(cfg: dict) -> ExperimentReport:
    """Check the single-tree risk floor and the forest's gain on a curved target."""
    return harness.tree_vs_forest(cfg["n"], cfg["lambda_grid"], cfg["m_large"],
                                  cfg["replicates"], cfg["seed"],
                                  sigma2=cfg["sigma2"], n_test=cfg["n_test"],
                                  curved_n=cfg["curved_n"],
                                  curved_lambda_grid=cfg["curved_lambda_grid"],
                                  curved_sigma=cfg["curved_sigma"], workers=cfg["threads"])


def _cmd_classify_sweep(cfg: dict) -> ExperimentReport:
    """Check that the plug-in classifier's excess risk falls along an n grid."""
    return harness.classification_sweep(cfg["d"], cfg["n_grid"], cfg["schedule"],
                                        cfg["trees"], cfg["replicates"], cfg["seed"],
                                        scale=cfg["scale"], n_test=cfg["n_test"],
                                        target=cfg["target"], workers=cfg["threads"])


def _cmd_fit(cfg: dict) -> str:
    """Fit a forest to a data CSV, written as a JSON model."""
    if cfg["format"] == "csv":
        raise ValueError("fit emits JSON only")
    X, y, d = _read_csv_matrix(cfg["data"])
    if y is None:
        raise ValueError("fit needs a y column in the data file")
    model = fit_forest(BoxRegion.unit(d), d, cfg["lifetime"], cfg["trees"],
                       X, y, master_seed=cfg["seed"])
    return model_to_json(model)


def _cmd_predict(cfg: dict) -> str:
    """Predict values or class labels from a model file, as JSON or CSV."""
    if (cfg.get("data") is None) == (cfg.get("point") is None):
        raise ValueError("provide exactly one of --data or --point")
    with open(cfg["model"], "r", encoding="utf-8") as handle:
        model = model_from_json(handle.read())
    if cfg.get("point") is not None:
        X = np.asarray([cfg["point"]], dtype=np.float64)
    else:
        X, _, _ = _read_csv_matrix(cfg["data"])
    values = (predict_class(model, X) if cfg["classify"] else model.predict(X)).tolist()
    if cfg["format"] == "csv":
        return "\n".join(["prediction", *map(repr, values)]) + "\n"
    # json.dumps(..., indent=2) would run the pure-Python encoder; a list of numbers
    # holds ", " only between items, so the C encoder's one line splits into that layout
    items = json.dumps(values)[1:-1].replace(", ", ",\n    ")
    return '{\n  "predictions": [\n    ' + items + "\n  ]\n}"


_SUBCOMMANDS: dict[str, tuple[object, list[_Opt]]] = {
    "sample": (_cmd_sample, [
        _Opt("d", int, 2, "dimension of the unit cube"),
        _Opt("lifetime", float, None, "lifetime of the partition", required=True),
        _Opt("max-splits", int, DEFAULT_MAX_SPLITS, "split budget guard"),
    ]),
    "verify-leaf-count": (_cmd_verify_leaf_count, [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
    ]),
    "verify-cell-dist": (_cmd_verify_cell_dist, [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("x", _float_list, None, "interior point, comma separated", required=True),
        _Opt("samples", int, 5_000, "Monte-Carlo sample count"),
    ]),
    "verify-diameter": (_cmd_verify_diameter, [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("x", _float_list, None, "evaluation point, comma separated", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
        _Opt("delta-grid", _float_list, None, "tail thresholds (default: 10-point grid)"),
    ]),
    "verify-restriction": (_cmd_verify_restriction, [
        _Opt("d", int, 2, "dimension"),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("sub-lower", _float_list, None, "lower corner of the sub-box", required=True),
        _Opt("sub-upper", _float_list, None, "upper corner of the sub-box", required=True),
        _Opt("samples", int, 10_000, "Monte-Carlo sample count"),
    ]),
    "risk": (_cmd_risk, _TASK_OPTS + [
        _Opt("n", int, None, "training sample size", required=True),
        _Opt("lifetime", float, None, "lifetime (or use --schedule with --scale)"),
        _Opt("schedule", str, None, "lifetime schedule: lipschitz, c2, consistency, fixed"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 1, "tree count, or 'c2' for the sample-size rule"),
        _Opt("replicates", int, 8, "independent replicates"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("eval-margin", float, 0.0, "evaluate risk conditional on the margin-interior"),
    ]),
    "rate-sweep": (_cmd_rate_sweep, _TASK_OPTS + [
        _Opt("n-grid", _int_list, None, "sample sizes, comma separated (>= 3)", required=True),
        _Opt("schedule", str, "lipschitz", "lifetime schedule: lipschitz, c2, consistency, fixed"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 1, "tree count per point, or 'c2' for the rule"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("slope-tolerance", float, 0.15, "allowed |slope - target| in the verdict"),
        _Opt("eval-margin", float, 0.0, "evaluate risk conditional on the margin-interior"),
    ]),
    "tree-vs-forest": (_cmd_tree_vs_forest, [
        _Opt("n", int, 3000, "sample size for the linear lower-bound check"),
        _Opt("lambda-grid", _float_list, None, "lifetime grid, comma separated", required=True),
        _Opt("m-large", int, 100, "forest size for the curved-target comparison"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("sigma2", float, 1.0, "noise variance of the linear model"),
        _Opt("n-test", int, 2048, "test points per replicate"),
        _Opt("curved-n", int, 10_000, "sample size for the curved target"),
        _Opt("curved-lambda-grid", _float_list, None, "lifetime grid for the curved target"),
        _Opt("curved-sigma", float, 0.1, "noise level for the curved target"),
    ]),
    "classify-sweep": (_cmd_classify_sweep, [
        _Opt("d", int, 1, "input dimension"),
        _Opt("target", str, "", "conditional-probability target id"),
        _Opt("n-grid", _int_list, None, "sample sizes, comma separated", required=True),
        _Opt("schedule", str, "lipschitz", "lifetime schedule: lipschitz, c2, consistency, fixed"),
        _Opt("scale", float, 1.0, "schedule scale factor"),
        _Opt("trees", _trees_rule, 50, "tree count, or 'c2' for the rule"),
        _Opt("replicates", int, 20, "replicates per grid point"),
        _Opt("n-test", int, 4096, "test points per replicate"),
    ]),
    "fit": (_cmd_fit, [
        _Opt("data", str, None, "CSV with header x1..xd,y", required=True),
        _Opt("lifetime", float, None, "lifetime", required=True),
        _Opt("trees", int, 10, "forest size"),
    ]),
    "predict": (_cmd_predict, [
        _Opt("model", str, None, "model JSON produced by fit", required=True),
        _Opt("data", str, None, "CSV with header x1..xd (a y column is ignored)"),
        _Opt("point", _float_list, None, "single point, comma separated"),
        _Opt("classify", bool, False, "emit plug-in class labels instead of values"),
    ]),
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, write the handler's artifact, and return the exit code.

    The one writer of output: a report is written as JSON or CSV and exits 0
    only when every verdict passed; any other artifact is text and exits 0.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # the subcommand's own flags were parsed, so name it in the error
        parser.prog = " ".join(filter(None, [parser.prog, args.subcommand]))
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        handler, opts = _SUBCOMMANDS[args.subcommand]
        cfg = _resolve_options(args, opts)
        artifact, code = handler(cfg), 0
        if isinstance(artifact, ExperimentReport):
            code = 0 if artifact.passed else VERDICT_FAILURE
            artifact = artifact.to_csv() if cfg["format"] == "csv" else artifact.to_json()
        _write_output(artifact, cfg["output"])
        return code
    except (ValueError, OSError, SplitLimitError) as exc:
        print(f"mondrian-forest {args.subcommand}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # e.g. a sample size whose arrays cannot be allocated
        reason = str(exc) or "allocation failed"
        print(f"mondrian-forest {args.subcommand}: error: out of memory: {reason}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
