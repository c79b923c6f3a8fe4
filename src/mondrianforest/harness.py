"""Monte-Carlo verification and risk experiments.

Each operation samples partitions or fits estimators at desk scale, compares
the outcome against the closed-form oracles, and returns an
:class:`ExperimentReport` whose verdicts embed the statistic, the threshold,
and the tolerance rule that produced them, so every PASS/FAIL can be re-run
from the report alone.  Reports are deterministic given (config, seed);
risk replicates and partition samples use derived child streams and run
through one map, :func:`_map`, which may spread them over a bounded pool of
processes without changing a value.

Statistical conventions: mean comparisons use 4-standard-error bands,
goodness-of-fit tests run at family significance 1e-3 with Bonferroni
correction inside a family, and Kolmogorov-Smirnov p-values use the
asymptotic Kolmogorov distribution (sample sizes here are >= 1e3).
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field
from functools import partial

import numpy as np  # scipy is imported where it is used: it was most of the import time

from .estimators import MondrianForestModel, fit_forest, forest_size_schedule, lifetime_schedule
from .oracles import (
    diameter_second_moment_bound,
    diameter_tail_bound,
    expected_leaf_count,
    expected_leaf_count_box,
    tree_lower_bound_1d,
    truncated_exp_cdf,
)
from .partition import BoxRegion, leaf_count, restrict, sample_mondrian
from .rng import RngStream, _natural

__all__ = [
    "SyntheticTask",
    "Verdict",
    "ExperimentReport",
    "estimate_risk",
    "verify_leaf_count",
    "verify_cell_distribution",
    "verify_diameter",
    "verify_restriction",
    "rate_sweep",
    "tree_vs_forest",
    "classification_sweep",
]

FAMILY_SIGNIFICANCE = 1e-3
MEAN_BAND_SE = 4.0
_QUAD_TOL = 1e-9  # absolute and relative tolerance of the Bayes-risk quadrature
_MIN_EXPECTED = 5.0  # smallest expected count of a Poisson chi-square bin


# -- synthetic tasks ---------------------------------------------------------


def _pyramid(X):
    return np.abs(X[:, 0] - 0.5)


def _distance_to_center(X):
    return np.linalg.norm(X - 0.5, axis=1)


def _sine_mean(X):
    return np.sin(np.pi * X).mean(axis=1)


def _affine_plus_one(X):
    return 1.0 + X[:, 0]


def _constant(X):
    return np.full(X.shape[0], 0.7)


def _sine_wave_probability(X):
    return 0.5 * (1.0 + np.sin(2.0 * np.pi * X[:, 0]))


def _certain_one(X):
    return np.ones(X.shape[0])


def _coin_flip(X):
    return np.full(X.shape[0], 0.5)


@dataclass(frozen=True)
class _TargetSpec:
    fn: object
    lipschitz: object       # callables of d -> float
    sup_f: object
    grad_sup: object
    hess_sup: object
    eta_antiderivative: object = None  # 1-d antiderivative; set exactly for probability targets


def _sine_wave_probability_cdf(x):
    return 0.5 * x - np.cos(2.0 * np.pi * x) / (4.0 * np.pi)


def _certain_one_cdf(x):
    return np.asarray(x, dtype=np.float64)


def _coin_flip_cdf(x):
    return 0.5 * np.asarray(x, dtype=np.float64)


_TARGETS = {
    "pyramid": _TargetSpec(
        _pyramid,
        lambda d: 1.0, lambda d: 0.5, lambda d: 1.0, lambda d: math.inf,
    ),
    "distance_to_center": _TargetSpec(
        _distance_to_center,
        lambda d: 1.0, lambda d: 0.5 * math.sqrt(d), lambda d: 1.0, lambda d: math.inf,
    ),
    "sine_mean": _TargetSpec(
        _sine_mean,
        lambda d: math.pi / math.sqrt(d), lambda d: 1.0,
        lambda d: math.pi / math.sqrt(d), lambda d: math.pi**2 / d,
    ),
    "affine_plus_one": _TargetSpec(
        _affine_plus_one,
        lambda d: 1.0, lambda d: 2.0, lambda d: 1.0, lambda d: 0.0,
    ),
    "constant": _TargetSpec(
        _constant,
        lambda d: 0.0, lambda d: 0.7, lambda d: 0.0, lambda d: 0.0,
    ),
    "sine_wave_probability": _TargetSpec(
        _sine_wave_probability,
        lambda d: math.pi, lambda d: 1.0, lambda d: math.pi, lambda d: 2.0 * math.pi**2,
        eta_antiderivative=_sine_wave_probability_cdf,
    ),
    "certain_one": _TargetSpec(
        _certain_one,
        lambda d: 0.0, lambda d: 1.0, lambda d: 0.0, lambda d: 0.0,
        eta_antiderivative=_certain_one_cdf,
    ),
    "coin_flip": _TargetSpec(
        _coin_flip,
        lambda d: 0.0, lambda d: 0.5, lambda d: 0.0, lambda d: 0.0,
        eta_antiderivative=_coin_flip_cdf,
    ),
}

_TASK_KINDS = {
    "lipschitz_1d": "pyramid",
    "lipschitz_d": "distance_to_center",
    "c2_d": "sine_mean",
    "linear_1d": "affine_plus_one",
    "classification_d": "sine_wave_probability",
}


@dataclass(frozen=True)
class SyntheticTask:
    """Regression or classification task with uniform inputs on [0,1]^d.

    Regression labels are ``f(X) + sigma * N(0,1)``; classification labels
    are Bernoulli with success probability ``f(X)``.  Each target ships its
    true Lipschitz/supremum/derivative constants for oracle comparison.
    """

    kind: str
    d: int = 1
    target: str = ""
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {sorted(_TASK_KINDS)}")
        if self.kind.endswith("_1d") and self.d != 1:
            raise ValueError(f"{self.kind} requires d = 1")
        object.__setattr__(self, "d", _natural(self.d, "d", 1))
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        target = self.target or _TASK_KINDS[self.kind]
        if target not in _TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if self.kind == "linear_1d" and target != "affine_plus_one":
            raise ValueError("linear_1d is exactly the affine_plus_one target")
        object.__setattr__(self, "target", target)
        if self.is_classification != (self.kind == "classification_d"):
            raise ValueError(f"target {target!r} does not fit task kind {self.kind!r}")

    @property
    def spec(self) -> _TargetSpec:
        return _TARGETS[self.target]

    @property
    def is_classification(self) -> bool:
        return self.spec.eta_antiderivative is not None

    def f(self, X) -> np.ndarray:
        """True regression function (the conditional probability for
        classification tasks)."""
        return self.spec.fn(np.asarray(X, dtype=np.float64))

    @property
    def lipschitz(self) -> float:
        return self.spec.lipschitz(self.d)

    @property
    def sup_f(self) -> float:
        return self.spec.sup_f(self.d)

    @property
    def grad_sup(self) -> float:
        return self.spec.grad_sup(self.d)

    @property
    def hess_sup(self) -> float:
        return self.spec.hess_sup(self.d)

    def sample_data(self, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """Draw a dataset: X uniform, then noisy or Bernoulli labels."""
        gen = rng.generator
        X = gen.random((n, self.d))
        signal = self.f(X)
        if self.is_classification:
            y = (gen.random(n) < signal).astype(np.float64)
        else:
            y = signal + self.sigma * gen.standard_normal(n) if self.sigma > 0 else signal.copy()
        return X, y

    def bayes_risk(self) -> float:
        """0-1 risk of the optimal classifier, by quadrature to ~1e-6 or better.

        Every probability target depends on x1 alone, so the risk is a 1-d integral.
        """
        if not self.is_classification:
            raise ValueError("bayes_risk is defined for classification tasks")

        def integrand(x1):
            eta = float(self.f(np.array([[x1] + [0.5] * (self.d - 1)]))[0])
            return min(eta, 1.0 - eta)

        from scipy import integrate

        value, _ = integrate.quad(integrand, 0.0, 1.0, points=[0.25, 0.5, 0.75],
                                  limit=200, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        return value


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One pass/fail decision with everything needed to re-run it."""

    name: str
    passed: bool
    statistic: float
    threshold: float
    rule: str
    sample_size: int

    def to_dict(self) -> dict:
        return asdict(self)


_CSV_LEAD_COLUMNS = ["n", "lifetime", "n_trees", "risk", "se"]


@dataclass
class ExperimentReport:
    """Structured record of one Monte-Carlo experiment.

    ``grid`` rows hold per-point results (keys ``n``, ``lifetime``,
    ``n_trees``, ``risk``, ``se`` where applicable), ``oracle`` the
    closed-form reference values, and ``verdicts`` the pass/fail decisions.
    ``wall_clock`` is informational and excluded from serialized artifacts so
    identical runs produce identical bytes.
    """

    name: str
    config: dict
    grid: list = field(default_factory=list)
    oracle: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    wall_clock: float = 0.0

    def __post_init__(self):
        # the experiments take numpy ints for counts (m_rule, m_large, seed, ...), which
        # json cannot write, so every integer config field is kept as a Python int
        self.config = {key: int(value) if isinstance(value, np.integer) else value
                       for key, value in self.config.items()}

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "grid": self.grid,
            "oracle": self.oracle,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def to_csv(self) -> str:
        """Grid rows as CSV (columns: n, lifetime, n_trees, risk, se, then
        any extra keys in sorted order); verdict rows if there is no grid."""
        buf = io.StringIO()
        if self.grid:
            extra = sorted({k for row in self.grid for k in row} - set(_CSV_LEAD_COLUMNS))
            columns = [c for c in _CSV_LEAD_COLUMNS if any(c in row for row in self.grid)] + extra
            writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for row in self.grid:
                writer.writerow({k: row.get(k, "") for k in columns})
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["verdict", "passed", "statistic", "threshold", "rule", "sample_size"])
            writer.writerows(astuple(v) for v in self.verdicts)
        return buf.getvalue()


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error; every caller refuses fewer than 2 values before drawing."""
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _verdict(name: str, statistic: float, holds, threshold: float, rule: str, n: int) -> Verdict:
    """The one pass/fail decision: ``holds(statistic, threshold)``, with
    ``holds`` a comparison such as ``operator.le``."""
    return Verdict(name, bool(holds(statistic, threshold)), statistic, threshold, rule, int(n))


def _band_verdict(name: str, value: float, center: float, se: float, n: int) -> Verdict:
    return _verdict(name, abs(value - center), operator.le, MEAN_BAND_SE * se,
                    f"|mean - {center:.10g}| <= {MEAN_BAND_SE:g} * SE", n)


# -- the sample map ----------------------------------------------------------


def _run_chunk(fn, chunk: list) -> list:
    return [fn(p) for p in chunk]


def _map(fn, payloads: list, workers: int) -> list:
    """``[fn(p) for p in payloads]``, on a pool of at most ``workers`` processes.

    The pool is capped at the payload count and the CPU count, and below two
    processes everything runs in the calling process.  Values come back in
    payload order.  Each chunk shipped to the pool holds 1/16 of a process's
    share of the payloads still unshipped: early chunks are long, so cheap
    samples are not outweighed by shipping them one at a time, and once fewer
    than ``32 * processes`` are left they go one at a time, so the costliest
    replicates of a grid ordered by ``n`` cannot leave a process idle at the end.
    """
    processes = min(_natural(workers, "workers", 1), len(payloads), os.cpu_count() or 1)
    if processes < 2:
        return _run_chunk(fn, payloads)
    chunks, start = [], 0
    while start < len(payloads):
        stop = start + max(1, (len(payloads) - start) // (16 * processes))
        chunks.append(payloads[start:stop])
        start = stop
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return [value for chunk in pool.map(partial(_run_chunk, fn), chunks) for value in chunk]


# -- risk estimation ---------------------------------------------------------


def _replicate(payload) -> list[float]:
    """One replicate: data from child stream 0, a forest of ``max(tree_counts)``
    trees grown from child 1 and ``n_test`` uniform test inputs from child 2, then
    ``score`` of the forest's leading ``m`` trees on those inputs for each count ``m``.

    Tree ``m`` of a forest is grown from child ``m`` of its stream, so the leading
    trees are exactly the smaller forest: one fit and one test draw score every count.
    """
    score, task, n, lifetime, tree_counts, n_test, seed, path, extra = payload
    stream = RngStream(seed, path)
    X, y = task.sample_data(n, stream.child(0))
    model = fit_forest(BoxRegion.unit(task.d), task.d, lifetime, max(tree_counts), X, y,
                       master_seed=stream.child(1))
    X_test = stream.child(2).generator.random((n_test, task.d))
    return [score(task, MondrianForestModel(model.trees[:m], lifetime, model.master_seed),
                  X_test, extra)
            for m in tree_counts]


def _quadratic_risk(task, model, X_test, eval_margin) -> float:
    # risk conditional on inputs in the margin-interior of the cube; margin 0 maps
    # each input to itself bit for bit
    X_test = eval_margin + (1.0 - 2.0 * eval_margin) * X_test
    residual = model.predict(X_test) - task.f(X_test)
    return float(np.mean(residual**2))


_SCHEDULES = ("c2", "consistency", "fixed", "lipschitz")


def _row(n: int, d: int, schedule: str, scale: float, m_rule) -> dict:
    """The risk-grid row ``{"n", "lifetime", "n_trees"}`` of size ``n`` in dimension ``d``.

    ``schedule`` is a lifetime schedule, or ``"fixed"`` for the lifetime
    ``scale``; ``m_rule`` is a tree count or ``"c2"`` for the sample-size rule.
    Every risk experiment builds its rows here, so each input is refused before
    any data is drawn.
    """
    n = _natural(n, "n", 1)
    # "fixed" is not one of lifetime_schedule's kinds, so its error would not list it
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; expected one of {list(_SCHEDULES)}")
    if schedule != "fixed":
        lifetime = lifetime_schedule(schedule, n, d, scale)
    elif 0.0 <= scale < math.inf:
        lifetime = scale
    else:
        raise ValueError(f"lifetime must be finite and >= 0, got {scale} "
                         "(under schedule 'fixed' it is the scale)")
    if m_rule == "c2":
        n_trees = forest_size_schedule("c2", n, d)
    else:
        n_trees = _natural(m_rule, "tree count", 1)
    return {"n": n, "lifetime": lifetime, "n_trees": n_trees}


def _estimate_grid(points, score, extra, replicates: int, n_test: int, seed: int,
                   workers: int) -> None:
    """Write ``risk`` and ``se`` into each grid row from fresh replicates.

    ``points`` holds ``(rows, task, path)`` triples, where ``rows`` come from
    :func:`_row` and share ``n`` and ``lifetime``, differing only in
    ``n_trees``.  Replicate ``r`` of a point runs on the stream
    ``(seed, path + (r,))`` as one payload: its data and test inputs are drawn
    and its largest forest is fitted once, and each row scores that forest's
    leading ``n_trees`` trees with ``score(task, model, X_test, extra)``, so the
    rows of a point are paired.  All replicates of the experiment go through one
    :func:`_map`.
    """
    replicates, n_test = _natural(replicates, "replicates", 2), _natural(n_test, "n_test", 1)
    payloads = [(score, task, rows[0]["n"], rows[0]["lifetime"],
                 [row["n_trees"] for row in rows], n_test, seed, path + (rep,), extra)
                for rows, task, path in points for rep in range(replicates)]
    values = _map(_replicate, payloads, workers)
    for i, (rows, _, _) in enumerate(points):
        for row, column in zip(rows, zip(*values[i * replicates:(i + 1) * replicates])):
            row["risk"], row["se"] = _mean_se(column)


def estimate_risk(task: SyntheticTask, n: int, lifetime: float, n_trees: int,
                  replicates: int, n_test: int, seed: int, workers: int = 1,
                  eval_margin: float = 0.0) -> tuple[float, float]:
    """Mean and standard error of the quadratic risk over fresh replicates.

    Each replicate draws a fresh dataset and a fresh forest, and evaluates
    the squared error against the true regression function on fresh test
    points, so the estimate integrates over data, partitions, and inputs
    jointly.  A positive ``eval_margin`` restricts the test inputs to the
    margin-interior of the cube (the conditional risk of the
    twice-differentiable theory, which excludes the boundary layer).
    """
    if not 0.0 <= eval_margin < 0.5:
        raise ValueError("eval_margin must be in [0, 1/2)")
    row = _row(n, task.d, "fixed", lifetime, n_trees)
    _estimate_grid([([row], task, ())], _quadratic_risk, eval_margin, replicates, n_test,
                   seed, workers)
    return row["risk"], row["se"]


# -- partition statistics ----------------------------------------------------


def _sample(payload):
    """One Monte-Carlo sample: ``statistic`` of the partition of ``box`` drawn
    on the stream ``(seed, path)``."""
    box, lifetime, seed, path, statistic = payload
    return statistic(sample_mondrian(box, lifetime, RngStream(seed, path)))


def _sample_legs(legs, samples: int, seed: int, workers: int) -> list[np.ndarray]:
    """One array of ``samples`` statistics per leg ``(box, lifetime, statistic)``.

    Sample ``i`` of leg ``k`` is drawn on the stream ``(seed, (len(legs) * i + k,))``,
    so legs interleave on one family of streams; all of them share one :func:`_map`.
    """
    samples = _natural(samples, "samples", 2)
    payloads = [(box, lifetime, seed, (len(legs) * i + k,), statistic)
                for k, (box, lifetime, statistic) in enumerate(legs) for i in range(samples)]
    values = _map(_sample, payloads, workers)
    return [np.array(values[k * samples:(k + 1) * samples]) for k in range(len(legs))]


def _restricted_leaf_count(sub: BoxRegion, part) -> int:
    return restrict(part, sub).n_leaves


def _edge_distances(x: np.ndarray, part) -> np.ndarray:
    """Distances from ``x`` to the lower, then the upper, faces of its cell."""
    cell = part.locate_leaf(x).box
    return np.concatenate([x - cell.lower, cell.upper - x])


def _cell_diameter(x: np.ndarray, part) -> float:
    return part.locate_leaf(x).box.l2_diameter


def _poisson_chisquare(values, lam: float) -> tuple[float | None, int, float | None]:
    """Chi-square GOF statistic, dof, p-value of counts against Poisson(lam).

    Bins are built from the theoretical pmf only, greedily merged left to
    right until each expected count reaches ``_MIN_EXPECTED``; the remainder
    tail joins the last bin.  Fewer than two bins leave no test: the
    statistic and p-value are then None, and dof is the bin count minus one.
    """
    from scipy import stats

    values = np.asarray(values, dtype=np.int64)
    n = values.size
    hi = int(max(values.max(), math.ceil(lam + 10.0 * math.sqrt(lam + 1.0)))) + 1
    pmf = stats.poisson.pmf(np.arange(hi), lam)
    pmf = np.append(pmf, max(0.0, 1.0 - pmf.sum()))  # tail >= hi
    edges = []  # bin = [start, stop) over count values, last is open-ended
    start, acc = 0, 0.0
    for k, p in enumerate(pmf):
        acc += p
        if acc * n >= _MIN_EXPECTED:
            edges.append((start, k + 1, acc))
            start, acc = k + 1, 0.0
    if len(edges) < 2:
        return None, len(edges) - 1, None
    s, _, a = edges[-1]  # the final bin takes the short remainder, if any
    edges[-1] = (s, hi + 1, a + acc)
    observed = np.array([np.sum((values >= s) & (values < e)) for s, e, _ in edges])
    expected = np.array([n * p for _, _, p in edges])
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(edges) - 1
    return chi2_stat, dof, float(stats.chi2.sf(chi2_stat, dof))


def verify_leaf_count(d: int, lifetime: float, samples: int, seed: int,
                      workers: int = 1) -> ExperimentReport:
    """Empirical mean of the leaf count against the exact law.

    PASS when the sample mean is within 4 standard errors of
    ``(1 + lifetime)^d``.  For d = 1 the split count is additionally tested
    against a Poisson law by chi-square at significance 1e-3.
    """
    t0 = time.perf_counter()
    counts, = _sample_legs([(BoxRegion.unit(d), lifetime, leaf_count)], samples, seed, workers)
    mean, se = _mean_se(counts)
    oracle = expected_leaf_count(lifetime, d)
    verdicts = [_band_verdict("leaf-count-mean", mean, oracle, se, samples)]
    grid = [{"n": samples, "lifetime": lifetime, "mean_leaves": mean, "se": se,
             "oracle": oracle}]
    if d == 1 and lifetime > 0:
        chi2_stat, dof, pvalue = _poisson_chisquare(counts - 1, lifetime)
        if pvalue is None:
            verdicts.append(_verdict("poisson-splits-gof", dof + 1, operator.ge, 2,
                                     "chi-square bins >= 2 for the GOF test", samples))
        else:
            verdicts.append(_verdict(
                "poisson-splits-gof", pvalue, operator.ge, FAMILY_SIGNIFICANCE,
                f"chi-square GOF vs Poisson({lifetime:g}), stat={chi2_stat:.4f}, dof={dof}, "
                "p >= 1e-3", samples))
    return ExperimentReport(
        name="verify-leaf-count",
        config={"d": d, "lifetime": lifetime, "samples": samples, "seed": seed},
        grid=grid,
        oracle={"expected_leaf_count": oracle},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def verify_cell_distribution(d: int, lifetime: float, x, samples: int, seed: int,
                             workers: int = 1) -> ExperimentReport:
    """Distribution of the cell around an interior point.

    For each of the 2d edge distances: the boundary-atom frequency must sit
    within 4 standard errors of ``exp(-lifetime * margin)``, and the interior
    part must pass a KS test against the exponential law conditioned to the
    interior (family significance 1e-3, Bonferroni over the 2d tests).
    Independence across the 2d coordinates is checked through pairwise sample
    correlations, all below ``4 / sqrt(samples)``.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    if not np.all((x > 0.0) & (x < 1.0)):  # written so that nan fails it
        raise ValueError("x must be strictly interior to the unit cube")
    dists, = _sample_legs([(BoxRegion.unit(d), lifetime, partial(_edge_distances, x))],
                          samples, seed, workers)
    margins = np.concatenate([x, 1.0 - x])
    labels = [f"left-x{j}" for j in range(d)] + [f"right-x{j}" for j in range(d)]
    per_test_alpha = FAMILY_SIGNIFICANCE / (2 * d)
    verdicts = []
    for col, (label, margin) in enumerate(zip(labels, margins)):
        column = dists[:, col]
        atom_p = math.exp(-lifetime * margin)
        atom_freq = float(np.mean(column == margin))
        atom_se = math.sqrt(atom_p * (1.0 - atom_p) / samples)
        verdicts.append(_band_verdict(f"atom-{label}", atom_freq, atom_p, atom_se, samples))
        interior = column[column < margin]
        if interior.size < 2:
            verdicts.append(_verdict(f"ks-{label}", int(interior.size), operator.ge, 2,
                                     "interior samples >= 2 for the KS test", samples))
            continue
        total_mass = -math.expm1(-lifetime * margin)

        def conditional_cdf(t, margin=margin, total_mass=total_mass):
            return truncated_exp_cdf(np.clip(t, 0.0, None), lifetime, margin) / total_mass

        from scipy import stats

        result = stats.kstest(interior, np.vectorize(conditional_cdf), mode="asymp")
        verdicts.append(_verdict(
            f"ks-{label}", float(result.pvalue), operator.ge, per_test_alpha,
            f"KS vs exponential({lifetime:g}) conditioned below {margin:g}, "
            f"D={result.statistic:.5f}, p >= 1e-3/{2*d} (Bonferroni)",
            int(interior.size)))
    corr_limit = 4.0 / math.sqrt(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(dists, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)  # constant column => independent
    for a in range(2 * d):
        for b in range(a + 1, 2 * d):
            verdicts.append(_verdict(
                f"independence-{labels[a]}-{labels[b]}", float(abs(corr[a, b])), operator.lt,
                corr_limit, "|pairwise correlation| < 4 / sqrt(samples)", samples))
    return ExperimentReport(
        name="verify-cell-dist",
        config={"d": d, "lifetime": lifetime, "x": x.tolist(), "samples": samples, "seed": seed},
        oracle={f"atom-{label}": math.exp(-lifetime * m) for label, m in zip(labels, margins)},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def verify_diameter(d: int, lifetime: float, x, samples: int, seed: int,
                    delta_grid=None, workers: int = 1) -> ExperimentReport:
    """Cell diameter at a point against the tail and second-moment bounds.

    Empirical tail frequencies must stay below the closed-form bound plus 4
    standard errors at every grid point, and the mean squared diameter below
    ``4 d / lifetime^2`` plus 4 standard errors.
    """
    t0 = time.perf_counter()
    box = BoxRegion.unit(d)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    if not box.contains(x):
        raise ValueError("x must lie in the unit cube")
    if not 0.0 < lifetime < math.inf:
        raise ValueError(f"lifetime must be finite and > 0, got {lifetime}")
    if delta_grid is None:
        delta_grid = np.linspace(0.5, 8.0, 10) * math.sqrt(d) / lifetime
    if not all(math.isfinite(delta) and delta >= 0 for delta in delta_grid):
        raise ValueError("every delta must be finite and >= 0")
    diameters, = _sample_legs([(box, lifetime, partial(_cell_diameter, x))],
                              samples, seed, workers)
    sq_mean, sq_se = _mean_se(diameters**2)
    bound = diameter_second_moment_bound(lifetime, d)
    verdicts = [_verdict("second-moment", sq_mean, operator.le, bound + MEAN_BAND_SE * sq_se,
                         "mean(D^2) <= 4d/lifetime^2 + 4 * SE", samples)]
    grid = []
    for delta in np.asarray(delta_grid, dtype=np.float64):
        freq = float(np.mean(diameters >= delta))
        se = math.sqrt(freq * (1.0 - freq) / samples)
        tail = diameter_tail_bound(delta, lifetime, d)
        verdicts.append(_verdict(
            f"tail@delta={delta:.6g}", freq, operator.le, tail + MEAN_BAND_SE * se,
            "P(D >= delta) <= d(1 + L*delta/sqrt(d)) exp(-L*delta/sqrt(d)) + 4 * SE", samples))
        grid.append({"delta": float(delta), "tail_freq": freq, "se": se, "bound": tail})
    return ExperimentReport(
        name="verify-diameter",
        config={"d": d, "lifetime": lifetime, "x": x.tolist(), "samples": samples,
                "seed": seed, "delta_grid": [float(v) for v in delta_grid]},
        grid=grid,
        oracle={"second_moment_bound": bound},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def verify_restriction(d: int, lifetime: float, sub: BoxRegion, samples: int, seed: int,
                       workers: int = 1) -> ExperimentReport:
    """Leaf counts of restricted partitions against the product law.

    Partitions of the unit cube restricted to ``sub`` must have mean leaf
    count within 4 standard errors of ``prod_j (1 + lifetime * len_j)``; a
    joint band compares them to partitions sampled directly on ``sub``, plus
    a two-sample KS test on the leaf counts.
    """
    t0 = time.perf_counter()
    if sub.dim != d:
        raise ValueError(f"sub has dimension {sub.dim}, the unit cube has {d}")
    box = BoxRegion.unit(d)
    if not box.contains_box(sub):
        raise ValueError("sub must be contained in the unit cube")
    restricted, direct = _sample_legs(
        [(box, lifetime, partial(_restricted_leaf_count, sub)), (sub, lifetime, leaf_count)],
        samples, seed, workers)
    oracle = expected_leaf_count_box(lifetime, sub.side_lengths)
    r_mean, r_se = _mean_se(restricted)
    d_mean, d_se = _mean_se(direct)
    from scipy import stats

    ks = stats.ks_2samp(restricted, direct, mode="asymp")
    verdicts = [
        _band_verdict("restricted-mean-vs-product-law", r_mean, oracle, r_se, samples),
        _verdict("restricted-vs-direct-means", abs(r_mean - d_mean), operator.le,
                 MEAN_BAND_SE * math.hypot(r_se, d_se),
                 "|mean_restricted - mean_direct| <= 4 * sqrt(SE_r^2 + SE_d^2)", samples),
        _verdict("restricted-vs-direct-ks", float(ks.pvalue), operator.ge, FAMILY_SIGNIFICANCE,
                 f"two-sample KS on leaf counts, D={ks.statistic:.5f}, p >= 1e-3 "
                 "(conservative under ties)", samples),
    ]
    return ExperimentReport(
        name="verify-restriction",
        config={"d": d, "lifetime": lifetime, "sub_lower": sub.lower.tolist(),
                "sub_upper": sub.upper.tolist(), "samples": samples, "seed": seed,
                # the KS test always runs; the key stays, as pinned report bytes hash it
                "two_sample": True},
        grid=[{"mean_restricted": r_mean, "se_restricted": r_se,
               "mean_direct": d_mean, "se_direct": d_se, "oracle": oracle}],
        oracle={"expected_leaf_count_box": oracle},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


# -- rate experiments --------------------------------------------------------


def _ols_slope(log_n: np.ndarray, log_risk: np.ndarray) -> tuple[float, float]:
    x = log_n - log_n.mean()
    slope = float(np.dot(x, log_risk) / np.dot(x, x))
    intercept = float(log_risk.mean() - slope * log_n.mean())
    residuals = log_risk - (intercept + slope * log_n)
    s2 = float(np.dot(residuals, residuals) / (log_n.size - 2))
    return slope, math.sqrt(s2 / float(np.dot(x, x)))


_SLOPE_TARGETS = {
    "lipschitz": lambda d: -2.0 / (d + 2),
    "c2": lambda d: -4.0 / (d + 4),
}


def rate_sweep(task: SyntheticTask, n_grid, schedule: str, scale: float, m_rule,
               replicates: int, seed: int, n_test: int = 2048,
               slope_tolerance: float = 0.15, workers: int = 1,
               eval_margin: float = 0.0) -> ExperimentReport:
    """Risk versus sample size along a lifetime schedule, with a log-log slope fit.

    ``schedule`` is one of the lifetime schedules or ``"fixed"`` (lifetime
    equal to ``scale`` at every n); ``m_rule`` is a tree count or ``"c2"``
    for the sample-size-dependent rule.  The verdict compares the fitted
    slope against the schedule's theoretical exponent within
    ``slope_tolerance`` (use at least 5 geometrically spaced sample sizes
    for a meaningful fit; fewer than 3 distinct sizes is an error).
    """
    grid = [_row(n, task.d, schedule, scale, m_rule) for n in n_grid]
    n_grid = [row["n"] for row in grid]
    if len(set(n_grid)) < 3:
        raise ValueError("n_grid must contain at least 3 distinct sizes")
    if not 0.0 <= eval_margin < 0.5:
        raise ValueError("eval_margin must be in [0, 1/2)")
    if not 0.0 <= slope_tolerance < math.inf:
        raise ValueError("slope_tolerance must be finite and >= 0")
    t0 = time.perf_counter()
    _estimate_grid([([row], task, (i,)) for i, row in enumerate(grid)], _quadratic_risk,
                   eval_margin, replicates, n_test, seed, workers)
    if any(row["risk"] <= 0 for row in grid):
        raise ValueError("risks must be positive to fit a log-log slope; add noise or bias")
    log_n = np.log([row["n"] for row in grid])
    log_risk = np.log([row["risk"] for row in grid])
    slope, slope_se = _ols_slope(log_n, log_risk)
    oracle = {}
    verdicts = []
    if schedule in _SLOPE_TARGETS:
        target = _SLOPE_TARGETS[schedule](task.d)
        oracle["slope_target"] = target
        verdicts.append(_verdict(
            "rate-slope", slope, lambda s, tol: abs(s - target) <= tol, slope_tolerance,
            f"|OLS slope - ({target:.6g})| <= {slope_tolerance:g} (slope SE {slope_se:.4g})",
            len(n_grid) * replicates))
    return ExperimentReport(
        name="rate-sweep",
        config={"task": task.kind, "target": task.target, "d": task.d,
                "sigma": task.sigma, "n_grid": n_grid, "schedule": schedule,
                "scale": scale, "m_rule": m_rule, "replicates": replicates,
                "n_test": n_test, "seed": seed, "slope_tolerance": slope_tolerance,
                "eval_margin": eval_margin},
        grid=grid,
        oracle=oracle | {"slope": slope, "slope_se": slope_se},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def tree_vs_forest(n: int, lambda_grid, m_large: int, replicates: int, seed: int,
                   sigma2: float = 1.0, n_test: int = 2048,
                   curved_n: int = 10_000, curved_lambda_grid=None,
                   curved_sigma: float = 0.1, workers: int = 1) -> ExperimentReport:
    """Single-tree floor on the linear model; forest gain on a curved target.

    On the 1-d linear model the best single-tree risk over the lifetime grid
    must stay above 0.9 times the explicit lower-bound branch.  On the curved
    target (``sin(pi x)`` at ``curved_n`` samples) the grid-minimal risk of an
    ``m_large``-tree forest must undercut 0.95 times the single-tree minimum
    over the same grid.  Each curved replicate fits the forest once and scores
    its tree 0 as the single tree, so tree and forest are paired.
    """
    if _natural(n, "n", 1) < 18:
        raise ValueError("the lower bound requires n >= 18")
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and >= 0")
    t0 = time.perf_counter()
    lambda_grid = [float(v) for v in lambda_grid]
    if curved_lambda_grid is None:
        curved_lambda_grid = lambda_grid
    curved_lambda_grid = [float(v) for v in curved_lambda_grid]

    linear = SyntheticTask(kind="linear_1d", sigma=math.sqrt(sigma2))
    curved = SyntheticTask(kind="c2_d", d=1, sigma=curved_sigma)

    points = [([_row(n, 1, "fixed", lam, 1)], linear, (0, i))
              for i, lam in enumerate(lambda_grid)]
    # one point per curved lifetime: the single tree is tree 0 of each replicate's
    # forest, fitted once, so the comparison is paired
    points += [([_row(curved_n, 1, "fixed", lam, m_rule) for m_rule in (1, m_large)],
                curved, (1, i))
               for i, lam in enumerate(curved_lambda_grid)]
    _estimate_grid(points, _quadratic_risk, 0.0, replicates, n_test, seed, workers)
    grid = [row | {"task": "linear" if task is linear else "curved"}
            for rows, task, _ in points for row in rows]
    linear_tree = [row["risk"] for row in grid[:len(lambda_grid)]]
    curved_tree = [row["risk"] for row in grid[len(lambda_grid)::2]]
    curved_forest = [row["risk"] for row in grid[len(lambda_grid) + 1::2]]
    lower = tree_lower_bound_1d(n, sigma2)
    verdicts = [
        _verdict("tree-lower-bound", min(linear_tree), operator.ge, 0.9 * lower,
                 "min over lifetime grid of single-tree risk >= 0.9 * (1/4)(3 sigma2/n)^(2/3)",
                 len(lambda_grid) * replicates),
        _verdict("forest-beats-tree", min(curved_forest), operator.le, 0.95 * min(curved_tree),
                 "grid-min forest risk <= 0.95 * grid-min tree risk on the curved target",
                 len(curved_lambda_grid) * replicates),
    ]
    return ExperimentReport(
        name="tree-vs-forest",
        config={"n": n, "lambda_grid": lambda_grid, "m_large": m_large,
                "replicates": replicates, "seed": seed, "sigma2": sigma2,
                "n_test": n_test, "curved_n": curved_n,
                "curved_lambda_grid": curved_lambda_grid, "curved_sigma": curved_sigma},
        grid=grid,
        oracle={"tree_lower_bound": lower},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def _exact_classifier_risk_1d(model, eta_antiderivative) -> float:
    """0-1 risk of a 1-d forest classifier, exactly.

    The decision function is constant between the union of all tree split
    thresholds, so the risk is a finite sum of interval integrals of the
    conditional probability, evaluated from its antiderivative.
    """
    points = [0.0, 1.0]
    for tree in model.trees:
        part = tree.partition
        points.extend(part.threshold[part.split_dim >= 0].tolist())
    edges = np.unique(np.asarray(points, dtype=np.float64))
    mids = 0.5 * (edges[:-1] + edges[1:])
    decisions = model.predict_class(mids[:, None])
    eta_mass = np.diff(eta_antiderivative(edges))
    widths = np.diff(edges)
    return float(np.where(decisions == 1, widths - eta_mass, eta_mass).sum())


def _excess_classification_risk(task, model, X_test, bayes) -> float:
    # every probability target has an antiderivative, so 1-d risk is always exact
    if task.d == 1:
        risk = _exact_classifier_risk_1d(model, task.spec.eta_antiderivative)
    else:
        eta = task.f(X_test)
        decisions = model.predict_class(X_test)
        risk = float(np.mean(np.where(decisions == 1, 1.0 - eta, eta)))
    return risk - bayes


def classification_sweep(d: int, n_grid, schedule: str, m_rule, replicates: int,
                         seed: int, scale: float = 1.0, n_test: int = 4096,
                         target: str = "", workers: int = 1) -> ExperimentReport:
    """Excess 0-1 risk of the plug-in classifier along a sample-size grid.

    The Bayes risk comes from quadrature of ``min(eta, 1 - eta)``; the
    classifier risk is evaluated with the true conditional probability on
    fresh test points.  Verdict: the excess risk decreases strictly between
    consecutive grid points beyond twice the joint standard error, so the
    sizes must increase strictly.
    """
    grid = [_row(n, d, schedule, scale, m_rule) for n in n_grid]
    n_grid = [row["n"] for row in grid]
    if len(n_grid) < 2:
        raise ValueError("n_grid must contain at least 2 points")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid sizes must increase strictly")
    t0 = time.perf_counter()
    task = SyntheticTask(kind="classification_d", d=d, target=target)
    bayes = task.bayes_risk()
    _estimate_grid([([row], task, (i,)) for i, row in enumerate(grid)],
                   _excess_classification_risk, bayes, replicates, n_test, seed, workers)
    verdicts = [
        _verdict(f"excess-risk-decrease-{prev['n']}-to-{cur['n']}", prev["risk"] - cur["risk"],
                 operator.gt, 2.0 * math.hypot(prev["se"], cur["se"]),
                 "excess(n_i) - excess(n_{i+1}) > 2 * sqrt(SE_i^2 + SE_{i+1}^2)", replicates)
        for prev, cur in zip(grid, grid[1:])
    ]
    return ExperimentReport(
        name="classify-sweep",
        config={"d": d, "target": task.target, "n_grid": n_grid, "schedule": schedule,
                "scale": scale, "m_rule": m_rule, "replicates": replicates,
                "n_test": n_test, "seed": seed,
                "evaluation": "exact-1d" if d == 1 else "monte-carlo"},
        grid=grid,
        oracle={"bayes_risk": bayes},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )
