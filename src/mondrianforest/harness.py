"""Monte-Carlo verification and risk experiments.

Each operation samples partitions or fits estimators at desk scale, compares
the outcome against the closed-form oracles, and returns an
:class:`ExperimentReport` whose verdicts embed the statistic, the threshold,
and the tolerance rule that produced them, so every PASS/FAIL can be re-run
from the report alone.  Reports are deterministic given (config, seed);
replicates use derived child streams and may run in parallel processes.

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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import integrate, stats

from .estimators import fit_forest, forest_size_schedule, lifetime_schedule
from .oracles import (
    diameter_second_moment_bound,
    diameter_tail_bound,
    expected_leaf_count,
    expected_leaf_count_box,
    tree_lower_bound_1d,
    truncated_exp_cdf,
)
from .partition import BoxRegion, restrict, sample_mondrian
from .rng import RngStream

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
    is_probability: bool = False
    eta_antiderivative: object = None  # 1-d antiderivative of the probability


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
        is_probability=True, eta_antiderivative=_sine_wave_probability_cdf,
    ),
    "certain_one": _TargetSpec(
        _certain_one,
        lambda d: 0.0, lambda d: 1.0, lambda d: 0.0, lambda d: 0.0,
        is_probability=True, eta_antiderivative=_certain_one_cdf,
    ),
    "coin_flip": _TargetSpec(
        _coin_flip,
        lambda d: 0.0, lambda d: 0.5, lambda d: 0.0, lambda d: 0.0,
        is_probability=True, eta_antiderivative=_coin_flip_cdf,
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
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        target = self.target or _TASK_KINDS[self.kind]
        if target not in _TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if self.kind == "linear_1d" and target != "affine_plus_one":
            raise ValueError("linear_1d is exactly the affine_plus_one target")
        is_classification = self.kind == "classification_d"
        if _TARGETS[target].is_probability != is_classification:
            raise ValueError(f"target {target!r} does not fit task kind {self.kind!r}")
        object.__setattr__(self, "target", target)

    @property
    def spec(self) -> _TargetSpec:
        return _TARGETS[self.target]

    @property
    def is_classification(self) -> bool:
        return self.spec.is_probability

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

    def bayes_risk(self, tol: float = 1e-9) -> float:
        """0-1 risk of the optimal classifier, by quadrature to ~1e-6 or better."""
        if not self.is_classification:
            raise ValueError("bayes_risk is defined for classification tasks")
        probe = np.linspace(0.0, 1.0, 7)[:, None]
        grid = np.tile(probe, (1, self.d))
        varied = self.f(grid)
        fixed_rest = self.f(np.hstack([probe, np.full((7, self.d - 1), 0.123)])) if self.d > 1 else varied
        if self.d > 1 and not np.allclose(varied, fixed_rest):
            raise NotImplementedError("quadrature assumes the probability depends on x1 only")

        def integrand(x1):
            eta = float(self.f(np.array([[x1] + [0.5] * (self.d - 1)]))[0])
            return min(eta, 1.0 - eta)

        value, _ = integrate.quad(integrand, 0.0, 1.0, points=[0.25, 0.5, 0.75],
                                  limit=200, epsabs=tol, epsrel=tol)
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

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "experiment": self.name,
            "config": self.config,
            "grid": self.grid,
            "oracle": self.oracle,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "passed": self.passed,
        }
        if include_timing:
            out["wall_clock_seconds"] = self.wall_clock
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2)

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
            for v in self.verdicts:
                writer.writerow([v.name, v.passed, v.statistic, v.threshold, v.rule, v.sample_size])
        return buf.getvalue()


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def _band_verdict(name: str, value: float, center: float, se: float, n: int,
                  k: float = MEAN_BAND_SE) -> Verdict:
    deviation = abs(value - center)
    return Verdict(
        name=name,
        passed=bool(deviation <= k * se),
        statistic=deviation,
        threshold=k * se,
        rule=f"|mean - {center:.10g}| <= {k:g} * SE",
        sample_size=n,
    )


def _upper_verdict(name: str, value: float, bound: float, slack: float, n: int, rule: str) -> Verdict:
    return Verdict(
        name=name,
        passed=bool(value <= bound + slack),
        statistic=value,
        threshold=bound + slack,
        rule=rule,
        sample_size=n,
    )


# -- risk estimation ---------------------------------------------------------


def _replicate(payload) -> float:
    """One replicate: data from child stream 0, a forest grown from child 1,
    then ``score`` of the forest (test inputs come from child 2)."""
    score, task, n, lifetime, n_trees, n_test, seed, path, extra = payload
    stream = RngStream(seed, path)
    X, y = task.sample_data(n, stream.child(0))
    model = fit_forest(BoxRegion.unit(task.d), task.d, lifetime, n_trees, X, y,
                       master_seed=stream.child(1))
    return score(task, model, stream, n_test, extra)


def _quadratic_risk(task, model, stream, n_test, eval_margin) -> float:
    X_test = stream.child(2).generator.random((n_test, task.d))
    if eval_margin > 0.0:
        # risk conditional on inputs in the margin-interior of the cube
        X_test = eval_margin + (1.0 - 2.0 * eval_margin) * X_test
    residual = model.predict(X_test) - task.f(X_test)
    return float(np.mean(residual**2))


def _estimate_grid(points, score, extra, replicates: int, n_test: int, seed: int,
                   workers: int) -> None:
    """Write ``risk`` and ``se`` into each grid row from fresh replicates.

    ``points`` holds ``(row, task, path)`` triples, where ``row`` has ``n``,
    ``lifetime`` and ``n_trees``; replicate ``r`` of a row runs on the stream
    ``(seed, path + (r,))`` and scores its forest with ``score(..., extra)``.
    All replicates of the experiment share one pool of at most ``workers``
    processes, capped at the replicate count and the CPU count.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if any(row["n"] < 1 for row, _, _ in points):
        raise ValueError("n must be >= 1")
    payloads = [(score, task, row["n"], row["lifetime"], row["n_trees"], n_test, seed,
                 path + (rep,), extra)
                for row, task, path in points for rep in range(replicates)]
    processes = min(workers, len(payloads), os.cpu_count() or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            values = list(pool.map(_replicate, payloads, chunksize=1))
    else:
        values = [_replicate(p) for p in payloads]
    for i, (row, _, _) in enumerate(points):
        row["risk"], row["se"] = _mean_se(values[i * replicates:(i + 1) * replicates])


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
    row = {"n": n, "lifetime": lifetime, "n_trees": n_trees}
    _estimate_grid([(row, task, ())], _quadratic_risk, eval_margin, replicates, n_test,
                   seed, workers)
    return row["risk"], row["se"]


# -- partition statistics ----------------------------------------------------


def _poisson_chisquare(values, lam: float, min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square GOF statistic, dof, p-value of counts against Poisson(lam).

    Bins are built from the theoretical pmf only, greedily merged left to
    right until each expected count reaches ``min_expected``; the remainder
    tail joins the last bin.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    hi = int(max(values.max(), math.ceil(lam + 10.0 * math.sqrt(lam + 1.0)))) + 1
    pmf = stats.poisson.pmf(np.arange(hi), lam)
    pmf = np.append(pmf, max(0.0, 1.0 - pmf.sum()))  # tail >= hi
    edges = []  # bin = [start, stop) over count values, last is open-ended
    start, acc = 0, 0.0
    for k, p in enumerate(pmf):
        acc += p
        if acc * n >= min_expected:
            edges.append((start, k + 1, acc))
            start, acc = k + 1, 0.0
    if not edges:
        raise ValueError("not enough samples for the chi-square binning")
    s, _, a = edges[-1]  # the final bin takes the short remainder, if any
    edges[-1] = (s, hi + 1, a + acc)
    observed = np.array([np.sum((values >= s) & (values < e)) for s, e, _ in edges])
    expected = np.array([n * p for _, _, p in edges])
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(edges) - 1
    return chi2_stat, dof, float(stats.chi2.sf(chi2_stat, dof))


def verify_leaf_count(d: int, lifetime: float, samples: int, seed: int) -> ExperimentReport:
    """Empirical mean of the leaf count against the exact law.

    PASS when the sample mean is within 4 standard errors of
    ``(1 + lifetime)^d``.  For d = 1 the split count is additionally tested
    against a Poisson law by chi-square at significance 1e-3.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t0 = time.perf_counter()
    box = BoxRegion.unit(d)
    counts = np.array([
        sample_mondrian(box, lifetime, RngStream(seed, (i,))).n_leaves
        for i in range(samples)
    ])
    mean, se = _mean_se(counts)
    oracle = expected_leaf_count(lifetime, d)
    verdicts = [_band_verdict("leaf-count-mean", mean, oracle, se, samples)]
    grid = [{"n": samples, "lifetime": lifetime, "mean_leaves": mean, "se": se,
             "oracle": oracle}]
    if d == 1 and lifetime > 0:
        chi2_stat, dof, pvalue = _poisson_chisquare(counts - 1, lifetime)
        verdicts.append(Verdict(
            name="poisson-splits-gof",
            passed=bool(pvalue >= FAMILY_SIGNIFICANCE),
            statistic=pvalue,
            threshold=FAMILY_SIGNIFICANCE,
            rule=f"chi-square GOF vs Poisson({lifetime:g}), stat={chi2_stat:.4f}, dof={dof}, p >= 1e-3",
            sample_size=samples,
        ))
    return ExperimentReport(
        name="verify-leaf-count",
        config={"d": d, "lifetime": lifetime, "samples": samples, "seed": seed},
        grid=grid,
        oracle={"expected_leaf_count": oracle},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def verify_cell_distribution(d: int, lifetime: float, x, samples: int, seed: int) -> ExperimentReport:
    """Distribution of the cell around an interior point.

    For each of the 2d edge distances: the boundary-atom frequency must sit
    within 4 standard errors of ``exp(-lifetime * margin)``, and the interior
    part must pass a KS test against the exponential law conditioned to the
    interior (family significance 1e-3, Bonferroni over the 2d tests).
    Independence across the 2d coordinates is checked through pairwise sample
    correlations, all below ``4 / sqrt(samples)``.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("x must be strictly interior to the unit cube")
    box = BoxRegion.unit(d)
    dists = np.empty((samples, 2 * d))
    for i in range(samples):
        leaf = sample_mondrian(box, lifetime, RngStream(seed, (i,))).locate_leaf(x)
        dists[i, :d] = x - leaf.box.lower
        dists[i, d:] = leaf.box.upper - x
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
            verdicts.append(Verdict(
                name=f"ks-{label}", passed=False, statistic=float("nan"),
                threshold=per_test_alpha,
                rule="insufficient interior samples for the KS test",
                sample_size=int(interior.size),
            ))
            continue
        total_mass = -math.expm1(-lifetime * margin)

        def conditional_cdf(t, margin=margin, total_mass=total_mass):
            return truncated_exp_cdf(np.clip(t, 0.0, None), lifetime, margin) / total_mass

        result = stats.kstest(interior, np.vectorize(conditional_cdf), mode="asymp")
        verdicts.append(Verdict(
            name=f"ks-{label}",
            passed=bool(result.pvalue >= per_test_alpha),
            statistic=float(result.pvalue),
            threshold=per_test_alpha,
            rule=f"KS vs exponential({lifetime:g}) conditioned below {margin:g}, "
                 f"D={result.statistic:.5f}, p >= 1e-3/{2*d} (Bonferroni)",
            sample_size=int(interior.size),
        ))
    corr_limit = 4.0 / math.sqrt(samples)
    corr = np.corrcoef(dists, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)  # constant column => independent
    for a in range(2 * d):
        for b in range(a + 1, 2 * d):
            verdicts.append(Verdict(
                name=f"independence-{labels[a]}-{labels[b]}",
                passed=bool(abs(corr[a, b]) < corr_limit),
                statistic=float(abs(corr[a, b])),
                threshold=corr_limit,
                rule="|pairwise correlation| < 4 / sqrt(samples)",
                sample_size=samples,
            ))
    return ExperimentReport(
        name="verify-cell-dist",
        config={"d": d, "lifetime": lifetime, "x": x.tolist(), "samples": samples, "seed": seed},
        oracle={f"atom-{label}": math.exp(-lifetime * m) for label, m in zip(labels, margins)},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )


def verify_diameter(d: int, lifetime: float, x, samples: int, seed: int,
                    delta_grid=None) -> ExperimentReport:
    """Cell diameter at a point against the tail and second-moment bounds.

    Empirical tail frequencies must stay below the closed-form bound plus 4
    standard errors at every grid point, and the mean squared diameter below
    ``4 d / lifetime^2`` plus 4 standard errors.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    if lifetime <= 0:
        raise ValueError("lifetime must be > 0")
    if delta_grid is None:
        delta_grid = np.linspace(0.5, 8.0, 10) * math.sqrt(d) / lifetime
    box = BoxRegion.unit(d)
    diameters = np.array([
        sample_mondrian(box, lifetime, RngStream(seed, (i,))).locate_leaf(x).box.l2_diameter
        for i in range(samples)
    ])
    sq_mean, sq_se = _mean_se(diameters**2)
    bound = diameter_second_moment_bound(lifetime, d)
    verdicts = [_upper_verdict(
        "second-moment", sq_mean, bound, MEAN_BAND_SE * sq_se, samples,
        rule="mean(D^2) <= 4d/lifetime^2 + 4 * SE",
    )]
    grid = []
    for delta in np.asarray(delta_grid, dtype=np.float64):
        freq = float(np.mean(diameters >= delta))
        se = math.sqrt(freq * (1.0 - freq) / samples)
        tail = diameter_tail_bound(delta, lifetime, d)
        verdicts.append(_upper_verdict(
            f"tail@delta={delta:.6g}", freq, tail, MEAN_BAND_SE * se, samples,
            rule="P(D >= delta) <= d(1 + L*delta/sqrt(d)) exp(-L*delta/sqrt(d)) + 4 * SE",
        ))
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
                       two_sample: bool = True) -> ExperimentReport:
    """Leaf counts of restricted partitions against the product law.

    Partitions of the unit cube restricted to ``sub`` must have mean leaf
    count within 4 standard errors of ``prod_j (1 + lifetime * len_j)``; a
    joint band compares them to partitions sampled directly on ``sub``, plus
    an optional two-sample KS test on the leaf counts.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t0 = time.perf_counter()
    box = BoxRegion.unit(d)
    if not box.contains_box(sub):
        raise ValueError("sub must be contained in the unit cube")
    restricted = np.array([
        restrict(sample_mondrian(box, lifetime, RngStream(seed, (2 * i,))), sub).n_leaves
        for i in range(samples)
    ])
    direct = np.array([
        sample_mondrian(sub, lifetime, RngStream(seed, (2 * i + 1,))).n_leaves
        for i in range(samples)
    ])
    oracle = expected_leaf_count_box(lifetime, sub.side_lengths)
    r_mean, r_se = _mean_se(restricted)
    d_mean, d_se = _mean_se(direct)
    verdicts = [
        _band_verdict("restricted-mean-vs-product-law", r_mean, oracle, r_se, samples),
        Verdict(
            name="restricted-vs-direct-means",
            passed=bool(abs(r_mean - d_mean) <= MEAN_BAND_SE * math.hypot(r_se, d_se)),
            statistic=abs(r_mean - d_mean),
            threshold=MEAN_BAND_SE * math.hypot(r_se, d_se),
            rule="|mean_restricted - mean_direct| <= 4 * sqrt(SE_r^2 + SE_d^2)",
            sample_size=samples,
        ),
    ]
    if two_sample:
        ks = stats.ks_2samp(restricted, direct, mode="asymp")
        verdicts.append(Verdict(
            name="restricted-vs-direct-ks",
            passed=bool(ks.pvalue >= FAMILY_SIGNIFICANCE),
            statistic=float(ks.pvalue),
            threshold=FAMILY_SIGNIFICANCE,
            rule=f"two-sample KS on leaf counts, D={ks.statistic:.5f}, p >= 1e-3 "
                 "(conservative under ties)",
            sample_size=samples,
        ))
    return ExperimentReport(
        name="verify-restriction",
        config={"d": d, "lifetime": lifetime, "sub_lower": sub.lower.tolist(),
                "sub_upper": sub.upper.tolist(), "samples": samples, "seed": seed,
                "two_sample": two_sample},
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
    dof = log_n.size - 2
    if dof <= 0:
        return slope, float("inf")
    s2 = float(np.dot(residuals, residuals) / dof)
    return slope, math.sqrt(s2 / float(np.dot(x, x)))


_SLOPE_TARGETS = {
    "lipschitz": lambda d: -2.0 / (d + 2),
    "c2": lambda d: -4.0 / (d + 4),
}


def _resolve_lifetime(schedule: str, n: int, d: int, scale: float) -> float:
    if schedule == "fixed":
        return scale
    return lifetime_schedule(schedule, n, d, scale)


def _resolve_trees(m_rule, n: int, d: int) -> int:
    if m_rule == "c2":
        return forest_size_schedule("c2", n, d)
    trees = int(m_rule)
    if trees < 1:
        raise ValueError("tree count must be >= 1")
    return trees


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
    for a meaningful fit; fewer than 3 is an error).
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3:
        raise ValueError("n_grid must contain at least 3 points")
    if schedule not in ("lipschitz", "c2", "consistency", "fixed"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if not 0.0 <= eval_margin < 0.5:
        raise ValueError("eval_margin must be in [0, 1/2)")
    t0 = time.perf_counter()
    grid = [{"n": n, "lifetime": _resolve_lifetime(schedule, n, task.d, scale),
             "n_trees": _resolve_trees(m_rule, n, task.d)} for n in n_grid]
    _estimate_grid([(row, task, (i,)) for i, row in enumerate(grid)], _quadratic_risk,
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
        verdicts.append(Verdict(
            name="rate-slope",
            passed=bool(abs(slope - target) <= slope_tolerance),
            statistic=slope,
            threshold=slope_tolerance,
            rule=f"|OLS slope - ({target:.6g})| <= {slope_tolerance:g} "
                 f"(slope SE {slope_se:.4g})",
            sample_size=len(n_grid) * replicates,
        ))
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
    over the same grid.
    """
    if n < 18:
        raise ValueError("the lower bound requires n >= 18")
    if m_large < 1:
        raise ValueError("m_large must be >= 1")
    t0 = time.perf_counter()
    lambda_grid = [float(v) for v in lambda_grid]
    if curved_lambda_grid is None:
        curved_lambda_grid = lambda_grid
    curved_lambda_grid = [float(v) for v in curved_lambda_grid]

    linear = SyntheticTask(kind="linear_1d", sigma=math.sqrt(sigma2))
    curved = SyntheticTask(kind="c2_d", d=1, sigma=curved_sigma)

    points = [({"n": n, "lifetime": lam, "n_trees": 1}, linear, (0, i))
              for i, lam in enumerate(lambda_grid)]
    # tree and forest share replicate streams: the single tree is exactly
    # tree 0 of the forest, so the comparison is paired
    points += [({"n": curved_n, "lifetime": lam, "n_trees": n_trees}, curved, (1, i))
               for i, lam in enumerate(curved_lambda_grid) for n_trees in (1, m_large)]
    _estimate_grid(points, _quadratic_risk, 0.0, replicates, n_test, seed, workers)
    grid = [row | {"task": "linear" if task is linear else "curved"} for row, task, _ in points]
    linear_tree = [row["risk"] for row in grid[:len(lambda_grid)]]
    curved_tree = [row["risk"] for row in grid[len(lambda_grid)::2]]
    curved_forest = [row["risk"] for row in grid[len(lambda_grid) + 1::2]]
    lower = tree_lower_bound_1d(n, sigma2)
    tree_min = min(linear_tree)
    verdicts = [Verdict(
        name="tree-lower-bound",
        passed=bool(tree_min >= 0.9 * lower),
        statistic=tree_min,
        threshold=0.9 * lower,
        rule="min over lifetime grid of single-tree risk >= 0.9 * (1/4)(3 sigma2/n)^(2/3)",
        sample_size=len(lambda_grid) * replicates,
    )]
    curved_tree_min = min(curved_tree)
    curved_forest_min = min(curved_forest)
    verdicts.append(Verdict(
        name="forest-beats-tree",
        passed=bool(curved_forest_min <= 0.95 * curved_tree_min),
        statistic=curved_forest_min,
        threshold=0.95 * curved_tree_min,
        rule="grid-min forest risk <= 0.95 * grid-min tree risk on the curved target",
        sample_size=len(curved_lambda_grid) * replicates,
    ))
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


def _excess_classification_risk(task, model, stream, n_test, bayes) -> float:
    antideriv = task.spec.eta_antiderivative
    if task.d == 1 and antideriv is not None:
        risk = _exact_classifier_risk_1d(model, antideriv)
    else:
        X_test = stream.child(2).generator.random((n_test, task.d))
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
    consecutive grid points beyond twice the joint standard error.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ValueError("n_grid must contain at least 2 points")
    t0 = time.perf_counter()
    task = SyntheticTask(kind="classification_d", d=d, target=target)
    bayes = task.bayes_risk()
    exact_eval = d == 1 and task.spec.eta_antiderivative is not None
    grid = [{"n": n, "lifetime": _resolve_lifetime(schedule, n, d, scale),
             "n_trees": _resolve_trees(m_rule, n, d)} for n in n_grid]
    _estimate_grid([(row, task, (i,)) for i, row in enumerate(grid)],
                   _excess_classification_risk, bayes, replicates, n_test, seed, workers)
    verdicts = []
    for prev, cur in zip(grid, grid[1:]):
        drop = prev["risk"] - cur["risk"]
        joint_se = math.hypot(prev["se"], cur["se"])
        verdicts.append(Verdict(
            name=f"excess-risk-decrease-{prev['n']}-to-{cur['n']}",
            passed=bool(drop > 2.0 * joint_se),
            statistic=drop,
            threshold=2.0 * joint_se,
            rule="excess(n_i) - excess(n_{i+1}) > 2 * sqrt(SE_i^2 + SE_{i+1}^2)",
            sample_size=replicates,
        ))
    return ExperimentReport(
        name="classify-sweep",
        config={"d": d, "target": task.target, "n_grid": n_grid, "schedule": schedule,
                "scale": scale, "m_rule": m_rule, "replicates": replicates,
                "n_test": n_test, "seed": seed,
                "evaluation": "exact-1d" if exact_eval else "monte-carlo"},
        grid=grid,
        oracle={"bayes_risk": bayes},
        verdicts=verdicts,
        wall_clock=time.perf_counter() - t0,
    )
