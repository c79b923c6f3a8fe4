"""Closed-form quantities for Mondrian partitions and estimators.

Pure functions (same input, same output, bit-exactly) used as ground truth by
the test suite and the Monte-Carlo harness: exact expected leaf counts, cell
diameter bounds, regression risk bounds for Lipschitz and twice-differentiable
targets, and the exact pointwise/integrated approximation error of a single
tree in the one-dimensional linear model ``f(x) = 1 + x`` with uniform inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rng import _natural

__all__ = [
    "RiskBoundParams",
    "expected_leaf_count",
    "expected_leaf_count_box",
    "diameter_tail_bound",
    "diameter_second_moment_bound",
    "lipschitz_risk_bound",
    "c2_risk_bound",
    "tree_bias_exact_1d",
    "tilde_f_1d",
    "tree_lower_bound_1d",
    "truncated_exp_cdf",
]


@dataclass(frozen=True)
class RiskBoundParams:
    """Inputs of the regression risk bounds.

    ``sigma2`` bounds the conditional noise variance, ``lipschitz`` and
    ``sup_f`` describe the target, ``grad_sup``/``hess_sup`` its first and
    second derivatives (twice-differentiable case), ``p0 <= p1`` bound the
    input density, ``c_p`` is its Lipschitz constant, ``eps`` the boundary
    margin, and ``n_trees`` the ensemble size.
    """

    d: int
    lifetime: float
    n: int
    sigma2: float = 0.0
    lipschitz: float = 0.0
    sup_f: float = 0.0
    grad_sup: float = 0.0
    hess_sup: float = 0.0
    p0: float = 1.0
    p1: float = 1.0
    c_p: float = 0.0
    eps: float = 0.0
    n_trees: int = 1

    def __post_init__(self):
        _natural(self.d, "d", 1)
        for name in ("lifetime", "sigma2", "lipschitz", "sup_f", "grad_sup",
                     "hess_sup", "p0", "p1", "c_p", "eps"):
            if not getattr(self, name) >= 0:  # nan fails it
                raise ValueError(f"{name} must be nonnegative")
        _natural(self.n, "n", 1)
        if self.p0 > self.p1:
            raise ValueError("p0 must not exceed p1")
        if not self.eps < 0.5:
            raise ValueError("eps must be < 1/2")
        _natural(self.n_trees, "n_trees", 1)


def expected_leaf_count(lifetime: float, d: int) -> float:
    """Exact expected number of leaves on the unit cube: ``(1 + lifetime)^d``."""
    if not lifetime >= 0:
        raise ValueError("lifetime must be >= 0")
    _natural(d, "d", 1)
    return (1.0 + lifetime) ** d

def expected_leaf_count_box(lifetime: float, side_lengths) -> float:
    """Exact expected leaf count on a box: product of ``1 + lifetime * len_j``."""
    if not lifetime >= 0:
        raise ValueError("lifetime must be >= 0")
    out = 1.0
    for length in side_lengths:
        if not length >= 0:
            raise ValueError("side lengths must be nonnegative")
        out *= 1.0 + lifetime * float(length)
    return out


def diameter_tail_bound(delta: float, lifetime: float, d: int) -> float:
    """Upper bound on P(cell diameter at a point >= delta).

    Value is ``d * (1 + lifetime*delta/sqrt(d)) * exp(-lifetime*delta/sqrt(d))``;
    it may exceed 1 (callers clamp for display).
    """
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    _natural(d, "d", 1)
    u = lifetime * delta / math.sqrt(d)
    return d * (1.0 + u) * math.exp(-u)


def diameter_second_moment_bound(lifetime: float, d: int) -> float:
    """Upper bound on the expected squared cell diameter: ``4 d / lifetime^2``."""
    if not lifetime > 0:
        raise ValueError("lifetime must be > 0")
    _natural(d, "d", 1)
    return 4.0 * d / lifetime**2


def lipschitz_risk_bound(p: RiskBoundParams) -> float:
    """Risk bound for trees/forests on an L-Lipschitz target.

    ``4 d L^2 / lifetime^2 + (1+lifetime)^d (2 sigma2 + 9 sup_f^2) / n``.
    Valid for any ensemble size.
    """
    if not p.lifetime > 0:
        raise ValueError("lifetime must be > 0")
    bias = 4.0 * p.d * p.lipschitz**2 / p.lifetime**2
    variance = (1.0 + p.lifetime) ** p.d / p.n * (2.0 * p.sigma2 + 9.0 * p.sup_f**2)
    return bias + variance


def c2_risk_bound(p: RiskBoundParams) -> float:
    """Risk bound for forests on a twice-differentiable target (all five terms).

    Conditional on inputs landing in the eps-interior of the cube; requires a
    density bounded in ``[p0, p1]`` with Lipschitz constant ``c_p``.
    """
    if not p.lifetime > 0:
        raise ValueError("lifetime must be > 0")
    if not p.p0 > 0:
        raise ValueError("p0 must be > 0")
    lam = p.lifetime
    interior = p.p0 * (1.0 - 2.0 * p.eps) ** p.d
    ensemble_bias = 8.0 * p.d * p.grad_sup**2 / (p.n_trees * lam**2)
    estimation = 2.0 * (1.0 + lam) ** p.d / p.n * (2.0 * p.sigma2 + 9.0 * p.sup_f**2) / interior
    boundary = 72.0 * p.d * p.grad_sup**2 * p.p1 / interior * math.exp(-lam * p.eps) / lam**3
    density_drift = 72.0 * p.d**3 * p.grad_sup**2 * p.c_p**2 * p.p1**2 / p.p0**4 / lam**4
    curvature = 4.0 * p.d**2 * p.hess_sup**2 * p.p1**2 / p.p0**2 / lam**4
    return ensemble_bias + estimation + boundary + density_drift + curvature


_BIAS_SERIES_CUTOFF = 1e-3


def tree_bias_exact_1d(lifetime: float) -> float:
    """Exact integrated squared approximation error of one tree, 1-d linear model.

    For ``f(x) = 1 + x`` with uniform inputs the cell-mean approximation has
    integrated squared error
    ``(1 - 2/L + exp(-L) + (2/L) exp(-L)) / (2 L^2)`` at lifetime ``L``.
    Below 1e-3 a series expansion is used to dodge catastrophic cancellation
    near the small-lifetime limit 1/12.
    """
    if not lifetime >= 0:
        raise ValueError("lifetime must be >= 0")
    lam = float(lifetime)
    if lam < _BIAS_SERIES_CUTOFF:
        # expansion of the closed form around 0; next term is -lam^5/13440
        return 1.0 / 12.0 - lam / 24.0 + lam**2 / 80.0 - lam**3 / 360.0 + lam**4 / 2016.0
    expl = math.exp(-lam)
    return (1.0 - 2.0 / lam + expl + (2.0 / lam) * expl) / (2.0 * lam**2)


def tilde_f_1d(lifetime: float, x: float) -> float:
    """Partition-averaged cell mean of ``f(x) = 1 + x`` at a point, 1-d uniform inputs.

    ``1 + x + (exp(-L x) - exp(-L (1-x))) / (2 L)`` at lifetime ``L``; equals
    ``f`` exactly at ``x = 1/2`` by symmetry.
    """
    if not lifetime > 0:
        raise ValueError("lifetime must be > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    lam = float(lifetime)
    return 1.0 + x + (math.exp(-lam * x) - math.exp(-lam * (1.0 - x))) / (2.0 * lam)


def tree_lower_bound_1d(n: int, sigma2: float) -> float:
    """Explicit branch of the single-tree risk lower bound in the 1-d linear model.

    Returns ``(1/4) (3 sigma2 / n)^(2/3)``, the branch that binds at desk
    scale; the other branch of the bound is a non-explicit constant and is
    not evaluable.  Requires ``n >= 18``.
    """
    if _natural(n, "n") < 18:
        raise ValueError("the lower bound requires n >= 18")
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be >= 0")
    return 0.25 * (3.0 * sigma2 / n) ** (2.0 / 3.0)


def truncated_exp_cdf(t: float, rate: float, cap: float) -> float:
    """CDF of ``min(E / rate, cap)`` with ``E`` standard exponential.

    This is the law of the distance from a point to its cell edge: exponential
    with the given rate, censored at the distance to the domain boundary.
    """
    if not rate > 0:
        raise ValueError("rate must be > 0")
    if not cap >= 0:
        raise ValueError("cap must be >= 0")
    if t < 0:
        return 0.0
    if t >= cap:
        return 1.0
    return -math.expm1(-rate * t)
