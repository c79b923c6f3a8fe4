import math

import numpy as np
import pytest

from mondrianforest import (
    RiskBoundParams,
    c2_risk_bound,
    diameter_second_moment_bound,
    diameter_tail_bound,
    expected_leaf_count,
    expected_leaf_count_box,
    lipschitz_risk_bound,
    tilde_f_1d,
    tree_bias_exact_1d,
    tree_lower_bound_1d,
    truncated_exp_cdf,
)


def test_expected_leaf_count_values():
    assert expected_leaf_count(0.0, 3) == 1.0
    assert expected_leaf_count(3.0, 2) == 16.0
    assert expected_leaf_count(5.0, 2) == 36.0


def test_expected_leaf_count_rejects_bad_args():
    with pytest.raises(ValueError):
        expected_leaf_count(-1.0, 2)
    with pytest.raises(ValueError):
        expected_leaf_count(1.0, 0)


def test_expected_leaf_count_box_values():
    assert expected_leaf_count_box(5.0, [0.4, 0.3]) == pytest.approx(7.5)
    assert expected_leaf_count_box(7.0, [0.5, 0.0, 0.25]) == \
        pytest.approx((1 + 3.5) * 1.0 * (1 + 1.75))
    with pytest.raises(ValueError):
        expected_leaf_count_box(1.0, [0.5, -0.1])


def test_expected_leaf_count_box_reduces_to_cube_case():
    for lam in (0.0, 0.7, 3.0, 12.5):
        for d in (1, 2, 4):
            assert expected_leaf_count_box(lam, np.ones(d)) == expected_leaf_count(lam, d)


def test_diameter_tail_bound_values():
    assert diameter_tail_bound(0.0, 5.0, 3) == 3.0
    # d=1 and lifetime*delta = 1: (1 + 1) e^{-1}
    assert diameter_tail_bound(0.5, 2.0, 1) == pytest.approx(2.0 / math.e)


def test_diameter_second_moment_bound_values():
    assert diameter_second_moment_bound(2.0, 1) == 1.0
    assert diameter_second_moment_bound(4.0, 2) == 0.5
    with pytest.raises(ValueError):
        diameter_second_moment_bound(0.0, 2)


def test_lipschitz_risk_bound_hand_value():
    p = RiskBoundParams(d=1, lifetime=2.0, n=100, sigma2=1.0, lipschitz=1.0, sup_f=2.0)
    # 4*1*1/4 + (3/100)(2 + 36) = 1 + 1.14
    assert lipschitz_risk_bound(p) == pytest.approx(2.14)


def test_lipschitz_risk_bound_blows_up_with_lifetime():
    values = [
        lipschitz_risk_bound(RiskBoundParams(d=2, lifetime=lam, n=50, sigma2=1.0,
                                             lipschitz=1.0, sup_f=1.0))
        for lam in (10.0, 40.0, 160.0, 640.0)
    ]
    assert values == sorted(values)
    assert values[-1] > 1e3


def test_c2_risk_bound_reduces_to_variance_term():
    p = RiskBoundParams(d=2, lifetime=3.0, n=64, sigma2=0.5, sup_f=1.5)
    expected = 2.0 * (1 + 3.0) ** 2 / 64 * (2 * 0.5 + 9 * 1.5**2)
    assert c2_risk_bound(p) == pytest.approx(expected)


def test_c2_risk_bound_first_term_halves_with_doubled_trees():
    base = dict(d=2, lifetime=3.0, n=64, grad_sup=2.0)
    one = c2_risk_bound(RiskBoundParams(**base, n_trees=1))
    two = c2_risk_bound(RiskBoundParams(**base, n_trees=2))
    first_term = 8.0 * 2 * 4.0 / (1 * 9.0)
    assert one - two == pytest.approx(first_term / 2)


def test_c2_risk_bound_all_five_terms():
    p = RiskBoundParams(d=2, lifetime=4.0, n=100, sigma2=0.25, sup_f=1.0,
                        grad_sup=1.5, hess_sup=2.0, p0=0.5, p1=2.0, c_p=0.3,
                        eps=0.1, n_trees=5)
    interior = 0.5 * (1 - 0.2) ** 2
    t1 = 8 * 2 * 1.5**2 / (5 * 16)
    t2 = 2 * 25.0 / 100 * (0.5 + 9.0) / interior
    t3 = 72 * 2 * 1.5**2 * 2.0 / interior * math.exp(-0.4) / 64
    t4 = 72 * 8 * 1.5**2 * 0.09 * 4.0 / 0.0625 / 256
    t5 = 4 * 4 * 4.0 * 4.0 / 0.25 / 256
    assert c2_risk_bound(p) == pytest.approx(t1 + t2 + t3 + t4 + t5, rel=1e-12)


def test_risk_bound_params_validation():
    with pytest.raises(ValueError):
        RiskBoundParams(d=1, lifetime=1.0, n=10, p0=2.0, p1=1.0)
    with pytest.raises(ValueError):
        RiskBoundParams(d=1, lifetime=1.0, n=10, eps=0.5)
    with pytest.raises(ValueError):
        RiskBoundParams(d=1, lifetime=1.0, n=0)


@pytest.mark.parametrize("call, message", [
    (lambda: RiskBoundParams(d=0, lifetime=1.0, n=10), "d must be >= 1, got 0"),
    (lambda: RiskBoundParams(d=2.5, lifetime=1.0, n=10), "d must be an int >= 1, got 2.5"),
    (lambda: RiskBoundParams(d=1, lifetime=1.0, n=10, sigma2=-1.0), "sigma2 must be nonnegative"),
    (lambda: RiskBoundParams(d=1, lifetime=1.0, n=10.5), "n must be an int >= 1, got 10.5"),
    (lambda: RiskBoundParams(d=1, lifetime=1.0, n=10, n_trees=0), "n_trees must be >= 1, got 0"),
    (lambda: RiskBoundParams(d=1, lifetime=1.0, n=10, n_trees=1.5),
     "n_trees must be an int >= 1, got 1.5"),
    (lambda: expected_leaf_count(1.0, 2.5), "d must be an int >= 1, got 2.5"),
    (lambda: expected_leaf_count(1.0, True), "d must be an int >= 1, got True"),
    (lambda: expected_leaf_count_box(-1.0, [1.0]), "lifetime must be >= 0"),
    (lambda: diameter_tail_bound(-0.1, 1.0, 2), "delta must be >= 0"),
    (lambda: diameter_tail_bound(0.1, 1.0, 0), "d must be >= 1, got 0"),
    (lambda: diameter_second_moment_bound(1.0, 0), "d must be >= 1, got 0"),
    (lambda: lipschitz_risk_bound(RiskBoundParams(d=1, lifetime=0.0, n=10)),
     "lifetime must be > 0"),
    (lambda: c2_risk_bound(RiskBoundParams(d=1, lifetime=0.0, n=10)), "lifetime must be > 0"),
    (lambda: c2_risk_bound(RiskBoundParams(d=1, lifetime=1.0, n=10, p0=0.0)), "p0 must be > 0"),
    (lambda: tilde_f_1d(0.0, 0.5), "lifetime must be > 0"),
    (lambda: tilde_f_1d(1.0, 1.5), "x must be in [0, 1]"),
    (lambda: tree_lower_bound_1d(18, -1.0), "sigma2 must be >= 0"),
    (lambda: truncated_exp_cdf(0.5, 1.0, -1.0), "cap must be >= 0"),
    (lambda: RiskBoundParams(d=1, lifetime=math.nan, n=10, sigma2=math.inf),
     "lifetime must be nonnegative"),
    (lambda: expected_leaf_count(math.nan, 2), "lifetime must be >= 0"),
    (lambda: expected_leaf_count_box(math.nan, [1.0]), "lifetime must be >= 0"),
    (lambda: expected_leaf_count_box(1.0, [math.nan]), "side lengths must be nonnegative"),
    (lambda: diameter_tail_bound(math.nan, 1.0, 2), "delta must be >= 0"),
    (lambda: diameter_second_moment_bound(math.nan, 2), "lifetime must be > 0"),
    (lambda: tree_bias_exact_1d(math.nan), "lifetime must be >= 0"),
    (lambda: tilde_f_1d(math.nan, 0.5), "lifetime must be > 0"),
    (lambda: tree_lower_bound_1d(18, math.nan), "sigma2 must be >= 0"),
    (lambda: tree_lower_bound_1d(18.5, 1.0), "n must be an int >= 0, got 18.5"),
    (lambda: truncated_exp_cdf(0.5, math.nan, 1.0), "rate must be > 0"),
    (lambda: truncated_exp_cdf(0.5, 1.0, math.nan), "cap must be >= 0"),
], ids=["params-d", "params-d-float", "params-nonnegative", "params-n-float", "params-n-trees",
        "params-n-trees-float", "leaf-count-d-float", "leaf-count-d-bool", "leaf-count-box-lifetime",
        "tail-delta", "tail-d", "second-moment-d", "lipschitz-lifetime", "c2-lifetime", "c2-p0",
        "tilde-f-lifetime", "tilde-f-x", "lower-bound-sigma2", "truncated-exp-cap",
        "params-lifetime-nan", "leaf-count-lifetime-nan", "leaf-count-box-lifetime-nan",
        "leaf-count-box-side-nan", "tail-delta-nan", "second-moment-lifetime-nan",
        "bias-lifetime-nan", "tilde-f-lifetime-nan", "lower-bound-sigma2-nan",
        "lower-bound-n-float", "truncated-exp-rate-nan", "truncated-exp-cap-nan"])
def test_oracles_refuse_a_bad_argument_with_its_message(call, message):
    # a count that is not an int (2.5, True) used to pass a bare `< 1` and return a value,
    # and a nan used to pass a bare `< 0` or `<= 0`
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_tree_bias_exact_values():
    assert tree_bias_exact_1d(2.0) == pytest.approx(math.exp(-2.0) / 4.0)
    assert tree_bias_exact_1d(2.0) == pytest.approx(0.0338338, rel=1e-5)
    with pytest.raises(ValueError):
        tree_bias_exact_1d(-0.5)


def test_tree_bias_small_lifetime_limit():
    assert tree_bias_exact_1d(0.0) == pytest.approx(1.0 / 12.0)
    assert tree_bias_exact_1d(1e-6) == pytest.approx(1.0 / 12.0, rel=1e-6)


def test_tree_bias_matches_high_precision_reference():
    # 50-digit evaluation of the closed form, on both sides of the series
    # cutoff; the float closed form cancels ~8 digits right above the cutoff,
    # which is the reason the series branch exists below it
    import mpmath

    mpmath.mp.dps = 50
    cases = [(1e-8, 1e-13), (1e-5, 1e-13), (0.999e-3, 1e-13),
             (1.001e-3, 1e-7), (0.05, 1e-9), (1.0, 1e-12), (7.5, 1e-12)]
    for lam, rel in cases:
        L = mpmath.mpf(lam)
        reference = (1 - 2 / L + mpmath.e**-L + (2 / L) * mpmath.e**-L) / (2 * L**2)
        assert tree_bias_exact_1d(lam) == pytest.approx(float(reference), rel=rel)


def test_tree_bias_large_lifetime_scaling():
    lam = 1e3
    assert tree_bias_exact_1d(lam) * lam**2 == pytest.approx(0.5, rel=0.01)


def test_tilde_f_midpoint_is_exact():
    for lam in (0.5, 1.0, 4.0, 50.0):
        assert tilde_f_1d(lam, 0.5) == 1.5


def test_tilde_f_edge_value():
    assert tilde_f_1d(1.0, 0.0) == pytest.approx(1.0 + (1.0 - math.exp(-1.0)) / 2.0)
    assert tilde_f_1d(1.0, 0.0) == pytest.approx(1.3161, abs=5e-5)


def test_tilde_f_symmetry():
    for x in (0.1, 0.3):
        gap_low = tilde_f_1d(2.0, x) - (1 + x)
        gap_high = tilde_f_1d(2.0, 1 - x) - (2 - x)
        assert gap_low == pytest.approx(-gap_high, rel=1e-12)


def test_tree_lower_bound_values():
    assert tree_lower_bound_1d(3000, 1.0) == pytest.approx(0.0025)
    ratio = tree_lower_bound_1d(6000, 1.0) / tree_lower_bound_1d(3000, 1.0)
    assert ratio == pytest.approx(2.0 ** (-2.0 / 3.0))
    with pytest.raises(ValueError):
        tree_lower_bound_1d(17, 1.0)


def test_truncated_exp_cdf_values():
    assert truncated_exp_cdf(0.0, 2.0, 0.5) == 0.0
    assert truncated_exp_cdf(0.5, 2.0, 0.5) == 1.0
    assert truncated_exp_cdf(0.7, 2.0, 0.5) == 1.0
    assert truncated_exp_cdf(0.25, 2.0, 0.5) == pytest.approx(1.0 - math.exp(-0.5))
    assert truncated_exp_cdf(-0.1, 2.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        truncated_exp_cdf(0.1, 0.0, 0.5)


def test_oracles_are_pure():
    p = RiskBoundParams(d=3, lifetime=2.5, n=500, sigma2=0.3, lipschitz=1.2,
                        sup_f=0.8, grad_sup=1.0, hess_sup=2.0, n_trees=4)
    assert c2_risk_bound(p) == c2_risk_bound(p)
    assert lipschitz_risk_bound(p) == lipschitz_risk_bound(p)
    assert tree_bias_exact_1d(1.7) == tree_bias_exact_1d(1.7)


def _argmin_lifetime(bound, n_values, lam_grid):
    return [lam_grid[np.argmin([bound(n, lam) for lam in lam_grid])] for n in n_values]


@pytest.mark.parametrize("d", [1, 2])
def test_lipschitz_bound_argmin_scales_like_schedule(d):
    lam_grid = np.geomspace(0.5, 2e4, 600)
    n_values = [2**k for k in range(8, 17)]

    def bound(n, lam):
        return lipschitz_risk_bound(RiskBoundParams(
            d=d, lifetime=lam, n=n, sigma2=1.0, lipschitz=1.0, sup_f=1.0))

    minima = _argmin_lifetime(bound, n_values, lam_grid)
    slope = np.polyfit(np.log(n_values), np.log(minima), 1)[0]
    assert abs(slope - 1.0 / (d + 2)) <= 0.05


@pytest.mark.parametrize("d", [1, 2])
def test_c2_bound_argmin_scales_like_schedule(d):
    # huge ensemble proxies the first term away; eps > 0 silences the
    # boundary term so the lifetime^-4 terms drive the optimum
    lam_grid = np.geomspace(0.5, 2e4, 600)
    n_values = [2**k for k in range(8, 17)]

    def bound(n, lam):
        return c2_risk_bound(RiskBoundParams(
            d=d, lifetime=lam, n=n, sigma2=1.0, sup_f=1.0, grad_sup=1.0,
            hess_sup=1.0, eps=0.1, n_trees=10**9))

    minima = _argmin_lifetime(bound, n_values, lam_grid)
    slope = np.polyfit(np.log(n_values), np.log(minima), 1)[0]
    assert abs(slope - 1.0 / (d + 4)) <= 0.05
