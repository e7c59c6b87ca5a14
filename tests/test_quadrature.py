"""Gauss-Jacobi and triangle rules, and weighted Lp norms."""

import math

import numpy as np
import pytest

from durrmeyer.quadrature import (ConstructionError, QuadratureRule,
                                  _gauss_jacobi_rule, _sup_grid, _sup_grid_2d,
                                  gauss_jacobi_rule, interval_rule, lp_norm,
                                  simplex_rule_2d, sup_grid, sup_grid_2d,
                                  weight_mass)
from durrmeyer.spectrum import WeightConfig


def beta_fn(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def test_weight_mass_examples():
    assert weight_mass((0.0, 0.0)) == pytest.approx(1.0, rel=1e-14)
    # int_0^1 x^{1/2}(1-x)^{1/2} dx = B(3/2, 3/2) = pi/8
    assert weight_mass((0.5, 0.5)) == pytest.approx(math.pi / 8.0, rel=1e-13)
    assert weight_mass((0.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)


def test_gauss_rule_basic_mass():
    for m in (1, 2, 8, 40):
        rule = gauss_jacobi_rule(0.0, 0.0, m)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(rule.weights > 0.0)
        assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))


def test_gauss_rule_polynomial_exactness():
    rule = gauss_jacobi_rule(0.0, 0.0, 2)
    x = rule.nodes
    assert np.dot(rule.weights, x) == pytest.approx(0.5, rel=1e-14)
    assert np.dot(rule.weights, x ** 3) == pytest.approx(0.25, rel=1e-13)
    # one degree past exactness (degree 4 with 2 nodes) must NOT be exact
    assert abs(np.dot(rule.weights, x ** 4) - 0.2) > 1e-4


def test_gauss_rule_beta_moment():
    # int x * x^{1/2}(1-x)^{1/2} dx = B(5/2, 3/2) = pi/16
    rule = gauss_jacobi_rule(0.5, 0.5, 3)
    got = np.dot(rule.weights, rule.nodes)
    assert got == pytest.approx(math.pi / 16.0, rel=1e-13)


def test_gauss_rule_moments_match_beta_oracle():
    for a, b in ((0.0, 0.0), (-0.5, -0.5), (1.5, 0.25), (4.0, -0.9)):
        rule = gauss_jacobi_rule(a, b, 12)
        for k in range(0, 10):
            want = beta_fn(k + a + 1.0, b + 1.0)
            got = np.dot(rule.weights, rule.nodes ** k)
            assert got == pytest.approx(want, rel=1e-12), (a, b, k)


def test_gauss_rule_validation():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(-1.0, 0.0, 4)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(0.0, 0.0, 0)


def test_interval_rule_with_splits_is_piecewise_exact():
    kink = 0.4
    rule = interval_rule((0.0, 0.0), 10, splits=(kink,))
    # |x - 0.4| integrates exactly on a split rule
    vals = np.abs(rule.nodes - kink)
    want = kink ** 2 / 2.0 + (1.0 - kink) ** 2 / 2.0
    assert np.dot(rule.weights, vals) == pytest.approx(want, rel=1e-14)
    # smooth polynomial still exact
    assert np.dot(rule.weights, rule.nodes ** 5) == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_interval_rule_split_with_weight():
    a1, a2 = 0.5, 1.5
    rule = interval_rule((a1, a2), 24, splits=(0.3,))
    for k in (0, 1, 3):
        want = beta_fn(k + a1 + 1.0, a2 + 1.0)
        assert np.dot(rule.weights, rule.nodes ** k) == pytest.approx(want, rel=1e-11)


def test_interval_rule_split_validation():
    with pytest.raises(ValueError):
        interval_rule((0.0, 0.0), 8, splits=(1.5,))


def dirichlet_moment(alphas, powers):
    """int_S x1^p1 x2^p2 (1-x1-x2)^p3-ish against the Jacobi weight via the
    Dirichlet integral formula."""
    exps = [a + p for a, p in zip(alphas, powers)]
    num = sum(math.lgamma(e + 1.0) for e in exps)
    return math.exp(num - math.lgamma(sum(exps) + len(exps)))


def test_simplex_rule_mass_and_moments():
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))
    rule = simplex_rule_2d(cfg, 6)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-13)
    x1 = rule.nodes[:, 0]
    x2 = rule.nodes[:, 1]
    assert np.dot(rule.weights, x1) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert np.dot(rule.weights, x1 * x2) == pytest.approx(
        dirichlet_moment((0.0, 0.0, 0.0), (1, 1, 0)), rel=1e-12)


def test_simplex_rule_weighted_moments():
    cfg = WeightConfig(2, (1.0, 0.0, 0.0))
    rule = simplex_rule_2d(cfg, 6)
    # int x1 * x1 dx over the triangle = Dirichlet(3,1,1) = 2/24 = 1/12
    got = np.dot(rule.weights, rule.nodes[:, 0])
    assert got == pytest.approx(1.0 / 12.0, rel=1e-12)
    cfg2 = WeightConfig(2, (0.5, -0.25, 1.0))
    rule2 = simplex_rule_2d(cfg2, 8)
    for powers in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
        want = dirichlet_moment(cfg2.alphas, powers)
        vals = rule2.nodes[:, 0] ** powers[0] * rule2.nodes[:, 1] ** powers[1]
        assert np.dot(rule2.weights, vals) == pytest.approx(want, rel=1e-11)


def test_simplex_rule_inside_triangle():
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))
    rule = simplex_rule_2d(cfg, 10)
    x1, x2 = rule.nodes[:, 0], rule.nodes[:, 1]
    assert np.all(x1 > 0.0) and np.all(x2 > 0.0)
    assert np.all(x1 + x2 < 1.0)
    assert np.all(rule.weights > 0.0)


def test_lp_norm_examples():
    rule = gauss_jacobi_rule(0.0, 0.0, 20)
    ones = np.ones(rule.nodes.size)
    assert lp_norm(ones, rule, 2) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(rule.nodes, rule, 2) == pytest.approx(1.0 / math.sqrt(3.0),
                                                         rel=1e-13)
    assert lp_norm(3.0 * ones, rule, 1) == pytest.approx(3.0, rel=1e-14)


def test_lp_norm_constant_homogeneity():
    alphas = (0.5, 1.5)
    mass = weight_mass(alphas)
    rule = gauss_jacobi_rule(*alphas, 16)
    ones = np.ones(rule.nodes.size)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(2.5 * ones, rule, p) == pytest.approx(
            2.5 * mass ** (1.0 / p), rel=1e-12)


def test_lp_norm_holder_monotone_on_probability_weight():
    rule = gauss_jacobi_rule(0.0, 0.0, 30)  # mass exactly 1
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        norms = [lp_norm(vals, rule, p) for p in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms[:-1], norms[1:]))


def test_lp_norm_triangle_inequality():
    rule = gauss_jacobi_rule(0.25, 0.75, 24)
    rng = np.random.default_rng(11)
    pts = rule.nodes
    for p in (1.0, 2.0):
        f = np.sin(3.0 * pts) + rng.uniform(-0.1, 0.1)
        g = pts ** 2 - 0.3
        lhs = lp_norm(f + g, rule, p)
        rhs = lp_norm(f, rule, p) + lp_norm(g, rule, p)
        assert lhs <= rhs + 1e-10


def test_lp_norm_doubling_stability():
    for m in (20,):
        r1 = gauss_jacobi_rule(0.5, 0.5, m)
        r2 = gauss_jacobi_rule(0.5, 0.5, 2 * m)
        # keep f positive so |f|^p stays smooth for non-even p
        f = lambda x: np.exp(x) * (1.5 + np.cos(2.0 * x))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(f(r1.nodes), r1, p) == pytest.approx(
                lp_norm(f(r2.nodes), r2, p), rel=1e-8)


def test_lp_norm_usage_errors():
    rule = gauss_jacobi_rule(0.0, 0.0, 4)
    # p must be finite and >= 1; the sup norm is a max the caller takes
    for p in (0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            lp_norm(np.ones(4), rule, p)
    with pytest.raises(ValueError):
        lp_norm(np.ones(3), rule, 2)  # value/node count mismatch


def test_sup_grids():
    g = sup_grid()
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0.0)
    assert g.size >= 4097
    g2 = sup_grid_2d()
    assert g2.ndim == 2 and g2.shape[1] == 2
    assert np.all(g2[:, 0] + g2[:, 1] <= 1.0 + 1e-12)


def test_rules_are_immutable():
    rule = gauss_jacobi_rule(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5


def test_gauss_rule_near_minus_one_raises_and_is_not_cached():
    # the solver's weights at this exponent: 41 of 42 negative or NaN
    before = _gauss_jacobi_rule.cache_info()
    for _ in range(2):
        with pytest.raises(ConstructionError,
                           match=r"\(a, b, m\) = \(-0\.999999999999, 0\.5, 42\)"):
            gauss_jacobi_rule(-1.0 + 1e-12, 0.5, 42)
    assert _gauss_jacobi_rule.cache_info().hits == before.hits
    rule = gauss_jacobi_rule(-1.0 + 1e-10, 0.5, 42)
    assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0.0)


def test_sup_grids_are_built_once_and_read_only():
    for public, builder in ((sup_grid, _sup_grid), (sup_grid_2d, _sup_grid_2d)):
        grid = public()
        assert public() is grid
        assert not grid.flags.writeable
        assert np.array_equal(grid, builder.__wrapped__())
