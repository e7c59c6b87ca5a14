"""Orthonormal basis, projection, synthesis, and the two summation methods.

Closed-form anchors: with the flat weight on [0, 1] the basis is the shifted
Legendre family with positive leading coefficient, so low degrees can be
checked against explicit polynomials.  Everything else is pinned through
quadrature identities (Gram matrix, Parseval) and exact linear-algebra facts
(truncation, Cesaro damping).
"""

from collections import OrderedDict

import numpy as np
import pytest

from durrmeyer import (
    SpectralCoefficients,
    WeightConfig,
    basis_eval,
    cesaro_factors,
    cesaro_mean,
    get_basis,
    interval_rule,
    lp_norm,
    orthopoly,
    partial_sum,
    project,
    projection_rule,
    simplex_rule_2d,
    synthesize,
    weight_mass,
)
from durrmeyer import orthopoly
from durrmeyer.orthopoly import _BASIS_CACHE, TriangleBasis, _stieltjes_recurrence
from durrmeyer.quadrature import ConstructionError, gauss_jacobi_rule, sup_grid_2d

FLAT = WeightConfig(1, (0.0, 0.0))

INTERVAL_ALPHAS = [
    (0.0, 0.0),
    (0.5, 0.5),
    (-0.5, -0.5),
    (2.0, -0.9),
]


def gram_matrix(cfg, L, rule):
    table = get_basis(cfg, L).eval_all(rule.nodes)
    return table.T @ (rule.weights[:, None] * table)


def test_gram_identity_interval():
    L = 8
    for alphas in INTERVAL_ALPHAS:
        cfg = WeightConfig(1, alphas)
        rule = interval_rule(alphas, 40)
        gram = gram_matrix(cfg, L, rule)
        err = np.max(np.abs(gram - np.eye(L + 1)))
        assert err <= 1e-9, (alphas, err)


def test_gram_identity_triangle():
    L = 6
    for alphas in [(0.0, 0.0, 0.0), (0.5, 0.0, 1.0)]:
        cfg = WeightConfig(2, alphas)
        rule = simplex_rule_2d(cfg, 2 * L + 6)
        gram = gram_matrix(cfg, L, rule)
        size = (L + 1) * (L + 2) // 2
        assert gram.shape == (size, size)
        err = np.max(np.abs(gram - np.eye(size)))
        assert err <= 1e-9, (alphas, err)


def test_flat_weight_low_degrees_match_legendre():
    x = np.linspace(0.0, 1.0, 21)
    expected = [
        np.ones_like(x),
        np.sqrt(3.0) * (2.0 * x - 1.0),
        np.sqrt(5.0) * (6.0 * x**2 - 6.0 * x + 1.0),
        np.sqrt(7.0) * (20.0 * x**3 - 30.0 * x**2 + 12.0 * x - 1.0),
    ]
    for ell, want in enumerate(expected):
        got = basis_eval(FLAT, ell, 0, x)
        assert np.max(np.abs(got - want)) <= 1e-12, ell


def test_degree_zero_is_inverse_root_mass():
    for alphas in INTERVAL_ALPHAS:
        cfg = WeightConfig(1, alphas)
        want = 1.0 / np.sqrt(weight_mass(alphas))
        got = basis_eval(cfg, 0, 0, 0.37)
        assert abs(got - want) <= 1e-12 * want
    tri = WeightConfig(2, (0.0, 0.0, 0.0))
    got = basis_eval(tri, 0, 0, np.array([0.2, 0.3]))
    assert abs(got - np.sqrt(2.0)) <= 1e-12


def test_parseval():
    rng = np.random.default_rng(2024)
    L = 8
    for alphas in INTERVAL_ALPHAS:
        cfg = WeightConfig(1, alphas)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, L + 1))
        rule = projection_rule(cfg, L, f_degree=L)
        coeffs = project(poly, cfg, L, rule=rule)
        quad_norm = lp_norm(poly(rule.nodes), rule, 2)
        assert abs(coeffs.norm2() - quad_norm) <= 1e-9 * max(quad_norm, 1.0)


def test_roundtrip_interval():
    rng = np.random.default_rng(7)
    L = 10
    for alphas in INTERVAL_ALPHAS:
        cfg = WeightConfig(1, alphas)
        coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, L + 1))
        rule = projection_rule(cfg, L, f_degree=L)
        back = project(lambda x: synthesize(coeffs, x), cfg, L, rule=rule)
        err = np.max(np.abs(back.flat() - coeffs.flat()))
        assert err <= 1e-10, (alphas, err)


def test_roundtrip_triangle():
    rng = np.random.default_rng(11)
    L = 6
    cfg = WeightConfig(2, (0.5, 0.0, 1.0))
    size = (L + 1) * (L + 2) // 2
    coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, size))
    rule = projection_rule(cfg, L, f_degree=L)
    back = project(lambda pts: synthesize(coeffs, pts), cfg, L, rule=rule)
    err = np.max(np.abs(back.flat() - coeffs.flat()))
    assert err <= 1e-10, err


def test_project_basis_function_gives_unit_vector():
    cfg = WeightConfig(1, (0.5, 0.5))
    L = 8
    rule = projection_rule(cfg, L, f_degree=3)
    coeffs = project(lambda x: basis_eval(cfg, 3, 0, x), cfg, L, rule=rule)
    flat = coeffs.flat()
    want = np.zeros(L + 1)
    want[3] = 1.0
    assert np.max(np.abs(flat - want)) <= 1e-10


def test_project_constant_flat_weight():
    coeffs = project(lambda x: np.ones_like(x), FLAT, 6)
    flat = coeffs.flat()
    assert abs(flat[0] - 1.0) <= 1e-12
    assert np.max(np.abs(flat[1:])) <= 1e-10


def test_project_x_squared_fills_three_blocks():
    cfg = WeightConfig(1, (0.5, 0.5))
    coeffs = project(lambda x: x**2, cfg, 8)
    norms = coeffs.block_norms()
    assert np.all(norms[:3] > 1e-3)
    assert np.max(norms[3:]) <= 1e-10


def test_partial_sum_reproduction_and_idempotence():
    rng = np.random.default_rng(31)
    coeffs = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 9))
    full = partial_sum(coeffs, coeffs.max_degree)
    assert np.array_equal(full.flat(), coeffs.flat())
    once = partial_sum(coeffs, 3)
    twice = partial_sum(once, 3)
    assert np.array_equal(once.flat(), twice.flat())
    assert np.max(np.abs(once.flat()[4:])) == 0.0


def test_partial_sum_degree_zero_is_constant():
    rng = np.random.default_rng(32)
    coeffs = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 9))
    s0 = partial_sum(coeffs, 0)
    x = np.linspace(0.0, 1.0, 11)
    vals = synthesize(s0, x)
    want = coeffs.blocks[0][0] * basis_eval(FLAT, 0, 0, x)
    assert np.max(np.abs(vals - want)) <= 1e-14


def test_cesaro_factor_table():
    ells = np.arange(7)
    got = cesaro_factors(3, ells)
    want = np.array([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0]) / 4.0
    assert np.array_equal(got, want)


def test_cesaro_spot_values():
    rng = np.random.default_rng(33)
    coeffs = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 6))
    # n = 0 collapses to the degree-0 truncation
    assert np.array_equal(cesaro_mean(coeffs, 0).flat(), partial_sum(coeffs, 0).flat())
    # a constant is a fixed point at every order
    const = SpectralCoefficients.from_flat(FLAT, [2.5])
    assert np.array_equal(cesaro_mean(const, 0).flat(), const.flat())
    # degree-1 component survives with weight (n+1-1)/(n+1) = 1/2 at n = 1
    e1 = SpectralCoefficients.from_flat(FLAT, [0.0, 1.0])
    assert np.array_equal(cesaro_mean(e1, 1).flat(), np.array([0.0, 0.5]))


def test_cesaro_matches_literal_average():
    rng = np.random.default_rng(34)
    L, n = 10, 5
    coeffs = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, L + 1))
    literal = np.zeros(L + 1)
    for k in range(n + 1):
        literal += partial_sum(coeffs, k).flat()
    literal /= n + 1.0
    closed = cesaro_mean(coeffs, n).flat()
    assert np.max(np.abs(closed - literal)) <= 1e-12
    x = np.linspace(0.0, 1.0, 41)
    synth_gap = synthesize(cesaro_mean(coeffs, n), x) - synthesize(
        SpectralCoefficients.from_flat(FLAT, literal), x)
    assert np.max(np.abs(synth_gap)) <= 1e-12


def test_cesaro_contracts_the_norm():
    rng = np.random.default_rng(35)
    for trial in range(5):
        coeffs = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 12))
        for n in (0, 2, 5, 11):
            damped = cesaro_mean(coeffs, n)
            assert damped.norm2() <= coeffs.norm2() + 1e-15
            assert np.all(damped.block_norms() <= coeffs.block_norms() + 1e-15)


def test_truncation_range_errors():
    coeffs = SpectralCoefficients.from_flat(FLAT, np.ones(5))
    for bad in (-1, 5, 12):
        with pytest.raises(ValueError):
            partial_sum(coeffs, bad)
        with pytest.raises(ValueError):
            cesaro_mean(coeffs, bad)


def test_coefficient_container_validation():
    with pytest.raises(ValueError):
        # 1.5 blocks worth of data
        SpectralCoefficients.from_flat(WeightConfig(2, (0.0, 0.0, 0.0)), np.ones(2))
    coeffs = SpectralCoefficients.from_flat(FLAT, np.ones(4))
    with pytest.raises(ValueError):
        coeffs.scaled(np.ones(3))
    other = SpectralCoefficients.from_flat(FLAT, np.ones(6))
    with pytest.raises(ValueError):
        coeffs + other
    with pytest.raises(ValueError):
        coeffs.blocks[0][0] = 2.0


def test_non_finite_coefficients_raise_naming_the_first_index():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^coefficient 2 is "):
            SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, bad, bad])
    # project builds its result through from_flat
    with pytest.raises(ValueError, match="^coefficient 0 is nan"):
        project(lambda x: np.full(np.shape(x), np.nan), FLAT, 4)


def test_basis_table_is_cached():
    a = get_basis(WeightConfig(1, (0.25, 0.75)), 9)
    b = get_basis(WeightConfig(1, (0.25, 0.75)), 9)
    assert a is b


def test_basis_cache_keeps_the_most_recently_used(monkeypatch):
    monkeypatch.setattr(orthopoly, "_BASIS_CACHE", OrderedDict())
    monkeypatch.setattr(orthopoly, "_BASIS_CACHE_SIZE", 2)
    first = get_basis(FLAT, 1)
    get_basis(FLAT, 2)
    assert get_basis(FLAT, 1) is first
    get_basis(FLAT, 3)
    assert list(orthopoly._BASIS_CACHE) == [(FLAT, 1), (FLAT, 3)]
    assert get_basis(FLAT, 2) is not None
    assert list(orthopoly._BASIS_CACHE) == [(FLAT, 3), (FLAT, 2)]


def test_triangle_basis_blocks_equal_one_pass_bitwise(monkeypatch):
    basis = TriangleBasis(WeightConfig(2, (0.5, -0.5, 1.0)), 12)
    # blocks of 100 points: two full blocks and a partial last one
    monkeypatch.setattr(orthopoly, "_EVAL_BLOCK_BYTES", 8 * basis.size * 100)
    pts = sup_grid_2d()[:207]
    got = basis.eval_all(pts)
    want = np.multiply(basis._eval_raw(pts).T, basis._inv_norms, order="C")
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _interval_column_fill(basis, x):
    """IntervalBasis values filled one strided column per degree, each
    computed from the two columns before it: the reference for the fill
    that carries those degrees as vectors."""
    out = np.empty((x.size, basis.L + 1))
    a, sqb = basis._rec_a, basis._rec_sqb
    out[:, 0] = 1.0 / sqb[0]
    if basis.L >= 1:
        out[:, 1] = (x - a[0]) * out[:, 0] / sqb[1]
    for k in range(1, basis.L):
        out[:, k + 1] = ((x - a[k]) * out[:, k] - sqb[k] * out[:, k - 1]) / sqb[k + 1]
    return out


@pytest.mark.parametrize("L, npts", [(256, 5377), (144, 5377), (64, 5120), (20, 30),
                                     (1, 9), (0, 5)])
def test_interval_basis_equals_column_fill_bitwise(L, npts):
    basis = get_basis(WeightConfig(1, (0.5, -0.5)), L)
    x = np.sort(np.random.default_rng(L + npts).uniform(0.0, 1.0, npts))
    x[0], x[-1] = 0.0, 1.0
    got = basis.eval_all(x)
    want = _interval_column_fill(basis, x)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_triangle_basis_near_minus_one():
    with pytest.raises(ConstructionError, match=r"\(a, b, m\)"):
        TriangleBasis(WeightConfig(2, (-1.0 + 1e-12, 0.5, 0.5)), 40)
    basis = TriangleBasis(WeightConfig(2, (-1.0 + 1e-10, 0.5, 0.5)), 40)
    assert np.all(np.isfinite(basis._inv_norms)) and np.all(basis._inv_norms > 0.0)


def test_triangle_basis_rejects_nan_norms(monkeypatch):
    monkeypatch.setattr(TriangleBasis, "_eval_raw",
                        lambda self, pts: np.full((self.size, len(pts)), np.nan))
    with pytest.raises(ArithmeticError, match="NaN basis norm"):
        TriangleBasis(WeightConfig(2, (0.0, 0.0, 0.0)), 3)


@pytest.mark.parametrize("cfg", [FLAT, WeightConfig(2, (0.0, 0.0, 0.0))])
def test_negative_band_raises_and_caches_nothing(cfg):
    with pytest.raises(ValueError, match="band L = -1 is negative"):
        get_basis(cfg, -1)
    with pytest.raises(ValueError, match="band L = -1 is negative"):
        project(lambda x: np.ones(len(x)), cfg, -1)
    assert not any(L < 0 for _, L in _BASIS_CACHE)


def _monic_stieltjes(nodes, weights, L):
    """The unscaled monic sweep, the reference where it stays clear of
    subnormals; past band ~250 its squared norms underflow."""
    a = np.empty(L + 1)
    b = np.empty(L + 1)
    p_prev = np.zeros_like(nodes)
    p_cur = np.ones_like(nodes)
    norm_prev = 1.0
    for k in range(L + 1):
        norm_cur = np.dot(weights, p_cur * p_cur)
        a[k] = np.dot(weights, nodes * p_cur * p_cur) / norm_cur
        b[k] = norm_cur if k == 0 else norm_cur / norm_prev
        p_next = (nodes - a[k]) * p_cur
        if k > 0:
            p_next -= b[k] * p_prev
        p_prev, p_cur, norm_prev = p_cur, p_next, norm_cur
    return a, b


def test_scaled_stieltjes_sweep_matches_monic_sweep_bitwise():
    for alphas in [(0.0, 0.0), (-0.5, -0.5), (0.5, 1.5), (2.0, -0.9)]:
        for L in (1, 64, 144):
            rule = gauss_jacobi_rule(alphas[0], alphas[1], L + 2)
            got_a, got_b = _stieltjes_recurrence(rule.nodes, rule.weights, L)
            want_a, want_b = _monic_stieltjes(rule.nodes, rule.weights, L)
            assert np.array_equal(got_a, want_a), (alphas, L)
            assert np.array_equal(got_b, want_b), (alphas, L)


def test_band_512_basis_is_orthonormal():
    L = 512
    for alphas in [(0.0, 0.0), (-0.5, -0.5), (0.5, 1.5)]:
        rule = gauss_jacobi_rule(alphas[0], alphas[1], L + 2)
        gram = gram_matrix(WeightConfig(1, alphas), L, rule)
        err = np.max(np.abs(gram - np.eye(L + 1)))
        assert err <= 1e-12, (alphas, err)
