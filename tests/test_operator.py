"""Bernstein basis, basis-form and spectral operator, companions P, Q, g_n.

The basis form works pointwise through moments and quadrature; the spectral
form scales coefficient blocks.  Both must agree, and the companions must
satisfy their exact block identities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from durrmeyer import (
    SpectralCoefficients,
    WeightConfig,
    apply_P_spectral,
    apply_Q,
    apply_durrmeyer,
    apply_durrmeyer_spectral,
    basis_eval,
    build_g_n,
    eigenvalue_mu,
    eigenvalue_mu_all,
    gauss_jacobi_rule,
    index_range,
    interval_rule,
    lp_norm,
    make_plan,
    norm_rule,
    project,
    projection_rule,
    simplex_rule_2d,
    synthesize,
)
from durrmeyer import k_lower, operators
from durrmeyer.operators import _bernstein_matrix, _bernstein_sum, _log_moments
from durrmeyer.orthopoly import _point_matrix
from durrmeyer.quadrature import sup_grid
from durrmeyer.spectrum import _log_factors

# The Bernstein kernels must not divide by zero, overflow or produce NaN
# on the way to a finite result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FLAT = WeightConfig(1, (0.0, 0.0))


def bernstein_basis(n, k, x):
    """p_{n,k}(x) = multinomial(n; k) x1^k1 ... (1-|x|)^(n-|k|) for the
    multi-index tuple k, through the kernel make_plan uses: a single point
    gives a float, an array of points an array."""
    pts, single = _point_matrix(len(k), x)
    vals = _bernstein_matrix(n, [k], pts)[0]
    return float(vals[0]) if single else vals


def basis_moment(cfg, n, k):
    """Integral of p_{n,k} w_alpha over the domain for the multi-index tuple
    k, from the Dirichlet closed form make_plan uses."""
    return float(np.exp(_log_moments(cfg, n, [k])[0]))


def diff_operator_1d(g, alphas=(0.0, 0.0)):
    """x(1-x) g'' + (a1 + 1 - (rho + 1) x) g' by exact coefficient
    arithmetic, rho = 1 + a1 + a2: the d = 1 differential form of the
    second-order operator for the weight x^a1 (1-x)^a2, which is
    (x(1-x) g')' for the flat weight.  g is a numpy Polynomial or an
    ascending coefficient sequence."""
    poly = g if isinstance(g, np.polynomial.Polynomial) else np.polynomial.Polynomial(
        np.atleast_1d(np.asarray(g, dtype=float)))
    a1, a2 = alphas
    drift = np.polynomial.Polynomial([a1 + 1.0, -(a1 + a2 + 2.0)])
    return np.polynomial.Polynomial([0.0, 1.0, -1.0]) * poly.deriv(2) + drift * poly.deriv()


def triangle_points(rng, count):
    u = rng.uniform(0.0, 1.0, count)
    v = rng.uniform(0.0, 1.0, count)
    return np.column_stack([u, v * (1.0 - u)])


def test_partition_of_unity_interval():
    rng = np.random.default_rng(101)
    x = rng.uniform(0.0, 1.0, 100)
    for n in (1, 7, 13):
        total = np.zeros_like(x)
        for k in index_range(n, 1):
            total += bernstein_basis(n, k, x)
        assert np.max(np.abs(total - 1.0)) <= 1e-12, n


def test_partition_of_unity_triangle():
    rng = np.random.default_rng(102)
    pts = triangle_points(rng, 100)
    for n in (2, 7):
        total = np.zeros(pts.shape[0])
        for k in index_range(n, 2):
            total += bernstein_basis(n, k, pts)
        assert np.max(np.abs(total - 1.0)) <= 1e-12, n


def test_partition_of_unity_on_the_sup_grid_at_high_degree():
    grid = sup_grid().reshape(-1, 1)
    total = _bernstein_matrix(256, index_range(256, 1), grid).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


# the matrix kernel and the sum kernel, called as kernel(n, d, pts)
KERNELS = (lambda n, d, pts: _bernstein_matrix(n, index_range(n, d), pts),
           lambda n, d, pts: _bernstein_sum(n, np.ones(len(index_range(n, d))), pts))


def test_points_outside_the_domain_raise():
    # 1e-12 of slack absorbs rounding at the boundary; beyond it is an error
    for kernel in KERNELS:
        for x in (-2e-12, 1.0 + 2e-12):
            with pytest.raises(ValueError, match="outside the closed domain"):
                kernel(5, 1, np.array([[0.5], [x]]))
        for pt in ((-2e-12, 0.5), (0.5, -2e-12), (0.6, 0.4 + 2e-12)):
            with pytest.raises(ValueError, match="outside the closed domain"):
                kernel(5, 2, np.array([pt]))
    edge = np.array([[-5e-13], [1.0 + 5e-13]])
    inside = _bernstein_matrix(5, index_range(5, 1), edge)
    assert np.allclose(inside[:, 0], np.eye(6)[0]) and np.allclose(inside[:, 1], np.eye(6)[5])
    a = np.arange(6.0)
    assert np.allclose(_bernstein_sum(5, a, edge), [0.0, 5.0])
    corners = np.array([(-5e-13, 1.0 + 5e-13), (1.0 + 5e-13, -5e-13), (0.6, 0.4 + 5e-13)])
    a2 = np.arange(len(index_range(5, 2)), dtype=float)
    assert np.allclose(_bernstein_sum(5, a2, corners),
                       a2 @ _bernstein_matrix(5, index_range(5, 2), corners))


def test_off_node_application_never_builds_the_matrix(monkeypatch):
    plans = [(make_plan(FLAT, 12), np.linspace(0.0, 1.0, 9)),
             (make_plan(WeightConfig(2, (0.0, 0.0, 0.0)), 5),
              triangle_points(np.random.default_rng(113), 9))]

    def forbidden(*args):
        raise AssertionError("off-node application built the Bernstein matrix")

    monkeypatch.setattr(operators, "_bernstein_matrix", forbidden)
    for plan, x in plans:
        got = apply_durrmeyer(plan, lambda p: np.ones(len(p)), x)
        assert np.max(np.abs(got - 1.0)) <= 1e-12


def test_non_finite_points_raise():
    plan1, plan2 = make_plan(FLAT, 4), make_plan(WeightConfig(2, (0.0, 0.0, 0.0)), 4)
    ones = lambda p: np.ones(len(p))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            apply_durrmeyer(plan1, ones, [0.2, bad])
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            apply_durrmeyer(plan2, ones, np.array([(0.2, 0.3), (bad, 0.1)]))
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            bernstein_basis(3, (1,), np.array([0.5, bad]))
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            bernstein_basis(3, (1, 1), np.array([0.1, bad]))
        for kernel in KERNELS:
            for d in (1, 2):
                pts = np.full((2, d), 0.25)
                pts[1, -1] = bad
                with pytest.raises(ValueError, match="non-finite evaluation point"):
                    kernel(3, d, pts)


def test_bernstein_spot_values():
    assert abs(bernstein_basis(2, (1,), 0.5) - 0.5) <= 1e-15
    for n in (1, 4, 9):
        assert abs(bernstein_basis(n, (0,), 0.0) - 1.0) <= 1e-15
        assert abs(bernstein_basis(n, (n,), 1.0) - 1.0) <= 1e-15
    # triangle corner: k = (n, 0) peaks at (1, 0)
    assert abs(bernstein_basis(3, (3, 0), np.array([1.0, 0.0])) - 1.0) <= 1e-15


def test_flat_weight_moments_are_uniform():
    # with the flat weight every degree-n basis polynomial has mass 1/(n+1)
    for n in (1, 5, 10):
        for k in range(n + 1):
            got = basis_moment(FLAT, n, (k,))
            assert abs(got - 1.0 / (n + 1)) <= 1e-15, (n, k)


def test_basis_moment_matches_quadrature_interval():
    rng = np.random.default_rng(103)
    for alphas in [(0.5, 0.5), (-0.5, 2.0), (3.0, -0.9)]:
        cfg = WeightConfig(1, alphas)
        for _ in range(6):
            n = int(rng.integers(1, 21))
            k = int(rng.integers(0, n + 1))
            rule = interval_rule(alphas, n + 2)
            quad = float(rule.weights @ bernstein_basis(n, (k,), rule.nodes))
            got = basis_moment(cfg, n, (k,))
            assert abs(got - quad) <= 1e-10 * max(quad, 1e-300), (alphas, n, k)


def test_basis_moment_matches_quadrature_triangle():
    cfg = WeightConfig(2, (0.5, 0.0, 1.0))
    n = 8
    rule = simplex_rule_2d(cfg, n)
    for k in [(0, 0), (3, 2), (8, 0), (2, 6)]:
        quad = float(rule.weights @ bernstein_basis(n, k, rule.nodes))
        got = basis_moment(cfg, n, k)
        assert abs(got - quad) <= 1e-10 * max(quad, 1e-300), k


def test_operator_fixes_constants():
    grid = np.linspace(0.0, 1.0, 33)
    for alphas in [(0.0, 0.0), (0.5, -0.25)]:
        plan = make_plan(WeightConfig(1, alphas), 9)
        vals = apply_durrmeyer(plan, lambda x: np.ones_like(x), grid)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12
    plan2 = make_plan(WeightConfig(2, (0.0, 0.0, 0.0)), 5)
    pts = triangle_points(np.random.default_rng(104), 40)
    vals2 = apply_durrmeyer(plan2, lambda p: np.ones(p.shape[0]), pts)
    assert np.max(np.abs(vals2 - 1.0)) <= 1e-12


def test_degree_two_operator_halves_the_linear_part():
    # rho = 1 for the flat weight, so mu(2, 1) = 2 / 4 = 1/2
    assert abs(eigenvalue_mu(FLAT, 2, 1) - 0.5) <= 1e-15
    plan = make_plan(FLAT, 2)
    grid = np.linspace(0.0, 1.0, 21)
    got = apply_durrmeyer(plan, lambda x: x - 0.5, grid)
    assert np.max(np.abs(got - 0.5 * (grid - 0.5))) <= 1e-12


def test_positivity():
    plan = make_plan(FLAT, 8, f_degree=40)
    grid = np.linspace(0.0, 1.0, 101)
    vals = apply_durrmeyer(plan, lambda x: np.abs(np.sin(7.0 * x)), grid)
    assert vals.min() >= -1e-13
    plan2 = make_plan(WeightConfig(2, (0.5, 0.5, 0.5)), 6, f_degree=30)
    pts = triangle_points(np.random.default_rng(105), 60)
    vals2 = apply_durrmeyer(plan2, lambda p: np.exp(-p[:, 0] - p[:, 1]), pts)
    assert vals2.min() >= -1e-13


def test_l1_mass_is_conserved():
    # self-adjointness plus M_n 1 = 1 forces the weighted integral of M_n f
    # to equal that of f; for f >= 0 this is exactly the L1 norm
    for alphas in [(0.0, 0.0), (0.5, 0.5)]:
        cfg = WeightConfig(1, alphas)
        plan = make_plan(cfg, 10, f_degree=8)
        f = lambda x: (x - 0.3) ** 2 + 0.05
        rule = interval_rule(alphas, 24)
        f_mass = lp_norm(f(rule.nodes), rule, 1)
        m_mass = lp_norm(apply_durrmeyer(plan, f, rule.nodes), rule, 1)
        assert abs(f_mass - m_mass) <= 1e-12 * f_mass


def test_l2_contraction():
    rng = np.random.default_rng(106)
    for alphas in [(0.0, 0.0), (-0.5, -0.5), (2.0, 0.0)]:
        cfg = WeightConfig(1, alphas)
        coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, 9))
        for n in (2, 8, 32):
            out = apply_durrmeyer_spectral(cfg, n, coeffs)
            assert out.norm2() <= coeffs.norm2() * (1.0 + 1e-9)


def test_sup_bound_via_averages():
    # every output value is a convex-ish combination of weighted averages of
    # f over the inner rule, so it cannot exceed max |f| over those nodes
    plan = make_plan(FLAT, 12, f_degree=40)
    f = lambda x: np.sin(9.0 * x) + 0.3 * x
    node_sup = np.max(np.abs(f(plan.rule.nodes)))
    grid = np.linspace(0.0, 1.0, 2001)
    got = np.max(np.abs(apply_durrmeyer(plan, f, grid)))
    assert got <= node_sup * (1.0 + 1e-12)


def test_self_adjointness():
    rng = np.random.default_rng(107)
    for alphas in [(0.0, 0.0), (0.5, -0.25)]:
        cfg = WeightConfig(1, alphas)
        f = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 7))
        g = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 8))
        n = 10
        plan = make_plan(cfg, n, f_degree=7)
        rule = interval_rule(alphas, 24)
        mf = apply_durrmeyer(plan, f, rule.nodes)
        mg = apply_durrmeyer(plan, g, rule.nodes)
        lhs = float(rule.weights @ (mf * g(rule.nodes)))
        rhs = float(rule.weights @ (f(rule.nodes) * mg))
        scale = lp_norm(f(rule.nodes), rule, 2) * lp_norm(g(rule.nodes), rule, 2)
        assert abs(lhs - rhs) <= 1e-9 * scale, alphas


def test_operators_commute():
    rng = np.random.default_rng(108)
    cfg = WeightConfig(1, (0.5, 0.5))
    coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, 13))
    a = apply_durrmeyer_spectral(cfg, 4, apply_durrmeyer_spectral(cfg, 9, coeffs))
    b = apply_durrmeyer_spectral(cfg, 9, apply_durrmeyer_spectral(cfg, 4, coeffs))
    assert np.max(np.abs(a.flat() - b.flat())) <= 1e-12
    c = apply_P_spectral(cfg, apply_durrmeyer_spectral(cfg, 6, coeffs))
    d = apply_durrmeyer_spectral(cfg, 6, apply_P_spectral(cfg, coeffs))
    assert np.max(np.abs(c.flat() - d.flat())) <= 1e-12


def test_eigenvalue_series_identity():
    """1 - mu(n, j) = j(j+rho) * sum over ell > n of mu(ell, j)/(ell(ell+rho)).

    The series is summed to ell = 10^4; the remainder is positive and is
    bounded by replacing mu with 1, which integrates in closed form.
    """
    L = 10_000
    for alphas, rho in [((-0.5, -0.5), 0.0), ((0.0, 0.0), 1.0), ((1.0, 1.0), 3.0)]:
        cfg = WeightConfig(1, alphas)
        assert abs(cfg.rho - rho) <= 1e-15
        for j in (1, 2, 4):
            for n in (6, 12):
                ells = np.arange(n + 1, L + 1, dtype=float)
                # mu(ell, j) for every ell, from the factors eigenvalue_mu sums
                mu_tail = np.exp(_log_factors(cfg.rho, ells[:, None], j).sum(axis=1))
                partial = j * (j + rho) * float(np.sum(mu_tail / (ells * (ells + rho))))
                gap = (1.0 - eigenvalue_mu(cfg, n, j)) - partial
                if rho > 0.0:
                    tail_bound = j * (j + rho) / rho * math.log1p(rho / L)
                else:
                    tail_bound = j * j / L
                assert -1e-12 <= gap <= tail_bound + 1e-12, (alphas, j, n, gap)


def test_q_identity():
    # P(M_n f) = n Q_n(M_n f - f) blockwise
    rng = np.random.default_rng(109)
    for alphas in [(0.0, 0.0), (0.5, 0.5), (1.0, -0.5)]:
        cfg = WeightConfig(1, alphas)
        coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, 13))
        for n in (3, 8, 15):
            lhs = apply_P_spectral(cfg, apply_durrmeyer_spectral(cfg, n, coeffs))
            rhs = float(n) * apply_Q(cfg, n, apply_durrmeyer_spectral(cfg, n, coeffs) - coeffs)
            assert np.max(np.abs(lhs.flat() - rhs.flat())) <= 1e-11, (alphas, n)


def test_diff_operator_closed_forms():
    # (x(1-x) g')' for g = x - 1/2 is 1 - 2x
    out = diff_operator_1d([-0.5, 1.0])
    assert np.allclose(out.coef, [1.0, -2.0], atol=1e-15)
    # constants are annihilated
    zero = diff_operator_1d([4.2])
    assert np.max(np.abs(zero.coef)) == 0.0
    # the degree-2 basis polynomial of the flat weight is an eigenfunction
    # with eigenvalue -2 * (2 + 1) = -6
    phi2 = np.sqrt(5.0) * np.polynomial.Polynomial([1.0, -6.0, 6.0])
    got = diff_operator_1d(phi2)
    want = -6.0 * phi2
    assert np.allclose(got.coef, want.coef[: got.coef.size], atol=1e-12)


@pytest.mark.parametrize("alphas", [(0.0, 0.0), (0.5, 1.5), (-0.5, -0.5)])
def test_spectral_P_matches_the_differential_operator(alphas):
    # P is diagonal on the basis with factor -ell(ell + rho); its differential
    # form maps a degree-8 g to a degree-8 polynomial, so both sides project
    # exactly on a rule of that degree.  The singular weight (-0.9, 2) is left
    # out: it reads about 1e-10 here, at the level of its Gauss weight errors.
    cfg = WeightConfig(1, alphas)
    g = np.polynomial.Polynomial(np.random.default_rng(114).uniform(-1.0, 1.0, 9))
    L = 12
    rule = projection_rule(cfg, L, f_degree=8)
    spectral = apply_P_spectral(cfg, project(g, cfg, L, rule=rule))
    direct = project(diff_operator_1d(g, alphas), cfg, L, rule=rule)
    assert (spectral - direct).norm2() <= 1e-10 * direct.norm2()


def test_basis_and_spectral_forms_agree_interval():
    rng = np.random.default_rng(110)
    grid = np.linspace(0.0, 1.0, 33)
    for alphas in [(0.0, 0.0), (0.5, -0.25)]:
        cfg = WeightConfig(1, alphas)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 7))
        L = 10
        coeffs = project(poly, cfg, L, rule=projection_rule(cfg, L, f_degree=6))
        for n in (4, 9):
            plan = make_plan(cfg, n, f_degree=6)
            basis_vals = apply_durrmeyer(plan, poly, grid)
            spectral_vals = synthesize(apply_durrmeyer_spectral(cfg, n, coeffs), grid)
            assert np.max(np.abs(basis_vals - spectral_vals)) <= 1e-8, (alphas, n)


def test_basis_and_spectral_forms_agree_triangle():
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))
    f = lambda p: p[:, 0] ** 2 * p[:, 1] + 0.3 * p[:, 0] - 0.1
    L, n = 5, 5
    coeffs = project(f, cfg, L, rule=projection_rule(cfg, L, f_degree=3))
    pts = triangle_points(np.random.default_rng(111), 50)
    plan = make_plan(cfg, n, f_degree=3)
    basis_vals = apply_durrmeyer(plan, f, pts)
    spectral_vals = synthesize(apply_durrmeyer_spectral(cfg, n, coeffs), pts)
    assert np.max(np.abs(basis_vals - spectral_vals)) <= 1e-8


def test_own_node_application_reuses_stored_bernstein_values():
    f = lambda x: np.cos(3.0 * np.reshape(x, (len(x), -1)).sum(axis=1))
    for cfg, n in [(WeightConfig(1, (0.5, -0.25)), 9),
                   (WeightConfig(2, (0.0, 0.5, 0.0)), 6)]:
        plan = make_plan(cfg, n, f_degree=4)
        nodes = plan.rule.nodes
        fvals = f(nodes)
        averages = (plan.basis_at_nodes @ (plan.rule.weights * fvals)) / plan.moments
        own = apply_durrmeyer(plan, f, nodes)
        assert np.array_equal(own, averages @ plan.basis_at_nodes)
        # a copy of the nodes takes the off-node path, the Bernstein sum
        copied = apply_durrmeyer(plan, f, nodes.copy())
        tol = 16.0 * np.finfo(float).eps * (n + 1) * np.max(np.abs(averages))
        assert np.max(np.abs(copied - own)) <= tol


def test_g_n_telescoping():
    rng = np.random.default_rng(112)
    for alphas in [(0.0, 0.0), (1.0, 1.0)]:
        cfg = WeightConfig(1, alphas)
        coeffs = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, 11))
        for n in (2, 5, 8):
            g, t_n = build_g_n(cfg, n, coeffs)
            lhs = apply_P_spectral(cfg, g).flat()
            gap = (apply_durrmeyer_spectral(cfg, n, coeffs)
                   - apply_durrmeyer_spectral(cfg, 2 * n, coeffs)).flat()
            assert np.max(np.abs(lhs - gap / t_n)) <= 1e-10, (alphas, n)


def test_g_n_weight_total_and_constants():
    cfg = WeightConfig(1, (-0.5, -0.5))  # rho = 0, weights are 1/k^2
    const = SpectralCoefficients.from_flat(cfg, [1.7])
    for n in (1, 4, 7):
        g, t_n = build_g_n(cfg, n, const)
        assert np.max(np.abs(g.flat() - const.flat())) <= 1e-15
        want = float(sum(Fraction(1, k * k) for k in range(n + 1, 2 * n + 1)))
        assert abs(t_n - want) <= 1e-15 * want, n


def test_validation_errors():
    with pytest.raises(ValueError):
        make_plan(FLAT, 0)
    with pytest.raises(ValueError):
        apply_Q(FLAT, 0, SpectralCoefficients.from_flat(FLAT, np.ones(3)))
    plan = make_plan(FLAT, 3)
    with pytest.raises(ValueError):
        apply_durrmeyer(plan, lambda x: np.ones(3), 0.5)


_DEGREE_CALLS = {
    "make_plan": lambda cfg, n, c: make_plan(cfg, n).rule.weights,
    "apply_durrmeyer_spectral": lambda cfg, n, c: apply_durrmeyer_spectral(cfg, n, c).flat(),
    "apply_Q": lambda cfg, n, c: apply_Q(cfg, n, c).flat(),
    "build_g_n": lambda cfg, n, c: build_g_n(cfg, n, c)[0].flat(),
    "k_lower": lambda cfg, n, c: np.array([k_lower(cfg, c, n, 2)]),
}


@pytest.mark.parametrize("name", sorted(_DEGREE_CALLS))
def test_operators_reject_a_fractional_degree_and_a_foreign_weight(name):
    call = _DEGREE_CALLS[name]
    flat = WeightConfig(1, (0.0, 0.0))
    coeffs = SpectralCoefficients(flat, np.linspace(1.0, 0.1, 9))
    with pytest.raises(ValueError, match="degree n must be a positive integer"):
        call(flat, 2.5, coeffs)
    # integral values of another type are the same degree
    want = call(flat, 3, coeffs)
    for n in (3.0, np.int64(3)):
        assert np.array_equal(call(flat, n, coeffs), want)
    if name != "make_plan":
        # equal but not identical configs are the same weight
        assert np.array_equal(call(WeightConfig(1, (0.0, 0.0)), 3, coeffs), want)
        with pytest.raises(ValueError, match=r"coefficients on the weight \(0\.0, 0\.0\) "
                                             r"given to an operator on \(0\.5, 1\.5\)"):
            call(WeightConfig(1, (0.5, 1.5)), 4, coeffs)


_TRI = WeightConfig(2, (0.0, 0.0, 0.0))
# (call of a whole-number argument v, the name its error gives): degrees,
# bands and node counts all go through spectrum._whole
_WHOLE_CALLS = {
    "make_plan n": (lambda v: make_plan(FLAT, v).rule.weights, "degree n"),
    "make_plan f_degree": (lambda v: make_plan(FLAT, 4, f_degree=v).rule.weights,
                           "f_degree"),
    "eigenvalue_mu ell": (lambda v: eigenvalue_mu(FLAT, 4, v), "degree ell"),
    "eigenvalue_mu_all n": (lambda v: eigenvalue_mu_all(FLAT, v), "degree n"),
    "gauss_jacobi_rule m": (lambda v: gauss_jacobi_rule(0, 0, v).weights, "node count m"),
    "simplex_rule_2d m": (lambda v: simplex_rule_2d(_TRI, v).weights, "target degree m"),
    "index_range n": (lambda v: np.array(index_range(v, 1)), "degree n"),
    "projection_rule L": (lambda v: projection_rule(FLAT, v).weights, "band L"),
    "projection_rule f_degree": (lambda v: projection_rule(FLAT, 8, f_degree=v).weights,
                                 "f_degree"),
    "norm_rule L": (lambda v: norm_rule(FLAT, v).weights, "band L"),
}


@pytest.mark.parametrize("name", sorted(_WHOLE_CALLS))
@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5])
def test_a_degree_that_is_not_a_whole_number_raises_naming_it(name, bad):
    # int() overflowed on inf, named no argument on NaN and floored 2.5
    call, what = _WHOLE_CALLS[name]
    with pytest.raises(ValueError, match="^%s.*%r" % (what, bad)):
        call(bad)
    want = call(3)
    for v in (3.0, np.int64(3)):
        assert np.array_equal(call(v), want)
