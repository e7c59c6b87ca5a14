"""Orthonormal basis, projection, synthesis, and the two summation methods.

Closed-form anchors: with the flat weight on [0, 1] the basis is the shifted
Legendre family with positive leading coefficient, so low degrees can be
checked against explicit polynomials.  Everything else is pinned through
quadrature identities (Gram matrix, Parseval) and exact linear-algebra facts
(truncation, Cesaro damping).
"""

import tracemalloc

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
    make_plan,
    orthopoly,
    partial_sum,
    project,
    projection_rule,
    simplex_rule_2d,
    sup_points,
    synthesize,
    weight_mass,
)
from durrmeyer import orthopoly
from durrmeyer.orthopoly import TriangleBasis
from durrmeyer.quadrature import sup_grid_2d

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


def test_point_arrays_of_the_wrong_shape_raise():
    tri = WeightConfig(2, (0.5, -0.5, 1.0))
    tri_coeffs = SpectralCoefficients.zeros(tri, 4)
    flat_coeffs = SpectralCoefficients.zeros(FLAT, 4)
    # a flat 4-vector is not two points, and a (2, 3) array is not pairs
    for bad in (np.array([0.1, 0.2, 0.3, 0.4]), np.zeros((2, 3)), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match=r"shape \(npts, 2\)"):
            synthesize(tri_coeffs, bad)
        with pytest.raises(ValueError, match=r"shape \(npts, 2\)"):
            basis_eval(tri, 1, 0, bad)
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        synthesize(flat_coeffs, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        basis_eval(FLAT, 1, 0, np.zeros((2, 2)))
    # the shapes that stay valid: one point gives a float, points an array
    assert isinstance(synthesize(tri_coeffs, [0.1, 0.2]), float)
    assert synthesize(tri_coeffs, np.zeros((3, 2))).shape == (3,)
    assert isinstance(basis_eval(FLAT, 1, 0, 0.3), float)
    assert basis_eval(FLAT, 1, 0, np.zeros(5)).shape == (5,)


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


def test_a_non_integer_band_or_degree_raises_naming_it():
    # int() would truncate 2.5 to 2 and overflow on inf
    coeffs = SpectralCoefficients.from_flat(FLAT, np.ones(6))
    for what, call in [
            ("band L = 2.5", lambda: get_basis(FLAT, 2.5)),
            ("band L = inf", lambda: get_basis(FLAT, np.inf)),
            ("band L = 2.5", lambda: project(lambda x: x, FLAT, 2.5)),
            ("truncation degree = 2.5", lambda: partial_sum(coeffs, 2.5)),
            ("truncation degree = 2.5", lambda: cesaro_mean(coeffs, 2.5)),
            ("degree ell = 2.5", lambda: basis_eval(FLAT, 2.5, 0, 0.3)),
            ("index j = 0.5", lambda: basis_eval(FLAT, 2, 0.5, 0.3))]:
        with pytest.raises(ValueError, match="^%s is not an integer$" % what):
            call()
    # whole floats and numpy integers are whole numbers
    assert get_basis(FLAT, 3.0) is get_basis(FLAT, np.int64(3))
    assert partial_sum(coeffs, 2.0).flat().tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


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
    # same band, another weight
    other = SpectralCoefficients.from_flat(WeightConfig(1, (0.5, 0.0)), np.ones(4))
    with pytest.raises(ValueError, match="weight config or band"):
        coeffs - other
    with pytest.raises(ValueError):
        coeffs.blocks[0][0] = 2.0


def test_non_finite_coefficients_raise_naming_the_first_index():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^coefficient 2 is "):
            SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, bad, bad])
    # project builds its result through from_flat
    with pytest.raises(ValueError, match="^coefficient 0 is nan"):
        project(lambda x: np.full(np.shape(x), np.nan), FLAT, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_raises_naming_it(bad):
    coeffs = SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, 0.25])
    for product in (lambda: coeffs * bad, lambda: bad * coeffs):
        with pytest.raises(ValueError, match="^scalar factor %s is not finite$" % bad):
            product()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_factor_raises_naming_it(bad):
    coeffs = SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="^factor 1 is %s; factors must be finite$" % bad):
        coeffs.scaled([1.0, bad, 1.0])
    tri = SpectralCoefficients.from_flat(WeightConfig(2, (0.0, 0.0, 0.0)), np.ones(6))
    with pytest.raises(ValueError, match="^factor 2 is %s" % bad):
        tri.scaled([1.0, 1.0, bad])


def test_basis_table_is_cached():
    a = get_basis(WeightConfig(1, (0.25, 0.75)), 9)
    b = get_basis(WeightConfig(1, (0.25, 0.75)), 9)
    assert a is b


def test_basis_cache_keeps_the_most_recently_used():
    cache = orthopoly._basis_table
    cache.cache_clear()
    first = get_basis(FLAT, 1)
    for L in range(2, 65):
        get_basis(FLAT, L)
    assert cache.cache_info().currsize == cache.cache_info().maxsize == 64
    assert get_basis(FLAT, 1) is first  # now the most recently used
    get_basis(FLAT, 65)  # evicts the least recently used, band 2
    info = cache.cache_info()
    assert (info.currsize, info.hits, info.misses) == (64, 1, 65)
    assert get_basis(FLAT, 1) is first
    get_basis(FLAT, 2)
    assert cache.cache_info().misses == 66
    cache.cache_clear()


def test_triangle_basis_on_the_sup_grid_allocates_little_beside_its_output():
    basis, pts = TriangleBasis(WeightConfig(2, (0.5, -0.5, 1.0)), 24), sup_grid_2d()
    tracemalloc.start()
    try:
        got = basis.eval_all(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.base is not None and got.base.flags.c_contiguous
    assert peak <= 1.25 * got.nbytes


def test_interval_basis_on_the_sup_grid_allocates_little_beside_its_output():
    cfg = WeightConfig(1, (0.5, -0.5))
    basis, pts = get_basis(cfg, 256), sup_points(cfg, (0.43,))
    tracemalloc.start()
    try:
        got = basis.eval_all(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.base is not None and got.base.flags.c_contiguous
    assert peak <= 1.25 * got.nbytes


def test_evaluation_points_outside_the_domain_raise_naming_them():
    # the 1e-12 slack of the Bernstein kernels, which absorbs rounding at
    # the boundary; the basis would extrapolate beyond it
    coeffs = project(lambda x: x ** 2, FLAT, 32)
    for x in (-0.5, 1.5, -2e-12, 1.0 + 2e-12):
        for call in (lambda: synthesize(coeffs, [0.5, x]),
                     lambda: basis_eval(FLAT, 3, 0, [0.5, x])):
            with pytest.raises(ValueError, match=r"^evaluation point \[%r\] at row 1 "
                               r"is outside the closed domain$" % x):
                call()
    with pytest.raises(ValueError, match="at row 0 is outside the closed domain"):
        basis_eval(FLAT, 3, 0, -0.5)
    assert synthesize(coeffs, [-5e-13, 1.0 + 5e-13]).shape == (2,)
    tri = project(lambda p: p[:, 0] * p[:, 1], WeightConfig(2, (0.0, 0.0, 0.0)), 4)
    for pt in ((0.8, 0.8), (-2e-12, 0.5), (0.5, -2e-12), (0.6, 0.4 + 2e-12)):
        with pytest.raises(ValueError, match=r"^evaluation point \[%r, %r\] at row 1 "
                           r"is outside the closed domain$" % pt):
            synthesize(tri, np.array([(0.2, 0.3), pt]))
        with pytest.raises(ValueError, match="at row 0 is outside the closed domain"):
            basis_eval(tri.cfg, 2, 1, pt)
    assert np.isfinite(synthesize(tri, np.array([(0.6, 0.4 + 5e-13)]))).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_evaluation_points_raise_naming_them(bad):
    coeffs = project(lambda x: x ** 2, FLAT, 8)
    for call in (lambda: synthesize(coeffs, [0.5, bad]),
                 lambda: basis_eval(FLAT, 3, 0, [0.5, bad])):
        with pytest.raises(ValueError, match=r"^non-finite evaluation point \[%s\] at row 1$" % bad):
            call()
    with pytest.raises(ValueError, match=r"^non-finite evaluation point \[%s\] at row 0$" % bad):
        basis_eval(FLAT, 3, 0, bad)
    tri = project(lambda p: p[:, 0] * p[:, 1], WeightConfig(2, (0.0, 0.0, 0.0)), 4)
    pts = np.array([(0.2, 0.3), (0.1, 0.1), (bad, 0.2)])
    with pytest.raises(ValueError, match=r"^non-finite evaluation point \[%s, 0.2\] at row 2$" % bad):
        synthesize(tri, pts)
    with pytest.raises(ValueError, match=r"^non-finite evaluation point \[0.5, %s\] at row 0$" % bad):
        basis_eval(tri.cfg, 2, 1, (0.5, bad))


@pytest.mark.parametrize("cfg, L", [(WeightConfig(2, (0.5, -0.5, 1.0)), 0),
                                    (WeightConfig(2, (0.5, -0.5, 1.0)), 12),
                                    (WeightConfig(1, (0.5, -0.5)), 0),
                                    (WeightConfig(1, (0.5, -0.5)), 12)])
def test_eval_all_on_no_points_has_no_rows(cfg, L):
    basis = get_basis(cfg, L)
    got = basis.eval_all(np.empty((0, 2)) if cfg.d == 2 else np.empty(0))
    assert got.shape == (0, basis.size)


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
    assert got.flags.f_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kinks_on_the_triangle_raise_in_projection():
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))

    def kinked(pts):
        return np.abs(pts[:, 0] - 0.3)
    kinked.kinks = (0.3,)
    for call in (lambda: projection_rule(cfg, 6, splits=(0.3,)),
                 lambda: project(kinked, cfg, 6),
                 lambda: make_plan(cfg, 4, splits=(0.3,))):
        with pytest.raises(ValueError, match="kink splits are only supported for d = 1"):
            call()


@pytest.mark.parametrize("cfg", [FLAT, WeightConfig(2, (0.0, 0.0, 0.0))])
def test_negative_band_raises_and_caches_nothing(cfg):
    before = orthopoly._basis_table.cache_info()
    with pytest.raises(ValueError, match="band L = -1 is negative"):
        get_basis(cfg, -1)
    with pytest.raises(ValueError, match="band L = -1 is negative"):
        project(lambda x: np.ones(len(x)), cfg, -1)
    assert orthopoly._basis_table.cache_info() == before


# off the zeros of every P_n tested, where mpmath's series does not converge
_MPMATH_XS = (0.0, 0.0123, 0.137, 0.31416, 0.4621, 0.6789, 0.8534, 0.9877, 1.0)


def _jacobi_orthonormal_mpmath(alphas, n, xs):
    """p_n(x) = P_n^(a2, a1)(2x - 1) / sqrt(h_n) at 50 digits, h_n being the
    closed-form squared norm against x^a1 (1-x)^a2 on [0, 1]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a1, a2 = (mpmath.mpf(a) for a in alphas)
        h = (mpmath.gamma(n + a1 + 1) * mpmath.gamma(n + a2 + 1)
             / ((2 * n + a1 + a2 + 1) * mpmath.gamma(n + a1 + a2 + 1)
                * mpmath.factorial(n)))
        return np.array([float(mpmath.jacobi(n, a2, a1, 2 * mpmath.mpf(x) - 1)
                               / mpmath.sqrt(h)) for x in xs])


@pytest.mark.parametrize("alphas, L", [
    (alphas, L)
    for alphas in [(0.0, 0.0), (-0.5, -0.5), (0.5, 1.5), (-0.9, 2.0), (3.0, -0.95),
                   (-1.0 + 1e-6, 0.3)]
    for L in (64, 256, 512)] + [((-1.0 + 1e-12, 0.5), 40)])
def test_interval_basis_matches_mpmath_jacobi(alphas, L):
    values = get_basis(WeightConfig(1, alphas), L).eval_all(np.array(_MPMATH_XS))
    for n in (1, 2, L // 4, L // 2, 3 * L // 4, L):
        want = _jacobi_orthonormal_mpmath(alphas, n, _MPMATH_XS)
        err = np.max(np.abs(values[:, n] - want)) / np.max(np.abs(want))
        assert err <= 2e-11, (alphas, L, n, err)


# triangle points: the three vertices, edge points and interior points,
# none of whose x1 or x2 / (1 - x1) is 0.5 (a zero of the odd polynomials of
# a symmetric family)
_TRIANGLE_XS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0123, 0.0), (0.0, 0.4621),
                (0.6789, 0.3211), (0.137, 0.31416), (0.31416, 0.6), (0.8534, 0.0123),
                (0.4621, 0.2))


def _koornwinder_mpmath(alphas, ell, j, pts):
    """phi_{ell,j} = q_{ell-j}(x1) (1-x1)^j r_j(x2 / (1-x1)) from mpmath's
    orthonormal interval families; at x1 = 1 (where x2 = 0) the middle
    factor times r_j is its limit, r_0 for j = 0 and 0 above."""
    a1, a2, a3 = alphas
    out = []
    for x1, x2 in pts:
        s = 1.0 - x1
        if s == 0.0:
            inner = _jacobi_orthonormal_mpmath((a2, a3), 0, [0.0])[0] if j == 0 else 0.0
        else:
            inner = s ** j * _jacobi_orthonormal_mpmath((a2, a3), j, [x2 / s])[0]
        outer = _jacobi_orthonormal_mpmath((a1, 2 * j + a2 + a3 + 1), ell - j, [x1])[0]
        out.append(outer * inner)
    return np.array(out)


def _koornwinder_error(alphas, L):
    """Largest error of the band-L triangle basis against mpmath, each
    phi_{ell,j} relative to its largest |value| on _TRIANGLE_XS, over
    degrees 1, 2, L/4, L/2, 3L/4, L and j in {0, 1, ell/2, ell}."""
    basis = TriangleBasis(WeightConfig(2, alphas), L)
    values = basis.eval_all(np.array(_TRIANGLE_XS))
    worst = 0.0
    for ell in (1, 2, L // 4, L // 2, 3 * L // 4, L):
        for j in {0, 1, ell // 2, ell}:
            want = _koornwinder_mpmath(alphas, ell, j, _TRIANGLE_XS)
            got = values[:, basis.flat_index(ell, j)]
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return worst


@pytest.mark.parametrize("alphas", [(0.0, 0.0, 0.0), (0.5, -0.5, 1.0), (-0.9, 2.0, 0.5),
                                    (3.0, -0.95, 0.0)])
def test_triangle_basis_matches_mpmath_koornwinder(alphas):
    err = _koornwinder_error(alphas, 40)
    assert err <= 1e-12, (alphas, err)


def test_triangle_basis_near_minus_one():
    # no rule stands behind the basis, so an exponent within 1e-12 of -1
    # builds and keeps its accuracy
    err = _koornwinder_error((-1.0 + 1e-12, 0.5, 0.5), 40)
    assert err <= 1e-12, err
