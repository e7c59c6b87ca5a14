"""K-functional estimation: exact p = 2 minimizer, candidate upper bounds,
operator-gap lower bounds, and the bracket container.

The p = 2 minimum has two independent oracles here: a closed form on single
eigenfunctions and a second-order cone solve on random coefficient vectors.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from durrmeyer import (
    KBracket,
    NormContext,
    SpectralCoefficients,
    WeightConfig,
    apply_durrmeyer_spectral,
    config_for_rho,
    default_candidates,
    eigenvalue_mu,
    estimate_operator_norm,
    k_bracket,
    k_exact_p2,
    k_lower,
    k_upper_detail,
    lp_norm,
    project,
    projection_rule,
)
from durrmeyer import kfunc, suite
from durrmeyer.orthopoly import get_basis
from durrmeyer.suite import get_suite

FLAT = WeightConfig(1, (0.0, 0.0))


def _k_upper(cfg, f, t, p, **kw):
    """The value of k_upper_detail, without its witness."""
    return k_upper_detail(cfg, f, t, p, **kw)[0]


def _norm_f(ctx, p):
    """||f||_p from a context's f-values: the max over its sup grid at
    p = inf, the rule norm otherwise."""
    if p == math.inf:
        return float(np.max(np.abs(ctx.f_grid)))
    return lp_norm(ctx.f_rule, ctx.rule, p)


def unit_eigen(cfg, ell, L=None):
    L = ell if L is None else L
    flat = np.zeros(L + 1)
    flat[ell] = 1.0
    return SpectralCoefficients.from_flat(cfg, flat)


def test_closed_form_on_eigenfunctions():
    # K(phi_ell, t) at p = 2 is min(1, t ell (ell + rho))
    ts = np.logspace(-4.0, 1.0, 40)
    for rho in (1.0, 2.5):
        cfg = config_for_rho(rho)
        for ell in range(1, 21):
            lam = ell * (ell + rho)
            f = unit_eigen(cfg, ell)
            for t in ts:
                got = k_exact_p2(cfg, f, t)
                want = min(1.0, t * lam)
                assert abs(got - want) <= 1e-8, (rho, ell, t)


def test_exact_p2_against_cone_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(201)
    cfg = WeightConfig(1, (0.5, 0.5))
    rho = cfg.rho
    L = 8
    lam = np.arange(L + 1, dtype=float) * (np.arange(L + 1, dtype=float) + rho)
    for trial in range(4):
        b = rng.uniform(-1.0, 1.0, L + 1)
        f = SpectralCoefficients.from_flat(cfg, b)
        for t in (0.003, 0.05, 0.4):
            g = cvxpy.Variable(L + 1)
            objective = cvxpy.norm2(b - g) + t * cvxpy.norm2(cvxpy.multiply(lam, g))
            problem = cvxpy.Problem(cvxpy.Minimize(objective))
            oracle = float(problem.solve())
            got = k_exact_p2(cfg, f, t)
            assert abs(got - oracle) <= 1e-6 * max(oracle, 1e-3), (trial, t)


def test_exact_p2_against_cone_solver_triangle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(202)
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))
    rho = cfg.rho
    L = 5
    size = (L + 1) * (L + 2) // 2
    lam_entries = np.concatenate(
        [np.full(ell + 1, ell * (ell + rho)) for ell in range(L + 1)])
    b = rng.uniform(-1.0, 1.0, size)
    f = SpectralCoefficients.from_flat(cfg, b)
    for t in (0.01, 0.2):
        g = cvxpy.Variable(size)
        objective = cvxpy.norm2(b - g) + t * cvxpy.norm2(cvxpy.multiply(lam_entries, g))
        oracle = float(cvxpy.Problem(cvxpy.Minimize(objective)).solve())
        got = k_exact_p2(cfg, f, t)
        assert abs(got - oracle) <= 1e-6 * max(oracle, 1e-3), t


def test_degenerate_inputs():
    f = SpectralCoefficients.from_flat(FLAT, [0.3, -0.2, 0.9])
    assert k_exact_p2(FLAT, f, 0.0) == 0.0
    zero = f * 0.0
    assert k_exact_p2(FLAT, zero, 0.7) == 0.0
    with pytest.raises(ValueError):
        k_exact_p2(FLAT, f, -0.1)
    with pytest.raises(ValueError):
        _k_upper(FLAT, f, -0.1, 2)
    with pytest.raises(ValueError):
        k_lower(FLAT, f, 0, 2)


def test_nan_and_negative_arguments_raise_naming_them():
    f = SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, 0.25, 0.1])
    for t in (math.nan, [0.1, math.nan], -0.1):
        with pytest.raises(ValueError, match="^t must"):
            k_exact_p2(FLAT, f, t)
    for tail in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="^tail_norm must"):
            k_exact_p2(FLAT, f, 0.1, tail_norm=tail)
    with pytest.raises(ValueError, match="^t must"):
        _k_upper(FLAT, f, math.nan, 2)


def test_infinite_t_gives_the_keep_mean_limit():
    f = SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, 0.25, 0.1])
    assert k_exact_p2(FLAT, f, math.inf) == 0.5678908345800273
    got = k_exact_p2(FLAT, f, [0.1, math.inf], tail_norm=0.3)
    assert got[1] == math.sqrt(0.5678908345800273 ** 2 + 0.09)
    mean_only = SpectralCoefficients.from_flat(FLAT, [1.0, 0.0, 0.0, 0.0])
    assert k_exact_p2(FLAT, mean_only, math.inf) == 0.0
    assert k_exact_p2(FLAT, mean_only, math.inf, tail_norm=0.3) == 0.3
    assert k_exact_p2(FLAT, f * 0.0, math.inf) == 0.0


def test_upper_at_infinite_t_is_finite_for_p1_and_sup():
    # the zero candidate pays no penalty, where inf * 0 would give NaN
    f = SpectralCoefficients.from_flat(FLAT, [1.0, 0.5, 0.25, 0.1])
    ctx = NormContext(FLAT, f)
    for p in (1.0, math.inf):
        assert k_upper_detail(FLAT, f, math.inf, p, ctx=ctx) == (_norm_f(ctx, p), "zero")


def test_non_finite_coefficients_raise_before_any_k_value():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^coefficient 1 is (nan|inf);"):
            k_exact_p2(FLAT, SpectralCoefficients.from_flat(FLAT, [1.0, bad, 0.25]), 0.1)


def test_upper_bounded_by_norm():
    # the zero candidate is always in the list, so the upper estimate can
    # never exceed ||f||_p
    rng = np.random.default_rng(203)
    f = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 9))
    ctx = NormContext(FLAT, f)
    for p in (1.0, 2.0, math.inf):
        norm = _norm_f(ctx, p)
        for t in (0.01, 0.1, 1.0, 10.0):
            assert _k_upper(FLAT, f, t, p, ctx=ctx) <= norm * (1.0 + 1e-12), (p, t)


def test_upper_monotone_in_t_with_fixed_candidates():
    # with the candidate set frozen the objective is affine increasing in t,
    # so the minimum over the set is nondecreasing
    rng = np.random.default_rng(204)
    f = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 11))
    ctx = NormContext(FLAT, f)
    cands = default_candidates(FLAT, f, 0.05)
    ts = np.logspace(-3.0, 0.5, 25)
    for p in (1.0, math.inf):
        vals = [_k_upper(FLAT, f, t, p, ctx=ctx, candidates=cands) for t in ts]
        assert np.min(np.diff(vals)) >= -1e-12, p


def test_subhomogeneity_p2():
    rng = np.random.default_rng(205)
    f = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 10))
    for t in (0.01, 0.1):
        base = k_exact_p2(FLAT, f, t)
        for lam in (0.3, 1.0, 2.5, 10.0):
            scaled = k_exact_p2(FLAT, f, lam * t)
            assert scaled <= max(1.0, lam) * base + 1e-12, (t, lam)


def test_bracket_validity_polynomials():
    suite = [tf for tf in get_suite("poly", FLAT) if tf.f_id in
             ("poly-00", "poly-07", "poly-13")]
    L = 64
    for tf in suite:
        coeffs = project(tf, FLAT, L)
        ctx = NormContext(FLAT, coeffs)
        for p in (1.0, 2.0, math.inf):
            for n in (4, 16):
                kb = k_bracket(FLAT, coeffs, n, p, ctx=ctx)
                assert 0.0 <= kb.lower <= kb.upper * (1.0 + 1e-9) + 1e-15
                if p == 2.0:
                    exact = k_exact_p2(FLAT, coeffs, 1.0 / n)
                    assert kb.lower <= exact * (1.0 + 1e-9) + 1e-15
                    assert exact <= kb.upper * (1.0 + 1e-9) + 1e-15


def test_bracket_validity_kink():
    tf = next(t for t in get_suite("kink", FLAT) if t.f_id == "kink-abs")
    L = 48
    coeffs = project(tf, FLAT, L)
    ctx = NormContext(FLAT, coeffs, f_fn=tf.fn, kinks=tf.kinks)
    assert ctx.tail_norm > 0.0
    for p in (1.0, 2.0, math.inf):
        for n in (8, 32):
            kb = k_bracket(FLAT, coeffs, n, p, ctx=ctx)
            assert 0.0 <= kb.lower <= kb.upper * (1.0 + 1e-9) + 1e-15, (p, n)


def test_lower_bound_on_eigenfunctions():
    for rho in (0.5, 1.0, 3.0):
        cfg = config_for_rho(rho)
        for ell in (1, 3, 6):
            f = unit_eigen(cfg, ell, L=10)
            for n in (ell, 2 * ell, 16):
                got = k_lower(cfg, f, n, 2)
                want = 0.5 * (1.0 - eigenvalue_mu(cfg, n, ell))
                assert abs(got - want) <= 1e-12
                # consistency: half the operator gap never exceeds the
                # closed-form K value at t = 1/n
                assert want <= min(1.0, ell * (ell + rho) / n) + 1e-12


def test_lower_requires_resolved_band():
    tf = next(t for t in get_suite("kink", FLAT) if t.f_id == "kink-abs")
    L = 16
    coeffs = project(tf, FLAT, L)
    ctx = NormContext(FLAT, coeffs, f_fn=tf.fn, kinks=tf.kinks)
    # inside the band the estimate works
    assert k_lower(FLAT, coeffs, L, 2, ctx=ctx) > 0.0
    with pytest.raises(ValueError):
        k_lower(FLAT, coeffs, L + 1, 2, ctx=ctx)


def test_norm_context_of_band_control():
    cfg = config_for_rho(0.0)
    f = next(tf for tf in suite.eigenfunction_suite(cfg, ells=(2,)))
    ctx = NormContext.of(cfg, f, 32)
    # polynomial input: band follows the declared degree, tail vanishes
    assert ctx.coeffs.max_degree == 2
    assert ctx.tail_norm == 0.0
    assert abs(ctx.op_error(8, 2) - (1.0 - eigenvalue_mu(cfg, 8, 2))) <= 1e-10


def test_norm_context_of_measures_a_function_of_unknown_degree_on_itself():
    # sqrt has no degree and no kinks: it is projected at the band, and its
    # energy above the band and its norms at p != 2 come from f itself
    f = suite.TestFunction("sqrt", np.sqrt)
    ctx = NormContext.of(FLAT, f, 64)
    assert ctx.coeffs.max_degree == 64
    on_f = NormContext(FLAT, ctx.coeffs, f_fn=f)
    assert ctx.tail_norm == on_f.tail_norm
    assert 1e-5 < ctx.tail_norm < 1e-4
    g = apply_durrmeyer_spectral(FLAT, 8, ctx.coeffs)
    for p in (1, 2, math.inf):
        assert ctx.op_error(8, p) == on_f.norm_diff(g, p)
    # the band projection's own sup error is smaller than f's
    own = NormContext(FLAT, ctx.coeffs).norm_diff(g, math.inf)
    assert ctx.op_error(8, math.inf) - own > 5e-3


def test_norm_context_computes_each_error_and_k_value_once(monkeypatch):
    calls = {"norm_diff": 0, "k_exact_p2": [], "k_upper_detail": 0}
    real_diff, real_exact, real_upper = (NormContext.norm_diff, kfunc.k_exact_p2,
                                         kfunc.k_upper_detail)

    def norm_diff(self, g, p):
        calls["norm_diff"] += 1
        return real_diff(self, g, p)

    def k_exact(cfg, f, t, tail_norm=0.0):
        calls["k_exact_p2"].append(list(t))
        return real_exact(cfg, f, t, tail_norm=tail_norm)

    def k_upper(*args, **kw):
        calls["k_upper_detail"] += 1
        return real_upper(*args, **kw)

    monkeypatch.setattr(NormContext, "norm_diff", norm_diff)
    monkeypatch.setattr(kfunc, "k_exact_p2", k_exact)
    monkeypatch.setattr(kfunc, "k_upper_detail", k_upper)
    ctx = NormContext.of(FLAT, get_suite("poly", FLAT)[0], 64)
    errs = [ctx.op_error(8, p) for p in (1, 2, 1, 2)]
    assert errs[:2] == errs[2:] and calls["norm_diff"] == 2
    first = ctx.kvalues([4, 8], 2)
    assert ctx.kvalues([8, 4], 2) == first[::-1]
    # only the new n joins the one batched search of a later call
    ctx.kvalues([4, 8, 16], 2)
    assert calls["k_exact_p2"] == [[0.25, 0.125], [1.0 / 16]]
    k1 = ctx.kvalues([4], 1)
    spent = calls["norm_diff"]  # the candidate search takes norms of its own
    assert ctx.kvalues([4], 1) == k1 and ctx.op_error(8, 1) == errs[0]
    assert calls["k_upper_detail"] == 1 and calls["norm_diff"] == spent


@pytest.mark.parametrize("cfg, with_fn", [(FLAT, True), (FLAT, False),
                                           (WeightConfig(2, (0.0, 0.5, 0.0)), False)])
def test_norm_context_builds_matrices_on_first_use_at_p_not_2(cfg, with_fn, monkeypatch):
    L = 24 if cfg.d == 1 else 8
    tf = next(t for t in get_suite("kink", FLAT) if t.f_id == "kink-abs")
    if with_fn:
        coeffs = project(tf, cfg, L)
    else:
        size = L + 1 if cfg.d == 1 else (L + 1) * (L + 2) // 2
        coeffs = SpectralCoefficients.from_flat(
            cfg, np.random.default_rng(206).uniform(-1.0, 1.0, size))
    basis = get_basis(cfg, L)
    calls = []
    real_eval_all = type(basis).eval_all
    monkeypatch.setattr(type(basis), "eval_all",
                        lambda self, x: calls.append(len(x)) or real_eval_all(self, x))
    f_fn = tf.fn if with_fn else None
    ctx = NormContext(cfg, coeffs, f_fn=f_fn, kinks=tf.kinks if with_fn else ())
    g = apply_durrmeyer_spectral(cfg, 4, coeffs)
    ctx.norm_diff(g, 2), ctx.norm_band(g, 2)
    k_bracket(cfg, coeffs, 4, 2, ctx=ctx)
    assert calls == []

    # the values a context that builds everything up front would give
    mat_rule, mat_grid = basis.eval_all(ctx.rule.nodes), basis.eval_all(ctx.grid)
    if with_fn:
        f_rule, f_grid = tf.fn(ctx.rule.nodes), tf.fn(ctx.grid)
    else:
        f_rule, f_grid = mat_rule @ coeffs.flat(), mat_grid @ coeffs.flat()
    # g = M_4 f has degree 4: g is synthesized from its leading 5 blocks
    k = int(np.flatnonzero(g.flat())[-1]) + 1
    assert k == (5 if cfg.d == 1 else 15)
    flat = g.flat()[:k]
    g_rule, g_grid = mat_rule[:, :k] @ flat, mat_grid[:, :k] @ flat
    want = {1: (lp_norm(f_rule, ctx.rule, 1),
                lp_norm(f_rule - g_rule, ctx.rule, 1),
                lp_norm(g_rule, ctx.rule, 1)),
            math.inf: (float(np.max(np.abs(f_grid))),
                       float(np.max(np.abs(f_grid - g_grid))),
                       float(np.max(np.abs(g_grid))))}
    del calls[:]
    for p in (math.inf, 1):
        assert (_norm_f(ctx, p), ctx.norm_diff(g, p), ctx.norm_band(g, p)) == want[p]
    # one synthesis per point set, on first use only
    assert sorted(calls) == sorted([len(ctx.rule.nodes), len(ctx.grid)])


def test_sup_grid_matrix_is_shared_while_held_and_freed_with_the_last(monkeypatch):
    cfg, n = WeightConfig(2, (0.25, -0.5, 0.75)), 4
    size = (2 * n + 1) * (2 * n + 2) // 2
    coeffs = SpectralCoefficients.from_flat(
        cfg, np.random.default_rng(206).uniform(-1.0, 1.0, size))
    basis = get_basis(cfg, 2 * n)
    calls = []
    real_eval_all = type(basis).eval_all
    monkeypatch.setattr(type(basis), "eval_all",
                        lambda self, x: calls.append(len(x)) or real_eval_all(self, x))
    ctx = NormContext(cfg, coeffs)
    mat = ctx.mat_grid
    grid_size = len(ctx.grid)
    assert calls == [grid_size]
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0

    # the operator-norm estimate at the context's band reads the same matrix
    del calls[:]
    shared = estimate_operator_norm("cesaro", math.inf, n, cfg=cfg)
    assert calls and grid_size not in calls

    ref = weakref.ref(mat)
    del ctx, mat
    gc.collect()
    assert ref() is None
    del calls[:]
    assert estimate_operator_norm("cesaro", math.inf, n, cfg=cfg) == shared
    assert calls.count(grid_size) == 1


def test_sup_matrix_leading_blocks_are_contiguous_columns():
    # leading_product hands mat[:, :k] to BLAS with no copy
    mat = kfunc.sup_matrix(WeightConfig(1, (0.5, -0.5)), 256, (0.43,))
    for k in (1, 3, 129, 257):
        assert mat[:, :k].flags.f_contiguous, k


def test_sup_grid_kinks_are_a_sorted_tuple_of_floats():
    cfg = WeightConfig(1, (0.25, 0.75))
    grid = kfunc.sup_points(cfg, np.array([0.5, 0.3]))
    assert np.array_equal(grid, kfunc.sup_points(cfg, (0.3, 0.5)))
    mat = kfunc.sup_matrix(cfg, 8, (0.5, 0.3))
    assert kfunc.sup_matrix(cfg, 8, (0.3, 0.5)) is mat
    assert kfunc.sup_matrix(cfg, 8, np.array([0.3, 0.5])) is mat
    assert mat.shape == (grid.size, 9)


def test_kinks_on_the_triangle_raise_and_cache_nothing():
    cfg = WeightConfig(2, (0.0, 0.0, 0.0))
    coeffs = SpectralCoefficients.zeros(cfg, 4)
    for call in (lambda: kfunc.sup_points(cfg, (0.3,)),
                 lambda: kfunc.norm_rule(cfg, 4, (0.3,)),
                 lambda: kfunc.sup_matrix(cfg, 4, (0.3,)),
                 lambda: NormContext(cfg, coeffs, kinks=(0.3,))):
        with pytest.raises(ValueError, match="kink splits are only supported for d = 1"):
            call()
    assert (cfg, 4, (0.3,)) not in kfunc._SUP_MATRICES
    assert NormContext(cfg, coeffs, kinks=()).norm_band(coeffs, 1) == 0.0


def test_operator_norm_evaluates_each_basis_once_on_the_rule(monkeypatch):
    cfg, n = WeightConfig(2, (0.5, -0.5, 1.0)), 4
    L = 2 * n
    rule = kfunc.norm_rule(cfg, L)
    basis, half = get_basis(cfg, L), get_basis(cfg, L // 2)
    # reference: each bump is the projection of the squared half-band kernel
    bumps = []
    for x0 in (0.005, 0.5, 0.995):
        c0 = half.eval_all(np.array([[x0, (1.0 - x0) / 2.0]])).reshape(-1)
        bumps.append(project(lambda x, c=c0: (half.eval_all(np.atleast_1d(x)) @ c) ** 2,
                             cfg, L, rule=rule).flat())

    calls, flats = [], []
    real_eval_all, real_from_flat = type(basis).eval_all, SpectralCoefficients.from_flat
    monkeypatch.setattr(type(basis), "eval_all", lambda self, x: (
        calls.append((self.L, len(x))) or real_eval_all(self, x)))
    monkeypatch.setattr(SpectralCoefficients, "from_flat", classmethod(
        lambda cls, c, values: flats.append(np.array(values)) or real_from_flat(c, values)))
    estimate_operator_norm("cesaro", 2, n, cfg=cfg)
    nrule = len(rule.nodes)
    assert sorted(calls) == sorted([(L, nrule), (L // 2, nrule)] + [(L, 1), (L // 2, 1)] * 3)
    for want in bumps:
        assert any(np.array_equal(got.view(np.int64), want.view(np.int64)) for got in flats)


def test_bracket_container_invariant():
    KBracket(0.2, 0.5, "ok")
    with pytest.raises(ValueError):
        KBracket(0.6, 0.5, "bad")
    with pytest.raises(ValueError):
        KBracket(-0.1, 0.5, "bad")


def test_upper_witness_labels():
    rng = np.random.default_rng(206)
    f = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 9))
    value, witness = k_upper_detail(FLAT, f, 0.08, 2)
    assert witness == "band-optimal"
    value1, witness1 = k_upper_detail(FLAT, f, 0.08, 1)
    labels = {name for name, _ in default_candidates(FLAT, f, 0.08)}
    assert witness1 in labels
