"""K-functional estimation: exact p = 2 minimizer, candidate upper bounds,
operator-gap lower bounds, and the bracket container.

The p = 2 minimum has two independent oracles here: a closed form on single
eigenfunctions and a second-order cone solve on random coefficient vectors.
"""

import math

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
    k_bracket,
    k_exact_p2,
    k_lower,
    k_upper,
    k_upper_detail,
    lp_norm,
    project,
    projection_rule,
)
from durrmeyer.orthopoly import get_basis
from durrmeyer.suite import get_suite

FLAT = WeightConfig(1, (0.0, 0.0))


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
        k_upper(FLAT, f, -0.1, 2)
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
        k_upper(FLAT, f, math.nan, 2)


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
        assert k_upper_detail(FLAT, f, math.inf, p, ctx=ctx) == (ctx.norm_f(p), "zero")


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
        norm = ctx.norm_f(p)
        for t in (0.01, 0.1, 1.0, 10.0):
            assert k_upper(FLAT, f, t, p, ctx=ctx) <= norm * (1.0 + 1e-12), (p, t)


def test_upper_monotone_in_t_with_fixed_candidates():
    # with the candidate set frozen the objective is affine increasing in t,
    # so the minimum over the set is nondecreasing
    rng = np.random.default_rng(204)
    f = SpectralCoefficients.from_flat(FLAT, rng.uniform(-1.0, 1.0, 11))
    ctx = NormContext(FLAT, f)
    cands = default_candidates(FLAT, f, 0.05)
    ts = np.logspace(-3.0, 0.5, 25)
    for p in (1.0, math.inf):
        vals = [k_upper(FLAT, f, t, p, ctx=ctx, candidates=cands) for t in ts]
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
    flat = g.flat()
    want = {1: (lp_norm(f_rule, ctx.rule, 1),
                lp_norm(f_rule - mat_rule @ flat, ctx.rule, 1),
                lp_norm(mat_rule @ flat, ctx.rule, 1)),
            math.inf: (float(np.max(np.abs(f_grid))),
                       float(np.max(np.abs(f_grid - mat_grid @ flat))),
                       float(np.max(np.abs(mat_grid @ flat))))}
    del calls[:]
    for p in (math.inf, 1):
        assert (ctx.norm_f(p), ctx.norm_diff(g, p), ctx.norm_band(g, p)) == want[p]
    # one synthesis per point set, on first use only
    assert sorted(calls) == sorted([len(ctx.rule.nodes), len(ctx.grid)])


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
