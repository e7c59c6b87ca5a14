"""Verification harness: lemma checks, operator-norm estimates, and the
report plumbing that the command line interface serializes."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import struct
import time

import numpy as np
import pytest

from durrmeyer import (
    CheckReport,
    CheckRow,
    WeightConfig,
    apply_durrmeyer_spectral,
    check_lemma,
    config_for_rho,
    c_n,
    eigenvalue_mu,
    estimate_operator_norm,
    k_exact_p2,
    k_lower,
    k_upper_detail,
    run_direct,
    run_kfunc,
    run_norms,
    run_proposition,
    run_theorem1,
    verify_bracket,
    verify_cesaro_contraction,
    verify_q_identity,
    verify_telescoping,
)
from durrmeyer import cli, harness, kfunc, operators, orthopoly, quadrature
from durrmeyer.harness import (
    LEMMA_IDS,
    RHO_GRID_NONNEG,
    _eq24_combo_rows,
    _finish,
    _identity_row,
    _rel_margin,
    _stabilization,
    _stable_row,
    _suite_checks,
    hat_integrals,
)
from durrmeyer.orthopoly import cesaro_factors
from durrmeyer.specfun import log_gamma
from durrmeyer.spectrum import (DegeneracyError, _nu_rows, log_mu_all, log_nu_all,
                                multiplier_nu_all, nu_second)
from durrmeyer.suite import get_suite


def test_every_lemma_check_passes():
    for lemma_id in LEMMA_IDS:
        rep = check_lemma(lemma_id, rhos=(0.0, 1.0))
        assert rep.check_id == lemma_id
        assert rep.rows, lemma_id
        assert rep.passed, (lemma_id, rep.worst_margin)
        assert all(r.passed for r in rep.rows), lemma_id


def test_lemma_argument_validation():
    with pytest.raises(ValueError):
        check_lemma("L99")
    with pytest.raises(ValueError):
        check_lemma("L4", rhos=(-0.5,))


def test_stabilization_ladders_below_four_rungs_raise():
    for lemma_id in ("L3", "L4", "L6"):
        for n_max in (7, 8, 16, 32, 63):
            with pytest.raises(ValueError, match="%s needs 4 dyadic degrees" % lemma_id):
                check_lemma(lemma_id, rhos=(0.0,), n_max=n_max)
        assert check_lemma(lemma_id, rhos=(0.0,), n_max=64).passed
    # L6 counts only the rungs with 1 <= sqrt(b n) <= n-1: at b = 16 these
    # start at 32, so 128 gives three
    with pytest.raises(ValueError, match="sqrt"):
        check_lemma("L6", rhos=(0.0,), n_max=128, b=16.0)
    assert check_lemma("L6", rhos=(0.0,), n_max=256, b=16.0).rows


def test_digamma_gap_spot_value():
    # rho = 0, n = 2, tau = 1: psi(4) - psi(2) = 1/2 + 1/3
    cfg = config_for_rho(0.0)
    got = c_n(cfg, 2, 1.0)
    assert abs(got - 5.0 / 6.0) <= 1e-12
    # and the two-sided log bracket around it
    assert math.log(1.0 + 2.0 / 2.0) <= got <= math.log(1.0 + 2.0 / 1.0)


def test_stabilization_split():
    ns = (8, 16, 32, 64)
    low, up, margin = _stabilization(ns, (1.0, 0.5, 0.3, 0.2))
    assert (low, up) == (1.0, 0.2)
    assert abs(margin - (1.05 * 1.0 - 0.2)) <= 1e-15
    # growth past the midpoint must drive the margin negative
    low, up, margin = _stabilization(ns, (1.0, 1.2, 1.5, 2.0))
    assert (low, up) == (1.5, 2.0)
    assert margin < 0.0


def test_identity_row_passes_up_to_its_tolerance():
    cfg = config_for_rho(1.0)
    tol = 1e-12
    row = _identity_row("X", cfg, tol, tol, n=4)
    assert row.passed and row.margin == 0.0 and row.empirical_constant == tol
    assert (row.rho, row.n, row.ell_or_tau) == (cfg.rho, 4, None)
    row = _identity_row("X", cfg, np.nextafter(tol, np.inf), tol, n=4)
    assert not row.passed and row.margin < 0.0


def test_stable_row_passes_at_margin_zero():
    # 1.05 * 1.0 - 1.05 is exactly 0
    cfg = config_for_rho(0.0)
    row = _stable_row("X", cfg, 0.0, (8, 16), [(1.0, 8, 3), (1.05, 16, 5)])
    assert row.passed and row.margin == 0.0
    assert (row.lhs, row.rhs, row.empirical_constant) == (1.05, 1.05, 1.05)
    assert (row.n, row.ell_or_tau) == (16, 5)
    up = np.nextafter(1.05, 2.0)
    row = _stable_row("X", cfg, 0.0, (8, 16), [(1.0, 8, 3), (up, 16, 5)])
    assert not row.passed and row.margin < 0.0


def test_lemma_rows_carry_the_requested_rho():
    # the grid's rho, not the one config_for_rho rounds it to
    assert config_for_rho(-0.9).rho != -0.9
    for lemma_id in ("L1", "EQ24", "MULT-ID"):
        rep = check_lemma(lemma_id, rhos=(-0.9,), n_max=16)
        assert [r.rho for r in rep.rows] == [-0.9], lemma_id


def test_rel_margin():
    assert _rel_margin(1.0, 2.0) == 0.5
    assert _rel_margin(2.0, 1.0) == -0.5
    assert _rel_margin(0.0, 0.0) == 0.0


def test_operator_norm_partial_sum_is_projection_at_p2():
    got = estimate_operator_norm("partial_sum", 2, 8)
    assert abs(got - 1.0) <= 1e-9


def test_operator_norm_exceeds_one_for_p1_and_sup():
    for p in (1, math.inf):
        got = estimate_operator_norm("partial_sum", p, 16)
        assert got >= 1.0, p


def test_operator_norm_cesaro():
    # the damping factors are all <= 1, so the p = 2 norm is a contraction;
    # off p = 2 order-1 means need not contract (the estimator finds a
    # witness slightly above 1 at p = 1) so only sanity-bound those
    got = estimate_operator_norm("cesaro", 2, 12)
    assert 0.5 <= got <= 1.0 + 1e-9
    for p in (1, math.inf):
        got = estimate_operator_norm("cesaro", p, 12)
        assert 0.5 <= got <= 3.0, p
    tri = WeightConfig(2, (0.0, 0.0, 0.0))
    got2 = estimate_operator_norm("cesaro", 2, 6, cfg=tri)
    assert 0.5 <= got2 <= 1.0 + 1e-9


def test_operator_norm_at_p2_synthesizes_nothing(monkeypatch):
    # Parseval: the norm rule integrates degree 2L exactly, so the p = 2
    # norms come from the coefficients alone
    def no_synthesis(*args):
        raise AssertionError("synthesized a norm at p = 2")

    monkeypatch.setattr(kfunc, "leading_product", no_synthesis)
    monkeypatch.setattr(kfunc, "lp_norm", no_synthesis)
    assert abs(estimate_operator_norm("partial_sum", 2, 8) - 1.0) <= 1e-9
    tri = WeightConfig(2, (0.5, -0.5, 1.0))
    assert 0.5 <= estimate_operator_norm("cesaro", 2, 6, cfg=tri) <= 1.0 + 1e-9


def test_operator_norm_validation():
    with pytest.raises(ValueError):
        estimate_operator_norm("fejer", 2, 8)
    with pytest.raises(ValueError):
        estimate_operator_norm("partial_sum", 2, 8,
                               cfg=WeightConfig(2, (0.0, 0.0, 0.0)))


def test_verify_direct_single_eigenfunction():
    cfg = config_for_rho(1.0)
    rep = run_direct(cfg, (2,), (8,), "eig")
    assert rep.passed
    row = next(r for r in rep.rows if r.f_id == "eig-03")
    # unit eigenfunction: operator error is exactly the eigenvalue gap
    assert abs(row.lhs - (1.0 - eigenvalue_mu(cfg, 8, 3))) <= 1e-10
    assert row.lhs <= row.rhs


def test_structural_verifiers_small():
    assert verify_telescoping(n_max=6).passed
    assert verify_q_identity(n_max=8).passed
    # an empty degree range raises instead of passing with no residual
    with pytest.raises(ValueError, match="TELESCOPE needs n_max >= 1, got 0"):
        verify_telescoping(n_max=0)
    with pytest.raises(ValueError, match="QIDENT needs n_max >= 2, got 1"):
        verify_q_identity(n_max=1)
    assert verify_cesaro_contraction(n_max=8).passed
    assert verify_bracket(ns=(4, 16)).passed


def test_checkrow_field_order():
    names = tuple(f.name for f in dataclasses.fields(CheckRow))
    assert names == ("check_id", "d", "alphas", "rho", "p", "n", "ell_or_tau",
                     "f_id", "lhs", "rhs", "margin", "empirical_constant",
                     "passed")


def test_report_empirical_fallback():
    t0 = time.perf_counter()
    rows = [
        CheckRow("X", empirical_constant=0.4),
        CheckRow("X", empirical_constant=1.5),
        CheckRow("X"),
    ]
    rep = _finish("X", "unit", rows, t0)
    assert isinstance(rep, CheckReport)
    assert rep.empirical_constant == 1.5
    assert rep.passed
    assert rep.worst_margin is None or isinstance(rep.worst_margin, float)


def _l1_xi_scan(rho, n_max):
    """Worst (margin, n, ell, lhs, rhs) of L1-xi with log_gamma called on
    each n's arguments, the reference for the check's log_gamma tables."""
    worst = (math.inf, None, None, None, None)
    for n in range(3, n_max + 1):
        ell = np.arange(1, n, dtype=float)
        bracket = n - ell * (ell + rho + 1.0)
        sign = np.sign(bracket)
        with np.errstate(divide="ignore"):
            logmag = (log_gamma(n - ell) + log_gamma(n + ell + rho + 1.0)
                      + np.log(np.abs(bracket)))
        sa, sb = sign[:-1], sign[1:]
        la, lb = logmag[:-1], logmag[1:]
        with np.errstate(invalid="ignore"):
            both_pos = np.tanh(np.clip((la - lb) / 2.0, -60.0, 60.0))
            both_neg = np.tanh(np.clip((lb - la) / 2.0, -60.0, 60.0))
        margins = np.where(sa > sb, 1.0,
                           np.where(sa < sb, -1.0,
                                    np.where(sa > 0, both_pos,
                                             np.where(sa < 0, both_neg, -1.0))))
        i = int(np.argmin(margins))
        if margins[i] < worst[0]:
            worst = (float(margins[i]), n, i + 1, float(la[i]) * float(sa[i]),
                     float(lb[i]) * float(sb[i]))
    return worst


def test_l1_xi_tables_match_direct_log_gamma():
    rhos = (-0.9, 0.0, 2.5, 6.0)
    rep = check_lemma("L1-xi", rhos=rhos, n_max=90)
    for rho, row in zip(rhos, rep.rows):
        got = (row.margin, row.n, row.ell_or_tau, row.lhs, row.rhs)
        assert got == _l1_xi_scan(rho, 90), rho


def _l1_scan(rho, n_max):
    """Worst (margin, n, ell, lhs, rhs) of L1, one log_nu_all call per n: the
    reference for the check's block tables."""
    cfg = config_for_rho(rho)
    worst = (math.inf, None, None, None, None)
    for n in range(2, n_max + 1):
        ln = log_nu_all(cfg, n)
        diffs = ln[:-1] - ln[1:]
        i = int(np.argmin(diffs))
        if diffs[i] < worst[0]:
            worst = (float(diffs[i]), n, i + 1, float(ln[i + 1]), float(ln[i]))
    return worst


def _mult_id_scan(rho, k_max):
    """Worst (residual, k, ell) of MULT-ID, one log_mu_all call per k."""
    cfg = config_for_rho(rho)
    worst = (-math.inf, None, None)
    prev = log_mu_all(cfg, 1)
    for k in range(2, k_max + 1):
        cur = log_mu_all(cfg, k)
        ell = np.arange(1, k, dtype=float)
        ratio = np.exp(prev[1:k] - cur[1:k])
        resid = np.abs(1.0 - ratio - ell * (ell + rho) / (k * (k + rho)))
        i = int(np.argmax(resid))
        if resid[i] > worst[0]:
            worst = (float(resid[i]), k, i + 1)
        prev = cur
    return worst


def _eq24_combo_factors(cfg, n):
    """The combination of (24) as a sum of n + 1 Cesaro-factor vectors, the
    reference for the cumulative-sum form."""
    nu = multiplier_nu_all(cfg, n)

    def ces(m):
        return cesaro_factors(m, np.arange(n + 1))

    total = (nu[1] - 2.0 * nu[0]) * ces(0)
    for j in range(1, n - 1):
        d2 = nu[j + 1] - 2.0 * nu[j] + nu[j - 1]
        total = total + (j + 1) * d2 * ces(j)
    total = total + n * (nu[n - 2] - 2.0 * nu[n - 1]) * ces(n - 1)
    total = total + (n + 1) * nu[n - 1] * ces(n)
    return total


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_l1_block_tables_match_the_per_degree_scan():
    rhos = (-0.9, 0.0, 2.5, 6.0)
    rep = check_lemma("L1", rhos=rhos, n_max=300)
    for rho, row in zip(rhos, rep.rows):
        got = (row.margin, row.n, row.ell_or_tau, row.lhs, row.rhs)
        assert got == _l1_scan(rho, 300), rho


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mult_id_block_tables_match_the_per_degree_scan():
    rhos = (-0.9, 0.0, 2.5, 6.0)
    rep = check_lemma("MULT-ID", rhos=rhos, n_max=300)
    for rho, row in zip(rhos, rep.rows):
        assert (row.empirical_constant, row.n, row.ell_or_tau) == \
            _mult_id_scan(rho, 300), rho


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eq24_cumulative_sums_match_the_cesaro_loop():
    for rho in (-0.9, 0.0, 6.0):
        cfg = config_for_rho(rho)
        combo = _eq24_combo_rows(_nu_rows(cfg, 2, 256))
        for row, n in zip(combo, range(2, 257)):
            want = _eq24_combo_factors(cfg, n)
            assert np.max(np.abs(row[:n + 1] - want)) <= 1e-14, (rho, n)
            assert not row[n + 1:].any(), (rho, n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lemma_scans_are_unchanged_across_many_blocks(monkeypatch):
    rhos = (-0.9, 1.0)
    want = [check_lemma(lid, rhos=rhos, n_max=120)
            for lid in ("L1", "L1-xi", "EQ24", "MULT-ID")]
    # 4 to 8 degrees per block
    monkeypatch.setattr(harness, "_LEMMA_BLOCK_BYTES", 4000)
    assert len(harness._degree_blocks(2, 120)) == 30
    for rep in want:
        got = check_lemma(rep.check_id, rhos=rhos, n_max=120)
        assert [dataclasses.astuple(r) for r in got.rows] == \
            [dataclasses.astuple(r) for r in rep.rows], rep.check_id


def test_empty_degree_ranges_raise():
    for lemma_id, n_max in (("L1", 1), ("L1-xi", 2), ("EQ24", 1), ("MULT-ID", 1),
                            ("L1", 0), ("EQ24", 0), ("MULT-ID", -3)):
        with pytest.raises(ValueError, match="no degree satisfies"):
            check_lemma(lemma_id, n_max=n_max)


def test_no_report_passes_without_rows():
    with pytest.raises(ValueError, match="X has no rows"):
        _finish("X", "unit", [], time.perf_counter())
    with pytest.raises(ValueError, match="THM1 has no rows"):
        run_theorem1(ps=())
    with pytest.raises(ValueError, match="NORMS has no rows"):
        run_norms(WeightConfig(1, (0.0, 0.0)), (), (4,))
    # an empty rho grid is no request for the default one
    with pytest.raises(ValueError, match="L5 got an empty rhos"):
        check_lemma("L5", rhos=())


@pytest.mark.parametrize("check_id, call", [
    ("DIRECT", lambda: run_direct(WeightConfig(1, (0.0, 0.0)), (2,), ())),
    ("THM1", lambda: run_theorem1(WeightConfig(1, (0.0, 0.0)), (2,), ())),
    ("KFUNC", lambda: run_kfunc(WeightConfig(1, (0.0, 0.0)), (2,), ())),
    ("KBRACKET", lambda: verify_bracket(ns=())),
    ("PROP", lambda: run_proposition((2,), ns=())),
])
def test_suite_checks_name_an_empty_degree_tuple(check_id, call):
    with pytest.raises(ValueError, match=r"%s needs at least one degree n, got ns=\(\)"
                       % check_id):
        call()


def test_interval_only_suites_reject_the_triangle():
    tri = WeightConfig(2, (0.0, 0.0, 0.0))
    for name in ("kink", "full", "poly", "smoke"):
        with pytest.raises(ValueError, match="interval-only"):
            get_suite(name, tri)
    with pytest.raises(ValueError, match="interval-only"):
        run_direct(tri, suite_name="kink")
    assert get_suite("eig", tri)


def _hat_integral_quad(cfg, n, ell):
    """The hat-weighted integral by adaptive quadrature, one scalar nu_second
    call per node: the reference for the fixed Gauss-Legendre rule."""
    from scipy.integrate import quad

    up, _ = quad(lambda s: (s - ell) * nu_second(cfg, n, s),
                 ell, ell + 1, epsabs=1e-13, epsrel=1e-11)
    down, _ = quad(lambda s: (ell + 2 - s) * nu_second(cfg, n, s),
                   ell + 1, ell + 2, epsabs=1e-13, epsrel=1e-11)
    return up + down


def test_hat_integrals_match_adaptive_quadrature():
    for rho in RHO_GRID_NONNEG + (6.0,):
        cfg = config_for_rho(rho)
        for n in (4, 8, 16, 32, 64):
            ells = sorted({e for e in (1, 2, n // 4, n // 2, n - 2)
                           if 1 <= e <= n - 2})
            got = hat_integrals(cfg, n, ells)
            for ell, value in zip(ells, got):
                want = _hat_integral_quad(cfg, n, ell)
                assert abs(value - want) <= 1e-10 * abs(want), (rho, n, ell)


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def test_shared_suite_pass_matches_standalone_runs_bitwise():
    cfg = config_for_rho(0.0)
    ps, direct_ns, thm1_ns = (1, 2, math.inf), (4, 8, 16), (4, 8)
    shared = _suite_checks(cfg, "smoke", 7, 32, {"DIRECT": (ps, direct_ns),
                                                "THM1": (ps, thm1_ns)})
    alone = [run_direct(cfg, ps, direct_ns, "smoke", seed=7, band=32),
             run_theorem1(cfg, ps, thm1_ns, "smoke", seed=7, band=32)]
    for got, want in zip(shared, alone):
        assert (got.check_id, got.grid, got.passed) == (want.check_id, want.grid, want.passed)
        assert _bits(got.worst_margin) == _bits(want.worst_margin)
        assert len(got.rows) == len(want.rows) > 0
        for a, b in zip(got.rows, want.rows):
            assert [_bits(v) for v in dataclasses.astuple(a)] == \
                [_bits(v) for v in dataclasses.astuple(b)]
    # the memoized errors and K values against direct computations
    fresh = {f.f_id: kfunc.NormContext.of(cfg, f, 32) for f in get_suite("smoke", cfg, 7)}
    for row in shared[0].rows:
        ctx, t = fresh[row.f_id], 1.0 / row.n
        err = ctx.norm_diff(apply_durrmeyer_spectral(cfg, row.n, ctx.coeffs), row.p)
        if row.p == 2:
            k = k_exact_p2(cfg, ctx.coeffs, t, tail_norm=ctx.tail_norm)
        else:
            k = k_upper_detail(cfg, ctx.coeffs, t, row.p, ctx=ctx)[0]
        assert (_bits(row.lhs), _bits(row.rhs)) == (_bits(err), _bits(2.0 * k))


def test_suite_pass_is_identical_with_cold_and_warm_caches(monkeypatch):
    # The second pass reads the block offsets, factor vectors, bases and
    # rules the first one cached.  A coefficient object that aliased one of
    # those shared arrays, or a cached array written through, would change
    # rows of the second pass.
    for cache in (orthopoly._block_layout, orthopoly._cesaro_block_factors,
                  operators._mu_factors, operators._g_n_factors, operators._P_factors,
                  quadrature._gauss_jacobi_rule, orthopoly._basis_table):
        cache.cache_clear()
    monkeypatch.setattr(kfunc, "_SUP_MATRICES", type(kfunc._SUP_MATRICES)())
    cfg = config_for_rho(0.5)
    ps, ns = (1, 2, math.inf), (4, 8)
    specs = {"DIRECT": (ps, ns), "THM1": (ps, ns)}
    cold = _suite_checks(cfg, "smoke", 11, 16, specs)
    assert orthopoly._block_layout.cache_info().hits > 0
    warm = _suite_checks(cfg, "smoke", 11, 16, specs)
    for a_report, b_report in zip(cold, warm):
        assert len(a_report.rows) == len(b_report.rows) > 0
        for a, b in zip(a_report.rows, b_report.rows):
            assert [_bits(v) for v in dataclasses.astuple(a)] == \
                [_bits(v) for v in dataclasses.astuple(b)]


def test_kfunc_runner_matches_verify_bracket_bitwise():
    # both reports come from one bracket loop; only ids and grids differ
    ns = (4, 16, 64)
    kfunc_rep = run_kfunc(WeightConfig(1, (0.0, 0.0)), (2.0,), ns, "full")
    bracket = verify_bracket(ns=ns)
    assert len(kfunc_rep.rows) == len(bracket.rows) > 0
    for a, b in zip(kfunc_rep.rows, bracket.rows):
        assert (a.check_id, b.check_id) == ("KFUNC", "KBRACKET")
        assert (a.f_id, a.n) == (b.f_id, b.n)
        assert [_bits(v) for v in (a.lhs, a.rhs, a.margin, a.empirical_constant)] == \
            [_bits(v) for v in (b.lhs, b.rhs, b.margin, b.empirical_constant)]


def test_proposition_off_p2_scales_the_error_by_the_partial_sum_bound():
    # rhs = (1 + 2 sigma_p) ||M_n f - f||_p, with sigma_p the largest
    # empirical partial-sum norm over n in (8, 16, 32); reported, not asserted
    cfg, ps, ns = WeightConfig(1, (0.0, 0.0)), (1.5, 3), (8, 16)
    rep = run_proposition(ps, ns, "smoke", seed=7)
    sigma = {p: max(estimate_operator_norm("partial_sum", p, n, cfg=cfg)
                    for n in (8, 16, 32)) for p in ps}
    want = []
    for f in get_suite("smoke", cfg, 7):
        ctx = kfunc.NormContext.of(cfg, f, 144)
        for n in ns:
            for p in ps:
                err, kval = ctx.op_error(n, p), ctx.kvalues([n], p)[0]
                rhs = err if err < 1e-14 and kval < 1e-14 else (1.0 + 2.0 * sigma[p]) * err
                want.append((f.f_id, n, p, _bits(kval), _bits(rhs)))
    got = [(r.f_id, r.n, r.p, _bits(r.lhs), _bits(r.rhs)) for r in rep.rows]
    assert got == want
    assert all(r.margin is None and r.passed for r in rep.rows)
    for bad in ((1.2,), (2, 4)):
        with pytest.raises(ValueError, match="4/3 < p < 4"):
            run_proposition(bad, ns, "smoke")


def test_kfunc_rows_off_p2_are_the_brackets_of_a_fresh_context():
    cfg, ps, ns = config_for_rho(0.5), (1, math.inf), (4, 16)
    rep = run_kfunc(cfg, ps, ns, "smoke", seed=7)
    want = []
    for f in get_suite("smoke", cfg, 7):
        ctx = kfunc.NormContext.of(cfg, f, 64)
        for p in ps:
            for n in ns:
                lower = k_lower(cfg, ctx.coeffs, n, p, ctx=ctx)
                upper, _ = k_upper_detail(cfg, ctx.coeffs, 1.0 / n, p, ctx=ctx)
                want.append((f.f_id, p, n, _bits(lower), _bits(upper)))
    got = [(r.f_id, r.p, r.n, _bits(r.lhs), _bits(r.rhs)) for r in rep.rows]
    assert got == want
    assert all(r.empirical_constant is None and r.passed for r in rep.rows)


# ---------------------------------------------------------------------------
# report_all's two halves: the suite checks run in a forked child where this
# process may use two CPUs, and after the rest in this process otherwise

FORKS = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
needs_fork = pytest.mark.skipif(
    not FORKS, reason="report_all forks only where this process may use two CPUs")


def _texts(reports):
    return (cli.rows_to_csv([row for rep in reports for row in rep.rows]),
            cli.reports_to_json(reports))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _plant(monkeypatch, name, error):
    def planted(*args, **kwargs):
        raise error
    monkeypatch.setattr(harness, name, planted)


@pytest.fixture(scope="module")
def in_process_texts():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        mp.setattr(os, "fork", None, raising=False)  # the in-process path never forks
        return _texts(harness.report_all())


def test_report_all_forked_and_in_process_agree(monkeypatch, in_process_texts):
    forks, fork = [], getattr(os, "fork", None)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork(), raising=False)
    assert _texts(harness.report_all()) == in_process_texts
    assert len(forks) == FORKS
    _no_child_left()


@pytest.mark.parametrize("error, code", [(ValueError("planted in the suite half"), 2),
                                         (DegeneracyError("planted in the suite half"), 3)])
def test_report_all_reraises_the_suite_half_error(monkeypatch, tmp_path, error, code):
    _plant(monkeypatch, "_suite_checks", error)  # the fork inherits the patch
    with pytest.raises(type(error), match="planted in the suite half"):
        harness.report_all()
    _no_child_left()
    assert cli.main(["--command", "report-all", "--out", str(tmp_path / "r.csv")]) == code
    _no_child_left()


@needs_fork
def test_report_all_sends_an_unpicklable_suite_half_error_as_its_repr(monkeypatch):
    class Local(Exception):
        pass

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(Local())
    _plant(monkeypatch, "_suite_checks", Local("planted"))
    with pytest.raises(RuntimeError, match=r"Local\('planted'\)"):
        harness.report_all()
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("die, match", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal %d" % signal.SIGKILL)])
def test_report_all_names_the_status_of_a_dead_worker(monkeypatch, die, match):
    monkeypatch.setattr(harness, "verify_bracket", lambda **kw: die())
    with pytest.raises(ChildProcessError, match=match):
        harness.report_all()
    _no_child_left()


@needs_fork
def test_cli_exits_4_on_a_dead_report_all_worker(monkeypatch, tmp_path, capsys):
    # an internal fault, not a failed check (1) or a bad flag (2)
    monkeypatch.setattr(harness, "verify_bracket", lambda **kw: os._exit(7))
    out = tmp_path / "r.csv"
    assert cli.main(["--command", "report-all", "--out", str(out)]) == 4
    _no_child_left()
    err = capsys.readouterr().err
    assert err.startswith("internal fault: ") and "exited with status 7" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError("planted in the caller's half"),
                                   KeyboardInterrupt("planted in the caller's half")])
def test_report_all_kills_the_worker_when_its_own_half_fails(monkeypatch, error):
    _plant(monkeypatch, "run_lemmas", error)
    with pytest.raises(type(error), match="planted in the caller's half"):
        harness.report_all()
    _no_child_left()


def _report_all_csv():
    return _texts(harness.report_all())[0]


@needs_fork
def test_report_all_runs_inside_a_pool_worker(in_process_texts):
    # pool workers are daemonic and may not start multiprocessing children
    with multiprocessing.get_context("fork").Pool(1) as pool:
        csv = pool.apply_async(_report_all_csv).get(timeout=300)
        pool.close()
        pool.join()
    assert csv == in_process_texts[0]
    _no_child_left()
