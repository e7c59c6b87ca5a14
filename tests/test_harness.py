"""Verification harness: lemma checks, operator-norm estimates, and the
report plumbing that the command line interface serializes."""

import dataclasses
import math
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
    k_upper,
    run_direct,
    run_kfunc,
    run_theorem1,
    verify_bracket,
    verify_cesaro_contraction,
    verify_direct,
    verify_q_identity,
    verify_telescoping,
)
from durrmeyer import harness
from durrmeyer.harness import (
    LEMMA_IDS,
    RHO_GRID_NONNEG,
    FunctionContext,
    _eq24_combo_rows,
    _finish,
    _rel_margin,
    _stabilization,
    _suite_checks,
    hat_integrals,
)
from durrmeyer.orthopoly import cesaro_factors
from durrmeyer.specfun import log_gamma
from durrmeyer.spectrum import (_nu_rows, log_mu_all, log_nu_all,
                                multiplier_nu_all, nu_second)
from durrmeyer.suite import eigenfunction_suite, get_suite


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


def test_operator_norm_validation():
    with pytest.raises(ValueError):
        estimate_operator_norm("fejer", 2, 8)
    with pytest.raises(ValueError):
        estimate_operator_norm("partial_sum", 2, 8,
                               cfg=WeightConfig(2, (0.0, 0.0, 0.0)))


def test_verify_direct_single_eigenfunction():
    cfg = config_for_rho(1.0)
    f = next(tf for tf in eigenfunction_suite(cfg, ells=(3,)))
    rep = verify_direct(cfg, f, 2, 8)
    assert rep.passed
    row = rep.rows[0]
    # unit eigenfunction: operator error is exactly the eigenvalue gap
    assert abs(row.lhs - (1.0 - eigenvalue_mu(cfg, 8, 3))) <= 1e-10
    assert row.lhs <= row.rhs


def test_structural_verifiers_small():
    assert verify_telescoping(n_max=6).passed
    assert verify_q_identity(n_max=8).passed
    assert verify_cesaro_contraction(n_max=8).passed
    assert verify_bracket(ns=(4, 16)).passed


def test_function_context_band_control():
    cfg = config_for_rho(0.0)
    f = next(tf for tf in eigenfunction_suite(cfg, ells=(2,)))
    fc = FunctionContext(cfg, f, band=32)
    # polynomial input: band follows the declared degree, tail vanishes
    assert fc.coeffs.max_degree == 2
    assert fc.ctx.tail_norm == 0.0
    assert abs(fc.op_error(8, 2) - (1.0 - eigenvalue_mu(cfg, 8, 2))) <= 1e-10


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
    fresh = {f.f_id: FunctionContext(cfg, f, band=32) for f in get_suite("smoke", cfg, 7)}
    for row in shared[0].rows:
        fc, t = fresh[row.f_id], 1.0 / row.n
        err = fc.ctx.norm_diff(apply_durrmeyer_spectral(cfg, row.n, fc.coeffs), row.p)
        if row.p == 2:
            k = k_exact_p2(cfg, fc.coeffs, t, tail_norm=fc.ctx.tail_norm)
        else:
            k = k_upper(cfg, fc.coeffs, t, row.p, ctx=fc.ctx)
        assert (_bits(row.lhs), _bits(row.rhs)) == (_bits(err), _bits(2.0 * k))


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
