"""Verification harness.

Every numbered claim has a runnable check here: strict-decrease margins for
the multiplier sequence, the five digamma bounds with the Darboux bracket,
bounded-constant claims operationalized as sup stabilization over a doubling
ladder of degrees, algebraic identities checked to near machine precision,
and the direct and converse estimates on a suite of test functions.

Margins are oriented so that positive means the claim holds: for an
inequality lhs <= rhs the margin is (rhs - lhs) / scale, and for an identity
it is tolerance minus the relative residual.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kfunc
from .operators import (apply_durrmeyer, apply_durrmeyer_spectral, apply_P_spectral,
                        apply_Q, build_g_n, make_plan)
from .orthopoly import (SpectralCoefficients, block_size, cesaro_mean,
                        default_band, get_basis, partial_sum, project)
from .quadrature import gauss_jacobi_rule, lp_norm
from .specfun import log_gamma
from .spectrum import (WeightConfig, _log_mu_rows, _log_nu_rows, _nu_rows, c_n,
                       c_n_prime, c_n_second, config_for_rho, eigenvalue_mu,
                       log_nu_all, multiplier_nu_all, nu_prime, nu_second)
from .suite import DEFAULT_SEED, INTERVAL_ONLY_SUITES, get_suite

TOL_IDENTITY = 1e-12
TOL_QUADRATURE = 1e-9
INEQ_FLOOR = -1e-9
STABILIZATION_RATIO = 1.05

RHO_GRID_FULL = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0)
RHO_GRID_NONNEG = (0.0, 0.5, 1.0, 3.0)
RHO_GRID_SUP = (0.0, 1.0, 3.0)

LEMMA_IDS = ("L1", "L1-xi", "L3", "L4", "L5", "L6", "HAT", "EQ24", "MULT-ID")


@dataclass
class CheckRow:
    """One grid cell of a check, in the report schema column order."""

    check_id: str
    d: int = None
    alphas: tuple = None
    rho: float = None
    p: object = None
    n: object = None
    ell_or_tau: object = None
    f_id: str = None
    lhs: float = None
    rhs: float = None
    margin: float = None
    empirical_constant: float = None
    passed: bool = True


@dataclass
class CheckReport:
    check_id: str
    grid: str
    worst_margin: float
    empirical_constant: float
    passed: bool
    runtime_ms: int
    rows: list = field(default_factory=list)


def _finish(check_id, grid, rows, t0, empirical=None):
    margins = [r.margin for r in rows if r.margin is not None]
    worst = min(margins) if margins else 0.0
    if empirical is None:
        emps = [r.empirical_constant for r in rows if r.empirical_constant is not None]
        empirical = max(emps) if emps else None
    return CheckReport(
        check_id=check_id,
        grid=grid,
        worst_margin=worst,
        empirical_constant=empirical,
        passed=all(r.passed for r in rows),
        runtime_ms=int((time.perf_counter() - t0) * 1000.0),
        rows=rows,
    )


def _rel_margin(lhs, rhs, floor=1e-12):
    """Normalized margin for the claim lhs <= rhs."""
    scale = max(abs(lhs), abs(rhs), floor)
    return (rhs - lhs) / scale


def _stabilization(ns, sups):
    """Bounded-constant proxy: the sup over degrees in the upper half of the
    range may exceed the lower-half sup by at most 5%.  The split is at the
    arithmetic midpoint of [min n, max n], so for a doubling ladder the top
    degree is measured against everything before it."""
    mid = (ns[0] + ns[-1]) / 2.0
    low = max(s for n, s in zip(ns, sups) if n <= mid)
    up = max((s for n, s in zip(ns, sups) if n > mid), default=low)
    margin = (STABILIZATION_RATIO * low - up) / max(low, 1e-300)
    return low, up, margin


# ---------------------------------------------------------------------------
# lemma checks


def check_lemma(lemma_id, rhos=None, n_max=None, delta=0.25, b=4.0,
                seed=DEFAULT_SEED, tol_identity=None) -> CheckReport:
    t0 = time.perf_counter()
    tol_id = TOL_IDENTITY if tol_identity is None else float(tol_identity)
    if lemma_id == "L1":
        return _check_l1(rhos or RHO_GRID_FULL, _default(n_max, 512), t0)
    if lemma_id == "L1-xi":
        return _check_l1_xi(rhos or RHO_GRID_FULL, _default(n_max, 512), t0)
    if lemma_id == "L3":
        return _check_sup_simple("L3", rhos or RHO_GRID_SUP, _default(n_max, 2048), t0)
    if lemma_id == "L4":
        return _check_sup_simple("L4", rhos or RHO_GRID_SUP, _default(n_max, 2048), t0)
    if lemma_id == "L5":
        return _check_l5(rhos or RHO_GRID_NONNEG, t0)
    if lemma_id == "L6":
        return _check_l6(rhos or RHO_GRID_SUP, _default(n_max, 2048), delta, b, t0)
    if lemma_id == "HAT":
        return _check_hat(rhos or RHO_GRID_NONNEG, t0)
    if lemma_id == "EQ24":
        return _check_eq24(rhos or RHO_GRID_FULL, _default(n_max, 64), seed, t0, tol_id)
    if lemma_id == "MULT-ID":
        return _check_mult_id(rhos or RHO_GRID_FULL, _default(n_max, 200), t0, tol_id)
    raise ValueError("unknown lemma id %r (one of %s)" % (lemma_id, ", ".join(LEMMA_IDS)))


def _default(n_max, value):
    return value if n_max is None else n_max


# Bytes of one float table per block of degrees in the L1, L1-xi, EQ24 and
# MULT-ID scans: 29 degrees per block at n_max = 512, 3 at 4096.  Tables
# stay below the 128 KiB from which glibc's malloc maps arrays: 500 kB tables
# raise its mapping threshold and the battery's peak RSS by about 1 MB, and
# 8 MB tables take the scans to 4096 to a 190 MB peak.
_LEMMA_BLOCK_BYTES = 120_000


def _degree_blocks(n_lo, n_hi, what="n"):
    """Consecutive (lo, hi) ranges covering n_lo..n_hi, each small enough
    that a table of its degrees, n_hi + 3 floats wide, fits the byte budget."""
    if n_hi < n_lo:
        raise ValueError("no degree satisfies %d <= %s <= %d" % (n_lo, what, n_hi))
    step = max(1, _LEMMA_BLOCK_BYTES // (8 * (n_hi + 3)))
    return [(lo, min(lo + step - 1, n_hi)) for lo in range(n_lo, n_hi + 1, step)]


def _require_nonneg(rhos, what):
    for rho in rhos:
        if rho < 0.0:
            raise ValueError("%s requires rho >= 0, got %g" % (what, rho))


def _check_l1(rhos, n_max, t0):
    """Strict decrease of the multiplier sequence in ell, in the log domain."""
    blocks = _degree_blocks(2, n_max)
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        worst = (math.inf, None, None, None, None)
        for lo, hi in blocks:
            ns = np.arange(lo, hi + 1)
            ln = _log_nu_rows(cfg, lo, hi)
            # diffs[r, i] compares ell = i + 1 with ell + 1; it exists for ell <= n - 1
            diffs = np.where(np.arange(hi - 1) < ns[:, None] - 1,
                             ln[:, :-1] - ln[:, 1:], math.inf)
            # row-major argmin: the first n, then the first ell, like a scan over n
            r, i = np.unravel_index(np.argmin(diffs), diffs.shape)
            if diffs[r, i] < worst[0]:
                worst = (float(diffs[r, i]), int(ns[r]), int(i) + 1,
                         float(ln[r, i + 1]), float(ln[r, i]))
        margin, n, ell, lhs, rhs = worst
        rows.append(CheckRow("L1", d=1, alphas=cfg.alphas, rho=rho, n=n,
                             ell_or_tau=ell, lhs=lhs, rhs=rhs, margin=margin,
                             passed=margin > 0.0))
    grid = "rho in %s, 2 <= n <= %d, 1 <= ell <= n-1, log-domain margins" % (
        list(rhos), n_max)
    return _finish("L1", grid, rows, t0)


def _check_l1_xi(rhos, n_max, t0):
    """Strict decrease of the signed products (n-ell-1)! Gamma(n+ell+rho+1)
    [n - ell(ell+rho+1)], compared through signs and log magnitudes."""

    blocks = _degree_blocks(3, n_max)
    cfgs = [config_for_rho(rho) for rho in rhos]
    # log_gamma is elementwise, so one table over the arguments n - ell
    # (1..n_max-1) and one per rho over n + ell (4..2 n_max - 1) give the
    # same values as calls on each n's cells
    low = log_gamma(np.arange(1.0, n_max))
    sums = np.arange(4.0, 2 * n_max)
    highs = [log_gamma(sums + rho + 1.0) for rho in rhos]
    worst = [(math.inf, None, None, None, None)] * len(rhos)
    for lo, hi in blocks:
        # the cells (n, ell), 1 <= ell <= n-1, of the block in row-major order
        ns = np.arange(lo, hi + 1)
        n_cell = np.repeat(ns, ns - 1)
        ell_int = np.concatenate([np.arange(1, n) for n in range(lo, hi + 1)])
        ell = ell_int.astype(float)
        # low[n - ell - 1] is log_gamma(n - ell), high[n + ell - 4] is
        # log_gamma(n + ell + rho + 1)
        low_cells = low[n_cell - ell_int - 1]
        high_at = n_cell + ell_int - 4
        # the pairs of adjacent cells that compare ell + 1 with ell of one degree
        same_n = ell_int[:-1] < n_cell[:-1] - 1
        for k, rho in enumerate(rhos):
            bracket = n_cell - ell * (ell + rho + 1.0)
            sign = np.sign(bracket)
            with np.errstate(divide="ignore"):
                logmag = low_cells + highs[k][high_at] + np.log(np.abs(bracket))
            sa, sb = sign[:-1], sign[1:]
            la, lb = logmag[:-1], logmag[1:]
            with np.errstate(invalid="ignore"):
                both_pos = np.tanh(np.clip((la - lb) / 2.0, -60.0, 60.0))
                both_neg = np.tanh(np.clip((lb - la) / 2.0, -60.0, 60.0))
            margins = np.where(sa > sb, 1.0,
                               np.where(sa < sb, -1.0,
                                        np.where(sa > 0, both_pos,
                                                 np.where(sa < 0, both_neg, -1.0))))
            i = int(np.argmin(np.where(same_n, margins, math.inf)))
            if margins[i] < worst[k][0]:
                worst[k] = (float(margins[i]), int(n_cell[i]), int(ell_int[i]),
                            float(la[i]) * float(sa[i]), float(lb[i]) * float(sb[i]))
    rows = []
    for rho, cfg, (margin, n, ell, lhs, rhs) in zip(rhos, cfgs, worst):
        rows.append(CheckRow("L1-xi", d=1, alphas=cfg.alphas, rho=rho, n=n,
                             ell_or_tau=ell, lhs=lhs, rhs=rhs, margin=margin,
                             passed=margin > 0.0))
    grid = ("rho in %s, 3 <= n <= %d, 1 <= ell <= n-2, signed log-magnitude "
            "comparison") % (list(rhos), n_max)
    return _finish("L1-xi", grid, rows, t0)


def _dyadic(n_lo, n_hi):
    out = []
    n = n_lo
    while n <= n_hi:
        out.append(n)
        n *= 2
    return out


def _check_sup_simple(which, rhos, n_max, t0):
    """L3: sup of ell (nu_ell - nu_{ell+1}); L4: sup of the weighted absolute
    second-difference sum.  Both pass via sup stabilization."""
    _require_nonneg(rhos, which)
    ns = _dyadic(8, n_max)
    if not ns:
        raise ValueError("no degree satisfies 8 <= n <= %d" % n_max)
    rows = []
    overall = 0.0
    for rho in rhos:
        cfg = config_for_rho(rho)
        sups, locs = [], []
        for n in ns:
            nu = multiplier_nu_all(cfg, n)
            if which == "L3":
                vals = np.arange(1, n, dtype=float) * (nu[:-1] - nu[1:])
                i = int(np.argmax(vals))
                sups.append(float(vals[i]))
                locs.append((n, i + 1))
            else:
                d2 = nu[2:] - 2.0 * nu[1:-1] + nu[:-2]
                weights = np.arange(2, n, dtype=float)
                sups.append(float((weights * np.abs(d2)).sum()))
                locs.append((n, None))
        low, up, margin = _stabilization(ns, sups)
        peak = max(sups)
        overall = max(overall, peak)
        n_at, ell_at = locs[int(np.argmax(sups))]
        rows.append(CheckRow(which, d=1, alphas=cfg.alphas, rho=rho, n=n_at,
                             ell_or_tau=ell_at, lhs=up, rhs=STABILIZATION_RATIO * low,
                             margin=margin, empirical_constant=peak,
                             passed=margin >= 0.0))
    grid = "rho in %s, n dyadic 8..%d, stabilization ratio %.2f" % (
        list(rhos), n_max, STABILIZATION_RATIO)
    return _finish(which, grid, rows, t0, empirical=overall)


def _open_grid(upper, count=200):
    """count points strictly inside (0, upper)."""
    k = np.arange(1, count + 1, dtype=float)
    return k * (upper / (count + 1.0))


def _check_l5(rhos, t0):
    """Five bounds on the digamma difference and its derivatives, plus the
    two-sided logarithmic bracket, each on its stated tau-domain."""

    _require_nonneg(rhos, "L5")
    ns = (8, 16, 32, 64, 128, 256)
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        for n in ns:
            tau_full = _open_grid(float(n))
            C = c_n(cfg, n, tau_full)
            C1 = c_n_prime(cfg, n, tau_full)
            C2 = c_n_second(cfg, n, tau_full)
            checks = [
                ("L5a", C, (2.0 * tau_full + rho) / (n - tau_full), tau_full),
                ("L5c", C1, (2.0 * n + rho) / ((n + tau_full + rho) * (n - tau_full)),
                 tau_full),
                ("L5d", (2.0 * n + rho + 2.0)
                 / ((n + tau_full + rho + 1.0) * (n - tau_full + 1.0)), C1, tau_full),
                # The second-derivative lower bound is implemented without the
                # printed leading factor 2: the polygamma series satisfies
                # -1/(x-1)^2 <= psi''(x) <= -1/x^2 (the doubled form fails for
                # x > 2), and the difference of the correct bounds gives
                # (2 tau + rho - 1)(2 n + rho + 1) over the same denominators.
                # The doubled constant is numerically refuted at e.g.
                # n = 8, rho = 0, tau = 3.7.
                ("L5e", (2.0 * tau_full + rho - 1.0) * (2.0 * n + rho + 1.0)
                 / ((n + tau_full + rho) ** 2 * (n - tau_full + 1.0) ** 2), C2,
                 tau_full),
            ]
            if n > rho:
                tau_b = _open_grid((n - rho) / 3.0)
                checks.append(("L5b", (2.0 * tau_b + rho) / (2.0 * (n - tau_b + 1.0)),
                               c_n(cfg, n, tau_b), tau_b))
            for cid, lhs, rhs, taus in checks:
                scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-12)
                margins = (rhs - lhs) / scale
                i = int(np.argmin(margins))
                rows.append(CheckRow(cid, d=1, alphas=cfg.alphas, rho=rho, n=n,
                                     ell_or_tau=float(taus[i]),
                                     lhs=float(np.asarray(lhs)[i]) if np.ndim(lhs) else float(lhs),
                                     rhs=float(np.asarray(rhs)[i]) if np.ndim(rhs) else float(rhs),
                                     margin=float(margins[i]),
                                     passed=bool(margins[i] > 0.0)))
            lo = np.log1p((2.0 * tau_full + rho) / (n - tau_full + 1.0))
            hi = np.log1p((2.0 * tau_full + rho) / (n - tau_full))
            scale = np.maximum(np.abs(C), 1e-12)
            m = np.minimum((C - lo) / scale, (hi - C) / scale)
            i = int(np.argmin(m))
            rows.append(CheckRow("L5-darboux", d=1, alphas=cfg.alphas, rho=rho, n=n,
                                 ell_or_tau=float(tau_full[i]), lhs=float(lo[i]),
                                 rhs=float(hi[i]), margin=float(m[i]),
                                 empirical_constant=float(C[i]),
                                 passed=bool(m[i] > 0.0)))
    grid = ("rho in %s, n in %s, 200-point open tau grids on each stated "
            "domain") % (list(rhos), list(ns))
    return _finish("L5", grid, rows, t0)


def _check_l6(rhos, n_max, delta, b, t0):
    """Decay of the multipliers at the top of the spectrum: n^2 nu_{n,ell}
    on [delta n, n], tau |nu'| on [1, n-1], tau^2 |nu''| on [1, sqrt(bn)]."""

    _require_nonneg(rhos, "L6")
    if not 0.0 < delta <= 1.0:
        raise ValueError("need 0 < delta <= 1, got %g" % delta)
    if b <= 0.0:
        raise ValueError("need b > 0, got %g" % b)
    ns = [n for n in _dyadic(8, n_max)
          if n >= 3 and 1.0 <= math.sqrt(b * n) <= n - 1]
    if not ns:
        raise ValueError("no degree satisfies 1 <= sqrt(b n) <= n-1")
    rows = []
    overall = 0.0
    for rho in rhos:
        cfg = config_for_rho(rho)
        per_sub = {"L60": [], "L6a": [], "L6b": []}
        for n in ns:
            ln = log_nu_all(cfg, n)
            lo = int(math.ceil(delta * n))
            vals = np.exp(2.0 * math.log(n) + ln[lo - 1:])
            per_sub["L60"].append((float(vals.max()), n, lo + int(np.argmax(vals))))
            taus = np.linspace(1.0, n - 1.0, 200)
            vals = taus * np.abs(nu_prime(cfg, n, taus))
            i = int(np.argmax(vals))
            per_sub["L6a"].append((float(vals[i]), n, float(taus[i])))
            taus = np.linspace(1.0, math.sqrt(b * n), 200)
            vals = taus ** 2 * np.abs(nu_second(cfg, n, taus))
            i = int(np.argmax(vals))
            per_sub["L6b"].append((float(vals[i]), n, float(taus[i])))
        for cid, triples in per_sub.items():
            sups = [s for s, _, _ in triples]
            low, up, margin = _stabilization(ns, sups)
            peak_i = int(np.argmax(sups))
            peak, n_at, where = triples[peak_i]
            overall = max(overall, peak)
            rows.append(CheckRow(cid, d=1, alphas=cfg.alphas, rho=rho, n=n_at,
                                 ell_or_tau=where, lhs=up,
                                 rhs=STABILIZATION_RATIO * low, margin=margin,
                                 empirical_constant=peak, passed=margin >= 0.0))
    grid = ("rho in %s, n dyadic %d..%d, delta=%g, b=%g, 200-point tau grids, "
            "stabilization ratio %.2f") % (list(rhos), ns[0], ns[-1], delta, b,
                                           STABILIZATION_RATIO)
    return _finish("L6", grid, rows, t0, empirical=overall)


# Node count of each half of the HAT rule.  A fixed Gauss rule suffices: on
# [ell, ell+2] with 1 <= ell <= n-2 the integrand is analytic, and its nearest
# singularities (the poles of Gamma(n - tau + 1) from tau = n + 1 on, and the
# zero of 1 - mu at tau = 0) lie at least 1 from each unit half.  The Gauss
# error then decays like (3 + sqrt 8)^(-2m), about 1e-31 at m = 20, far below
# the 1e-12 noise of nu_second and the check's 1e-6 tolerance; m from 10 to 32
# gives the same integrals to that noise.
HAT_NODES = 20


def hat_integrals(cfg, n, ells):
    """Integral of hat(s - ell) nu_n''(s) over [ell, ell+2] for each ell, the
    hat rising on [0, 1] and falling on [1, 2].  Each half uses the m-node
    Gauss-Legendre rule (Gauss-Jacobi with weight 1) with the hat folded into
    its weights, and nu_second is evaluated once on all nodes of all ells."""
    rule = gauss_jacobi_rule(0, 0, HAT_NODES)
    x = np.concatenate([rule.nodes, 1.0 + rule.nodes])
    w = np.concatenate([rule.weights * rule.nodes,
                        rule.weights * (1.0 - rule.nodes)])
    ells = np.asarray(ells, dtype=float)
    return nu_second(cfg, n, ells[:, None] + x) @ w


def _check_hat(rhos, t0):
    """Second differences of the multipliers as hat-weighted integrals of the
    second derivative of the continuous extension."""
    _require_nonneg(rhos, "HAT")
    tol = 1e-6
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        for n in (4, 8, 16, 32, 64):
            nu = multiplier_nu_all(cfg, n)
            ells = np.array(sorted({e for e in (1, 2, n // 4, n // 2, n - 2)
                                    if 1 <= e <= n - 2}))
            lhs = nu[ells + 1] - 2.0 * nu[ells] + nu[ells - 1]
            rhs = hat_integrals(cfg, n, ells)
            resids = np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + 1e-12)
            i = int(np.argmax(resids))
            resid = float(resids[i])
            rows.append(CheckRow("HAT", d=1, alphas=cfg.alphas, rho=rho, n=n,
                                 ell_or_tau=int(ells[i]), lhs=float(lhs[i]),
                                 rhs=float(rhs[i]), margin=tol - resid,
                                 empirical_constant=resid, passed=resid <= tol))
    grid = ("rho in %s, n in [4,8,16,32,64], representative ell per n, "
            "%d-node Gauss-Legendre rule per hat half, tolerance %g") % (
                list(rhos), HAT_NODES, tol)
    return _finish("HAT", grid, rows, t0)


def _eq24_combo_rows(nu):
    """Factors of the Cesaro-mean combination of (24) that reproduces the
    multiplier operator, for ell = 0..width on each row of multipliers nu
    (ell = 1..width, zero past each row's degree).

    With nu_0 = 0 and nu_m = 0 for m > n, the weight of the Cesaro mean of
    order j is c_j = (j+1) (nu_{j+2} - 2 nu_{j+1} + nu_j), j = 0..n.  Since
    (j+1) ces_j(ell) = (j+1-ell)_+, the combination at ell is
    sum_{j>=ell} c_j - ell sum_{j>=ell} c_j / (j+1): two reverse cumulative
    sums, which read nu_ell only through the c_j.
    """
    padded = np.zeros((nu.shape[0], nu.shape[1] + 3))
    padded[:, 1:-2] = nu
    j1 = np.arange(1.0, nu.shape[1] + 2)
    c = j1 * (padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2])
    tail = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
    tail_w = np.cumsum((c / j1)[:, ::-1], axis=1)[:, ::-1]
    return tail - (j1 - 1.0) * tail_w


def _check_eq24(rhos, n_max, seed, t0, tol=TOL_IDENTITY):
    blocks = _degree_blocks(2, n_max)
    rng = np.random.default_rng(seed)
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        worst = (-math.inf, None, None, None)
        for lo, hi in blocks:
            ns = np.arange(lo, hi + 1)
            nu = _nu_rows(cfg, lo, hi)
            q_factors = np.concatenate((np.zeros((ns.size, 1)), nu), axis=1)
            combo = _eq24_combo_rows(nu)
            # one draw of n + 1 coefficients per degree, in the order of the
            # degrees: the same stream as a draw per degree
            fhat = np.zeros_like(q_factors)
            fhat[np.arange(hi + 1) <= ns[:, None]] = rng.uniform(
                -1.0, 1.0, int((ns + 1).sum()))
            lhs_vec, rhs_vec = q_factors * fhat, combo * fhat
            lhs = np.max(np.abs(lhs_vec), axis=1)
            rhs = np.max(np.abs(rhs_vec), axis=1)
            resids = np.max(np.abs(lhs_vec - rhs_vec), axis=1) / (lhs + 1e-300)
            r = int(np.argmax(resids))
            if resids[r] > worst[0]:
                worst = (float(resids[r]), int(ns[r]), float(lhs[r]), float(rhs[r]))
        resid, n, lhs, rhs = worst
        rows.append(CheckRow("EQ24", d=1, alphas=cfg.alphas, rho=rho, n=n, lhs=lhs,
                             rhs=rhs, margin=tol - resid, empirical_constant=resid,
                             passed=resid <= tol))
    grid = "rho in %s, 2 <= n <= %d, random coefficient vectors, tol %g" % (
        list(rhos), n_max, tol)
    return _finish("EQ24", grid, rows, t0)


def _check_mult_id(rhos, k_max, t0, tol=TOL_IDENTITY):
    """Successive-degree eigenvalue identity, in ratio form so that deep
    underflow in the eigenvalues themselves cannot contaminate it."""
    blocks = _degree_blocks(2, k_max, "k")
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        worst = (-math.inf, None, None)
        for lo, hi in blocks:
            # rows k - 1 and k of one table, at ell = 1..hi-1
            logmu = _log_mu_rows(cfg, lo - 1, hi)[:, 1:hi]
            ks = np.arange(lo, hi + 1, dtype=float)[:, None]
            ell = np.arange(1, hi, dtype=float)
            valid = ell < ks
            ratio = np.exp(np.where(valid, logmu[:-1] - logmu[1:], 0.0))
            resid = np.where(valid, np.abs(1.0 - ratio - ell * (ell + rho)
                                           / (ks * (ks + rho))), -math.inf)
            # row-major argmax: the first k, then the first ell
            r, i = np.unravel_index(np.argmax(resid), resid.shape)
            if resid[r, i] > worst[0]:
                worst = (float(resid[r, i]), lo + int(r), int(i) + 1)
        resid, k, ell = worst
        rows.append(CheckRow("MULT-ID", d=1, alphas=cfg.alphas, rho=rho, n=k,
                             ell_or_tau=ell, margin=tol - resid,
                             empirical_constant=resid, passed=resid <= tol))
    grid = "rho in %s, 2 <= k <= %d, 1 <= ell <= k-1, ratio form, tol %g" % (
        list(rhos), k_max, tol)
    return _finish("MULT-ID", grid, rows, t0)


# ---------------------------------------------------------------------------
# suite-based checks (direct, converse, proposition)


class FunctionContext:
    """Projection plus cached norm machinery for one test function; operator
    errors and K values are computed once per (n, p)."""

    def __init__(self, cfg, f, band=64):
        if f.kinks:
            L = band
            coeffs = project(f, cfg, L)
            self.ctx = kfunc.NormContext(cfg, coeffs, f_fn=f, kinks=f.kinks)
        else:
            L = f.degree if f.degree is not None else band
            coeffs = project(f, cfg, L)
            self.ctx = kfunc.NormContext(cfg, coeffs)
        self.cfg = cfg
        self.f = f
        self.coeffs = coeffs
        self._errors = {}
        self._kvals = {}

    def op_error(self, n, p):
        """||M_n f - f||_p."""
        key = (n, p)
        if key not in self._errors:
            self._errors[key] = self.ctx.norm_diff(
                apply_durrmeyer_spectral(self.cfg, n, self.coeffs), p)
        return self._errors[key]

    def kvalues(self, ns, p):
        """K(f, 1/n)_p for each n: the exact banded K at p = 2, all new n in
        one batched search; the candidate upper bound otherwise."""
        todo = [n for n in ns if (n, p) not in self._kvals]
        if todo:
            ts = [1.0 / n for n in todo]
            if p == 2:
                vals = kfunc.k_exact_p2(self.cfg, self.coeffs, ts,
                                        tail_norm=self.ctx.tail_norm).tolist()
            else:
                vals = [kfunc.k_upper(self.cfg, self.coeffs, t, p, ctx=self.ctx)
                        for t in ts]
            self._kvals.update(((n, p), v) for n, v in zip(todo, vals))
        return [self._kvals[(n, p)] for n in ns]


def _direct_rows(fc: FunctionContext, p, n, kval):
    lhs = fc.op_error(n, p)
    rhs = 2.0 * kval
    margin = _rel_margin(lhs, rhs)
    # observed error-to-K ratio; the estimate asserts it never exceeds 2
    ratio = lhs / max(0.5 * rhs, 1e-300) if rhs > 0.0 else 0.0
    cfg = fc.cfg
    return [CheckRow("DIRECT", d=cfg.d, alphas=cfg.alphas, rho=cfg.rho, p=p, n=n,
                     f_id=fc.f.f_id, lhs=lhs, rhs=rhs, margin=margin,
                     empirical_constant=ratio, passed=margin >= INEQ_FLOOR)]


def verify_direct(cfg, f, p, n, fc=None) -> CheckReport:
    t0 = time.perf_counter()
    fc = fc or FunctionContext(cfg, f)
    rows = _direct_rows(fc, p, n, fc.kvalues([n], p)[0])
    return _finish("DIRECT", "single function %s, p=%s, n=%d" % (f.f_id, p, n),
                   rows, t0)


_SUITE_PS = (1, 2, math.inf)
_DIRECT_NS = (4, 8, 16, 32, 64)
_THEOREM1_NS = (4, 8, 16, 32)


def run_direct(cfg=None, ps=_SUITE_PS, ns=_DIRECT_NS, suite_name="full",
               seed=DEFAULT_SEED, band=None) -> CheckReport:
    """Direct estimate over the suite; the band defaults to max(64, max ns)."""
    cfg = cfg if cfg is not None else config_for_rho(0.0)
    band = band if band is not None else max(64, max(ns))
    return _suite_checks(cfg, suite_name, seed, band, {"DIRECT": (ps, ns)})[0]


def _theorem1_rows(fc: FunctionContext, p, n, lhs):
    """Rows for K(f, 1/n)_p = lhs against the converse-estimate bounds."""
    cfg = fc.cfg
    rho = cfg.rho
    errs = {k: fc.op_error(k, p) for k in range(n, 2 * n + 1)}
    tail = (4.0 / n) * sum(errs[k] for k in range(n + 1, 2 * n + 1))
    out = []
    rhs = (4.0 + 2.0 * rho / n) * (errs[n] + errs[2 * n]) + tail
    margin = _rel_margin(lhs, rhs)
    asserted = p == 2
    out.append(CheckRow("THM1", d=cfg.d, alphas=cfg.alphas, rho=rho, p=p, n=n,
                        f_id=fc.f.f_id, lhs=lhs, rhs=rhs,
                        margin=margin if asserted else None,
                        empirical_constant=margin,
                        passed=margin >= INEQ_FLOOR if asserted else True))
    if n >= abs(rho):
        rhs6 = 6.0 * (errs[n] + errs[2 * n]) + tail
        margin6 = _rel_margin(lhs, rhs6)
        out.append(CheckRow("THM1-R6", d=cfg.d, alphas=cfg.alphas, rho=rho, p=p,
                            n=n, f_id=fc.f.f_id, lhs=lhs, rhs=rhs6,
                            margin=margin6 if asserted else None,
                            empirical_constant=margin6,
                            passed=margin6 >= INEQ_FLOOR if asserted else True))
    return out


def run_theorem1(cfg=None, ps=_SUITE_PS, ns=_THEOREM1_NS, suite_name="full",
                 seed=DEFAULT_SEED, band=None) -> CheckReport:
    """Converse estimate: K at scale 1/n against the three-term error bound,
    asserted at p = 2 where K is computed exactly, reported conservatively
    (upper-bound K) at other p.  The band defaults to max(64, 2 max ns)."""
    cfg = cfg if cfg is not None else config_for_rho(0.0)
    band = band if band is not None else max(64, 2 * max(ns))
    return _suite_checks(cfg, suite_name, seed, band, {"THM1": (ps, ns)})[0]


# grid description and row builder (fc, p, n, K value) -> rows of each
# suite check
_SUITE_CHECKS = {
    "DIRECT": ("suite=%s, p in %s, n in %s, seed=%d", _direct_rows),
    "THM1": ("suite=%s, p in %s (asserted at p=2 only), n in %s, seed=%d",
             _theorem1_rows),
}


def _suite_checks(cfg, suite_name, seed, band, specs):
    """One report per entry of specs, {check_id: (ps, ns)}, from one pass
    over the suite: each function's context is built once, serves every
    check, and is freed before the next one is built.  A report's runtime
    is the time spent on its own rows; context builds count to the first."""
    if "THM1" in specs and band < 2 * max(specs["THM1"][1]):
        raise ValueError("band must cover degree 2n")
    rows = {cid: [] for cid in specs}
    spent = dict.fromkeys(specs, 0.0)
    for f in get_suite(suite_name, cfg, seed):
        t0 = time.perf_counter()
        fc = FunctionContext(cfg, f, band=band)
        for cid, (ps, ns) in specs.items():
            make = _SUITE_CHECKS[cid][1]
            kvals = {p: fc.kvalues(ns, p) for p in ps}
            for i, n in enumerate(ns):
                for p in ps:
                    rows[cid].extend(make(fc, p, n, kvals[p][i]))
            t1 = time.perf_counter()
            spent[cid] += t1 - t0
            t0 = t1
        del fc  # one context alive at a time
    return [_finish(cid, _SUITE_CHECKS[cid][0] % (
                suite_name, [str(p) for p in ps], list(ns), seed),
                rows[cid], time.perf_counter() - spent[cid])
            for cid, (ps, ns) in specs.items()]


def run_proposition(ps=(2,), ns=(8, 16, 32, 64, 128), suite_name="full",
                    seed=DEFAULT_SEED, band=None) -> CheckReport:
    """Unweighted interval case: ratio of K to the operator error.  At p = 2
    the partial-sum projections are contractions, so the ratio is asserted
    against 3; at other p in (4/3, 4) the ratio is reported against an
    empirical partial-sum norm bound.  The band defaults to
    max(144, max ns + 16)."""
    t0 = time.perf_counter()
    band = band if band is not None else max(144, max(ns) + 16)
    cfg = WeightConfig(1, (0.0, 0.0))
    for p in ps:
        if not (p == 2 or 4.0 / 3.0 < p < 4.0):
            raise ValueError("proposition requires 4/3 < p < 4, got %s" % (p,))
    sigma_emp = {}
    for p in ps:
        if p != 2:
            sigma_emp[p] = max(estimate_operator_norm("partial_sum", p, n, cfg=cfg)
                               for n in (8, 16, 32))
    rows = []
    for f in get_suite(suite_name, cfg, seed):
        fc = FunctionContext(cfg, f, band=band)
        kvals = {p: fc.kvalues(ns, p) for p in ps}
        for i, n in enumerate(ns):
            for p in ps:
                err = fc.op_error(n, p)
                kval = kvals[p][i]
                if err < 1e-14 and kval < 1e-14:
                    rows.append(CheckRow("PROP", d=1, alphas=cfg.alphas, rho=cfg.rho,
                                         p=p, n=n, f_id=fc.f.f_id, lhs=kval,
                                         rhs=err, passed=True))
                    continue
                ratio = kval / max(err, 1e-300)
                if p == 2:
                    margin = _rel_margin(kval, 3.0 * err)
                    rows.append(CheckRow("PROP", d=1, alphas=cfg.alphas,
                                         rho=cfg.rho, p=p, n=n, f_id=fc.f.f_id,
                                         lhs=kval, rhs=3.0 * err, margin=margin,
                                         empirical_constant=ratio,
                                         passed=margin >= INEQ_FLOOR))
                else:
                    bound = 1.0 + 2.0 * sigma_emp[p]
                    rows.append(CheckRow("PROP", d=1, alphas=cfg.alphas,
                                         rho=cfg.rho, p=p, n=n, f_id=fc.f.f_id,
                                         lhs=kval, rhs=bound * err,
                                         empirical_constant=ratio, passed=True))
        del fc  # one context alive at a time
    grid = ("d=1 unweighted, suite=%s, p in %s (asserted at p=2 with bound 3), "
            "n in %s, seed=%d") % (suite_name, [str(p) for p in ps], list(ns), seed)
    return _finish("PROP", grid, rows, t0)


# ---------------------------------------------------------------------------
# empirical operator norms


def estimate_operator_norm(kind, p, n, cfg=None, seed=DEFAULT_SEED,
                           band=None) -> float:
    """Empirical lower bound for the L_p operator norm of the degree-n
    partial sum or Cesaro mean, over an adversary family of coefficient
    vectors: alternating signs, flat spectrum, endpoint-concentrated
    reproducing kernels, and seeded random draws."""
    if kind not in ("partial_sum", "cesaro"):
        raise ValueError("kind must be partial_sum or cesaro")
    cfg = cfg if cfg is not None else WeightConfig(1, (0.0, 0.0))
    if kind == "partial_sum" and cfg.d != 1:
        raise ValueError("partial-sum norms are computed on the interval only")
    L = band if band is not None else 2 * n
    basis = get_basis(cfg, L)
    rule = kfunc.norm_rule(cfg, L)
    mat_rule = basis.eval_all(rule.nodes)
    # only the max norm reads the sup grid
    mat_grid = basis.eval_all(kfunc.sup_points(cfg)) if p == math.inf else None
    size = mat_rule.shape[1]

    adversaries = [np.ones(size), (-1.0) ** np.arange(size)]
    half = get_basis(cfg, L // 2)
    for x0 in (0.005, 0.5, 0.995):
        pt = np.array([x0]) if cfg.d == 1 else np.array([[x0, (1.0 - x0) / 2.0]])
        adversaries.append(basis.eval_all(pt).reshape(-1))
        # positive concentrated bump: squared half-band reproducing kernel,
        # degree 2*floor(L/2) <= L, so the projection is exact
        c0 = half.eval_all(pt).reshape(-1)
        bump = project(lambda x, c=c0: (half.eval_all(np.atleast_1d(x)) @ c) ** 2,
                       cfg, L, rule=rule)
        adversaries.append(bump.flat())
    rng = np.random.default_rng(seed)
    for _ in range(3):
        adversaries.append(rng.uniform(-1.0, 1.0, size))
    # in-band truncations guarantee ratios >= 1 for the partial sum
    adversaries.extend(
        [partial_sum(SpectralCoefficients.from_flat(cfg, a), n).flat()
         for a in list(adversaries)])

    def norm_p(flat):
        if p == math.inf:
            return float(np.max(np.abs(mat_grid @ flat)))

        return lp_norm(mat_rule @ flat, rule, p)

    worst = 0.0
    for flat in adversaries:
        coeffs = SpectralCoefficients.from_flat(cfg, flat)
        if kind == "partial_sum":
            out = partial_sum(coeffs, n)
        else:
            out = cesaro_mean(coeffs, n)
        denom = norm_p(flat)
        if denom <= 1e-300:
            continue
        worst = max(worst, norm_p(out.flat()) / denom)
    return worst


def run_norms(cfg, ps, ns, seed=DEFAULT_SEED) -> CheckReport:
    """Empirical operator-norm lower bounds; reported, never asserted.  The
    partial sum is measured on the interval only."""
    t0 = time.perf_counter()
    kinds = ("partial_sum", "cesaro") if cfg.d == 1 else ("cesaro",)
    rows = []
    for kind in kinds:
        for p in ps:
            for n in ns:
                est = estimate_operator_norm(kind, p, n, cfg=cfg, seed=seed)
                rows.append(CheckRow("NORM-" + kind, d=cfg.d, alphas=cfg.alphas,
                                     rho=cfg.rho, p=p, n=n,
                                     empirical_constant=est, passed=True))
    grid = "kinds=%s, p in %s, n in %s, seed=%d" % (
        list(kinds), list(ps), list(ns), seed)
    return _finish("NORMS", grid, rows, t0)


# ---------------------------------------------------------------------------
# structural verifiers


def verify_eigenstructure(tol=1e-8) -> CheckReport:
    """Quadrature-form operator against the diagonal action on the
    orthonormal eigenbasis."""
    t0 = time.perf_counter()
    cases = [
        (WeightConfig(1, (0.0, 0.0)), 40, 10),
        (WeightConfig(1, (-0.5, -0.5)), 40, 10),
        (WeightConfig(1, (0.5, 1.5)), 40, 10),
        (WeightConfig(2, (0.0, 0.0, 0.0)), 12, 6),
    ]
    rows = []
    for cfg, n_max, ell_max in cases:
        worst = (-math.inf, None, None)
        # the table basis_eval reads phi_{ell,j} from, evaluated once per plan
        basis = get_basis(cfg, max(ell_max, default_band(cfg)))
        for n in range(2, n_max + 1):
            plan = make_plan(cfg, n, f_degree=ell_max)
            nodes = plan.rule.nodes
            phis = basis.eval_all(nodes)
            for ell in range(0, min(ell_max, n) + 1):
                for j in range(ell + 1 if cfg.d == 2 else 1):
                    phi = phis[:, basis.flat_index(ell, j)]
                    got = apply_durrmeyer(plan, lambda x, v=phi: v, nodes)
                    want = eigenvalue_mu(cfg, n, ell) * phi
                    err = float(np.max(np.abs(got - want)))
                    if err > worst[0]:
                        worst = (err, n, ell)
        err, n, ell = worst
        rows.append(CheckRow("EIGSTRUCT", d=cfg.d, alphas=cfg.alphas, rho=cfg.rho,
                             n=n, ell_or_tau=ell, margin=tol - err,
                             empirical_constant=err, passed=err <= tol))
    grid = ("three interval weights n <= 40 ell <= 10; simplex unweighted "
            "n <= 12 ell <= 6; tolerance %g") % tol
    return _finish("EIGSTRUCT", grid, rows, t0)


_STRUCT_CFGS = (WeightConfig(1, (0.0, 0.0)), WeightConfig(1, (0.75, 0.75)),
                WeightConfig(2, (0.0, 0.0, 0.0)))


def _random_coeffs(cfg, L, rng):

    size = sum(block_size(cfg, ell) for ell in range(L + 1))
    return SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, size))


def verify_telescoping(n_max=16, tol=1e-10, seed=DEFAULT_SEED) -> CheckReport:
    """The averaged smoother satisfies P g_n = (M_n f - M_{2n} f) / t_n,
    coefficientwise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for cfg in _STRUCT_CFGS:
        worst = (-math.inf, None)
        for n in range(1, n_max + 1):
            f = _random_coeffs(cfg, 2 * n + 3, rng)
            g, t_n = build_g_n(cfg, n, f)
            lhs = apply_P_spectral(cfg, g)
            diff = (apply_durrmeyer_spectral(cfg, n, f)
                    - apply_durrmeyer_spectral(cfg, 2 * n, f))
            rhs = diff * (1.0 / t_n)
            denom = max(np.max(np.abs(lhs.flat())), np.max(np.abs(rhs.flat())), 1e-300)
            resid = float(np.max(np.abs((lhs - rhs).flat()))) / denom
            if resid > worst[0]:
                worst = (resid, n)
        resid, n = worst
        rows.append(CheckRow("TELESCOPE", d=cfg.d, alphas=cfg.alphas, rho=cfg.rho,
                             n=n, margin=tol - resid, empirical_constant=resid,
                             passed=resid <= tol))
    grid = "three weights, 1 <= n <= %d, random band-limited f, tol %g" % (
        n_max, tol)
    return _finish("TELESCOPE", grid, rows, t0)


def verify_q_identity(n_max=24, tol=1e-11, seed=DEFAULT_SEED) -> CheckReport:
    """(1/n) P M_n f equals the multiplier operator applied to M_n f - f."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for cfg in _STRUCT_CFGS:
        worst = (-math.inf, None)
        for n in range(2, n_max + 1):
            f = _random_coeffs(cfg, n, rng)
            mf = apply_durrmeyer_spectral(cfg, n, f)
            lhs = apply_P_spectral(cfg, mf) * (1.0 / n)
            rhs = apply_Q(cfg, n, mf - f)
            denom = max(np.max(np.abs(lhs.flat())), np.max(np.abs(rhs.flat())), 1e-300)
            resid = float(np.max(np.abs((lhs - rhs).flat()))) / denom
            if resid > worst[0]:
                worst = (resid, n)
        resid, n = worst
        rows.append(CheckRow("QIDENT", d=cfg.d, alphas=cfg.alphas, rho=cfg.rho,
                             n=n, margin=tol - resid, empirical_constant=resid,
                             passed=resid <= tol))
    grid = "three weights, 2 <= n <= %d, random band-limited f, tol %g" % (
        n_max, tol)
    return _finish("QIDENT", grid, rows, t0)


def verify_kfunc_closed_form(tol=1e-8) -> CheckReport:
    """Single-eigenfunction K values against min(1, t ell (ell + rho))."""
    t0 = time.perf_counter()
    ts = np.exp(np.linspace(math.log(1e-4), math.log(10.0), 40))
    rows = []
    for rho in (0.0, 1.0, 2.5):
        cfg = config_for_rho(rho)
        worst = (-math.inf, None, None)
        for ell in range(1, 21):
            flat = np.zeros(ell + 1)
            flat[ell] = 1.0
            f = SpectralCoefficients.from_flat(cfg, flat)
            got = kfunc.k_exact_p2(cfg, f, ts)
            errs = np.abs(got - np.minimum(1.0, ts * ell * (ell + rho)))
            i = int(np.argmax(errs))
            if errs[i] > worst[0]:
                worst = (float(errs[i]), ell, float(ts[i]))
        err, ell, t = worst
        rows.append(CheckRow("KCLOSED", d=1, alphas=cfg.alphas, rho=rho,
                             ell_or_tau=ell, empirical_constant=err,
                             margin=tol - err, passed=err <= tol))
    grid = "rho in [0, 1, 2.5], ell <= 20, 40 log-spaced t in [1e-4, 10], tol %g" % tol
    return _finish("KCLOSED", grid, rows, t0)


def verify_cesaro_contraction(n_max=32, tol=1e-12, seed=DEFAULT_SEED) -> CheckReport:
    """Cesaro means never increase the L2 norm, and the factor form agrees
    with the average of partial sums."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for cfg in (WeightConfig(1, (0.0, 0.0)), config_for_rho(2.5)):
        worst_margin, worst_equiv = math.inf, -math.inf
        at_n = None
        for n in range(0, n_max + 1):
            f = _random_coeffs(cfg, 32, rng)
            s = cesaro_mean(f, n)
            margin = (f.norm2() - s.norm2()) / max(f.norm2(), 1e-300)
            avg = f * 0.0
            for m in range(n + 1):
                avg = avg + partial_sum(f, m)
            avg = avg * (1.0 / (n + 1))
            equiv = float(np.max(np.abs((s - avg).flat())))
            if margin < worst_margin:
                worst_margin, at_n = margin, n
            worst_equiv = max(worst_equiv, equiv)
        rows.append(CheckRow("CESARO", d=cfg.d, alphas=cfg.alphas, rho=cfg.rho,
                             n=at_n, margin=worst_margin,
                             empirical_constant=worst_equiv,
                             passed=worst_margin >= -tol and worst_equiv <= tol))
    grid = "two weights, 0 <= n <= %d, random band-32 f, tol %g" % (n_max, tol)
    return _finish("CESARO", grid, rows, t0)


def _bracket_rows(check_id, cfg, suite_name, seed, ps, ns):
    """Rows checking k_lower <= K <= k_upper at t = 1/n for each suite
    function, p and n.  At p = 2 the exact banded K sits between the two
    (empirical_constant); elsewhere the row checks lower <= upper."""
    band = max(64, max(ns))  # k_lower applies every degree n exactly
    slack = 1e-9
    rows = []
    for f in get_suite(suite_name, cfg, seed):
        fc = FunctionContext(cfg, f, band=band)
        for p in ps:
            exacts = fc.kvalues(ns, p) if p == 2 else [None] * len(ns)
            for n, exact in zip(ns, exacts):
                lower = kfunc.k_lower(cfg, fc.coeffs, n, p, ctx=fc.ctx)
                upper, _ = kfunc.k_upper_detail(cfg, fc.coeffs, 1.0 / n, p,
                                                ctx=fc.ctx, exact=exact)
                scale = max(upper, exact or 0.0, 1e-300)
                if exact is None:
                    margin = (upper - lower) / scale + slack
                else:
                    margin = min((exact - lower) / scale,
                                 (upper - exact) / scale) + slack
                rows.append(CheckRow(check_id, d=cfg.d, alphas=cfg.alphas,
                                     rho=cfg.rho, p=p, n=n, f_id=f.f_id,
                                     lhs=lower, rhs=upper, margin=margin,
                                     empirical_constant=exact,
                                     passed=margin >= 0.0))
        del fc  # one context alive at a time
    return rows


def verify_bracket(ns=(4, 16, 64), seed=DEFAULT_SEED) -> CheckReport:
    """Ordering of the three K estimates at p = 2 over the full suite."""
    t0 = time.perf_counter()
    rows = _bracket_rows("KBRACKET", WeightConfig(1, (0.0, 0.0)), "full", seed,
                         (2,), ns)
    grid = "full suite, p=2, n in %s, seed=%d" % (list(ns), seed)
    return _finish("KBRACKET", grid, rows, t0)


def run_kfunc(cfg, ps, ns, suite_name="full", seed=DEFAULT_SEED) -> CheckReport:
    """K-functional brackets over a suite: lhs = lower bound, rhs = upper
    bound, empirical_constant = exact value at p = 2."""
    t0 = time.perf_counter()
    rows = _bracket_rows("KFUNC", cfg, suite_name, seed, ps, ns)
    grid = "suite=%s, p in %s, n in %s, seed=%d" % (
        suite_name, list(ps), list(ns), seed)
    return _finish("KFUNC", grid, rows, t0)


# ---------------------------------------------------------------------------
# aggregate runners


def run_lemmas(rhos=None, n_max=None, delta=0.25, b=4.0, seed=DEFAULT_SEED,
               tol_identity=None):
    return [check_lemma(lid, rhos=rhos, n_max=n_max, delta=delta, b=b,
                        seed=seed, tol_identity=tol_identity)
            for lid in LEMMA_IDS]


def report_all(seed=DEFAULT_SEED, delta=0.25, b=4.0, tol_identity=None,
               tol_quadrature=None):
    """Full verification battery with published defaults."""
    reports = run_lemmas(delta=delta, b=b, seed=seed, tol_identity=tol_identity)
    # DIRECT and THM1 share one context per suite function
    reports.extend(_suite_checks(config_for_rho(0.0), "full", seed, 64,
                                 {"DIRECT": (_SUITE_PS, _DIRECT_NS),
                                  "THM1": (_SUITE_PS, _THEOREM1_NS)}))
    reports.append(run_proposition(seed=seed))
    eig_kw = {} if tol_quadrature is None else {"tol": float(tol_quadrature)}
    reports.append(verify_eigenstructure(**eig_kw))
    reports.append(verify_telescoping(seed=seed))
    reports.append(verify_q_identity(seed=seed))
    reports.append(verify_kfunc_closed_form(**eig_kw))
    reports.append(verify_cesaro_contraction(seed=seed))
    reports.append(verify_bracket(seed=seed))
    reports.sort(key=lambda r: r.check_id)
    return reports
