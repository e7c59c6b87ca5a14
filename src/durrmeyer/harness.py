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

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kfunc
from .operators import (apply_durrmeyer, apply_durrmeyer_spectral, apply_P_spectral,
                        apply_Q, build_g_n, make_plan)
from .orthopoly import (SpectralCoefficients, block_size, cesaro_mean,
                        default_band, get_basis, partial_sum, project)
from .quadrature import gauss_jacobi_rule
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


def _finish(check_id, grid, rows, t0):
    """The report of a check from its rows; no rows raises, so that no
    report passes without having checked anything."""
    if not rows:
        raise ValueError("%s has no rows to check on the grid %s" % (check_id, grid))
    margins = [r.margin for r in rows if r.margin is not None]
    worst = min(margins) if margins else 0.0
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


def _identity_row(check_id, cfg, resid, tol, rho=None, **cell):
    """An identity's row, passed when its worst residual resid <= tol.  Lemma
    rows pass their grid's rho: config_for_rho(-0.9).rho is not -0.9."""
    return CheckRow(check_id, d=cfg.d, alphas=cfg.alphas,
                    rho=cfg.rho if rho is None else rho, margin=tol - resid,
                    empirical_constant=resid, passed=resid <= tol, **cell)


def _stable_row(check_id, cfg, rho, ns, peaks):
    """A bounded-constant row from one (sup, n, where) per degree of the ladder
    ns, passed when the upper-half sup <= STABILIZATION_RATIO x the lower."""
    sups = [s for s, _, _ in peaks]
    low, up, margin = _stabilization(ns, sups)
    peak, n_at, where = peaks[int(np.argmax(sups))]
    return CheckRow(check_id, d=cfg.d, alphas=cfg.alphas, rho=rho, n=n_at,
                    ell_or_tau=where, lhs=up, rhs=STABILIZATION_RATIO * low,
                    margin=margin, empirical_constant=peak, passed=margin >= 0.0)


# ---------------------------------------------------------------------------
# lemma checks


def check_lemma(lemma_id, rhos=None, n_max=None, delta=0.25, b=4.0,
                seed=DEFAULT_SEED, tol_identity=None) -> CheckReport:
    t0 = time.perf_counter()
    tol = TOL_IDENTITY if tol_identity is None else float(tol_identity)
    if rhos is not None and not len(rhos):
        raise ValueError("%s got an empty rhos; None means the default grid" % lemma_id)
    if lemma_id not in _LEMMAS:
        raise ValueError("unknown lemma id %r (one of %s)" % (lemma_id, ", ".join(LEMMA_IDS)))
    check, rho_grid, top = _LEMMAS[lemma_id]
    return check(rho_grid if rhos is None else rhos, top if n_max is None else n_max,
                 t0, delta=delta, b=b, seed=seed, tol=tol)


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


def _check_l1(rhos, n_max, t0, **_):
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


def _check_l1_xi(rhos, n_max, t0, **_):
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


# Fewest rungs on which _stabilization decides a lemma: on 2 or 3 dyadic
# degrees from 8 the top sup is still growing, and a single rung is compared
# with itself.
_MIN_LADDER = 4


def _ladder(which, n_max, keep=lambda n: True, cond=""):
    """The dyadic degrees 8 <= n <= n_max (that satisfy `keep`) of a
    stabilization check; too short a ladder raises a ValueError."""
    ns = [n for n in _dyadic(8, n_max) if keep(n)]
    if len(ns) < _MIN_LADDER:
        raise ValueError(
            "%s needs %d dyadic degrees 8 <= n <= %d%s to decide stabilization "
            "(n_max >= 64 at the defaults), got %d" % (which, _MIN_LADDER, n_max,
                                                       cond, len(ns)))
    return ns


def _check_sup_simple(which, rhos, n_max, t0, **_):
    """L3: sup of ell (nu_ell - nu_{ell+1}); L4: sup of the weighted absolute
    second-difference sum.  Both pass via sup stabilization."""
    _require_nonneg(rhos, which)
    ns = _ladder(which, n_max)
    rows = []
    for rho in rhos:
        cfg = config_for_rho(rho)
        peaks = []
        for n in ns:
            nu = multiplier_nu_all(cfg, n)
            if which == "L3":
                vals = np.arange(1, n, dtype=float) * (nu[:-1] - nu[1:])
                i = int(np.argmax(vals))
                peaks.append((float(vals[i]), n, i + 1))
            else:
                d2 = nu[2:] - 2.0 * nu[1:-1] + nu[:-2]
                weights = np.arange(2, n, dtype=float)
                peaks.append((float((weights * np.abs(d2)).sum()), n, None))
        rows.append(_stable_row(which, cfg, rho, ns, peaks))
    grid = "rho in %s, n dyadic 8..%d, stabilization ratio %.2f" % (
        list(rhos), n_max, STABILIZATION_RATIO)
    return _finish(which, grid, rows, t0)


def _open_grid(upper, count=200):
    """count points strictly inside (0, upper)."""
    k = np.arange(1, count + 1, dtype=float)
    return k * (upper / (count + 1.0))


def _check_l5(rhos, n_max, t0, **_):
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
                                     lhs=float(lhs[i]), rhs=float(rhs[i]),
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


def _check_l6(rhos, n_max, t0, delta, b, **_):
    """Decay of the multipliers at the top of the spectrum: n^2 nu_{n,ell}
    on [delta n, n], tau |nu'| on [1, n-1], tau^2 |nu''| on [1, sqrt(bn)]."""

    _require_nonneg(rhos, "L6")
    if not 0.0 < delta <= 1.0:
        raise ValueError("need 0 < delta <= 1, got %g" % delta)
    if b <= 0.0:
        raise ValueError("need b > 0, got %g" % b)
    ns = _ladder("L6", n_max, lambda n: 1.0 <= math.sqrt(b * n) <= n - 1,
                 " with 1 <= sqrt(b n) <= n-1")
    rows = []
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
        rows.extend(_stable_row(cid, cfg, rho, ns, peaks)
                    for cid, peaks in per_sub.items())
    grid = ("rho in %s, n dyadic %d..%d, delta=%g, b=%g, 200-point tau grids, "
            "stabilization ratio %.2f") % (list(rhos), ns[0], ns[-1], delta, b,
                                           STABILIZATION_RATIO)
    return _finish("L6", grid, rows, t0)


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


def _check_hat(rhos, n_max, t0, **_):
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
            rows.append(_identity_row("HAT", cfg, float(resids[i]), tol, rho=rho, n=n,
                                      ell_or_tau=int(ells[i]), lhs=float(lhs[i]),
                                      rhs=float(rhs[i])))
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


def _check_eq24(rhos, n_max, t0, seed, tol, **_):
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
        rows.append(_identity_row("EQ24", cfg, resid, tol, rho=rho, n=n, lhs=lhs,
                                  rhs=rhs))
    grid = "rho in %s, 2 <= n <= %d, random coefficient vectors, tol %g" % (
        list(rhos), n_max, tol)
    return _finish("EQ24", grid, rows, t0)


def _check_mult_id(rhos, k_max, t0, tol, **_):
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
        rows.append(_identity_row("MULT-ID", cfg, resid, tol, rho=rho, n=k,
                                  ell_or_tau=ell))
    grid = "rho in %s, 2 <= k <= %d, 1 <= ell <= k-1, ratio form, tol %g" % (
        list(rhos), k_max, tol)
    return _finish("MULT-ID", grid, rows, t0)


# id: (check, default rho grid, default top degree), in report order
_LEMMAS = {
    "L1": (_check_l1, RHO_GRID_FULL, 512),
    "L1-xi": (_check_l1_xi, RHO_GRID_FULL, 512),
    "L3": (functools.partial(_check_sup_simple, "L3"), RHO_GRID_SUP, 2048),
    "L4": (functools.partial(_check_sup_simple, "L4"), RHO_GRID_SUP, 2048),
    "L5": (_check_l5, RHO_GRID_NONNEG, None),
    "L6": (_check_l6, RHO_GRID_SUP, 2048),
    "HAT": (_check_hat, RHO_GRID_NONNEG, None),
    "EQ24": (_check_eq24, RHO_GRID_FULL, 64),
    "MULT-ID": (_check_mult_id, RHO_GRID_FULL, 200),
}
LEMMA_IDS = tuple(_LEMMAS)


# ---------------------------------------------------------------------------
# suite-based checks (direct, converse, proposition)


class FunctionContext:
    """Projection plus cached norm machinery for one test function; operator
    errors and K values are computed once per (n, p).  A function of known
    degree is projected at that degree and is its own band synthesis; any
    other is projected at the band and measured on f itself, which carries
    its energy above the band as the tail norm."""

    def __init__(self, cfg, f, band=64):
        exact = f.degree is not None
        coeffs = project(f, cfg, f.degree if exact else band)
        self.ctx = kfunc.NormContext(cfg, coeffs, f_fn=None if exact else f,
                                     kinks=f.kinks)
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


def _by_n(row):
    """Builder of one function's rows row(fc, p, n, K(f, 1/n)_p, *extra),
    for each n and then each p."""
    def build(fc, ps, ns, *extra):
        kvals = {p: fc.kvalues(ns, p) for p in ps}
        return [r for i, n in enumerate(ns) for p in ps
                for r in row(fc, p, n, kvals[p][i], *extra)]
    return build


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


def _top_degree(check_id, ns):
    """max(ns), which sets a suite check's band; an empty ns raises."""
    if not len(ns):
        raise ValueError("%s needs at least one degree n, got ns=%r" % (check_id, ns))
    return max(ns)


_SUITE_PS = (1, 2, math.inf)
_DIRECT_NS = (4, 8, 16, 32, 64)
_THEOREM1_NS = (4, 8, 16, 32)


def run_direct(cfg=None, ps=_SUITE_PS, ns=_DIRECT_NS, suite_name="full",
               seed=DEFAULT_SEED, band=None) -> CheckReport:
    """Direct estimate over the suite; the band defaults to max(64, max ns)."""
    cfg = cfg if cfg is not None else config_for_rho(0.0)
    band = band if band is not None else max(64, _top_degree("DIRECT", ns))
    return _suite_checks(cfg, suite_name, seed, band, {"DIRECT": (ps, ns)})[0]


def _theorem1_rows(fc: FunctionContext, p, n, lhs):
    """Rows for K(f, 1/n)_p = lhs against the converse-estimate bound, with
    the leading constant 4 + 2 rho / n (THM1) and, for n >= |rho|, 6
    (THM1-R6)."""
    cfg = fc.cfg
    rho = cfg.rho
    errs = {k: fc.op_error(k, p) for k in range(n, 2 * n + 1)}
    tail = (4.0 / n) * sum(errs[k] for k in range(n + 1, 2 * n + 1))
    bounds = [("THM1", 4.0 + 2.0 * rho / n)]
    if n >= abs(rho):
        bounds.append(("THM1-R6", 6.0))
    asserted = p == 2
    out = []
    for check_id, lead in bounds:
        rhs = lead * (errs[n] + errs[2 * n]) + tail
        margin = _rel_margin(lhs, rhs)
        out.append(CheckRow(check_id, d=cfg.d, alphas=cfg.alphas, rho=rho, p=p,
                            n=n, f_id=fc.f.f_id, lhs=lhs, rhs=rhs,
                            margin=margin if asserted else None,
                            empirical_constant=margin,
                            passed=not asserted or margin >= INEQ_FLOOR))
    return out


def run_theorem1(cfg=None, ps=_SUITE_PS, ns=_THEOREM1_NS, suite_name="full",
                 seed=DEFAULT_SEED, band=None) -> CheckReport:
    """Converse estimate: K at scale 1/n against the three-term error bound,
    asserted at p = 2 where K is computed exactly, reported conservatively
    (upper-bound K) at other p.  The band defaults to max(64, 2 max ns)."""
    cfg = cfg if cfg is not None else config_for_rho(0.0)
    band = band if band is not None else max(64, 2 * _top_degree("THM1", ns))
    return _suite_checks(cfg, suite_name, seed, band, {"THM1": (ps, ns)})[0]


def _proposition_rows(fc: FunctionContext, p, n, kval, sigma):
    """The row for K(f, 1/n)_p = kval against the operator error: asserted
    against 3 err at p = 2, reported against (1 + 2 sigma[p]) err at other
    p, sigma[p] being the empirical partial-sum norm bound."""
    err = fc.op_error(n, p)
    row = CheckRow("PROP", d=1, alphas=fc.cfg.alphas, rho=fc.cfg.rho, p=p, n=n,
                   f_id=fc.f.f_id, lhs=kval, rhs=err)
    if err < 1e-14 and kval < 1e-14:
        return [row]
    row.rhs = (3.0 if p == 2 else 1.0 + 2.0 * sigma[p]) * err
    row.empirical_constant = kval / max(err, 1e-300)
    if p == 2:
        row.margin = _rel_margin(kval, row.rhs)
        row.passed = row.margin >= INEQ_FLOOR
    return [row]


def run_proposition(ps=(2,), ns=(8, 16, 32, 64, 128), suite_name="full",
                    seed=DEFAULT_SEED) -> CheckReport:
    """Unweighted interval case: ratio of K to the operator error.  At p = 2
    the partial-sum projections are contractions, so the ratio is asserted
    against 3; at other p in (4/3, 4) the ratio is reported against an
    empirical partial-sum norm bound.  The band is max(144, max ns + 16)."""
    cfg = WeightConfig(1, (0.0, 0.0))
    band = max(144, _top_degree("PROP", ns) + 16)
    for p in ps:
        if not (p == 2 or 4.0 / 3.0 < p < 4.0):
            raise ValueError("proposition requires 4/3 < p < 4, got %s" % (p,))
    sigma = {p: max(estimate_operator_norm("partial_sum", p, n, cfg=cfg)
                    for n in (8, 16, 32)) for p in ps if p != 2}
    return _suite_checks(cfg, suite_name, seed, band, {"PROP": (ps, ns, sigma)})[0]


def _bracket_rows(check_id, fc: FunctionContext, ps, ns):
    """Rows checking k_lower <= K <= k_upper at t = 1/n for each p and then
    each n.  At p = 2 the exact banded K sits between the two
    (empirical_constant); elsewhere the row checks lower <= upper."""
    slack = 1e-9
    cfg = fc.cfg
    rows = []
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
                                 rho=cfg.rho, p=p, n=n, f_id=fc.f.f_id,
                                 lhs=lower, rhs=upper, margin=margin,
                                 empirical_constant=exact,
                                 passed=margin >= 0.0))
    return rows


def verify_bracket(ns=(4, 16, 64), seed=DEFAULT_SEED) -> CheckReport:
    """Ordering of the three K estimates at p = 2 over the full suite."""
    # k_lower applies every degree n exactly
    band = max(64, _top_degree("KBRACKET", ns))
    return _suite_checks(WeightConfig(1, (0.0, 0.0)), "full", seed, band,
                         {"KBRACKET": ((2,), ns)})[0]


def run_kfunc(cfg, ps, ns, suite_name="full", seed=DEFAULT_SEED) -> CheckReport:
    """K-functional brackets over a suite: lhs = lower bound, rhs = upper
    bound, empirical_constant = exact value at p = 2."""
    return _suite_checks(cfg, suite_name, seed, max(64, _top_degree("KFUNC", ns)),
                         {"KFUNC": (ps, ns)})[0]


# grid text, filled from suite, ps (as strings), p_values, ns and seed, and
# the builder (fc, ps, ns, *extra) -> rows of one function, of each suite check
_SUITE_CHECKS = {
    "DIRECT": ("suite=%(suite)s, p in %(ps)s, n in %(ns)s, seed=%(seed)d",
               _by_n(_direct_rows)),
    "THM1": ("suite=%(suite)s, p in %(ps)s (asserted at p=2 only), n in %(ns)s, "
             "seed=%(seed)d", _by_n(_theorem1_rows)),
    "PROP": ("d=1 unweighted, suite=%(suite)s, p in %(ps)s (asserted at p=2 with "
             "bound 3), n in %(ns)s, seed=%(seed)d", _by_n(_proposition_rows)),
    "KBRACKET": ("full suite, p=2, n in %(ns)s, seed=%(seed)d",
                 functools.partial(_bracket_rows, "KBRACKET")),
    "KFUNC": ("suite=%(suite)s, p in %(p_values)s, n in %(ns)s, seed=%(seed)d",
              functools.partial(_bracket_rows, "KFUNC")),
}


def _suite_checks(cfg, suite_name, seed, band, specs):
    """One report per entry of specs, {check_id: (ps, ns, *extra)}, from one
    pass over the suite: each function's context is built once, serves every
    check, and is freed before the next one is built.  A report's runtime
    is the time spent on its own rows; context builds count to the first."""
    if "THM1" in specs and band < 2 * max(specs["THM1"][1]):
        raise ValueError("band must cover degree 2n")
    rows = {cid: [] for cid in specs}
    spent = dict.fromkeys(specs, 0.0)
    for f in get_suite(suite_name, cfg, seed):
        t0 = time.perf_counter()
        fc = FunctionContext(cfg, f, band=band)
        for cid, args in specs.items():
            rows[cid].extend(_SUITE_CHECKS[cid][1](fc, *args))
            t1 = time.perf_counter()
            spent[cid] += t1 - t0
            t0 = t1
        del fc  # one context alive at a time
    return [_finish(cid, _SUITE_CHECKS[cid][0] % {
                "suite": suite_name, "ps": [str(p) for p in args[0]],
                "p_values": list(args[0]), "ns": list(args[1]), "seed": seed},
                rows[cid], time.perf_counter() - spent[cid])
            for cid, args in specs.items()]


# ---------------------------------------------------------------------------
# empirical operator norms


def estimate_operator_norm(kind, p, n, cfg=None, seed=DEFAULT_SEED) -> float:
    """Empirical lower bound for the L_p operator norm of the degree-n
    partial sum or Cesaro mean, over an adversary family of coefficient
    vectors: alternating signs, flat spectrum, endpoint-concentrated
    reproducing kernels, and seeded random draws.  Every norm is a
    band-2n norm of a kfunc.NormContext."""
    if kind not in ("partial_sum", "cesaro"):
        raise ValueError("kind must be partial_sum or cesaro")
    cfg = cfg if cfg is not None else WeightConfig(1, (0.0, 0.0))
    if kind == "partial_sum" and cfg.d != 1:
        raise ValueError("partial-sum norms are computed on the interval only")
    L = 2 * n
    ctx = kfunc.NormContext(cfg, SpectralCoefficients.zeros(cfg, L))
    basis, rule, mat_rule = get_basis(cfg, L), ctx.rule, ctx.mat_rule
    size = mat_rule.shape[1]

    adversaries = [np.ones(size), (-1.0) ** np.arange(size)]
    half = get_basis(cfg, L // 2)
    half_rule = half.eval_all(rule.nodes)
    for x0 in (0.005, 0.5, 0.995):
        pt = np.array([x0]) if cfg.d == 1 else np.array([[x0, (1.0 - x0) / 2.0]])
        adversaries.append(basis.eval_all(pt).reshape(-1))
        # positive concentrated bump: squared half-band reproducing kernel,
        # degree 2*floor(L/2) <= L, so its projection on the rule is exact;
        # the product is the one `project` forms, from the matrices in hand
        c0 = half.eval_all(pt).reshape(-1)
        bump = mat_rule.T @ (rule.weights * (half_rule @ c0) ** 2)
        adversaries.append(SpectralCoefficients.from_flat(cfg, bump).flat())
    rng = np.random.default_rng(seed)
    for _ in range(3):
        adversaries.append(rng.uniform(-1.0, 1.0, size))
    # in-band truncations guarantee ratios >= 1 for the partial sum
    adversaries.extend(
        [partial_sum(SpectralCoefficients.from_flat(cfg, a), n).flat()
         for a in list(adversaries)])

    worst = 0.0
    for flat in adversaries:
        coeffs = SpectralCoefficients.from_flat(cfg, flat)
        if kind == "partial_sum":
            out = partial_sum(coeffs, n)
        else:
            out = cesaro_mean(coeffs, n)
        denom = ctx.norm_band(coeffs, p)
        if denom <= 1e-300:
            continue
        worst = max(worst, ctx.norm_band(out, p) / denom)
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
        rows.append(_identity_row("EIGSTRUCT", cfg, err, tol, n=n, ell_or_tau=ell))
    grid = ("three interval weights n <= 40 ell <= 10; simplex unweighted "
            "n <= 12 ell <= 6; tolerance %g") % tol
    return _finish("EIGSTRUCT", grid, rows, t0)


_STRUCT_CFGS = (WeightConfig(1, (0.0, 0.0)), WeightConfig(1, (0.75, 0.75)),
                WeightConfig(2, (0.0, 0.0, 0.0)))


def _random_coeffs(cfg, L, rng):

    size = sum(block_size(cfg, ell) for ell in range(L + 1))
    return SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, size))


def _identity_scan(check_id, n_lo, n_max, tol, seed, sides):
    """Worst relative residual of an identity lhs = rhs between coefficient
    vectors, over n_lo <= n <= n_max on each of the three weights, where
    sides(cfg, n, rng) gives the two sides for a random f."""
    if n_max < n_lo:
        raise ValueError("%s needs n_max >= %d, got %d" % (check_id, n_lo, n_max))
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for cfg in _STRUCT_CFGS:
        worst = (-math.inf, None)
        for n in range(n_lo, n_max + 1):
            lhs, rhs = sides(cfg, n, rng)
            denom = max(np.max(np.abs(lhs.flat())), np.max(np.abs(rhs.flat())), 1e-300)
            resid = float(np.max(np.abs((lhs - rhs).flat()))) / denom
            if resid > worst[0]:
                worst = (resid, n)
        resid, n = worst
        rows.append(_identity_row(check_id, cfg, resid, tol, n=n))
    grid = "three weights, %d <= n <= %d, random band-limited f, tol %g" % (
        n_lo, n_max, tol)
    return _finish(check_id, grid, rows, t0)


def verify_telescoping(n_max=16, tol=1e-10, seed=DEFAULT_SEED) -> CheckReport:
    """The averaged smoother satisfies P g_n = (M_n f - M_{2n} f) / t_n,
    coefficientwise."""
    def sides(cfg, n, rng):
        f = _random_coeffs(cfg, 2 * n + 3, rng)
        g, t_n = build_g_n(cfg, n, f)
        diff = (apply_durrmeyer_spectral(cfg, n, f)
                - apply_durrmeyer_spectral(cfg, 2 * n, f))
        return apply_P_spectral(cfg, g), diff * (1.0 / t_n)
    return _identity_scan("TELESCOPE", 1, n_max, tol, seed, sides)


def verify_q_identity(n_max=24, tol=1e-11, seed=DEFAULT_SEED) -> CheckReport:
    """(1/n) P M_n f equals the multiplier operator applied to M_n f - f."""
    def sides(cfg, n, rng):
        f = _random_coeffs(cfg, n, rng)
        mf = apply_durrmeyer_spectral(cfg, n, f)
        return apply_P_spectral(cfg, mf) * (1.0 / n), apply_Q(cfg, n, mf - f)
    return _identity_scan("QIDENT", 2, n_max, tol, seed, sides)


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
        rows.append(_identity_row("KCLOSED", cfg, err, tol, rho=rho, ell_or_tau=ell))
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
