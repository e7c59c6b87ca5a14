"""The Durrmeyer operator in basis and spectral form, plus related operators.

The basis form follows the definition: weighted integral averages of f
against the Bernstein basis, recombined pointwise.  The spectral form scales
the degree blocks of a coefficient vector by the eigenvalues.  Also here:
the second-order differential operator (spectrally), the multiplier
operator built from nu(n, ell), and the averaged smoothing function used by
the converse estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .orthopoly import (SpectralCoefficients, _no_kinks_on_triangle, _point_matrix,
                        _require_in_domain)
from .quadrature import QuadratureRule, interval_rule, simplex_rule_2d
from .specfun import gamma_ratio_log, log_gamma
from .spectrum import (WeightConfig, _check_n, _whole, eigenvalue_mu_all,
                       multiplier_nu_all)


def index_range(n, d):
    """All Bernstein multi-indices of degree n in dimension d, sorted."""
    n = _whole(n, "degree n")
    if d == 1:
        return tuple((k,) for k in range(n + 1))
    if d == 2:
        return tuple((k1, k2) for k1 in range(n + 1) for k2 in range(n - k1 + 1))
    raise ValueError("only d = 1 and d = 2 are supported")


def _log_multinomial(n, ks):
    """log of n! / (k1! ... kd! (n - |k|)!) for an array of multi-indices."""
    ks = np.asarray(ks, dtype=float)
    rest = n - ks.sum(axis=1)
    out = np.full(ks.shape[0], log_gamma(n + 1.0))
    for col in range(ks.shape[1]):
        out -= log_gamma(ks[:, col] + 1.0)
    out -= log_gamma(rest + 1.0)
    return out


def _bernstein_matrix(n, indices, pts):
    """Values of every p_{n,k} at every point, shape (nidx, npts).

    Computed in the log domain; boundary points follow the 0^0 = 1
    convention so the partition of unity holds on the whole closed domain.

    The exponent-times-log terms are summed into one (nidx, npts) array one
    barycentric coordinate at a time, left to right (x_1, ..., x_d, then
    1 - |x|), and the log multinomial is added last.  numpy's sum over a
    trailing axis of length d + 1 adds in that same order, so the values are
    bit-identical to reducing the full (nidx, npts, d + 1) product, which
    the tests keep as the reference; no array of that size is allocated.
    """
    ks = np.asarray(indices, dtype=float)
    _require_in_domain(pts)
    barycentric = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
    exponents = np.column_stack([ks, n - ks.sum(axis=1)])
    out = np.zeros((ks.shape[0], pts.shape[0]))
    term = np.empty_like(out)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.maximum(barycentric, 0.0))
        for e, log_c in zip(exponents.T, logs.T):
            np.multiply.outer(e, log_c, out=term)
            term[e == 0.0] = 0.0
            out += term
    out += _log_multinomial(n, ks)[:, None]
    return np.exp(out, out=out)


def _mode_anchored_sum(n, a, x):
    """sum_k a[k] p_{n,k}(x) at each x in [0, 1]; a has shape (n+1,), or
    (n+1, npts) for coefficients that vary by point.

    Each point is anchored at the mode m = min(floor((n+1) x), n) of its
    basis values.  Two Horner passes run outward from m, one with the ratios
    p_{n,k+1}/p_{n,k} = s (n-k)/(k+1), s = x/(1-x), above m, the other with
    p_{n,k}/p_{n,k+1} = r (k+1)/(n-k), r = 1/s, below m.  Every ratio is at
    most 1 on its side of the mode, so no partial sum overflows at any n.
    Together they give sum_k a[k] p_{n,k}(x) / p_{n,m}(x).  The same passes
    on all-ones coefficients give 1 / p_{n,m}(x), which lies in [1, n+1],
    and the quotient of the two is the result.  That mode weight is accurate
    to a few ulps at any n (2e-15 relative at n = 4096 against mpmath),
    where exp of the log-gamma form loses about n log(n) ulps (1e-11).
    The points are sorted by m, so the points a pass still works on form a
    contiguous prefix (above the mode) or suffix (below it) of the sorted
    order.
    """
    npts = x.size
    if npts == 0:
        return np.zeros(0)
    m = np.minimum(np.floor((n + 1) * x), n).astype(np.intp)
    order = np.argsort(m, kind="stable")
    m, x = m[order], x[order]
    a = np.asarray(a, dtype=float)
    # coef[k] holds the row a[k] (sorted by m) above a row of ones
    if a.ndim == 1:
        coef = np.broadcast_to(np.stack([a, np.ones(n + 1)], axis=1)[:, :, None],
                               (n + 1, 2, npts))
    else:
        coef = np.ones((n + 1, 2, npts))
        coef[:, 0] = a[:, order]
    # at_most[k] counts the points with m <= k
    at_most = np.searchsorted(m, np.arange(n + 1), side="right")
    # s is read only where m < n (so x < 1), r only where m > 0 (so x > 0)
    upper, lower = at_most[n - 1] if n else 0, at_most[0]
    s = x[:upper] / (1.0 - x[:upper])
    r = (1.0 - x[lower:]) / x[lower:]
    total = coef[n].copy()
    for k in range(n - 1, m[0] - 1, -1):
        c = at_most[k]
        part = total[:, :c]
        part *= s[:c]
        part *= (n - k) / (k + 1)
        part += coef[k, :, :c]
    low = np.zeros((2, npts))
    for k in range(m[-1]):
        c = at_most[k]
        part = low[:, c:]
        part += coef[k, :, c:]
        part *= r[c - lower:]
        part *= (k + 1) / (n - k)
    total += low
    out = np.empty(npts)
    out[order] = total[0] / total[1]
    return out


def _bernstein_sum(n, a, pts):
    """sum_k a[k] p_{n,k}(x) over the multi-indices of index_range(n, d) at
    every row x of the (npts, d) array pts, in O(n) (d = 1) or O(n^2)
    (d = 2) operations per point, with no (indices x points) matrix.

    d = 2 reduces to d = 1 through
    p_{n,(k1,k2)}(x) = p_{n,k1}(x1) p_{n-k1,k2}(u), u = x2 / (1 - x1)
    (u = 0 where x1 = 1): one inner sum per contiguous block k1 of the
    indices, then an outer sum in x1 whose coefficients vary by point.
    """
    _require_in_domain(pts)
    x1 = np.clip(pts[:, 0], 0.0, 1.0)
    if pts.shape[1] == 1:
        return _mode_anchored_sum(n, a, x1)
    rest = 1.0 - x1
    u = np.divide(pts[:, 1], rest, out=np.zeros_like(rest), where=rest > 0.0)
    u = np.clip(u, 0.0, 1.0)
    inner = np.empty((n + 1, u.size))
    start = 0
    for k1 in range(n + 1):
        stop = start + n - k1 + 1
        inner[k1] = _mode_anchored_sum(n - k1, a[start:stop], u)
        start = stop
    return _mode_anchored_sum(n, inner, x1)


def _log_moments(cfg: WeightConfig, n, indices):
    ks = np.asarray(indices, dtype=float)
    rest = n - ks.sum(axis=1)
    out = np.full(ks.shape[0], gamma_ratio_log(n + 1.0, n + cfg.rho + 1.0))
    for col in range(ks.shape[1]):
        a = cfg.alphas[col]
        out += gamma_ratio_log(ks[:, col] + a + 1.0, ks[:, col] + 1.0)
    out += gamma_ratio_log(rest + cfg.alphas[-1] + 1.0, rest + 1.0)
    return out


def _check_operator_args(cfg: WeightConfig, n, coeffs: SpectralCoefficients = None):
    """The operator degree n as an int, after checking that it is a positive
    integer and that coeffs, if given, are on the operator's weight."""
    n = _check_n(n)
    if coeffs is not None and coeffs.cfg is not cfg and coeffs.cfg != cfg:
        raise ValueError("coefficients on the weight %s given to an operator on %s"
                         % (coeffs.cfg.alphas, cfg.alphas))
    return n


@dataclass(frozen=True, eq=False)
class DurrmeyerPlan:
    """Precomputed pieces for repeated basis-form applications at fixed n:
    the basis moments, one shared inner quadrature rule, and the basis
    values at its nodes.  Immutable after construction."""

    cfg: WeightConfig
    n: int
    indices: tuple
    moments: np.ndarray
    rule: QuadratureRule
    basis_at_nodes: np.ndarray

    def __post_init__(self):
        if np.any(self.moments <= 0.0):
            raise ArithmeticError("basis moments must be positive")
        self.moments.flags.writeable = False
        self.basis_at_nodes.flags.writeable = False


def make_plan(cfg: WeightConfig, n, f_degree=None, splits=()) -> DurrmeyerPlan:
    """Build a plan whose inner rule integrates p_{n,k} * f * w exactly for
    polynomial f of the given degree (default n), with optional kink splits."""
    n = _check_operator_args(cfg, n)
    fdeg = _whole(f_degree, "f_degree") if f_degree is not None else n
    target = n + fdeg + 8
    if cfg.d == 1:
        rule = interval_rule(cfg.alphas, target // 2 + 1, splits=tuple(splits))
    else:
        _no_kinks_on_triangle(splits)
        rule = simplex_rule_2d(cfg, target)
    indices = index_range(n, cfg.d)
    moments = np.exp(_log_moments(cfg, n, indices))
    pts, _ = _point_matrix(cfg.d, rule.nodes)
    basis = _bernstein_matrix(n, indices, pts)
    return DurrmeyerPlan(cfg, n, indices, moments, rule, basis)


def apply_durrmeyer(plan: DurrmeyerPlan, f, x):
    """Basis-form operator value at x: sum of p_{n,k}(x) times the weighted
    average of f against p_{n,k} w_alpha.  At the plan's own nodes (x is
    plan.rule.nodes) the stored Bernstein values are reused; at any other
    points the sum is evaluated without building Bernstein values."""
    fvals = np.asarray(f(plan.rule.nodes), dtype=float)
    if fvals.shape != (plan.rule.weights.size,):
        raise ValueError("f must return one value per quadrature node")
    averages = (plan.basis_at_nodes @ (plan.rule.weights * fvals)) / plan.moments
    if x is plan.rule.nodes:
        return averages @ plan.basis_at_nodes
    pts, single = _point_matrix(plan.cfg.d, x)
    out = _bernstein_sum(plan.n, averages, pts)
    return float(out[0]) if single else out


@functools.lru_cache(maxsize=256)
def _mu_factors(cfg, n, L):
    """mu(n, ell) for ell = 0..L, zero above n; cached and read-only."""
    mu = eigenvalue_mu_all(cfg, n)
    factors = np.zeros(L + 1)
    top = min(n, L)
    factors[:top + 1] = mu[:top + 1]
    factors.setflags(write=False)
    return factors


def apply_durrmeyer_spectral(cfg: WeightConfig, n,
                             coeffs: SpectralCoefficients) -> SpectralCoefficients:
    """Scale block ell by mu(n, ell); blocks above n vanish."""
    n = _check_operator_args(cfg, n, coeffs)
    return coeffs.scaled(_mu_factors(cfg, n, coeffs.max_degree))


@functools.lru_cache(maxsize=256)
def _P_factors(cfg, L):
    """-ell (ell + rho) for ell = 0..L; cached and read-only."""
    ell = np.arange(L + 1, dtype=float)
    factors = -ell * (ell + cfg.rho)
    factors.setflags(write=False)
    return factors


def apply_P_spectral(cfg: WeightConfig,
                     coeffs: SpectralCoefficients) -> SpectralCoefficients:
    """Second-order operator on the blocks: factor -ell(ell + rho)."""
    return coeffs.scaled(_P_factors(cfg, coeffs.max_degree))


def apply_Q(cfg: WeightConfig, n, coeffs: SpectralCoefficients) -> SpectralCoefficients:
    """Multiplier operator: block ell scaled by nu(n, ell) for 1 <= ell <= n,
    zero outside that range."""
    n = _check_operator_args(cfg, n, coeffs)
    L = coeffs.max_degree
    nu = multiplier_nu_all(cfg, n)
    factors = np.zeros(L + 1)
    top = min(n, L)
    factors[1:top + 1] = nu[:top]
    return coeffs.scaled(factors)


def build_g_n(cfg: WeightConfig, n, coeffs: SpectralCoefficients):
    """Weighted average of M_k f over k = n+1..2n with weights 1/(k(k+rho)).

    Returns (g, t_n) where t_n is the weight total.  Satisfies the
    telescoping identity: applying the second-order operator to g equals
    (M_n f - M_{2n} f) / t_n blockwise.  The block factors are computed once
    per (cfg, n, band) and cached.
    """
    n = _check_operator_args(cfg, n, coeffs)
    factors, t_n = _g_n_factors(cfg, n, coeffs.max_degree)
    return coeffs.scaled(factors), t_n


@functools.lru_cache(maxsize=256)
def _g_n_factors(cfg, n, L):
    """Block factors of g_n (read-only) and the weight total t_n."""
    rho = cfg.rho
    ks = np.arange(n + 1, 2 * n + 1, dtype=float)
    weights = 1.0 / (ks * (ks + rho))
    t_n = float(weights.sum())
    factors = np.zeros(L + 1)
    for k, wk in zip(range(n + 1, 2 * n + 1), weights):
        factors += wk * _mu_factors(cfg, k, L)
    factors /= t_n
    factors.setflags(write=False)
    return factors, t_n
