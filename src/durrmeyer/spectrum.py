"""Eigenvalues and convolution-style multipliers of the Jacobi-weighted
Bernstein-Durrmeyer operator, together with their continuous-argument
extensions and derivatives.

Everything in this module is a function of the weight through the single
parameter rho = d + sum(alpha_i).  Eigenvalues are computed in the log
domain; the ratio of gamma factors for integer degree ell telescopes into

    log mu(n, ell) = sum_{j < ell} log1p(-(rho + 1 + 2j) / (n + rho + 1 + j)),

which keeps every factor exact to a few ulps and makes the multiplier at
ell = 1 come out as 1 to ~1e-15.  The continuous extension in tau goes
through stable log-gamma differences instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import digamma, gamma_ratio_log, polygamma

__all__ = [
    "DegeneracyError",
    "WeightConfig",
    "config_for_rho",
    "eigenvalue_mu",
    "eigenvalue_mu_all",
    "log_mu_all",
    "multiplier_nu",
    "multiplier_nu_all",
    "log_nu_all",
    "mu_continuous",
    "c_n",
    "c_n_prime",
    "c_n_second",
    "nu_continuous",
    "nu_prime",
    "nu_second",
]

# 1 - mu_n(tau) below this threshold means tau is too close to 0 for the
# multiplier quotient to carry any precision.
_DEGENERACY_FLOOR = 1e-14


class DegeneracyError(ArithmeticError):
    """Raised when 1 - mu_n(tau) underflows past the usable threshold."""


@dataclass(frozen=True)
class WeightConfig:
    """Dimension d and Jacobi exponents (alpha_1, ..., alpha_{d+1}).

    The weight on the simplex is x_1^a1 ... x_d^ad (1-|x|)^a_{d+1} with every
    exponent > -1.  rho = d + sum(alphas) is the only combination the spectral
    side ever sees.
    """

    d: int
    alphas: tuple

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only d = 1 and d = 2 are supported")
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != self.d + 1:
            raise ValueError(f"need {self.d + 1} exponents for d = {self.d}")
        if any(a <= -1.0 for a in alphas):
            raise ValueError("all weight exponents must be > -1")
        object.__setattr__(self, "alphas", alphas)

    @property
    def rho(self) -> float:
        return self.d + sum(self.alphas)


def config_for_rho(rho, d=1) -> WeightConfig:
    """Symmetric-weight config with the requested rho (rho > -1).

    Every exponent is (rho - d) / (d + 1), which rounds, so ``cfg.rho`` can
    differ from the requested rho in the last digits: -0.9999999999999997
    gives -0.9999999999999996.  A rho so close to -1 that the exponent
    rounds to -1 or below raises a ValueError naming it.
    """
    a = (float(rho) - d) / (d + 1)
    if a <= -1.0:
        raise ValueError(
            f"rho = {rho!r} needs rho > -1: the symmetric exponent "
            f"(rho - d)/(d + 1) for d = {d} rounds to {a!r}, which is -1 or below")
    return WeightConfig(d, (a,) * (d + 1))


def _check_n(n):
    if int(n) != n or n < 1:
        raise ValueError("degree n must be a positive integer")
    return int(n)


def _factor_args(rho, n, j):
    # log1p of these is the log of the telescoping factor j of mu(n, ell)
    return -(rho + 1.0 + 2.0 * j) / (n + rho + 1.0 + j)


def _log_factors(rho, n, ell):
    # log of the telescoping factors of mu(n, ell), one per j < ell
    return np.log1p(_factor_args(rho, n, np.arange(ell, dtype=float)))


def _degrees(lo, hi):
    # the consecutive degrees lo..hi of a block table, one per row
    return np.arange(lo, hi + 1, dtype=float)[:, None]


def _zero_past_degree(table, ns, first):
    # column c of a block table holds index first + c; zero the cells whose
    # index exceeds their row's degree.  Only columns past the block's first
    # degree hold any, and a one-degree table has none.
    if ns.shape[0] > 1:
        c0 = int(ns[0, 0]) - first + 1
        index = np.arange(c0 + first, table.shape[1] + first)
        np.copyto(table[:, c0:], 0.0, where=index > ns)
    return table


def _log_mu_table(rho, ns):
    # log mu(n, ell) for ell = 0..max(ns) on each degree's row.  The factors
    # j >= n (log1p of -1 and below) are replaced by 0 before log1p, so they
    # are never evaluated and the row repeats its value at n past ell = n.
    j = np.arange(int(ns[-1, 0]), dtype=float)
    terms = np.log1p(_zero_past_degree(_factor_args(rho, ns, j), ns, 1))
    out = np.zeros((ns.shape[0], j.size + 1))
    np.cumsum(terms, axis=1, out=out[:, 1:])
    return out


def _log_mu_rows(cfg: WeightConfig, lo, hi) -> np.ndarray:
    """log_mu_all for the degrees lo..hi, shape (hi - lo + 1, hi + 1); the
    cells past a row's degree hold 0, as in every block table here."""
    ns = _degrees(lo, hi)
    return _zero_past_degree(_log_mu_table(cfg.rho, ns), ns, 0)


def log_mu_all(cfg: WeightConfig, n) -> np.ndarray:
    """log of the eigenvalue for every ell = 0..n at fixed n."""
    n = _check_n(n)
    return _log_mu_rows(cfg, n, n)[0]


def eigenvalue_mu_all(cfg: WeightConfig, n) -> np.ndarray:
    """Eigenvalues mu(n, ell) for ell = 0..n (linear domain)."""
    return np.exp(log_mu_all(cfg, n))


def eigenvalue_mu(cfg: WeightConfig, n, ell) -> float:
    """Eigenvalue of the degree-n operator on the degree-ell eigenspace.

    Equals (n! / (n-ell)!) Gamma(n+rho+1) / Gamma(n+ell+rho+1); strictly
    decreasing in ell with mu(n, 0) = 1.
    """
    n = _check_n(n)
    if int(ell) != ell or not 0 <= ell <= n:
        raise ValueError("need 0 <= ell <= n")
    return float(np.exp(np.sum(_log_factors(cfg.rho, n, int(ell)))))


def eigenvalue_mu_over_n(cfg: WeightConfig, ns, ell) -> np.ndarray:
    """mu(n, ell) for fixed ell across an array of degrees n (all >= ell)."""
    ell = int(ell)
    ns = np.asarray(ns, dtype=float)
    if np.any(ns < ell):
        raise ValueError("every degree must satisfy n >= ell")
    return np.exp(_log_factors(cfg.rho, ns[:, None], ell).sum(axis=1))


def _log_nu(rho, n, ell, logmu):
    # log(1 - mu) via expm1: exact for mu near 1 and for mu underflowing to 0.
    return np.log(ell * (ell + rho)) - np.log(n) + logmu - np.log(-np.expm1(logmu))


def _nu(rho, n, ell, logmu):
    return ell * (ell + rho) * np.exp(logmu) / (n * (-np.expm1(logmu)))


def _multiplier_rows(cfg, lo, hi, form):
    # form (_log_nu or _nu) at ell = 1..hi on the row of each degree lo..hi;
    # past the degree it sees the row's repeated log mu(n, n), never 0
    ns = _degrees(lo, hi)
    ell = np.arange(1, hi + 1, dtype=float)
    vals = form(cfg.rho, ns, ell, _log_mu_table(cfg.rho, ns)[:, 1:])
    return _zero_past_degree(vals, ns, 1)


def _log_nu_rows(cfg: WeightConfig, lo, hi) -> np.ndarray:
    """log_nu_all for the degrees lo..hi, shape (hi - lo + 1, hi)."""
    return _multiplier_rows(cfg, lo, hi, _log_nu)


def _nu_rows(cfg: WeightConfig, lo, hi) -> np.ndarray:
    """multiplier_nu_all for the degrees lo..hi, shape (hi - lo + 1, hi)."""
    return _multiplier_rows(cfg, lo, hi, _nu)


def log_nu_all(cfg: WeightConfig, n) -> np.ndarray:
    """log of the multiplier for ell = 1..n; stays finite when nu underflows."""
    n = _check_n(n)
    return _log_nu_rows(cfg, n, n)[0]


def multiplier_nu_all(cfg: WeightConfig, n) -> np.ndarray:
    """Multipliers nu(n, ell) for ell = 1..n (linear domain)."""
    n = _check_n(n)
    return _nu_rows(cfg, n, n)[0]


def multiplier_nu(cfg: WeightConfig, n, ell) -> float:
    """nu(n, ell) = ell (ell+rho) mu(n, ell) / (n (1 - mu(n, ell))).

    nu(n, 1) = 1 identically; the sequence is strictly decreasing in ell.
    """
    n = _check_n(n)
    if int(ell) != ell or not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    ell = int(ell)
    return _nu(cfg.rho, n, ell, float(np.sum(_log_factors(cfg.rho, n, ell))))


def _check_tau(cfg, n, tau):
    n = _check_n(n)
    arr = np.asarray(tau, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > n):
        raise ValueError("tau must lie in (0, n]")
    return n, arr


def _log_mu_tau(cfg, n, tau):
    np_ = float(n)
    rho = cfg.rho
    return gamma_ratio_log(np_ + 1.0, np_ - tau + 1.0) + \
        gamma_ratio_log(np_ + rho + 1.0, np_ + tau + rho + 1.0)


def mu_continuous(cfg: WeightConfig, n, tau):
    """Continuous-argument eigenvalue mu_n(tau), tau in (0, n]."""
    n, tau = _check_tau(cfg, n, tau)
    return np.exp(_log_mu_tau(cfg, n, tau))


def c_n(cfg: WeightConfig, n, tau):
    """C_n(tau) = psi(n+tau+rho+1) - psi(n-tau+1), the log-derivative factor
    in mu_n'(tau) = -mu_n(tau) C_n(tau)."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    return digamma(n + tau + rho + 1.0) - digamma(n - tau + 1.0)


def c_n_prime(cfg: WeightConfig, n, tau):
    """First derivative of C_n: psi'(n+tau+rho+1) + psi'(n-tau+1)."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    return polygamma(1, n + tau + rho + 1.0) + polygamma(1, n - tau + 1.0)


def c_n_second(cfg: WeightConfig, n, tau):
    """Second derivative of C_n: psi''(n+tau+rho+1) - psi''(n-tau+1)."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    return polygamma(2, n + tau + rho + 1.0) - polygamma(2, n - tau + 1.0)


def _one_minus_mu(logmu):
    one_minus = -np.expm1(logmu)
    if np.any(one_minus < _DEGENERACY_FLOOR):
        raise DegeneracyError(
            "1 - mu_n(tau) below 1e-14; tau is numerically degenerate")
    return one_minus


def nu_continuous(cfg: WeightConfig, n, tau):
    """Continuous multiplier nu_n(tau) = tau (tau+rho) mu_n(tau) / (n (1 - mu_n(tau)))."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    logmu = _log_mu_tau(cfg, n, tau)
    one_minus = _one_minus_mu(logmu)
    return tau * (tau + rho) * np.exp(logmu) / (n * one_minus)


def nu_prime(cfg: WeightConfig, n, tau):
    """Closed-form derivative of nu_n(tau) in terms of mu_n and C_n."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    logmu = _log_mu_tau(cfg, n, tau)
    mu = np.exp(logmu)
    om = _one_minus_mu(logmu)
    c = c_n(cfg, n, tau)
    return (2.0 * tau + rho) * mu / (n * om) \
        - tau * (tau + rho) * mu * c / (n * om ** 2)


def nu_second(cfg: WeightConfig, n, tau):
    """Closed-form second derivative of nu_n(tau)."""
    n, tau = _check_tau(cfg, n, tau)
    rho = cfg.rho
    logmu = _log_mu_tau(cfg, n, tau)
    mu = np.exp(logmu)
    om = _one_minus_mu(logmu)
    c = c_n(cfg, n, tau)
    cp = c_n_prime(cfg, n, tau)
    quad = tau * (tau + rho)
    return 2.0 * mu / (n * om) \
        - 2.0 * (2.0 * tau + rho) * mu * c / (n * om ** 2) \
        - quad * mu * cp / (n * om ** 2) \
        + quad * (1.0 + mu) * mu * c ** 2 / (n * om ** 3)
