"""Eigenvalues, multipliers, and their continuous-argument extensions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from durrmeyer.spectrum import (DegeneracyError, WeightConfig, _log_factors,
                                _log_mu_rows, _log_nu_rows, _nu, _nu_rows, c_n,
                                c_n_prime, c_n_second, config_for_rho,
                                eigenvalue_mu, eigenvalue_mu_all, log_mu_all,
                                log_nu_all, mu_continuous, multiplier_nu_all,
                                nu_continuous, nu_prime, nu_second)

RHO1 = config_for_rho(1.0)
RHO0 = config_for_rho(0.0)


def eigenvalue_mu_over_n(cfg, ns, ell):
    """mu(n, ell) for fixed ell across an array of degrees n (all >= ell),
    from the telescoping factors that eigenvalue_mu sums."""
    ns = np.asarray(ns, dtype=float)
    if np.any(ns < ell):
        raise ValueError("every degree must satisfy n >= ell")
    return np.exp(_log_factors(cfg.rho, ns[:, None], ell).sum(axis=1))


def multiplier_nu(cfg, n, ell):
    """nu(n, ell) = ell (ell+rho) mu(n, ell) / (n (1 - mu(n, ell))), the
    scalar form of multiplier_nu_all, from the same factors and quotient."""
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    return _nu(cfg.rho, n, ell, float(np.sum(_log_factors(cfg.rho, n, ell))))


def exact_mu(rho_num, rho_den, n, ell):
    """Rational oracle: prod_{j=0}^{ell-1} (n - j) / (n + rho + 1 + j)."""
    rho = Fraction(rho_num, rho_den)
    val = Fraction(1)
    for j in range(ell):
        val *= Fraction(n - j) / (n + rho + 1 + j)
    return val


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(3, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        WeightConfig(1, (0.0,))
    with pytest.raises(ValueError):
        WeightConfig(1, (-1.0, 0.0))
    cfg = WeightConfig(2, (0.5, -0.25, 1.0))
    assert cfg.rho == pytest.approx(2 + 0.5 - 0.25 + 1.0, abs=0.0)


def test_config_for_rho_round_trip():
    for rho in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0):
        assert config_for_rho(rho).rho == pytest.approx(rho, abs=1e-15)


def test_config_for_rho_near_minus_one():
    # the exponent (rho - d)/(d + 1) rounds, so the config's rho can move by
    # an ulp, and a rho within an ulp or two of -1 gets an exponent of -1
    assert config_for_rho(-0.9999999999999997).rho == -0.9999999999999996
    for rho, d in ((-0.9999999999999999, 1), (-0.9999999999999998, 2), (-1.5, 1)):
        with pytest.raises(ValueError, match=r"rho = .*rounds to") as err:
            config_for_rho(rho, d)
        assert repr(rho) in str(err.value)


def test_mu_frozen_rationals():
    assert eigenvalue_mu(RHO1, 10, 0) == 1.0
    assert eigenvalue_mu(RHO1, 10, 1) == pytest.approx(10.0 / 12.0, rel=1e-14)
    # 5! Gamma(7) / Gamma(12) = 86400 / 39916800
    assert eigenvalue_mu(RHO1, 5, 5) == pytest.approx(86400.0 / 39916800.0, rel=1e-13)
    assert eigenvalue_mu(RHO0, 2, 2) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_mu_against_rational_oracle():
    for rho_num, rho_den in ((0, 1), (1, 1), (5, 2), (-1, 2)):
        cfg = config_for_rho(rho_num / rho_den)
        for n in (1, 2, 7, 23):
            for ell in range(0, n + 1):
                want = float(exact_mu(rho_num, rho_den, n, ell))
                assert eigenvalue_mu(cfg, n, ell) == pytest.approx(want, rel=1e-12)


def test_mu_range_and_monotonicity():
    for rho in (-0.9, 0.0, 1.0, 6.0):
        cfg = config_for_rho(rho)
        for n in (2, 17, 60):
            mus = eigenvalue_mu_all(cfg, n)
            assert mus[0] == 1.0
            assert np.all(mus > 0.0)
            assert np.all(mus <= 1.0)
            assert np.all(np.diff(mus) < 0.0)


def test_mu_all_matches_scalar():
    mus = eigenvalue_mu_all(RHO1, 12)
    for ell in range(13):
        assert mus[ell] == pytest.approx(eigenvalue_mu(RHO1, 12, ell), rel=1e-15)


def test_mu_over_n_matches_scalar():
    ns = np.array([5, 9, 33, 128])
    for ell in (0, 1, 4):
        vals = eigenvalue_mu_over_n(RHO1, ns, ell)
        for i, n in enumerate(ns):
            assert vals[i] == pytest.approx(eigenvalue_mu(RHO1, int(n), ell),
                                            rel=1e-14)
    with pytest.raises(ValueError):
        eigenvalue_mu_over_n(RHO1, np.array([3, 4]), 5)


def test_nu_one_is_exactly_one():
    for rho in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0):
        cfg = config_for_rho(rho)
        for n in (1, 2, 31, 400):
            assert multiplier_nu(cfg, n, 1) == pytest.approx(1.0, rel=1e-13)


def test_nu_frozen_value():
    # mu(2,2) = 1/6 at rho = 0, so nu = 4 * (1/6) / (2 * 5/6) = 0.4
    assert multiplier_nu(RHO0, 2, 2) == pytest.approx(0.4, rel=1e-14)


def test_nu_positive_and_decreasing():
    for rho in (-0.9, 0.0, 2.5):
        cfg = config_for_rho(rho)
        for n in (2, 10, 64):
            nus = multiplier_nu_all(cfg, n)
            assert np.all(nus > 0.0)
            assert np.all(np.diff(nus) < 0.0)


def test_log_nu_matches_linear_where_representable():
    nus = multiplier_nu_all(RHO1, 40)
    logs = log_nu_all(RHO1, 40)
    mask = nus > 1e-290
    assert np.allclose(logs[mask], np.log(nus[mask]), rtol=1e-12, atol=1e-12)


def test_log_nu_finite_in_deep_underflow():
    logs = log_nu_all(RHO1, 512)
    assert np.all(np.isfinite(logs))
    assert logs[-1] < -700.0  # linear-domain nu would underflow here


def test_multiplier_identity():
    """mu(k, ell) - mu(k-1, ell) = (ell(ell+rho)/(k(k+rho))) mu(k, ell)."""
    for rho in (-0.5, 0.0, 1.0, 6.0):
        cfg = config_for_rho(rho)
        for k in (2, 3, 11, 50):
            mu_k = eigenvalue_mu_all(cfg, k)
            mu_km1 = eigenvalue_mu_all(cfg, k - 1)
            for ell in range(1, k):
                lhs = mu_k[ell] - mu_km1[ell]
                rhs = (ell * (ell + rho) / (k * (k + rho))) * mu_k[ell]
                assert abs(lhs - rhs) <= 1e-12 * mu_k[ell]


def test_tail_sum_bound():
    """sum_{ell=n+1}^{N} 1/(ell(ell+rho)) <= 1/n for rho >= 0."""
    big = 10 ** 6
    ells = np.arange(1, big + 1, dtype=float)
    for rho in (0.0, 1.0, 2.5):
        inv = 1.0 / (ells * (ells + rho))
        csum = np.cumsum(inv)
        for n in (1, 2, 10, 100, 1000):
            tail = csum[-1] - csum[n - 1]
            assert tail <= 1.0 / n


def test_mu_continuous_integer_consistency():
    for n in (4, 10, 37):
        for ell in range(1, n + 1):
            assert mu_continuous(RHO1, n, float(ell)) == pytest.approx(
                eigenvalue_mu(RHO1, n, ell), rel=1e-12)


def test_mu_continuous_frozen_value():
    # rho = 0, n = 4, tau = 4: 4! 4! / 8! = 576/40320
    assert mu_continuous(RHO0, 4, 4.0) == pytest.approx(576.0 / 40320.0, rel=1e-13)


def test_mu_continuous_small_tau_limit():
    for tau in (1e-6, 1e-9):
        assert mu_continuous(RHO0, 12, tau) == pytest.approx(1.0, abs=1e-5)


def test_c_n_frozen_value():
    # psi(4) - psi(2) = 1/2 + 1/3
    assert c_n(RHO0, 2, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-13)


def test_c_n_nonnegative_and_darboux():
    for rho in (0.0, 1.0, 3.0):
        cfg = config_for_rho(rho)
        for n in (5, 50):
            taus = np.linspace(0.05, n - 0.05, 101)
            c = c_n(cfg, n, taus)
            assert np.all(c >= 0.0)
            lower = np.log1p((2.0 * taus + rho) / (n - taus + 1.0))
            upper = np.log1p((2.0 * taus + rho) / (n - taus))
            assert np.all(c >= lower - 1e-12)
            assert np.all(c <= upper + 1e-12)


def test_mu_prime_matches_minus_mu_c():
    """d/dtau mu_n(tau) = -mu_n(tau) C_n(tau), via central differences."""
    h = 1e-5
    for rho in (0.0, 1.0):
        cfg = config_for_rho(rho)
        for n in (8, 30):
            for tau in np.linspace(1.0, n - 1.0, 7):
                fd = (mu_continuous(cfg, n, tau + h)
                      - mu_continuous(cfg, n, tau - h)) / (2.0 * h)
                want = -mu_continuous(cfg, n, tau) * c_n(cfg, n, tau)
                assert fd == pytest.approx(want, rel=1e-6)


def test_c_n_prime_and_second_match_differences():
    h = 1e-4
    for n, rho in ((12, 0.0), (12, 1.0), (40, 3.0)):
        cfg = config_for_rho(rho)
        for tau in (1.5, n / 2.0, n - 2.0):
            fd1 = (c_n(cfg, n, tau + h) - c_n(cfg, n, tau - h)) / (2.0 * h)
            assert fd1 == pytest.approx(c_n_prime(cfg, n, tau), rel=1e-6)
            fd2 = (c_n_prime(cfg, n, tau + h)
                   - c_n_prime(cfg, n, tau - h)) / (2.0 * h)
            assert fd2 == pytest.approx(c_n_second(cfg, n, tau),
                                        rel=1e-5, abs=1e-12)


def test_nu_continuous_integer_consistency():
    for n in (4, 20):
        for ell in range(1, n):
            assert nu_continuous(RHO1, n, float(ell)) == pytest.approx(
                multiplier_nu(RHO1, n, ell), rel=1e-12)


def test_nu_prime_matches_central_difference():
    h = 1e-4
    for n, rho in ((20, 1.0), (20, 0.0), (50, 3.0)):
        cfg = config_for_rho(rho)
        for tau in (1.0, 5.0, n / 2.0, n - 1.5):
            fd = (nu_continuous(cfg, n, tau + h)
                  - nu_continuous(cfg, n, tau - h)) / (2.0 * h)
            assert fd == pytest.approx(nu_prime(cfg, n, tau), rel=1e-5, abs=1e-14)


def test_nu_second_matches_central_difference():
    h = 1e-3
    for n, rho in ((20, 1.0), (32, 0.0)):
        cfg = config_for_rho(rho)
        for tau in (2.0, n / 2.0, n - 1.5):
            fd = (nu_continuous(cfg, n, tau + h) - 2.0 * nu_continuous(cfg, n, tau)
                  + nu_continuous(cfg, n, tau - h)) / h ** 2
            assert fd == pytest.approx(nu_second(cfg, n, tau), rel=1e-4, abs=1e-12)


def test_nu_second_near_the_band_edge():
    """tau just below n exercises the gamma-ratio path with a large first
    argument and a small non-integer second argument."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def oracle_nu(rho, n, tau):
        mu = (mpmath.gamma(n + 1) * mpmath.gamma(n + rho + 1)
              / (mpmath.gamma(n - tau + 1) * mpmath.gamma(n + tau + rho + 1)))
        return tau * (tau + rho) * mu / (n * (1 - mu))

    for n, rho, tau in ((32, 0.0, 30.5), (64, 1.0, 60.25), (40, 3.0, 36.75)):
        cfg = config_for_rho(rho)
        want = float(oracle_nu(mpmath.mpf(rho), n, mpmath.mpf(tau)))
        assert nu_continuous(cfg, n, tau) == pytest.approx(want, rel=1e-11)
        h = mpmath.mpf("1e-6")
        fd2 = float((oracle_nu(mpmath.mpf(rho), n, tau + h)
                     - 2 * oracle_nu(mpmath.mpf(rho), n, mpmath.mpf(tau))
                     + oracle_nu(mpmath.mpf(rho), n, tau - h)) / h ** 2)
        assert nu_second(cfg, n, tau) == pytest.approx(fd2, rel=1e-7)


def test_nu_helpers_accept_arrays():
    taus = np.linspace(0.5, 18.0, 40)
    for fn in (mu_continuous, c_n, c_n_prime, c_n_second, nu_continuous,
               nu_prime, nu_second):
        vals = fn(RHO1, 20, taus)
        assert vals.shape == taus.shape
        for i in (0, 17, 39):
            assert vals[i] == pytest.approx(float(fn(RHO1, 20, float(taus[i]))),
                                            rel=1e-13, abs=1e-300)


def test_range_errors():
    with pytest.raises(ValueError):
        eigenvalue_mu(RHO1, 5, 6)
    with pytest.raises(ValueError):
        eigenvalue_mu(RHO1, 5, -1)
    with pytest.raises(ValueError):
        multiplier_nu(RHO1, 5, 0)
    with pytest.raises(ValueError):
        mu_continuous(RHO1, 5, 0.0)
    with pytest.raises(ValueError):
        mu_continuous(RHO1, 5, 5.5)
    with pytest.raises(ValueError):
        eigenvalue_mu(RHO1, 0, 0)


def test_degeneracy_guard():
    """1 - mu below 1e-14 must raise, not return garbage."""
    with pytest.raises(DegeneracyError):
        nu_continuous(RHO0, 4, 1e-14)


def test_log_mu_all_joint_vs_pair():
    """The telescoped log eigenvalues agree with direct per-ell evaluation."""
    for rho in (-0.9, 0.0, 2.5):
        cfg = config_for_rho(rho)
        logs = log_mu_all(cfg, 25)
        for ell in (0, 1, 12, 25):
            want = math.log(eigenvalue_mu(cfg, 25, ell))
            assert logs[ell] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_tables_hold_each_degree_row_then_zeros():
    """A row of a block of degrees is its degree's own array, and every
    table holds 0 past the degree without evaluating the factors there."""
    for rho in (-0.9, 0.0, 6.0):
        cfg = config_for_rho(rho)
        for lo, hi in ((1, 9), (40, 47), (129, 129)):
            for rows, per_degree, first in ((_log_mu_rows, log_mu_all, 0),
                                            (_log_nu_rows, log_nu_all, 1),
                                            (_nu_rows, multiplier_nu_all, 1)):
                table = rows(cfg, lo, hi)
                assert table.shape == (hi - lo + 1, hi + 1 - first)
                for row, n in zip(table, range(lo, hi + 1)):
                    assert np.array_equal(row[:n + 1 - first], per_degree(cfg, n))
                    assert not row[n + 1 - first:].any()
