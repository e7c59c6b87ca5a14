"""Special-function layer against frozen mpmath values and live sweeps."""

import math

import numpy as np
import pytest

from durrmeyer.specfun import digamma, gamma_ratio_log, log_gamma, polygamma

mpmath = pytest.importorskip("mpmath")

# mpmath at 40 digits, rounded to double precision
LGAMMA_CASES = [
    (0.001, 6.9071788853838537),
    (0.37, 0.8769468194848793),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (6.5, 5.6625620598571415),
    (123.25, 468.61448295051664),
    (5e5, 6061176.0464591756),
]

DIGAMMA_CASES = [
    (0.07, -14.753326705581838),
    (0.5, -1.9635100260214235),         # -euler_gamma - 2 log 2
    (1.0, -0.5772156649015329),         # -euler_gamma
    (2.5, 0.7031566406452432),
    (9.75, 2.225109535044576),
    (4096.0, 8.31764409143979),
]

POLYGAMMA1_CASES = [
    (0.3, 12.245364546107731),
    (1.0, 1.6449340668482264),          # pi^2 / 6
    (7.5, 0.1426158966967038),
    (300.0, 0.0033388950617146777),
]

POLYGAMMA2_CASES = [
    (0.45, -22.851711202801908),
    (1.0, -2.4041138063191886),         # -2 zeta(3)
    (12.5, -0.0069324365857882408),
    (2000.0, -2.5012503124999740e-07),
]

GAMMA_RATIO_CASES = [
    # (a, b, log Gamma(a) - log Gamma(b)); the first case crosses the
    # large-argument branch with a small, non-integer-gap second argument
    (40.5, 3.2, 107.58767024191047),
    (1000.25, 2.75, 5906.4720536042022),
    (17.0, 17.0, 0.0),
    (5.5, 900.0, -5215.7153067683923),
    (2e5, 1.3, 2241209.4531834714),
]


def test_log_gamma_frozen_values():
    for x, want in LGAMMA_CASES:
        got = log_gamma(x)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), x


def test_log_gamma_exact_zeros():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    # +0.0, not -0.0: gammaln at the zeros gives what the series gave
    got = log_gamma(np.array([1.0, 2.0, 2.0, 1.0]))
    assert got.tolist() == [0.0] * 4
    assert not np.signbit(got).any()
    assert not np.signbit(log_gamma(1.0)) and not np.signbit(log_gamma(2.0))


def test_log_gamma_vs_mpmath_near_its_zeros():
    # every caller adds log-gammas, so near the zeros at 1 and 2 the
    # absolute error is what counts; gammaln is within 1.9 eps there
    mpmath.mp.dps = 40
    rng = np.random.default_rng(207)
    near = np.concatenate([np.nextafter(1.0, [0.0, 3.0]), np.nextafter(2.0, [0.0, 3.0])])
    x = np.concatenate([[0.5, 1.0, 1.5, 2.0, 2.75], near, 1.0 + np.geomspace(1e-12, 0.1, 12),
                        2.0 - np.geomspace(1e-12, 0.1, 12), rng.uniform(0.5, 2.75, 300)])
    got = log_gamma(x)
    for xi, gi in zip(x, got):
        err = abs(mpmath.mpf(float(gi)) - mpmath.loggamma(mpmath.mpf(float(xi))))
        assert err <= 4.0 * np.finfo(float).eps, xi


def test_digamma_frozen_values():
    for x, want in DIGAMMA_CASES:
        assert digamma(x) == pytest.approx(want, rel=1e-13), x


def test_digamma_half_closed_form():
    want = -float(mpmath.euler) - 2.0 * math.log(2.0)
    assert digamma(0.5) == pytest.approx(want, rel=1e-14)


def test_polygamma_frozen_values():
    for x, want in POLYGAMMA1_CASES:
        assert polygamma(1, x) == pytest.approx(want, rel=1e-12), x
    for x, want in POLYGAMMA2_CASES:
        assert polygamma(2, x) == pytest.approx(want, rel=1e-12), x


def test_polygamma_one_closed_form():
    assert polygamma(1, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
    assert polygamma(2, 1.0) == pytest.approx(-2.0 * float(mpmath.zeta(3)), rel=1e-13)


def test_gamma_ratio_log_frozen_values():
    for a, b, want in GAMMA_RATIO_CASES:
        got = gamma_ratio_log(a, b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (a, b)


def test_gamma_ratio_log_antisymmetry():
    for a, b, _ in GAMMA_RATIO_CASES:
        assert gamma_ratio_log(a, b) == -gamma_ratio_log(b, a)


def test_gamma_ratio_log_integer_gap_exact():
    # Gamma(a)/Gamma(b) with integer gap is a plain product of b, b+1, ...
    for b in (0.5, 1.0, 3.25):
        for gap in (1, 2, 7, 40):
            want = sum(math.log(b + j) for j in range(gap))
            assert gamma_ratio_log(b + gap, b) == pytest.approx(want, rel=1e-14)


def test_gamma_ratio_log_big_small_regression():
    """Large first argument with a small non-integer second argument; this
    path once accumulated the recurrence shift with the wrong sign."""
    mpmath.mp.dps = 35
    rng = np.random.default_rng(2024)
    for _ in range(60):
        lo = float(rng.uniform(0.3, 9.5))
        hi = lo + float(rng.uniform(25.0, 400.0)) + 0.37
        want = float(mpmath.loggamma(hi) - mpmath.loggamma(lo))
        got = gamma_ratio_log(hi, lo)
        assert got == pytest.approx(want, rel=5e-13), (hi, lo)
        assert gamma_ratio_log(lo, hi) == pytest.approx(-want, rel=5e-13)


def test_gamma_ratio_log_array_matches_scalar():
    a = np.array([40.5, 3.0, 700.25, 12.125])
    b = np.array([3.2, 9.0, 700.25, 900.5])
    got = gamma_ratio_log(a, b)
    for i in range(a.size):
        assert got[i] == pytest.approx(gamma_ratio_log(float(a[i]), float(b[i])),
                                       rel=1e-14, abs=1e-14)


def test_digamma_live_sweep_vs_mpmath():
    mpmath.mp.dps = 30
    xs = np.concatenate([np.linspace(0.05, 2.0, 21),
                         np.geomspace(2.0, 1e5, 21)])
    got = digamma(xs)
    for x, g in zip(xs, got):
        want = float(mpmath.digamma(float(x)))
        assert g == pytest.approx(want, rel=1e-12, abs=1e-13), x


def test_digamma_near_its_zero_vs_mpmath():
    # psi crosses zero at x = 1.46163..., where a small absolute error is a
    # large relative one
    mpmath.mp.dps = 40
    for x in (1.45, 1.46, 1.4616, 1.47):
        want = mpmath.digamma(x)
        assert abs((mpmath.mpf(digamma(x)) - want) / want) <= 1e-14, x


def test_polygamma_live_sweep_vs_mpmath():
    mpmath.mp.dps = 30
    xs = np.geomspace(0.1, 1e4, 25)
    for m in (1, 2):
        got = polygamma(m, xs)
        for x, g in zip(xs, got):
            want = float(mpmath.polygamma(m, float(x)))
            assert g == pytest.approx(want, rel=1e-11), (m, x)


def test_recurrence_identities():
    # psi(x+1) = psi(x) + 1/x and psi'(x+1) = psi'(x) - 1/x^2
    for x in (0.2, 1.7, 8.0, 55.5):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)
        assert polygamma(1, x + 1.0) == pytest.approx(
            polygamma(1, x) - 1.0 / x ** 2, rel=1e-11)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)
    with pytest.raises(ValueError):
        digamma(-0.25)
    with pytest.raises(ValueError):
        gamma_ratio_log(-1.0, 2.0)
