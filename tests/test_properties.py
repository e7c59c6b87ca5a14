"""Property tests over random inputs: the batched p = 2 K search against
its scalar form and, for accuracy, the golden-section search it replaced,
the flat coefficient container against blockwise arithmetic and its lean
arithmetic against the public constructor, the log-gamma ratio's symmetry
and recurrence, the successive-degree eigenvalue identity, the 2-D
Bernstein kernel against the 3-D one it replaced, the mode-anchored
Bernstein sum against the Bernstein matrix, the triangle basis against the
per-j recurrence it replaced, the memoized eigenvalue factors and Gauss
rules against fresh computations, and norms of band-limited functions
synthesized from their leading blocks against the full synthesis matrix.

Examples are bounded and derandomized so the suite stays fast and repeatable.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from durrmeyer import (NormContext, SpectralCoefficients, WeightConfig, cesaro_factors,
                       cesaro_mean, k_exact_p2, lp_norm, partial_sum)
from durrmeyer.operators import (_bernstein_matrix, _bernstein_sum, _g_n_factors,
                                 _log_multinomial, _mu_factors, apply_P_spectral,
                                 index_range)
from durrmeyer.orthopoly import IntervalBasis, TriangleBasis, _jacobi_recurrence, block_size
from durrmeyer.quadrature import _gauss_jacobi_rule, gauss_jacobi_rule, simplex_rule_2d, sup_grid_2d
from durrmeyer.specfun import gamma_ratio_log
from durrmeyer.spectrum import config_for_rho, log_mu_all

# The Bernstein kernels must not divide by zero, overflow or produce NaN
# on the way to a finite result.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_LAM2_GRID = np.exp(np.linspace(np.log(1e-18), np.log(1e18), 481))
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_X_TOL = 1e-9
EPS = np.finfo(float).eps


def _p2_terms(b, lam, tail2, lam2):
    lam2 = np.atleast_1d(np.asarray(lam2, dtype=float))
    shrink = 1.0 / (1.0 + np.outer(lam2, lam * lam))
    resid = b * (1.0 - shrink)
    fid = np.sqrt((resid * resid).sum(axis=1) + tail2)
    rough = np.sqrt(((lam * (b * shrink)) ** 2).sum(axis=1))
    return fid, rough


def _p2_value(b, lam, t, tail2, lam2):
    fid, rough = _p2_terms(b, lam, tail2, lam2)
    return fid + t * rough


def _p2_setup(cfg, f, tail_norm):
    ell = np.arange(f.max_degree + 1, dtype=float)
    return f.block_norms(), ell * (ell + cfg.rho), float(tail_norm) ** 2


def _p2_limits(b, lam, t, tail2):
    keep_f = math.sqrt(tail2) + t * float(np.sqrt(((lam * b) ** 2).sum()))
    keep_mean = math.sqrt(float((b[1:] * b[1:]).sum()) + tail2)
    return keep_f, keep_mean


def _k_exact_p2_scalar(cfg, f, t, tail_norm=0.0, steps=None):
    """One regula falsi search for one t, the reference for the batch; the
    number of root-finding steps is appended to `steps` if given."""
    b, lam, tail2 = _p2_setup(cfg, f, tail_norm)
    if t == math.inf:
        return _p2_limits(b, lam, 0.0, tail2)[1]
    fid, rough = _p2_terms(b, lam, tail2, _LAM2_GRID)
    values = fid + t * rough
    i = int(np.argmin(values))
    best = float(values[i])
    ilo, ihi = max(i - 1, 0), min(i + 1, _LAM2_GRID.size - 1)
    psi_lo = float(_LAM2_GRID[ilo] * rough[ilo] - t * fid[ilo])
    psi_hi = float(_LAM2_GRID[ihi] * rough[ihi] - t * fid[ihi])
    n = 0
    if psi_lo < 0.0 < psi_hi:
        lo, hi = math.log(_LAM2_GRID[ilo]), math.log(_LAM2_GRID[ihi])
        kept = 0
        while True:
            n += 1
            x = hi - psi_hi * ((hi - lo) / (psi_hi - psi_lo))
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            s = math.exp(x)
            fx, rx = (float(v[0]) for v in _p2_terms(b, lam, tail2, s))
            best = min(best, fx + t * rx)
            psi = s * rx - t * fx
            if psi > 0.0:
                if kept < 0:
                    psi_lo *= 0.5
                hi, psi_hi, kept = x, psi, -1
            else:
                if kept > 0:
                    psi_hi *= 0.5
                lo, psi_lo, kept = x, psi, 1
            if not (hi - lo > _X_TOL and psi != 0.0):
                break
    if steps is not None:
        steps.append(n)
    return min(best, *_p2_limits(b, lam, t, tail2))


def _k_exact_p2_golden(cfg, f, t, tail_norm=0.0):
    """Golden-section search for one finite t: 72 steps, an accuracy
    reference for the regula falsi search."""
    b, lam, tail2 = _p2_setup(cfg, f, tail_norm)
    values = _p2_value(b, lam, t, tail2, _LAM2_GRID)
    i = int(np.argmin(values))
    best = float(values[i])
    lo = math.log(_LAM2_GRID[max(i - 1, 0)])
    hi = math.log(_LAM2_GRID[min(i + 1, _LAM2_GRID.size - 1)])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = float(_p2_value(b, lam, t, tail2, math.exp(x1))[0])
    f2 = float(_p2_value(b, lam, t, tail2, math.exp(x2))[0])
    for _ in range(72):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = float(_p2_value(b, lam, t, tail2, math.exp(x1))[0])
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = float(_p2_value(b, lam, t, tail2, math.exp(x2))[0])
    return min(best, f1, f2, *_p2_limits(b, lam, t, tail2))


# no magnitudes whose squares leave the normal range
unit_floats = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-100 else 0.0)


@st.composite
def coefficients(draw, max_band=(30, 8)):
    """Random coefficients for a random d = 1 or d = 2 weight and band."""
    d = draw(st.sampled_from((1, 2)))
    alphas = tuple(draw(st.floats(-0.9, 3.0)) for _ in range(d + 1))
    cfg = WeightConfig(d, alphas)
    L = draw(st.integers(0, max_band[d - 1]))
    size = sum(block_size(cfg, ell) for ell in range(L + 1))
    scale = draw(st.sampled_from((1e-6, 1.0, 1e4)))
    values = draw(st.lists(unit_floats, min_size=size, max_size=size))
    return SpectralCoefficients.from_flat(cfg, scale * np.array(values))


t_values = st.lists(st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e3)),
                    min_size=1, max_size=6).map(lambda ts: [0.0] + ts)


_EDGE_CFG = WeightConfig(1, (0.5, -0.5))
_ZERO_F = SpectralCoefficients.from_flat(_EDGE_CFG, np.zeros(5))
_BLOCK_0_F = SpectralCoefficients.from_flat(_EDGE_CFG, [0.8, 0.0, 0.0, 0.0, 0.0])


@PROPERTY
@given(coefficients(), t_values, st.sampled_from((0.0, 1e-3, 0.7)))
@example(_ZERO_F, [0.0, math.inf, 0.1], 0.0)
@example(_ZERO_F, [0.0, math.inf, 0.1], 0.7)
@example(_BLOCK_0_F, [0.0, math.inf, 0.1], 0.0)
@example(_BLOCK_0_F, [0.0, math.inf, 0.1], 0.7)
def test_batched_k_equals_scalar_search_bitwise(f, ts, tail):
    cfg = f.cfg
    got = k_exact_p2(cfg, f, np.array(ts), tail_norm=tail)
    want = [_k_exact_p2_scalar(cfg, f, t, tail_norm=tail) for t in ts]
    assert got.shape == (len(ts),)
    assert got.tolist() == want
    one = k_exact_p2(cfg, f, ts[-1], tail_norm=tail)
    assert isinstance(one, float) and one == want[-1]
    keep_mean = math.hypot(*f.block_norms()[1:], tail)
    for t, k in zip(ts, want):
        if t == math.inf:
            # Pg = 0 leaves only the mean block: the keep-mean limit
            assert math.isclose(k, keep_mean, rel_tol=4 * EPS, abs_tol=0.0)
        else:
            golden = _k_exact_p2_golden(cfg, f, t, tail_norm=tail)
            assert abs(k - golden) <= 4 * EPS * golden, (t, k, golden)


def test_batched_k_with_interior_minimizers_equals_scalar_bitwise():
    # Few drawn t above put the minimizer inside the grid, where the root
    # finding runs; log-uniform t in [1e-4, 1] puts most of them there.
    rng = np.random.default_rng(206)
    steps = []
    for trial in range(24):
        d = 1 + trial % 2
        cfg = WeightConfig(d, tuple(rng.uniform(-0.9, 3.0, d + 1)))
        L = int(rng.integers(1, 31 if d == 1 else 9))
        size = sum(block_size(cfg, ell) for ell in range(L + 1))
        f = SpectralCoefficients.from_flat(cfg, rng.uniform(-1.0, 1.0, size))
        ts = 10.0 ** rng.uniform(-4.0, 0.0, 8)
        tail = (0.0, 1e-3, 0.7)[trial % 3]
        got = k_exact_p2(cfg, f, ts, tail_norm=tail)
        want = [_k_exact_p2_scalar(cfg, f, t, tail_norm=tail, steps=steps) for t in ts]
        assert got.tolist() == want
        for t, k in zip(ts, want):
            golden = _k_exact_p2_golden(cfg, f, t, tail_norm=tail)
            assert abs(k - golden) <= 4 * EPS * golden, (trial, t, k, golden)
    interior = [n for n in steps if n > 0]
    # bisection alone would need 29 steps to close a grid bracket
    assert len(interior) >= len(steps) // 3 and max(interior) <= 12, steps


@PROPERTY
@given(coefficients(max_band=(6, 3)), t_values, st.data())
def test_any_negative_t_raises(f, ts, data):
    i = data.draw(st.integers(0, len(ts) - 1))
    ts[i] = -data.draw(st.floats(1e-300, 1e3))
    with pytest.raises(ValueError):
        k_exact_p2(f.cfg, f, np.array(ts))


@PROPERTY
@given(coefficients())
def test_flat_and_block_forms_round_trip(c):
    blocks = c.blocks
    assert len(blocks) == c.max_degree + 1
    assert [b.size for b in blocks] == [block_size(c.cfg, ell) for ell in range(len(blocks))]
    assert np.array_equal(np.concatenate(blocks), c.flat())
    again = SpectralCoefficients.from_flat(c.cfg, np.concatenate(blocks))
    assert np.array_equal(again.flat(), c.flat())
    source = np.array(c.flat())
    copy = SpectralCoefficients.from_flat(c.cfg, source)
    source[0] += 1.0
    assert np.array_equal(copy.flat(), c.flat())
    with pytest.raises(ValueError):
        blocks[-1][0] = 1.0
    with pytest.raises(ValueError):
        c.flat()[0] = 1.0


@PROPERTY
@given(coefficients(), st.data())
def test_arithmetic_matches_blockwise_reference(c, data):
    cfg, nblocks = c.cfg, c.max_degree + 1
    other = SpectralCoefficients.from_flat(
        cfg, np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=c.flat().size,
                                         max_size=c.flat().size))))
    factors = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=nblocks,
                                          max_size=nblocks)))
    scalar = data.draw(st.floats(-3.0, 3.0))
    cases = [
        (c + other, [a + b for a, b in zip(c.blocks, other.blocks)]),
        (c - other, [a - b for a, b in zip(c.blocks, other.blocks)]),
        (c * scalar, [scalar * a for a in c.blocks]),
        (scalar * c, [scalar * a for a in c.blocks]),
        (-c, [-1.0 * a for a in c.blocks]),
        (c.scaled(factors), [s * a for s, a in zip(factors, c.blocks)]),
    ]
    for got, want in cases:
        assert got.max_degree == c.max_degree
        assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want))
    # norms sum in another order than a blockwise loop: at most 11 terms per
    # block here, so 1e-14 relative covers the rounding
    want_norms = np.array([math.sqrt(np.dot(b, b)) for b in c.blocks])
    assert np.allclose(c.block_norms(), want_norms, rtol=1e-14, atol=0.0)
    want_norm = math.sqrt(sum(np.dot(b, b) for b in c.blocks))
    assert math.isclose(c.norm2(), want_norm, rel_tol=1e-14, abs_tol=0.0)
    with pytest.raises(ValueError):
        c.scaled(factors[:-1])


@st.composite
def lean_operands(draw):
    """Random d = 1 or d = 2 coefficients at a random band, a second vector
    of the same band, block factors, a scalar and a truncation degree."""
    f = draw(coefficients())
    size, nblocks = f.flat().size, f.max_degree + 1
    other = draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size))
    factors = draw(st.lists(st.floats(-2.0, 2.0), min_size=nblocks, max_size=nblocks))
    scalar = draw(st.floats(-3.0, 3.0))
    n = draw(st.integers(0, f.max_degree))
    return (f, SpectralCoefficients.from_flat(f.cfg, np.array(other)), np.array(factors),
            scalar, n)


@PROPERTY
@given(lean_operands())
def test_lean_arithmetic_equals_reference_construction_bitwise(operands):
    f, g, factors, scalar, n = operands
    cfg, L = f.cfg, f.max_degree
    sizes = [block_size(cfg, ell) for ell in range(L + 1)]
    ell = np.arange(L + 1, dtype=float)

    def reference(block_factors):
        return SpectralCoefficients(cfg, np.repeat(block_factors, sizes) * f.values)

    cases = [
        (f.scaled(factors), reference(factors)),
        (f * scalar, reference(np.full(L + 1, scalar))),
        (scalar * f, reference(np.full(L + 1, scalar))),
        (-f, reference(np.full(L + 1, -1.0))),
        (partial_sum(f, n), reference((ell <= n).astype(float))),
        (cesaro_mean(f, n), reference(cesaro_factors(n, ell))),
        (apply_P_spectral(cfg, f), reference(-ell * (ell + cfg.rho))),
        (f + g, SpectralCoefficients(cfg, f.values + g.values)),
        (f - g, SpectralCoefficients(cfg, f.values - g.values)),
    ]
    for got, want in cases:
        assert got.cfg == cfg and got.max_degree == L
        assert _same_bits(got.values, want.values)
        assert np.array_equal(got.offsets, want.offsets)
        for arr in (got.values, got.offsets, want.values, want.offsets):
            assert not arr.flags.writeable
        # a result owns its values; its offsets are the operand's shared ones
        assert not np.shares_memory(got.values, f.values)
        assert not np.shares_memory(got.values, g.values)
        assert got.offsets is f.offsets

    # the public constructor copies: writing the caller's array afterwards
    # changes nothing, and the object's arrays cannot be written
    source = np.array(f.values)
    kept = SpectralCoefficients(cfg, source)
    scaled = kept.scaled(factors)
    source[:] = 7.0
    factors[:] = 5.0
    assert _same_bits(kept.values, f.values)
    assert _same_bits(scaled.values, cases[0][0].values)
    with pytest.raises(ValueError):
        kept.values[0] = 1.0
    with pytest.raises(ValueError):
        kept.offsets[0] = 1


# log-uniform over [1e-3, 1e7]
gamma_args = st.floats(math.log(1e-3), math.log(1e7)).map(math.exp)


@st.composite
def gamma_pairs(draw):
    """(a, b) with a + 1 exact in floating point; b is independent of a or
    an integer gap away, which takes the scalar telescoping path."""
    a = draw(gamma_args)
    # a + 1 - 1 is exact for a >= 0, so (a + 1) is a's exact successor
    a = (a + 1.0) - 1.0
    if draw(st.booleans()):
        b = draw(gamma_args)
    else:
        b = a + draw(st.integers(-60, 60))
        if b <= 0.0:
            b = a
    return a, b


@PROPERTY
@given(gamma_pairs())
def test_gamma_ratio_log_is_antisymmetric(pair):
    a, b = pair
    assert gamma_ratio_log(a, b) == -gamma_ratio_log(b, a)
    got = gamma_ratio_log(np.array([a, b]), np.array([b, a]))
    assert got[0] == -got[1]


@PROPERTY
@given(gamma_pairs())
def test_gamma_ratio_log_recurrence(pair):
    # log Gamma(a+1)/Gamma(b) = log a + log Gamma(a)/Gamma(b), scalar and
    # array paths; 1e-13 of the largest term (absolute below 1) is about
    # twenty times the worst error of a 20k-point sweep
    a, b = pair
    for wrap in (float, lambda v: np.array([v])):
        lhs = float(np.squeeze(gamma_ratio_log(wrap(a + 1.0), wrap(b))))
        ratio = float(np.squeeze(gamma_ratio_log(wrap(a), wrap(b))))
        scale = max(abs(lhs), abs(ratio), abs(math.log(a)), 1.0)
        assert abs(lhs - (math.log(a) + ratio)) <= 1e-13 * scale, (a, b)


@PROPERTY
@given(st.floats(-1.0, 3.5, exclude_min=True), st.integers(2, 100_000))
def test_successive_degree_eigenvalue_identity(alpha, n):
    # 1 - mu(n-1, ell) / mu(n, ell) = ell (ell + rho) / (n (n + rho)) for
    # ell < n and rho = 1 + 2 alpha in (-1, 8]; 64 n eps is about three times
    # the worst residual of a 200-pair sweep
    cfg = WeightConfig(1, (alpha, alpha))
    rho = cfg.rho
    ratio_gap = -np.expm1(log_mu_all(cfg, n - 1) - log_mu_all(cfg, n)[:n])
    ell = np.arange(n, dtype=float)
    want = ell * (ell + rho) / (n * (n + rho))
    assert np.max(np.abs(ratio_gap - want)) <= 64 * n * np.finfo(float).eps, (rho, n)


def _bernstein_matrix_3d(n, indices, pts):
    """The Bernstein kernel as one (nidx, npts, d + 1) product reduced over
    its last axis, the reference for the 2-D accumulation."""
    ks = np.asarray(indices, dtype=float)
    barycentric = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
    exponents = np.column_stack([ks, n - ks.sum(axis=1)])
    if np.any(barycentric < -1e-12):
        raise ValueError("evaluation point outside the closed domain")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.maximum(barycentric, 0.0))
        contrib = np.where(exponents[:, None, :] == 0.0, 0.0,
                           exponents[:, None, :] * logs[None, :, :]).sum(axis=2)
    return np.exp(_log_multinomial(n, ks)[:, None] + contrib)


unit_interval = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def triangle_points(draw):
    """A vertex, an edge point or an interior point of the closed triangle."""
    t = draw(unit_interval)
    kind = draw(st.sampled_from(("vertex", "edge", "interior")))
    if kind == "vertex":
        return draw(st.sampled_from(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))))
    if kind == "edge":
        return draw(st.sampled_from(((t, 0.0), (0.0, t), (t, 1.0 - t))))
    return (t, draw(unit_interval) * (1.0 - t))


# the boundary points are always there; a few drawn points ride along, few
# enough that the reference's (nidx, npts, 3) array stays small at n = 512
kernel_points = st.sampled_from((1, 2)).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(unit_interval if d == 1 else triangle_points(), max_size=6)))


@PROPERTY
@given(st.integers(0, 512), kernel_points)
def test_bernstein_kernel_equals_3d_reference_bitwise(n, drawn):
    d, extra = drawn
    if d == 1:
        pts = np.array([0.0, 1.0] + extra).reshape(-1, 1)
    else:
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)] + extra)
    indices = index_range(n, d)
    got = _bernstein_matrix(n, indices, pts)
    assert np.array_equal(got, _bernstein_matrix_3d(n, indices, pts))


# The sum kernel and the matrix round differently; 16 is about twice the
# worst ratio of |sum - matrix| to (n+1) eps max|a| in a sweep of n = 0..2048
# (d = 1) and 0..64 (d = 2) over all-ones, random and per-point coefficients.
SUM_TOL = 16.0 * np.finfo(float).eps


def _sum_reference(n, indices, a, pts):
    matrix = _bernstein_matrix(n, indices, pts)
    return a @ matrix if a.ndim == 1 else (a * matrix).sum(axis=0)


@PROPERTY
@given(st.integers(0, 2048), st.lists(unit_interval, max_size=6),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_bernstein_sum_matches_matrix_interval(n, extra, seed, per_point):
    pts = np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16] + extra).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n + 1, pts.shape[0]) if per_point else n + 1)
    got = _bernstein_sum(n, a, pts)
    want = _sum_reference(n, index_range(n, 1), a, pts)
    assert np.max(np.abs(got - want)) <= SUM_TOL * (n + 1) * np.max(np.abs(a))


@PROPERTY
@given(st.integers(0, 64), st.lists(triangle_points(), max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_bernstein_sum_matches_matrix_triangle(n, extra, seed):
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5),
                    (0.3, 0.0), (0.0, 0.3), (0.3, 0.7)] + extra)
    indices = index_range(n, 2)
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, len(indices))
    got = _bernstein_sum(n, a, pts)
    want = _sum_reference(n, indices, a, pts)
    assert np.max(np.abs(got - want)) <= SUM_TOL * (n + 1) * np.max(np.abs(a))


def test_bernstein_sum_at_degree_4096():
    n = 4096
    rng = np.random.default_rng(4096)
    pts = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16],
                          rng.uniform(0.0, 1.0, 400)]).reshape(-1, 1)
    matrix = _bernstein_matrix(n, index_range(n, 1), pts)
    ones = _bernstein_sum(n, np.ones(n + 1), pts)
    assert np.all(np.isfinite(ones))
    assert np.max(np.abs(ones - 1.0)) <= np.max(np.abs(matrix.sum(axis=0) - 1.0))
    a = rng.uniform(-1.0, 1.0, n + 1)
    got = _bernstein_sum(n, a, pts)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - a @ matrix)) <= SUM_TOL * (n + 1) * np.max(np.abs(a))


def _triangle_per_j(cfg, L, pts):
    """Triangle basis, shape (npts, size), with the outer factors of each
    inner index j from their own IntervalBasis (column-by-column fill): the
    reference for the all-j row-major evaluation."""
    x1, x2 = pts[:, 0], pts[:, 1]
    a1, a2, a3 = cfg.alphas
    npts = x1.size
    s = 1.0 - x1
    s2 = s * s
    a, b = _jacobi_recurrence(a2, a3, L)
    sqb = np.sqrt(b)
    inner = np.empty((L + 1, npts))
    inner[0] = 1.0 / sqb[0]
    if L >= 1:
        inner[1] = (x2 - a[0] * s) * inner[0] / sqb[1]
    for k in range(1, L):
        inner[k + 1] = ((x2 - a[k] * s) * inner[k] - sqb[k] * s2 * inner[k - 1]) / sqb[k + 1]
    out = np.empty((npts, (L + 1) * (L + 2) // 2))
    for j in range(L + 1):
        outer = IntervalBasis(WeightConfig(1, (a1, 2.0 * j + a2 + a3 + 1.0)), L - j)
        q = outer.eval_all(x1)
        for m in range(L - j + 1):
            out[:, (j + m) * (j + m + 1) // 2 + j] = q[:, m] * inner[j]
    return out


def _same_bits(a, b):
    # bit patterns, so signed zeros count and NaNs compare
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@PROPERTY
@given(st.tuples(*[st.floats(-1.0, 3.0, exclude_min=True)] * 3),
       st.integers(0, 40), st.lists(triangle_points(), max_size=6))
# bands with no inner step and at most one outer step
@example((0.0, 0.0, 0.0), 0, [])
@example((0.5, -0.5, 1.0), 1, [(0.25, 0.25)])
@example((-0.75, 2.0, 0.5), 2, [(1.0 / 3.0, 1.0 / 3.0), (0.5, 0.0)])
def test_triangle_basis_equals_per_j_reference_bitwise(alphas, L, extra):
    cfg = WeightConfig(2, alphas)
    basis = TriangleBasis(cfg, L)
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)] + extra)
    got = basis.eval_all(pts)
    assert got.flags.f_contiguous
    assert _same_bits(got, _triangle_per_j(cfg, L, pts))


def _random_triangle_points(n, seed):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 1.0, n)
    return np.column_stack([x1, rng.uniform(0.0, 1.0, n) * (1.0 - x1)])


_SHARED_X1 = np.array([(0.25, 0.0), (0.25, 0.5), (1.0, 0.0), (0.0, 0.3), (-0.0, 0.2),
                       (0.25, 0.75), (0.0, 1.0), (-0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])


# tensor sets (distinct x1 shared by many points) take the gather, sets
# with no repeated x1 the direct path; -0.0 and 0.0 count as one x1
@pytest.mark.parametrize("pts, L, repeats", [
    (simplex_rule_2d(WeightConfig(2, (0.5, -0.5, 1.0)), 56).nodes, 24, True),
    (sup_grid_2d(), 12, True),
    (_random_triangle_points(500, 500), 12, False),
    (_SHARED_X1, 12, True),
    (np.array([(0.2, 0.3)]), 12, False),
    (np.empty((0, 2)), 12, False),
], ids=["rule-nodes", "sup-grid", "random", "shared-x1", "single", "empty"])
def test_triangle_basis_on_point_sets_equals_per_j_reference_bitwise(pts, L, repeats):
    assert (np.unique(pts[:, 0]).size < pts.shape[0]) == repeats
    cfg = WeightConfig(2, (-0.75, 2.0, 0.5))
    got = TriangleBasis(cfg, L).eval_all(pts)
    assert got.flags.f_contiguous
    assert _same_bits(got, _triangle_per_j(cfg, L, pts))


@PROPERTY
@given(st.floats(-0.99, 6.0), st.integers(1, 300), st.integers(0, 80))
def test_memoized_factors_are_read_only_and_equal_fresh_bitwise(rho, n, L):
    cfg = config_for_rho(rho)
    mu = _mu_factors(cfg, n, L)
    assert not mu.flags.writeable
    assert _same_bits(mu, _mu_factors.__wrapped__(cfg, n, L))

    factors, t_n = _g_n_factors(cfg, n, L)
    assert not factors.flags.writeable
    ks = np.arange(n + 1, 2 * n + 1, dtype=float)
    weights = 1.0 / (ks * (ks + cfg.rho))
    fresh = np.zeros(L + 1)
    for k, wk in zip(range(n + 1, 2 * n + 1), weights):
        fresh += wk * _mu_factors.__wrapped__(cfg, k, L)
    assert _same_bits(np.array([t_n]), np.array([float(weights.sum())]))
    assert _same_bits(factors, fresh / t_n)


@PROPERTY
@given(st.floats(-0.99, 4.0), st.floats(-0.99, 4.0), st.integers(1, 120))
def test_memoized_gauss_rule_is_read_only_and_equals_fresh_bitwise(a, b, m):
    rule = gauss_jacobi_rule(a, b, m)
    assert gauss_jacobi_rule(a, b, m) is rule
    fresh = _gauss_jacobi_rule.__wrapped__(a, b, m)
    for got, want in ((rule.nodes, fresh.nodes), (rule.weights, fresh.weights)):
        assert not got.flags.writeable
        assert _same_bits(got, want)


@st.composite
def cut_coefficients(draw):
    """Random f and a top degree; g is f with every block above the top set
    to exact zero (top = -1 gives g = 0)."""
    f = draw(coefficients())
    return f, draw(st.integers(-1, f.max_degree))


_CUT_1D = SpectralCoefficients.from_flat(
    WeightConfig(1, (0.5, -0.5)), np.random.default_rng(12).uniform(-1.0, 1.0, 9))
_CUT_2D = SpectralCoefficients.from_flat(
    WeightConfig(2, (0.0, 0.5, -0.5)), np.random.default_rng(12).uniform(-1.0, 1.0, 21))


@PROPERTY
@given(cut_coefficients(), st.sampled_from((1, math.inf)))
@example((_CUT_1D, -1), 1)
@example((_CUT_1D, -1), math.inf)
@example((_CUT_1D, 8), math.inf)
@example((_CUT_2D, -1), math.inf)
@example((_CUT_2D, 5), 1)
@example((_CUT_2D, 5), math.inf)
def test_leading_block_norms_match_the_full_synthesis(cut, p):
    f, top = cut
    cfg = f.cfg
    flat = f.flat().copy()
    flat[f.offsets[top + 1]:] = 0.0
    g = SpectralCoefficients.from_flat(cfg, flat)
    ctx = NormContext(cfg, f)
    if p == math.inf:
        mat, f_vals = ctx.mat_grid, ctx.f_grid
    else:
        mat, f_vals = ctx.mat_rule, ctx.f_rule

    def norm(v):
        return float(np.max(np.abs(v))) if p == math.inf else lp_norm(v, ctx.rule, 1)

    got = (ctx.norm_band(g, p), ctx.norm_diff(g, p))
    want = (norm(mat @ flat), norm(f_vals - mat @ flat))
    # Each side sums the same nonzero products in a different order, so a
    # point value moves by at most 2 k eps (|M| |g|) for k summed columns;
    # the finite-p norm's own sum adds (number of nodes) eps of the norm.
    k = flat.size + (0 if p == math.inf else ctx.rule.nodes.shape[0])
    envelope = np.abs(mat) @ np.abs(flat)
    bounds = (norm(envelope), norm(np.abs(f_vals) + envelope))
    for a, b, bound in zip(got, want, bounds):
        assert abs(a - b) <= 2.0 * k * EPS * bound
    if flat[-1] != 0.0:
        # nothing is cut: the same product, bit for bit
        assert got == want
