"""Orthonormal polynomial eigenbasis, projections, partial sums, Cesaro means.

Functions are represented blockwise by total degree: block ell spans the
degree-ell eigenspace of the Durrmeyer operator, so every operator downstream
acts on a coefficient vector by scalar factors per block.  Any orthonormal
basis of each block works for that purpose.

On [0,1] the basis comes from the classical three-term recurrence whose
coefficients are generated by a discretized Stieltjes sweep over an exact
Gauss-Jacobi rule.  On the triangle we use a Koornwinder-style product basis;
the inner factor is kept in homogenized form so evaluation has no division
by 1 - x1.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_jacobi_rule, interval_rule, simplex_rule_2d
from .spectrum import WeightConfig

_DEFAULT_BAND = {1: 64, 2: 24}


def default_band(cfg: WeightConfig) -> int:
    """Spectral truncation degree used when callers do not pick one."""
    return _DEFAULT_BAND[cfg.d]


def block_size(cfg: WeightConfig, ell) -> int:
    return 1 if cfg.d == 1 else ell + 1


def _block_offsets(cfg: WeightConfig, size) -> np.ndarray:
    """Start of each degree block in a flat vector of the given length, plus
    the length itself; raises if the length does not fill whole blocks."""
    if size == 0:
        raise ValueError("need at least the degree-0 block")
    if cfg.d == 1:
        return np.arange(size + 1)
    L = (math.isqrt(8 * size + 1) - 3) // 2
    if (L + 1) * (L + 2) // 2 != size:
        raise ValueError("flat vector length does not fill block %d" % (L + 1))
    ell = np.arange(L + 2)
    return ell * (ell + 1) // 2


@dataclass(frozen=True, eq=False)
class SpectralCoefficients:
    """Coefficients of a function against the orthonormal degree basis.

    values holds the degree blocks one after another, block ell at
    values[offsets[ell]:offsets[ell + 1]]: one number for d = 1, ell + 1
    numbers for d = 2.  Instances are immutable (values is read-only);
    arithmetic returns new objects and requires matching weight config and
    band.
    """

    cfg: WeightConfig
    values: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        offsets = _block_offsets(self.cfg, values.size)
        values.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)

    @property
    def max_degree(self) -> int:
        return self.offsets.size - 2

    @property
    def blocks(self) -> tuple:
        """Read-only view of each degree block."""
        return tuple(np.split(self.values, self.offsets[1:-1]))

    @classmethod
    def zeros(cls, cfg, L):
        return cls(cfg, np.zeros(sum(block_size(cfg, ell) for ell in range(L + 1))))

    @classmethod
    def from_flat(cls, cfg, values):
        """Coefficients from a flat vector ordered by degree; every value
        must be finite."""
        out = cls(cfg, values)
        bad = np.flatnonzero(~np.isfinite(out.values))
        if bad.size:
            raise ValueError("coefficient %d is %r; coefficients must be finite"
                             % (bad[0], float(out.values[bad[0]])))
        return out

    def flat(self) -> np.ndarray:
        """The flat coefficient vector (read-only)."""
        return self.values

    def block_norms(self) -> np.ndarray:
        """Euclidean norm of each degree block."""
        return np.sqrt(np.add.reduceat(self.values * self.values, self.offsets[:-1]))

    def norm2(self) -> float:
        """L2 norm against the weight, by Parseval."""
        return float(np.sqrt(np.dot(self.values, self.values)))

    def scaled(self, factors) -> "SpectralCoefficients":
        """Multiply block ell by factors[ell]."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.max_degree + 1,):
            raise ValueError("need one factor per block")
        return SpectralCoefficients(
            self.cfg, np.repeat(factors, np.diff(self.offsets)) * self.values)

    def _binary(self, other, op):
        if not isinstance(other, SpectralCoefficients):
            return NotImplemented
        if other.cfg != self.cfg or other.max_degree != self.max_degree:
            raise ValueError("operands differ in weight config or band")
        return SpectralCoefficients(self.cfg, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralCoefficients(self.cfg, float(scalar) * self.values)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _stieltjes_recurrence(nodes, weights, L):
    """Monic three-term recurrence coefficients from a discrete measure.

    Returns (a, b) with b[0] the total mass; exact when the quadrature
    integrates degree 2L+1.

    The sweep carries q_k = 4^k p_k instead of the monic p_k: on [0, 1] the
    squared norm of p_k falls like 16^-k and leaves the normal range near
    k = 256, while q_k stays of order one.  Every rescaling is by a power of
    two, so wherever the monic sweep stays clear of subnormals the
    coefficients agree with it bit for bit.
    """
    a = np.empty(L + 1)
    b = np.empty(L + 1)
    q_prev = np.zeros_like(nodes)
    q_cur = np.ones_like(nodes)
    norm_prev = 1.0
    for k in range(L + 1):
        norm_cur = np.dot(weights, q_cur * q_cur)
        if not norm_cur > 0.0:
            raise ArithmeticError("lost positivity in Stieltjes sweep at k=%d" % k)
        a[k] = np.dot(weights, nodes * q_cur * q_cur) / norm_cur
        b[k] = norm_cur if k == 0 else norm_cur / norm_prev / 16.0
        q_next = (nodes - a[k]) * q_cur
        if k > 0:
            q_next -= (4.0 * b[k]) * q_prev
        q_next *= 4.0
        q_prev, q_cur, norm_prev = q_cur, q_next, norm_cur
    return a, b


class IntervalBasis:
    """Orthonormal polynomials on [0,1] for the weight x^a1 (1-x)^a2."""

    def __init__(self, cfg: WeightConfig, L):
        if cfg.d != 1:
            raise ValueError("IntervalBasis needs d = 1")
        self.cfg = cfg
        self.L = int(L)
        rule = gauss_jacobi_rule(cfg.alphas[0], cfg.alphas[1], self.L + 2)
        self._rec_a, rec_b = _stieltjes_recurrence(rule.nodes, rule.weights, self.L)
        self._rec_sqb = np.sqrt(rec_b)
        self.size = self.L + 1

    def eval_all(self, x) -> np.ndarray:
        """Matrix of basis values, shape (npoints, L+1), C order.

        The recurrence carries the last two degrees as contiguous vectors
        and writes each new degree into its strided column once, never
        reading a column back: the values are those of a column-by-column
        fill, and beside the output only three vectors are held.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((x.size, self.L + 1))
        a, sqb = self._rec_a, self._rec_sqb
        prev = np.full(x.size, 1.0 / sqb[0])
        out[:, 0] = prev
        if self.L >= 1:
            cur = (x - a[0]) * prev / sqb[1]
            out[:, 1] = cur
        for k in range(1, self.L):
            prev, cur = cur, ((x - a[k]) * cur - sqb[k] * prev) / sqb[k + 1]
            out[:, k + 1] = cur
        return out

    def flat_index(self, ell, j):
        if not 0 <= ell <= self.L:
            raise ValueError("degree index out of range")
        if j != 0:
            raise ValueError("d = 1 blocks have a single basis polynomial")
        return ell


def _jacobi_recurrence_terms(m, A, B):
    """Coefficients of P_{m+1} = ((c2 + c3 u) P_m - c4 P_{m-1}) / c1, m >= 1."""
    s = 2.0 * m + A + B
    c1 = 2.0 * (m + 1.0) * (m + A + B + 1.0) * s
    c2 = (s + 1.0) * (A * A - B * B)
    c3 = s * (s + 1.0) * (s + 2.0)
    c4 = 2.0 * (m + A) * (m + B) * (s + 2.0)
    return c1, c2, c3, c4


# Bytes of raw values per block of TriangleBasis.eval_all: the whole sup
# grid's are 22 MB at band 24 and 38 MB at band 32.
_EVAL_BLOCK_BYTES = 8_000_000


class TriangleBasis:
    """Orthonormal total-degree basis on the triangle for d = 2 weights.

    phi_{ell,j} is built as an outer Jacobi polynomial in x1 times a
    homogenized Jacobi factor in (1-x1, x2) of degree j; the blocks are
    mutually orthogonal by construction and normalization constants come
    from an exact simplex rule.
    """

    def __init__(self, cfg: WeightConfig, L):
        if cfg.d != 2:
            raise ValueError("TriangleBasis needs d = 2")
        self.cfg = cfg
        self.L = int(L)
        self.size = (self.L + 1) * (self.L + 2) // 2
        rule = simplex_rule_2d(cfg, 2 * self.L + 2)
        raw = np.ascontiguousarray(self._eval_raw(rule.nodes).T)
        norms = np.sqrt(np.einsum("q,qb,qb->b", rule.weights, raw, raw))
        if not np.all(norms > 0.0):
            raise ArithmeticError("nonpositive or NaN basis norm on the triangle")
        self._inv_norms = 1.0 / norms

    def flat_index(self, ell, j):
        if not 0 <= ell <= self.L:
            raise ValueError("degree index out of range")
        if not 0 <= j <= ell:
            raise ValueError("intra-degree index out of range")
        return ell * (ell + 1) // 2 + j

    def _eval_raw(self, pts) -> np.ndarray:
        """Unnormalized basis values, shape ((L+1)(L+2)/2, npoints), C order.

        Row flat_index(ell, j) holds phi_{ell,j} before normalization.  The
        outer recurrence advances one degree step m for every inner index j
        at once, so each step writes whole contiguous rows.  Per value the
        float operations are those of a separate recurrence for each j.
        """
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[:, 0], pts[:, 1]
        a1, a2, a3 = self.cfg.alphas
        npts, L = x1.size, self.L

        # homogenized inner factors R_j(s, y) = s^j P_j^{(a3,a2)}(2y/s - 1)
        s = 1.0 - x1
        v = 2.0 * x2 - s
        inner = np.empty((L + 1, npts))
        inner[0] = 1.0
        if L >= 1:
            inner[1] = 0.5 * (a3 + a2 + 2.0) * v + 0.5 * (a3 - a2) * s
        for j in range(1, L):
            c1, c2, c3, c4 = _jacobi_recurrence_terms(j, a3, a2)
            inner[j + 1] = ((c2 * s + c3 * v) * inner[j]
                            - c4 * (s * s) * inner[j - 1]) / c1

        # outer factors P_m^{(A_j, a1)}(u), row j of p_cur for j = 0..L-m
        u = 2.0 * x1 - 1.0
        j = np.arange(L + 1)
        A = (2.0 * j + a2 + a3 + 1.0)[:, None]
        B = a1
        out = np.empty((self.size, npts))
        p_prev = None
        p_cur = np.ones((L + 1, npts))
        for m in range(L + 1):
            k = L - m + 1
            ell = j[:k] + m
            out[ell * (ell + 1) // 2 + j[:k]] = p_cur * inner[:k]
            if m == L:
                break
            if m == 0:
                p_next = (0.5 * (A[:k - 1] + B + 2.0) * u
                          + 0.5 * (A[:k - 1] - B)) * p_cur[:k - 1]
            else:
                c1, c2, c3, c4 = _jacobi_recurrence_terms(m, A[:k - 1], B)
                p_next = ((c2 + c3 * u) * p_cur[:k - 1] - c4 * p_prev[:k - 1]) / c1
            p_prev, p_cur = p_cur, p_next
        return out

    def eval_all(self, pts) -> np.ndarray:
        """Matrix of basis values, shape (npoints, (L+1)(L+2)/2), C order.

        The points are evaluated in blocks of at most _EVAL_BLOCK_BYTES of
        raw values (three blocks for the sup grid at band 24).  The
        transpose of each block's row-major raw values happens inside the
        normalization multiply that writes the block of the output: every
        value is the same product as in a column-by-column fill, and beside
        the output only one block of raw values is held, not a second full
        matrix.
        """
        pts = np.asarray(pts, dtype=float)
        out = np.empty((pts.shape[0], self.size))
        block = max(1, _EVAL_BLOCK_BYTES // (8 * self.size))
        for start in range(0, pts.shape[0], block):
            rows = slice(start, start + block)
            np.multiply(self._eval_raw(pts[rows]).T, self._inv_norms, out=out[rows])
        return out


_BASIS_CACHE_SIZE = 64
_BASIS_CACHE: OrderedDict = OrderedDict()


def get_basis(cfg: WeightConfig, L):
    """Basis table for (cfg, L), built once and shared; the 64 most recently
    used tables stay cached."""
    if int(L) < 0:
        raise ValueError("band L = %d is negative; it must be >= 0" % int(L))
    key = (cfg, int(L))
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = IntervalBasis(cfg, L) if cfg.d == 1 else TriangleBasis(cfg, L)
        _BASIS_CACHE[key] = basis
        if len(_BASIS_CACHE) > _BASIS_CACHE_SIZE:
            _BASIS_CACHE.popitem(last=False)
    else:
        _BASIS_CACHE.move_to_end(key)
    return basis


def basis_eval(cfg: WeightConfig, ell, j, x):
    """Value of the j-th orthonormal basis polynomial of degree ell."""
    ell, j = int(ell), int(j)
    if ell < 0:
        raise ValueError("degree index must be >= 0")
    basis = get_basis(cfg, max(ell, default_band(cfg)))
    col = basis.flat_index(ell, j)
    if cfg.d == 1:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        vals = basis.eval_all(x_arr)[:, col]
        return float(vals[0]) if np.ndim(x) == 0 else vals
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    vals = basis.eval_all(pts.reshape(-1, 2))[:, col]
    return float(vals[0]) if single else vals


def projection_rule(cfg: WeightConfig, L, f_degree=None, splits=()):
    """Quadrature rule adequate for projecting f onto degrees <= L.

    For polynomial f pass its degree; for functions with interior kinks pass
    the kink locations so each smooth piece gets its own panel.
    """
    fdeg = int(f_degree) if f_degree is not None else int(L) + 40
    need = int(L) + fdeg + 8
    if cfg.d == 1:
        return interval_rule(cfg.alphas, need, splits=tuple(splits))
    return simplex_rule_2d(cfg, need)


def project(f, cfg: WeightConfig, L, rule=None) -> SpectralCoefficients:
    """Coefficients of f against the orthonormal basis up to degree L.

    f may be a plain callable on the domain or a test-function object with
    optional `degree` and `kinks` attributes, which steer the default rule.
    """
    basis = get_basis(cfg, L)
    if rule is None:
        rule = projection_rule(cfg, L, getattr(f, "degree", None),
                               tuple(getattr(f, "kinks", ()) or ()))
    vals = np.asarray(f(rule.nodes), dtype=float)
    if vals.shape != (rule.weights.size,):
        raise ValueError("test function returned a wrong-shaped value array")
    flat = basis.eval_all(rule.nodes).T @ (rule.weights * vals)
    return SpectralCoefficients.from_flat(cfg, flat)


def synthesize(coeffs: SpectralCoefficients, x):
    """Point values of the function with the given coefficients."""
    basis = get_basis(coeffs.cfg, coeffs.max_degree)
    if coeffs.cfg.d == 1:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        vals = basis.eval_all(x_arr) @ coeffs.flat()
        return float(vals[0]) if np.ndim(x) == 0 else vals
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    vals = basis.eval_all(pts.reshape(-1, 2)) @ coeffs.flat()
    return float(vals[0]) if single else vals


def _check_truncation(coeffs, n):
    n = int(n)
    if not 0 <= n <= coeffs.max_degree:
        raise ValueError(
            "truncation degree %d outside the stored band 0..%d"
            % (n, coeffs.max_degree))
    return n


def partial_sum(coeffs: SpectralCoefficients, n) -> SpectralCoefficients:
    """Truncation to degrees <= n; blocks above n are zeroed."""
    n = _check_truncation(coeffs, n)
    factors = np.zeros(coeffs.max_degree + 1)
    factors[:n + 1] = 1.0
    return coeffs.scaled(factors)


def cesaro_factors(n, ells) -> np.ndarray:
    """First-order Cesaro damping (n+1-ell)/(n+1), zero above ell = n."""
    ells = np.asarray(ells, dtype=float)
    return np.clip((n + 1.0 - ells) / (n + 1.0), 0.0, None)


def cesaro_mean(coeffs: SpectralCoefficients, n) -> SpectralCoefficients:
    """Average of the partial sums S_0..S_n, in closed form per block."""
    n = _check_truncation(coeffs, n)
    return coeffs.scaled(cesaro_factors(n, np.arange(coeffs.max_degree + 1)))
