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

import functools
import math
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


@functools.lru_cache(maxsize=256)
def _block_layout(d, size):
    """Start of each degree block in a flat vector of the given length, plus
    the length itself, and the size of each block; raises if the length
    does not fill whole blocks.  Both arrays are read-only and shared by
    every coefficient vector of that dimension and length."""
    if size == 0:
        raise ValueError("need at least the degree-0 block")
    if d == 1:
        offsets = np.arange(size + 1)
    else:
        L = (math.isqrt(8 * size + 1) - 3) // 2
        if (L + 1) * (L + 2) // 2 != size:
            raise ValueError("flat vector length does not fill block %d" % (L + 1))
        ell = np.arange(L + 2)
        offsets = ell * (ell + 1) // 2
    sizes = np.diff(offsets)
    offsets.setflags(write=False)
    sizes.setflags(write=False)
    return offsets, sizes


def _require_finite(arr, what):
    """Raise a ValueError naming the first non-finite entry of a vector."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError("%s %d is %r; %ss must be finite" % (what, i, float(arr[i]), what))


@dataclass(frozen=True, eq=False)
class SpectralCoefficients:
    """Coefficients of a function against the orthonormal degree basis.

    values holds the degree blocks one after another, block ell at
    values[offsets[ell]:offsets[ell + 1]]: one number for d = 1, ell + 1
    numbers for d = 2.  Instances are immutable: values is a read-only
    array that no other object writes to, and offsets is a read-only array
    shared by every vector of the same dimension and length.  The public
    constructor copies its input; arithmetic wraps the array it has just
    computed without copying it, returns a new object, and requires
    matching weight config and band.
    """

    cfg: WeightConfig
    values: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", _block_layout(self.cfg.d, values.size)[0])

    @classmethod
    def _wrap(cls, cfg, values, offsets):
        """Object around values, a vector just computed by the caller that
        nothing else references; it is made read-only, not copied.  The
        fields go straight into the instance dict, as the public
        constructor's do through object.__setattr__."""
        values.setflags(write=False)
        out = object.__new__(cls)
        fields = out.__dict__
        fields["cfg"], fields["values"], fields["offsets"] = cfg, values, offsets
        return out

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
        _require_finite(out.values, "coefficient")
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
        """Multiply block ell by factors[ell]; every factor must be finite.

        For d = 1 every block has one entry and the factors multiply the
        values directly; for d = 2 each factor is repeated over its block."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.max_degree + 1,):
            raise ValueError("need one factor per block")
        _require_finite(factors, "factor")
        if self.cfg.d != 1:
            factors = np.repeat(factors, _block_layout(2, self.values.size)[1])
        return self._wrap(self.cfg, factors * self.values, self.offsets)

    def _binary(self, other, op):
        if not isinstance(other, SpectralCoefficients):
            return NotImplemented
        if other.cfg != self.cfg or other.max_degree != self.max_degree:
            raise ValueError("operands differ in weight config or band")
        return self._wrap(self.cfg, op(self.values, other.values), self.offsets)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        s = float(scalar)
        if not math.isfinite(s):
            raise ValueError("scalar factor %r is not finite" % s)
        return self._wrap(self.cfg, s * self.values, self.offsets)

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
        self.L = L = int(L)
        self.size = (L + 1) * (L + 2) // 2
        a1, a2, a3 = cfg.alphas
        # Recurrence tables, which depend on the weight and the band only:
        # scalars for the inner steps j = 1..L-1, and for the outer steps
        # columns over the inner index j, whose parameter is
        # A_j = 2j + a2 + a3 + 1; outer step m writes rows _rows[m, :L-m+1].
        self._inner_first = (0.5 * (a3 + a2 + 2.0), 0.5 * (a3 - a2))
        self._inner_terms = tuple(_jacobi_recurrence_terms(j, a3, a2)
                                  for j in range(1, L))
        j = np.arange(L + 1)
        A = (2.0 * j[:L] + a2 + a3 + 1.0)[:, None]
        self._outer_first = np.stack((0.5 * (A + a1 + 2.0), 0.5 * (A - a1)))
        self._outer_terms = np.stack(
            _jacobi_recurrence_terms(np.arange(1.0, L)[:, None, None], A, a1))
        self._rows = (j[:, None] + j) * (j[:, None] + j + 1) // 2 + j
        for table in (self._outer_first, self._outer_terms, self._rows):
            table.flags.writeable = False
        rule = simplex_rule_2d(cfg, 2 * L + 2)
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
        at once, so each step writes whole contiguous rows.  The step
        constants and destination rows come from the tables built in
        __init__, and the steps reuse three (L, npoints) buffers through
        out=.  Per value the float operations are those of a separate
        recurrence for each j with its constants computed on the spot, in
        the same order; only operands of + and * trade sides and products
        with P_0 = 1 are left out, both exact, so the values keep their bits.
        """
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[:, 0], pts[:, 1]
        npts, L = x1.size, self.L

        # homogenized inner factors R_j(s, y) = s^j P_j^{(a3,a2)}(2y/s - 1)
        s = 1.0 - x1
        v = 2.0 * x2 - s
        s2 = s * s
        inner = np.empty((L + 1, npts))
        inner[0] = 1.0
        if L >= 1:
            e1, e2 = self._inner_first
            inner[1] = e1 * v + e2 * s
        for j, (c1, c2, c3, c4) in enumerate(self._inner_terms, start=1):
            inner[j + 1] = ((c2 * s + c3 * v) * inner[j] - c4 * s2 * inner[j - 1]) / c1

        # outer factors P_m^{(A_j, a1)}(u), row j of p_cur for j = 0..L-m;
        # P_0 = 1, so degree-0 rows are the inner factors themselves
        out = np.empty((self.size, npts))
        out[self._rows[0]] = inner
        if L == 0:
            return out
        u = 2.0 * x1 - 1.0
        e1, e2 = self._outer_first
        p_prev = np.ones((L, npts))
        p_cur = e1 * u + e2
        tmp = np.empty((L, npts))
        for m in range(1, L):
            k = L - m + 1
            out[self._rows[m, :k]] = np.multiply(p_cur[:k], inner[:k], out=tmp[:k])
            c1, c2, c3, c4 = self._outer_terms[:, m - 1, :k - 1]
            # p_next = ((c2 + c3 u) p_cur - c4 p_prev) / c1, into p_prev's rows
            c4p = np.multiply(c4, p_prev[:k - 1], out=tmp[:k - 1])
            p_next = np.multiply(c3, u, out=p_prev[:k - 1])
            p_next += c2
            p_next *= p_cur[:k - 1]
            p_next -= c4p
            p_next /= c1
            p_prev, p_cur = p_cur, p_next
        out[self._rows[L, :1]] = p_cur[:1] * inner[:1]
        return out

    def eval_all(self, pts) -> np.ndarray:
        """Matrix of basis values, shape (npoints, (L+1)(L+2)/2), C order.

        The points are evaluated in blocks of at most _EVAL_BLOCK_BYTES of
        raw values (three blocks for the sup grid at band 24).  The
        transpose of each block's row-major raw values happens inside the
        normalization multiply that writes the block of the output: every
        value is the same product as in a column-by-column fill, and beside
        the output only one block of raw values is held, not a second full
        matrix.  Everything that depends on the basis alone (recurrence
        constants, destination rows, inverse norms) is tabulated once per
        basis, so a call does only arithmetic on its points.
        """
        pts = np.asarray(pts, dtype=float)
        out = np.empty((pts.shape[0], self.size))
        block = max(1, _EVAL_BLOCK_BYTES // (8 * self.size))
        for start in range(0, pts.shape[0], block):
            rows = slice(start, start + block)
            np.multiply(self._eval_raw(pts[rows]).T, self._inv_norms, out=out[rows])
        return out


def get_basis(cfg: WeightConfig, L):
    """Basis table for (cfg, L), built once and shared; the 64 most recently
    used tables stay cached."""
    if int(L) < 0:
        raise ValueError("band L = %d is negative; it must be >= 0" % int(L))
    return _basis_table(cfg, int(L))


@functools.lru_cache(maxsize=64)
def _basis_table(cfg, L):
    return IntervalBasis(cfg, L) if cfg.d == 1 else TriangleBasis(cfg, L)


def _point_matrix(d, x):
    """Points x as an (npts, d) array, and whether x was a single point.

    On the interval a point is a scalar and an array of points is 1-D; on
    the triangle a point is one (x1, x2) pair and an array of points has
    shape (npts, 2).  Any other shape raises a ValueError."""
    arr = np.asarray(x, dtype=float)
    if d == 1:
        if arr.ndim > 1:
            raise ValueError("d = 1 points must be a scalar or a 1-D array, "
                             "got shape %s" % (arr.shape,))
        return arr.reshape(-1, 1), arr.ndim == 0
    if arr.shape == (2,):
        return arr.reshape(1, 2), True
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("d = 2 points must be one (x1, x2) pair or an array "
                         "of shape (npts, 2), got shape %s" % (arr.shape,))
    return arr, False


def _at_points(cfg: WeightConfig, x, values):
    """values(points) at the points x, read by _point_matrix: a single point
    gives a float, an array of points an array."""
    pts, single = _point_matrix(cfg.d, x)
    vals = values(pts[:, 0] if cfg.d == 1 else pts)
    return float(vals[0]) if single else vals


def basis_eval(cfg: WeightConfig, ell, j, x):
    """Value of the j-th orthonormal basis polynomial of degree ell."""
    ell, j = int(ell), int(j)
    if ell < 0:
        raise ValueError("degree index must be >= 0")
    basis = get_basis(cfg, max(ell, default_band(cfg)))
    col = basis.flat_index(ell, j)
    return _at_points(cfg, x, lambda pts: basis.eval_all(pts)[:, col])


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
    return _at_points(coeffs.cfg, x, lambda pts: basis.eval_all(pts) @ coeffs.flat())


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
    return coeffs.scaled(_cesaro_block_factors(n, coeffs.max_degree))


@functools.lru_cache(maxsize=256)
def _cesaro_block_factors(n, L) -> np.ndarray:
    """cesaro_factors(n, range(L + 1)), cached and read-only."""
    factors = cesaro_factors(n, np.arange(L + 1))
    factors.setflags(write=False)
    return factors
