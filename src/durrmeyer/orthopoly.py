"""Orthonormal polynomial eigenbasis, projections, partial sums, Cesaro means.

Functions are represented blockwise by total degree: block ell spans the
degree-ell eigenspace of the Durrmeyer operator, so every operator downstream
acts on a coefficient vector by scalar factors per block.  Any orthonormal
basis of each block works for that purpose.

On [0,1] the basis comes from the classical three-term recurrence, whose
coefficients for a Jacobi weight are known in closed form.  On the triangle
it is Koornwinder's product of two such interval families, one in x1 and
one in x2 / (1 - x1); the inner factor is kept in homogenized form so
evaluation has no division by 1 - x1.  No quadrature rule stands behind
either basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import interval_rule, simplex_rule_2d, weight_mass
from .spectrum import WeightConfig, _whole

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


def _jacobi_recurrence(a1, a2, L):
    """Monic three-term recurrence coefficients (a, b), degrees 0..L, of the
    weight x^a1 (1-x)^a2 on [0, 1]: the Jacobi coefficients of DLMF 18.9
    moved to [0, 1].  b[0] is the total mass; a[0] and b[1] take their own
    forms, as the general ones are 0/0 at a1 + a2 = 0 and at -1."""
    k = np.arange(L + 1.0)
    s = 2.0 * k + a1 + a2
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 0.5 + (a1 - a2) * (a1 + a2) / (2.0 * s * (s + 2.0))
        b = k * (k + a1) * (k + a2) * (k + a1 + a2) / (s * s * (s + 1.0) * (s - 1.0))
    a[0] = (a1 + 1.0) / (a1 + a2 + 2.0)
    b[0] = weight_mass((a1, a2))
    b[1:2] = (a1 + 1.0) * (a2 + 1.0) / ((a1 + a2 + 2.0) ** 2 * (a1 + a2 + 3.0))
    return a, b


class IntervalBasis:
    """Orthonormal polynomials on [0,1] for the weight x^a1 (1-x)^a2."""

    def __init__(self, cfg: WeightConfig, L):
        if cfg.d != 1:
            raise ValueError("IntervalBasis needs d = 1")
        self.cfg = cfg
        self.L = int(L)
        self._rec_a, rec_b = _jacobi_recurrence(*cfg.alphas, self.L)
        self._rec_sqb = np.sqrt(rec_b)
        self.size = self.L + 1

    def eval_all(self, x) -> np.ndarray:
        """Matrix of basis values, shape (npoints, L+1), Fortran order: the
        transpose of a C-order (L+1, npoints) array filled one degree row at
        a time, a view with no copy, so every leading block of columns is
        contiguous.  Each row is ((x - a_k) p_k - sqrt(b_k) p_{k-1})
        / sqrt(b_{k+1}), computed in place in that order, so the values
        keep their bits; beside the output one vector is held.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rows = np.empty((self.L + 1, x.size))
        a, sqb = self._rec_a, self._rec_sqb
        rows[0] = 1.0 / sqb[0]
        term = np.zeros(x.size)  # sqrt(b_k) p_{k-1}, an exact zero at k = 0
        for k in range(self.L):
            row = np.subtract(x, a[k], out=rows[k + 1])
            row *= rows[k]
            row -= term
            row /= sqb[k + 1]
            np.multiply(sqb[k + 1], rows[k], out=term)
        return rows.T

    def flat_index(self, ell, j):
        if not 0 <= ell <= self.L:
            raise ValueError("degree index out of range")
        if j != 0:
            raise ValueError("d = 1 blocks have a single basis polynomial")
        return ell


class TriangleBasis:
    """Orthonormal total-degree basis on the triangle for d = 2 weights.

    phi_{ell,j}(x) = q_{ell-j}(x1) (1-x1)^j r_j(x2 / (1-x1)), with r the
    orthonormal family of t^a2 (1-t)^a3 and q that of
    x1^a1 (1-x1)^(2j+a2+a3+1) on [0, 1] (Koornwinder's basis, DLMF 18.37).
    The substitution x2 = t (1-x1) splits every weighted inner product into
    one integral per factor, so the basis is orthonormal by construction.
    Both factors take the closed-form recurrence of IntervalBasis, and no
    quadrature rule is involved.
    """

    def __init__(self, cfg: WeightConfig, L):
        if cfg.d != 2:
            raise ValueError("TriangleBasis needs d = 2")
        self.cfg = cfg
        self.L = L = int(L)
        self.size = (L + 1) * (L + 2) // 2
        a1, a2, a3 = cfg.alphas
        # Recurrence tables, which depend on the weight and the band only:
        # (a, sqrt b) of the inner family r, and for the outer step m rows
        # [m, j] over the inner index j of the families q; outer step m
        # writes rows _rows[m, :L-m+1].
        rec_a, rec_b = _jacobi_recurrence(a2, a3, L)
        self._inner = (rec_a, np.sqrt(rec_b))
        outer = [_jacobi_recurrence(a1, 2.0 * j + a2 + a3 + 1.0, L) for j in range(L + 1)]
        self._outer_a = np.stack([a for a, _ in outer], axis=1)
        self._outer_sqb = np.sqrt(np.stack([b for _, b in outer], axis=1))
        j = np.arange(L + 1)
        self._rows = (j[:, None] + j) * (j[:, None] + j + 1) // 2 + j
        for table in (*self._inner, self._outer_a, self._outer_sqb, self._rows):
            table.flags.writeable = False

    def flat_index(self, ell, j):
        if not 0 <= ell <= self.L:
            raise ValueError("degree index out of range")
        if not 0 <= j <= ell:
            raise ValueError("intra-degree index out of range")
        return ell * (ell + 1) // 2 + j

    def _eval_raw(self, pts) -> np.ndarray:
        """Basis values, shape ((L+1)(L+2)/2, npoints), C order.

        Row flat_index(ell, j) holds phi_{ell,j} = q_{ell-j}(x1) R_j.  The
        outer recurrence runs once per distinct x1 (on the points themselves
        when none repeats), one degree step m for every inner index j at
        once, into rows of a table that one gather spreads to the points;
        each degree's rows are then multiplied in place by R_0..R_ell.  Per
        value the float operations are those of IntervalBasis's column fill
        for each j, in the same order (the first step also subtracts an
        exact zero), then one product q R, so the values keep their bits.
        """
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[:, 0], pts[:, 1]
        npts, L = x1.size, self.L

        # homogenized inner factors R_k = s^k r_k(x2 / s), s = 1 - x1:
        # R_{k+1} = ((x2 - a_k s) R_k - sqrt(b_k) s^2 R_{k-1}) / sqrt(b_{k+1})
        s = 1.0 - x1
        s2 = s * s
        a, sqb = self._inner
        inner = np.empty((L + 1, npts))
        inner[0] = 1.0 / sqb[0]
        if L >= 1:
            inner[1] = (x2 - a[0] * s) * inner[0] / sqb[1]
        for k in range(1, L):
            inner[k + 1] = ((x2 - a[k] * s) * inner[k] - sqb[k] * s2 * inner[k - 1]) / sqb[k + 1]

        # outer factors q_m(x1) of family j in row j of p_cur, j = 0..L-m;
        # p_prev starts at zero, so step 0 gives (x1 - a_0) q_0 / sqrt(b_1)
        xs, inv = np.unique(x1, return_inverse=True)
        xs = x1 if xs.size == npts else xs
        a, sqb = self._outer_a, self._outer_sqb
        table = np.empty((self.size, xs.size))
        p_prev = np.zeros((L + 1, xs.size))
        p_cur = np.empty((L + 1, xs.size))
        p_cur[:] = (1.0 / sqb[0])[:, None]
        tmp = np.empty((L + 1, xs.size))
        for m in range(L + 1):
            k = L - m + 1
            table[self._rows[m, :k]] = p_cur[:k]
            if m == L:
                break
            # p_next = ((x1 - a_m) p_cur - sqrt(b_m) p_prev) / sqrt(b_{m+1}),
            # into p_prev's rows
            c = np.multiply(sqb[m, :k - 1, None], p_prev[:k - 1], out=tmp[:k - 1])
            p_next = np.subtract(xs, a[m, :k - 1, None], out=p_prev[:k - 1])
            p_next *= p_cur[:k - 1]
            p_next -= c
            p_next /= sqb[m + 1, :k - 1, None]
            p_prev, p_cur = p_cur, p_next
        out = table if xs is x1 else np.take(table, inv, axis=1)
        for ell in range(L + 1):
            out[ell * (ell + 1) // 2:][:ell + 1] *= inner[:ell + 1]
        return out

    def eval_all(self, pts) -> np.ndarray:
        """Matrix of basis values, shape (npoints, (L+1)(L+2)/2), Fortran
        order: the transpose of _eval_raw's rows, a view with no copy, so
        each basis function's values are one contiguous column.
        Everything that depends on the basis alone (recurrence constants,
        destination rows) is tabulated once per basis, so a call does only
        arithmetic on its points.
        """
        return self._eval_raw(pts).T


def get_basis(cfg: WeightConfig, L):
    """Basis table for (cfg, L), built once and shared; the 64 most recently
    used tables stay cached."""
    L = _whole(L, "band L")
    if L < 0:
        raise ValueError("band L = %d is negative; it must be >= 0" % L)
    return _basis_table(cfg, L)


@functools.lru_cache(maxsize=64)
def _basis_table(cfg, L):
    return IntervalBasis(cfg, L) if cfg.d == 1 else TriangleBasis(cfg, L)


def _point_matrix(d, x):
    """Points x as an (npts, d) array, and whether x was a single point.

    On the interval a point is a scalar and an array of points is 1-D; on
    the triangle a point is one (x1, x2) pair and an array of points has
    shape (npts, 2).  Any other shape, and any point that _require_in_domain
    rejects, raises a ValueError."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 0 if d == 1 else arr.shape == (2,)
    if d == 1 and arr.ndim > 1:
        raise ValueError("d = 1 points must be a scalar or a 1-D array, "
                         "got shape %s" % (arr.shape,))
    if d == 2 and not single and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ValueError("d = 2 points must be one (x1, x2) pair or an array "
                         "of shape (npts, 2), got shape %s" % (arr.shape,))
    pts = arr.reshape(-1, d)
    _require_in_domain(pts)
    return pts, single


def _require_in_domain(pts):
    """Raise a ValueError naming the first row of an (npts, d) point array
    that is not finite, or else the first that lies more than 1e-12 outside
    the closed domain; the slack absorbs rounding at the boundary."""
    bad = ~np.isfinite(pts).all(axis=1)
    what = "non-finite evaluation point %s at row %d"
    if not bad.any():
        bad = (pts < -1e-12).any(axis=1) | (1.0 - pts.sum(axis=1) < -1e-12)
        what = "evaluation point %s at row %d is outside the closed domain"
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(what % (pts[row].tolist(), row))


def _at_points(cfg: WeightConfig, x, values):
    """values(points) at the points x, read by _point_matrix: a single point
    gives a float, an array of points an array."""
    pts, single = _point_matrix(cfg.d, x)
    vals = values(pts[:, 0] if cfg.d == 1 else pts)
    return float(vals[0]) if single else vals


def basis_eval(cfg: WeightConfig, ell, j, x):
    """Value of the j-th orthonormal basis polynomial of degree ell."""
    ell, j = _whole(ell, "degree ell"), _whole(j, "index j")
    if ell < 0:
        raise ValueError("degree index must be >= 0")
    basis = get_basis(cfg, max(ell, default_band(cfg)))
    col = basis.flat_index(ell, j)
    return _at_points(cfg, x, lambda pts: basis.eval_all(pts)[:, col])


def _no_kinks_on_triangle(kinks):
    """The simplex rules take no kink splits, so any kink on the triangle
    raises."""
    if kinks:
        raise ValueError("kink splits are only supported for d = 1")


def projection_rule(cfg: WeightConfig, L, f_degree=None, splits=()):
    """Quadrature rule adequate for projecting f onto degrees <= L.

    For polynomial f pass its degree; for functions with interior kinks pass
    the kink locations so each smooth piece gets its own panel.
    """
    L = _whole(L, "band L")
    fdeg = _whole(f_degree, "f_degree") if f_degree is not None else L + 40
    need = L + fdeg + 8
    if cfg.d == 1:
        return interval_rule(cfg.alphas, need, splits=tuple(splits))
    _no_kinks_on_triangle(splits)
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
    n = _whole(n, "truncation degree")
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
