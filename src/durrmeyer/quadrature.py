"""Gauss-Jacobi rules on [0,1], tensorized simplex rules for d = 2, weighted
Lp norms, and the dense grids used for sup norms.

Rule weights always include the Jacobi weight itself, so integrating f against
the weighted measure is a plain dot product with f at the nodes.  Univariate
rules come from the Golub-Welsch eigenproblem (scipy's Jacobi nodes, mapped to
[0,1]); the simplex rule is the standard substitution x2 = t (1 - x1), which
turns the weighted triangle integral into a product of two univariate Jacobi
integrals with the extra (1-x1) factor absorbed into the outer exponent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .specfun import log_gamma
from .spectrum import WeightConfig, _whole

__all__ = [
    "ConstructionError",
    "QuadratureRule",
    "gauss_jacobi_rule",
    "interval_rule",
    "simplex_rule_2d",
    "lp_norm",
    "sup_grid",
    "sup_grid_2d",
    "weight_mass",
]


class ConstructionError(RuntimeError):
    """Raised when the underlying eigen-solver fails to build a rule."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    nodes: np.ndarray            # (m,) on [0,1] for d=1, (m,2) in the triangle for d=2
    weights: np.ndarray          # (m,), positive, Jacobi weight included

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def weight_mass(alphas) -> float:
    """Total mass of the Jacobi weight: the Dirichlet integral
    prod Gamma(a_i + 1) / Gamma(sum (a_i + 1))."""
    alphas = tuple(float(a) for a in alphas)
    num = sum(log_gamma(a + 1.0) for a in alphas)
    return float(np.exp(num - log_gamma(sum(alphas) + len(alphas))))


def _check_exponent(a, name):
    a = float(a)
    if a <= -1.0:
        raise ValueError(f"{name} must be > -1")
    return a


def gauss_jacobi_rule(a, b, m) -> QuadratureRule:
    """m-node Gauss rule on [0,1] for the weight x^a (1-x)^b, exact through
    degree 2m - 1.

    Rules are built once per (a, b, m) and shared: the 256 most recently
    used stay cached, and their arrays are read-only."""
    a = _check_exponent(a, "a")
    b = _check_exponent(b, "b")
    return _gauss_jacobi_rule(a, b, _whole(m, "node count m", positive=True))


@functools.lru_cache(maxsize=256)
def _gauss_jacobi_rule(a, b, m):
    try:
        # scipy weight is (1-x)^alpha (1+x)^beta on [-1,1]; our x^a maps to
        # the (1+x) factor and (1-x)^b to the (1-x) factor.
        t, w = roots_jacobi(m, b, a)
    except Exception as exc:  # pragma: no cover - solver failure path
        raise ConstructionError(f"Jacobi eigen-solver failed: {exc}") from exc
    nodes = 0.5 * (t + 1.0)
    weights = w * 2.0 ** (-(a + b + 1.0))
    # an exponent within about 1e-12 of -1 leaves the solver's weights
    # negative or NaN; raising here also keeps such a rule out of the cache
    bad = int(np.count_nonzero(~(np.isfinite(weights) & (weights > 0.0))))
    if bad:
        raise ConstructionError(
            "Gauss-Jacobi rule (a, b, m) = (%r, %r, %d) has %d weights that are "
            "not finite and positive" % (a, b, m, bad))
    return QuadratureRule(nodes, weights)


def interval_rule(alphas, m, splits=()) -> QuadratureRule:
    """Composite rule on [0,1] for the weight x^a1 (1-x)^a2, subdivided at the
    interior points in `splits` (kinks or jumps of the integrand).

    Each outer piece keeps its endpoint singularity exact via a mapped Jacobi
    rule; the weight factor belonging to the far endpoint is smooth on the
    piece and is folded into the weights pointwise.  With exponents (0, 0) the
    composite rule is exact for piecewise polynomials of degree <= 2m-1.
    """
    a1, a2 = (_check_exponent(v, "alpha") for v in alphas)
    splits = tuple(sorted(float(s) for s in splits))
    if any(not 0.0 < s < 1.0 for s in splits):
        raise ValueError("split points must be interior to (0, 1)")
    if not splits:
        return gauss_jacobi_rule(a1, a2, m)
    edges = (0.0,) + splits + (1.0,)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        length = hi - lo
        pa = a1 if lo == 0.0 else 0.0
        pb = a2 if hi == 1.0 else 0.0
        base = gauss_jacobi_rule(pa, pb, m)
        x = lo + length * base.nodes
        w = base.weights * length ** (pa + pb + 1.0)
        # fold in the weight factors not represented by the piece rule
        if lo != 0.0:
            w = w * x ** a1
        if hi != 1.0:
            w = w * (1.0 - x) ** a2
        nodes.append(x)
        weights.append(w)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights))


def simplex_rule_2d(cfg: WeightConfig, m) -> QuadratureRule:
    """Tensor rule on the triangle {x1, x2 >= 0, x1 + x2 <= 1}, exact for
    total degree <= m against the weight x1^a1 x2^a2 (1-x1-x2)^a3."""
    if cfg.d != 2:
        raise ValueError("simplex_rule_2d needs a d = 2 weight config")
    m = _whole(m, "target degree m")
    if m < 0:
        raise ValueError("target degree m must be a nonnegative integer, got %d" % m)
    a1, a2, a3 = cfg.alphas
    nodes_1d = m // 2 + 1
    outer = gauss_jacobi_rule(a1, a2 + a3 + 1.0, nodes_1d)
    inner = gauss_jacobi_rule(a2, a3, nodes_1d)
    s = outer.nodes[:, None]
    t = inner.nodes[None, :]
    x1 = np.broadcast_to(s, (nodes_1d, nodes_1d)).ravel()
    x2 = (t * (1.0 - s)).ravel()
    w = (outer.weights[:, None] * inner.weights[None, :]).ravel()
    return QuadratureRule(np.column_stack([x1, x2]), w)


def lp_norm(vals, rule: QuadratureRule, p) -> float:
    """Weighted Lp norm (sum w_i |v_i|^p)^(1/p) of the values v_i of a
    function at the nodes of `rule`, for a finite p >= 1.  Sup norms are
    a max over a grid, which the caller takes."""
    p = float(p)
    if not 1.0 <= p < np.inf:
        raise ValueError("p must be finite and >= 1, got %r" % p)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != rule.weights.shape:
        raise ValueError("function values do not match the node count")
    return float(np.dot(rule.weights, np.abs(vals) ** p) ** (1.0 / p))


_GRID_SIZE = 4097


def _chebyshev(lo, hi, count):
    k = np.arange(count, dtype=float)
    pts = 0.5 * (1.0 - np.cos(np.pi * k / (count - 1)))
    return lo + (hi - lo) * pts


def sup_grid() -> np.ndarray:
    """Fixed dense grid on [0,1] for sup norms: 4097 Chebyshev-spaced points
    with 4x extra density in a window at each endpoint.  Built once; the
    array is read-only."""
    return _sup_grid()


@functools.cache
def _sup_grid():
    base = _chebyshev(0.0, 1.0, _GRID_SIZE)
    window = base[128]
    left = _chebyshev(0.0, window, 513)
    right = 1.0 - left[::-1]
    grid = np.unique(np.concatenate([base, left, right]))
    grid.setflags(write=False)
    return grid


def sup_grid_2d() -> np.ndarray:
    """Chebyshev tensor grid clipped to the triangle, hypotenuse included.
    Built once; the array is read-only."""
    return _sup_grid_2d()


@functools.cache
def _sup_grid_2d():
    g = _chebyshev(0.0, 1.0, 129)
    x1, x2 = np.meshgrid(g, g, indexing="ij")
    keep = x1 + x2 <= 1.0 + 1e-12
    pts = np.column_stack([x1[keep], x2[keep]])
    hyp = np.column_stack([g, 1.0 - g])
    grid = np.vstack([pts, hyp])
    grid.setflags(write=False)
    return grid
