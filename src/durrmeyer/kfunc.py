"""K-functional estimation.

At p = 2 the infimum restricted to the spectral band is computed exactly by
diagonal shrinkage: a log-grid sweep over the trade-off parameter brackets
the minimizer, and a regula falsi on its first-order optimality condition
closes the bracket.  Orthogonality makes the band restriction optimal for
band-limited f.  For f with energy above the band the known tail norm is
carried through the fidelity term, which keeps the result an upper bound
while staying within tail-squared of the banded optimum.  For p other than
2 only upper bounds are produced, as the minimum over an explicit candidate
list, together with the operator-difference lower bound.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .operators import _P_factors, apply_durrmeyer_spectral, apply_P_spectral, build_g_n
from .orthopoly import (SpectralCoefficients, _cesaro_block_factors, _no_kinks_on_triangle,
                        get_basis, project)
from .quadrature import interval_rule, lp_norm, simplex_rule_2d, sup_grid, sup_grid_2d
from .spectrum import WeightConfig, _whole

_LAM2_GRID = np.exp(np.linspace(np.log(1e-18), np.log(1e18), 481))
# The search takes logs and exps with math.log / math.exp, never np.log /
# np.exp: numpy's SIMD versions differ from them in the last bit for some
# arguments, and the K values (and the report-all output built on them) are
# kept bit-identical to the one-t-per-call search.
_LOG_LAM2_GRID = np.array([math.log(v) for v in _LAM2_GRID])
# Width in log s at which a bracket counts as closed.  The objective is
# stationary at the minimizer, so an error d in log s moves K by O(d^2)
# relative: below an ulp at this width.
_X_TOL = 1e-9


@dataclass(frozen=True)
class KBracket:
    """Two-sided enclosure of a K-functional value with the candidate that
    realized the upper end."""

    lower: float
    upper: float
    witness: str

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper * (1.0 + 1e-9) + 1e-15:
            raise ValueError(
                "invalid bracket: lower=%r upper=%r" % (self.lower, self.upper))


def _p2_terms(b, lam, lam_sq, tail2, lam2):
    """sqrt(|f-g|^2 + tail^2) and |P g| at the diagonal shrinkage points
    g = b / (1 + lam2 * lam^2), one pair per lam2."""
    shrink = np.multiply.outer(lam2, lam_sq)
    shrink += 1.0
    np.divide(1.0, shrink, out=shrink)
    resid = 1.0 - shrink
    resid *= b
    resid *= resid
    fid = np.sqrt(resid.sum(axis=1) + tail2)
    shrink *= b
    shrink *= lam
    shrink *= shrink
    return fid, np.sqrt(shrink.sum(axis=1))


def _exp(xs):
    return np.array([math.exp(v) for v in xs])


def k_exact_p2(cfg: WeightConfig, f: SpectralCoefficients, t, tail_norm=0.0):
    """min over g of ||f - g||_2 + t ||P g||_2, over the band of f.

    The one-parameter family g(s) = f_ell / (1 + s lambda_ell^2) traces the
    Pareto frontier of the two norms.  Along it dA/ds = -s dB/ds < 0 for
    A = |f - g|^2 and B = |P g|^2, so the objective's slope has the sign of
    psi(s) = s sqrt(B) - t sqrt(A + tail^2), which changes sign once.  A
    log-grid sweep brackets the minimizer, and a safeguarded Illinois
    regula falsi on psi in log s closes the bracket; where psi does not
    change sign across it (t = 0, P f = 0, a minimizer at a grid edge) the
    grid value stands.  The limits keep-f (s = 0) and keep-mean (s = inf,
    the value at t = inf) bound the result.

    t may be a scalar (returns a float) or an array (returns an array of
    its shape): the searches for all t run in lockstep, one objective
    evaluation per step for every open bracket, and each gives the value of
    a call with that t alone.
    """
    t_arr = np.array(t, dtype=float)
    if not (t_arr >= 0.0).all():
        raise ValueError("t must be >= 0, got %r" % (t,))
    tail = float(tail_norm)
    if not 0.0 <= tail < math.inf:
        raise ValueError("tail_norm must be finite and >= 0, got %r" % (tail_norm,))
    tail2 = tail ** 2
    at_inf = t_arr.reshape(-1) == math.inf
    ts = np.where(at_inf, 0.0, t_arr.reshape(-1))  # t = inf is keep-mean below
    b = f.block_norms()
    lam = -_P_factors(cfg, f.max_degree)  # ell (ell + rho), a new array
    lam_sq = lam * lam
    fid, rough = _p2_terms(b, lam, lam_sq, tail2, _LAM2_GRID)
    values = fid + ts[:, None] * rough
    i = np.argmin(values, axis=1)
    best = values[np.arange(ts.size), i]
    ilo = np.maximum(i - 1, 0)
    ihi = np.minimum(i + 1, _LAM2_GRID.size - 1)
    psi_lo = _LAM2_GRID[ilo] * rough[ilo] - ts * fid[ilo]
    psi_hi = _LAM2_GRID[ihi] * rough[ihi] - ts * fid[ihi]
    idx = np.flatnonzero((psi_lo < 0.0) & (psi_hi > 0.0))
    lo, hi = _LOG_LAM2_GRID[ilo[idx]], _LOG_LAM2_GRID[ihi[idx]]
    psi_lo, psi_hi = psi_lo[idx], psi_hi[idx]
    kept = np.zeros(idx.size)  # end kept by the last step: -1 lo, +1 hi
    while idx.size:
        x = hi - psi_hi * ((hi - lo) / (psi_hi - psi_lo))
        off = ~((lo < x) & (x < hi))
        x[off] = 0.5 * (lo[off] + hi[off])
        s = _exp(x)
        fid, rough = _p2_terms(b, lam, lam_sq, tail2, s)
        t_open = ts[idx]
        best[idx] = np.minimum(best[idx], fid + t_open * rough)
        psi = s * rough - t_open * fid
        right = psi > 0.0  # the root lies left of x
        # Illinois: an end kept a second time in a row has its psi halved
        psi_lo[right & (kept < 0)] *= 0.5
        psi_hi[~right & (kept > 0)] *= 0.5
        hi = np.where(right, x, hi)
        psi_hi = np.where(right, psi, psi_hi)
        lo = np.where(right, lo, x)
        psi_lo = np.where(right, psi_lo, psi)
        kept = np.where(right, -1.0, 1.0)
        still = (hi - lo > _X_TOL) & (psi != 0.0)
        idx, lo, hi, psi_lo, psi_hi, kept = (
            a[still] for a in (idx, lo, hi, psi_lo, psi_hi, kept))
    # limits of the family: keep f (all fidelity in the tail) or keep only
    # the constant block (no roughness)
    keep_f = math.sqrt(tail2) + ts * float(np.sqrt(((lam * b) ** 2).sum()))
    keep_mean = math.sqrt(float((b[1:] * b[1:]).sum()) + tail2)
    out = np.where(at_inf, keep_mean, np.minimum(np.minimum(best, keep_f), keep_mean))
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _kink_tuple(kinks):
    """Kinks from any sequence or 1-D array, as a sorted tuple of floats."""
    return tuple(sorted(float(c) for c in kinks))


def sup_points(cfg: WeightConfig, kinks=()):
    """Dense max-norm grid, refined near any interior kink locations."""
    kinks = _kink_tuple(kinks)
    if cfg.d == 2:
        _no_kinks_on_triangle(kinks)
        return sup_grid_2d()
    base = sup_grid()
    if not kinks:
        return base
    extras = []
    for c in kinks:
        offsets = np.cos(np.linspace(0.0, np.pi, 257)) * 2e-4
        extras.append(np.clip(c + offsets, 0.0, 1.0))
        extras.append(np.array([c]))
    return np.unique(np.concatenate([base] + extras))


def norm_rule(cfg: WeightConfig, L, kinks=()):
    """Quadrature rule for finite-p norms of band-L synthesis against w."""
    L = _whole(L, "band L")
    if cfg.d == 1:
        return interval_rule(cfg.alphas, L + 24, splits=tuple(kinks))
    _no_kinks_on_triangle(kinks)
    return simplex_rule_2d(cfg, 2 * L + 8)


def leading_product(mat, flat):
    """mat @ flat from the leading columns that carry the nonzero entries of
    flat.  The trailing entries are exact zeros and add nothing, so only
    the order in which BLAS sums the products can change: a band-L
    operator output of degree n needs the first n+1 blocks only."""
    nonzero = flat.nonzero()[0]
    k = int(nonzero[-1]) + 1 if nonzero.size else 0
    return mat[:, :k] @ flat[:k]


# Sup-grid synthesis matrices, one per (cfg, band, kinks), shared while any
# holder keeps theirs and freed with the last one; the cache pins nothing.
_SUP_MATRICES = weakref.WeakValueDictionary()


def sup_matrix(cfg: WeightConfig, L, kinks=()):
    """Read-only band-L basis values on sup_points(cfg, kinks)."""
    L = _whole(L, "band L")
    kinks = _kink_tuple(kinks)
    key = (cfg, L, kinks)
    mat = _SUP_MATRICES.get(key)
    if mat is None:
        mat = get_basis(cfg, L).eval_all(sup_points(cfg, kinks))
        mat.flags.writeable = False
        _SUP_MATRICES[key] = mat
    return mat


class NormContext:
    """One measured function f, which every K bound on f takes: caches rule
    nodes, sup grid, basis synthesis matrices and f-values so repeated norms
    against f are matrix-vector products, ||M_n f - f||_p once per (n, p) and
    K(f, t)_p once per (t, p).

    Norms at p = 2 come from Parseval, so the synthesis matrices and the
    f-values on the grid are built on first use at another p; only f on
    the rule nodes is needed up front, for the tail norm.  A band-limited g
    is synthesized from its leading nonzero blocks only.  The sup-grid
    matrix is the one `sup_matrix` shares.  Coefficients on a weight other
    than cfg, and a g on a weight or band other than f's, raise."""

    def __init__(self, cfg, f_coeffs, f_fn=None, kinks=()):
        if f_coeffs.cfg is not cfg and f_coeffs.cfg != cfg:
            raise ValueError("coefficients on the weight %s given to a norm context on %s"
                             % (f_coeffs.cfg.alphas, cfg.alphas))
        self.cfg = cfg
        self.coeffs = f_coeffs
        self.kinks = tuple(kinks)
        self.rule = norm_rule(cfg, f_coeffs.max_degree, self.kinks)
        self.grid = sup_points(cfg, self.kinks)
        self._basis = get_basis(cfg, f_coeffs.max_degree)
        self._f_fn = f_fn
        if f_fn is not None:
            energy = self.coeffs.norm2() ** 2
            total = lp_norm(self.f_rule, self.rule, 2) ** 2
            self.tail_norm = math.sqrt(max(total - energy, 0.0))
        else:
            # f is its own band synthesis, so the tail is zero by
            # construction; recomputing it through quadrature would
            # leave rounding noise that op_error treats as a real tail.
            self.tail_norm = 0.0
        self._errors = {}  # ||M_n f - f||_p per (n, p)
        self._kvals = {}  # K(f, t)_p per (t, p)

    @classmethod
    def of(cls, cfg, f, band):
        """The context of a suite function f.  One of known degree is
        projected at that degree and is its own band synthesis; any other is
        projected at `band` and measured on f itself, with its kinks."""
        if f.degree is not None:
            return cls(cfg, project(f, cfg, f.degree))
        return cls(cfg, project(f, cfg, band), f_fn=f, kinks=f.kinks)

    @functools.cached_property
    def mat_rule(self):
        return self._basis.eval_all(self.rule.nodes)

    @functools.cached_property
    def mat_grid(self):
        return sup_matrix(self.cfg, self.coeffs.max_degree, self.kinks)

    @functools.cached_property
    def f_rule(self):
        if self._f_fn is not None:
            return np.asarray(self._f_fn(self.rule.nodes), dtype=float)
        return self.mat_rule @ self.coeffs.flat()

    @functools.cached_property
    def f_grid(self):
        if self._f_fn is not None:
            return np.asarray(self._f_fn(self.grid), dtype=float)
        return self.mat_grid @ self.coeffs.flat()

    def _check_band(self, g):
        f = self.coeffs
        if (g.cfg is not f.cfg and g.cfg != f.cfg) or (
                g.offsets is not f.offsets and g.max_degree != f.max_degree):
            raise ValueError("g on the weight %s at band %d, not f's %s at band %d"
                             % (g.cfg.alphas, g.max_degree, f.cfg.alphas, f.max_degree))

    def norm_diff(self, g: SpectralCoefficients, p):
        """||f - g||_p for g on f's weight and band."""
        self._check_band(g)
        if p == 2:
            band = self.coeffs - g
            return math.sqrt(band.norm2() ** 2 + self.tail_norm ** 2)
        flat = g.flat()
        if p == math.inf:
            return float(np.max(np.abs(self.f_grid - leading_product(self.mat_grid, flat))))
        return lp_norm(self.f_rule - leading_product(self.mat_rule, flat), self.rule, p)

    def norm_band(self, g: SpectralCoefficients, p):
        """||g||_p for g on f's weight and band."""
        self._check_band(g)
        if p == 2:
            return g.norm2()
        flat = g.flat()
        if p == math.inf:
            return float(np.max(np.abs(leading_product(self.mat_grid, flat))))
        return lp_norm(leading_product(self.mat_rule, flat), self.rule, p)

    def op_error(self, n, p):
        """||M_n f - f||_p; with a tail above the band, n must be in it."""
        if (n, p) not in self._errors:
            g = apply_durrmeyer_spectral(self.cfg, n, self.coeffs)
            if self.tail_norm > 0.0 and n > self.coeffs.max_degree:
                raise ValueError("band too small to apply the degree-n operator exactly")
            self._errors[n, p] = self.norm_diff(g, p)
        return self._errors[n, p]

    def kvalues(self, ts, p):
        """K(f, t)_p for each t: the exact banded K at p = 2, all new t in
        one batched search; the candidate upper bound otherwise."""
        todo = [t for t in ts if (t, p) not in self._kvals]
        if todo:
            if p == 2:
                vals = k_exact_p2(self.cfg, self.coeffs, todo,
                                  tail_norm=self.tail_norm).tolist()
            else:
                vals = [k_upper_detail(self, t, p)[0] for t in todo]
            self._kvals.update(((t, p), v) for t, v in zip(todo, vals))
        return [self._kvals[t, p] for t in ts]


def default_candidates(ctx: NormContext, t):
    """Candidate smoothing functions of ctx's f: the operator at a dyadic
    ladder of degrees, the averaged smoother, and Cesaro means near degree 1/t."""
    cfg, f = ctx.cfg, ctx.coeffs
    L = f.max_degree
    band_limited = ctx.tail_norm == 0.0
    n = max(1, int(math.ceil(1.0 / max(float(t), 1e-300) - 1e-12)))
    out = [("zero", f * 0.0)]
    # For band-limited f the diagonal action reproduces the true operator at
    # every degree; with unresolved tail energy only degrees k <= L do.
    for k in (n, 2 * n, 4 * n):
        if band_limited or k <= L:
            out.append(("durrmeyer-%d" % k, apply_durrmeyer_spectral(cfg, k, f)))
    if band_limited or 2 * n <= L:
        out.append(("avg-smoother-%d" % n, build_g_n(cfg, n, f)[0]))
    for m in (n, 2 * n):
        if band_limited or m <= L:
            out.append(("cesaro-%d" % m, f.scaled(_cesaro_block_factors(m, L))))
    return out


def k_upper_detail(ctx: NormContext, t, p):
    """Minimum of ||f-g||_p + t ||P g||_p over the candidates for ctx's f;
    returns (value, witness).  A valid upper bound for the K-functional.  At
    p = 2 the banded optimum, read from ctx.kvalues, joins the candidates."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError("t must be >= 0, got %r" % t)
    best, name = math.inf, "none"
    for label, g in default_candidates(ctx, t):
        rough = ctx.norm_band(apply_P_spectral(ctx.cfg, g), p)
        # a candidate with P g = 0 pays no penalty, also at t = inf
        val = ctx.norm_diff(g, p) + (t * rough if rough else 0.0)
        if val < best:
            best, name = val, label
    if p == 2:
        val = ctx.kvalues([t], 2)[0]
        if val <= best:
            best, name = val, "band-optimal"
    return best, name


def k_lower(ctx: NormContext, n, p) -> float:
    """||M_n f - f||_p / 2 for ctx's f, the direct-estimate lower bound at t = 1/n."""
    return 0.5 * ctx.op_error(n, p)


def k_bracket(cfg: WeightConfig, f: SpectralCoefficients, n, p, *,
              ctx: NormContext = None) -> KBracket:
    """Lower and upper estimates of K(f, 1/n)_p from one shared context of f."""
    ctx = ctx if ctx is not None else NormContext(cfg, f)
    if not (ctx.cfg == cfg == f.cfg and np.array_equal(ctx.coeffs.flat(), f.flat())):
        raise ValueError("the context measures another function than f")
    return KBracket(k_lower(ctx, n, p), *k_upper_detail(ctx, 1.0 / n, p))
