"""K-functional estimation.

At p = 2 the infimum restricted to the spectral band is computed exactly by
diagonal shrinkage plus a one-dimensional search over the trade-off
parameter; orthogonality makes the band restriction optimal for
band-limited f.  For f with energy above the band the known tail norm is
carried through the fidelity term, which keeps the result an upper bound
while staying within tail-squared of the banded optimum.  For p other than
2 only upper bounds are produced, as the minimum over an explicit candidate
list, together with the operator-difference lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import apply_durrmeyer_spectral, apply_P_spectral, build_g_n
from .orthopoly import SpectralCoefficients, cesaro_factors, get_basis
from .quadrature import interval_rule, lp_norm, simplex_rule_2d, sup_grid, sup_grid_2d
from .spectrum import WeightConfig

_LAM2_GRID = np.exp(np.linspace(np.log(1e-18), np.log(1e18), 481))
# The search takes logs and exps with math.log / math.exp, never np.log /
# np.exp: numpy's SIMD versions differ from them in the last bit for some
# arguments, and the K values (and the report-all output built on them) are
# kept bit-identical to the one-t-per-call search.
_LOG_LAM2_GRID = np.array([math.log(v) for v in _LAM2_GRID])
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _lambda_factors(cfg: WeightConfig, L) -> np.ndarray:
    ell = np.arange(L + 1, dtype=float)
    return ell * (ell + cfg.rho)


def _p2_value(b, lam, lam_sq, t, tail2, lam2):
    """Objective sqrt(|f-g|^2 + tail^2) + t |P g| at the diagonal shrinkage
    points g = b / (1 + lam2 * lam^2), one per lam2; t broadcasts against
    them."""
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
    return fid + t * np.sqrt(shrink.sum(axis=1))


def _exp(xs):
    return np.array([math.exp(v) for v in xs])


def k_exact_p2(cfg: WeightConfig, f: SpectralCoefficients, t, tail_norm=0.0):
    """min over g of ||f - g||_2 + t ||P g||_2, over the band of f.

    The one-parameter family g(s) = f_ell / (1 + s lambda_ell^2) traces the
    Pareto frontier of the two norms; a log-grid sweep plus golden-section
    refinement locates the minimizing s deterministically.  t may be a
    scalar (returns a float) or an array (returns an array of its shape):
    the searches for all t run in lockstep, one objective evaluation per
    step for every t, and each gives the value of a call with that t alone.
    """
    t_arr = np.array(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be >= 0")
    ts = t_arr.reshape(-1)
    tail2 = float(tail_norm) ** 2
    b = f.block_norms()
    lam = _lambda_factors(cfg, f.max_degree)
    lam_sq = lam * lam
    values = _p2_value(b, lam, lam_sq, ts[:, None], tail2, _LAM2_GRID)
    i = np.argmin(values, axis=1)
    best = values[np.arange(ts.size), i]
    lo = _LOG_LAM2_GRID[np.maximum(i - 1, 0)]
    hi = _LOG_LAM2_GRID[np.minimum(i + 1, _LAM2_GRID.size - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _p2_value(b, lam, lam_sq, ts, tail2, _exp(x1))
    f2 = _p2_value(b, lam, lam_sq, ts, tail2, _exp(x2))
    # Per-t search state [lo, x1, x2, hi, f1, f2] in Python floats: on
    # arrays of a few dozen entries numpy's per-call cost exceeds this
    # bookkeeping, while the objective is evaluated for all t at once.
    state = [list(row) for row in zip(lo.tolist(), x1.tolist(), x2.tolist(),
                                      hi.tolist(), f1.tolist(), f2.tolist())]
    for _ in range(72):
        moves = []
        for row in state:
            lo, x1, x2, hi, f1, f2 = row
            if f1 <= f2:
                # keep [lo, x2]; x1 becomes its upper interior point
                row[:] = lo, None, x1, x2, None, f1
                moves.append((1, x2 - _GOLDEN * (x2 - lo)))
            else:
                # keep [x1, hi]; x2 becomes its lower interior point
                row[:] = x1, x2, None, hi, f2, None
                moves.append((2, x1 + _GOLDEN * (hi - x1)))
        f_new = _p2_value(b, lam, lam_sq, ts, tail2, _exp([x for _, x in moves]))
        for row, (slot, x), fx in zip(state, moves, f_new.tolist()):
            row[slot], row[slot + 3] = x, fx
    best = np.minimum(best, [min(row[4], row[5]) for row in state])
    # limits of the family: keep f (all fidelity in the tail) or keep only
    # the constant block (no roughness)
    keep_f = math.sqrt(tail2) + ts * float(np.sqrt(((lam * b) ** 2).sum()))
    keep_mean = math.sqrt(float((b[1:] * b[1:]).sum()) + tail2)
    out = np.minimum(np.minimum(best, keep_f), keep_mean)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def sup_points(cfg: WeightConfig, kinks=()):
    """Dense max-norm grid, refined near any interior kink locations."""
    if cfg.d == 2:
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
    if cfg.d == 1:
        return interval_rule(cfg.alphas, int(L) + 24, splits=tuple(kinks))
    return simplex_rule_2d(cfg, 2 * int(L) + 8)


class NormContext:
    """Caches rule nodes, sup grid, basis synthesis matrices and f-values so
    repeated norms against one f are matrix-vector products."""

    def __init__(self, cfg, f_coeffs, f_fn=None, kinks=(), rule=None, grid=None):
        self.cfg = cfg
        self.coeffs = f_coeffs
        self.kinks = tuple(kinks)
        self.rule = rule if rule is not None else norm_rule(cfg, f_coeffs.max_degree, self.kinks)
        self.grid = grid if grid is not None else sup_points(cfg, self.kinks)
        basis = get_basis(cfg, f_coeffs.max_degree)
        self.mat_rule = basis.eval_all(self.rule.nodes)
        self.mat_grid = basis.eval_all(self.grid)
        if f_fn is not None:
            self.f_rule = np.asarray(f_fn(self.rule.nodes), dtype=float)
            self.f_grid = np.asarray(f_fn(self.grid), dtype=float)
            energy = self.coeffs.norm2() ** 2
            total = lp_norm(self.f_rule, self.rule, 2) ** 2
            self.tail_norm = math.sqrt(max(total - energy, 0.0))
        else:
            # f is its own band synthesis, so the tail is zero by
            # construction; recomputing it through quadrature would
            # leave rounding noise that k_lower treats as a real tail.
            flat = f_coeffs.flat()
            self.f_rule = self.mat_rule @ flat
            self.f_grid = self.mat_grid @ flat
            self.tail_norm = 0.0

    def norm_f(self, p):
        if p == math.inf:
            return float(np.max(np.abs(self.f_grid)))
        return lp_norm(self.f_rule, self.rule, p)

    def norm_diff(self, g: SpectralCoefficients, p):
        """||f - g||_p for band-limited g."""
        if p == 2:
            band = self.coeffs - g
            return math.sqrt(band.norm2() ** 2 + self.tail_norm ** 2)
        flat = g.flat()
        if p == math.inf:
            return float(np.max(np.abs(self.f_grid - self.mat_grid @ flat)))
        return lp_norm(self.f_rule - self.mat_rule @ flat, self.rule, p)

    def norm_band(self, g: SpectralCoefficients, p):
        """||g||_p for band-limited g."""
        if p == 2:
            return g.norm2()
        flat = g.flat()
        if p == math.inf:
            return float(np.max(np.abs(self.mat_grid @ flat)))
        return lp_norm(self.mat_rule @ flat, self.rule, p)


def default_candidates(cfg: WeightConfig, f: SpectralCoefficients, t,
                       band_limited=True):
    """Candidate smoothing functions: the operator at a dyadic ladder of
    degrees, the averaged smoother, and Cesaro means near degree 1/t."""
    L = f.max_degree
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
            factors = cesaro_factors(m, np.arange(L + 1))
            out.append(("cesaro-%d" % m, f.scaled(factors)))
    return out


def k_upper_detail(cfg: WeightConfig, f: SpectralCoefficients, t, p, *,
                   ctx: NormContext = None, candidates=None, exact=None):
    """Minimum of ||f-g||_p + t ||P g||_p over the candidates; returns
    (value, witness).  A valid upper bound for the K-functional.

    At p = 2 the banded optimum k_exact_p2 joins the candidates; a caller
    that already holds it for this t and ctx.tail_norm passes it as `exact`
    and the search is not repeated."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if ctx is None:
        ctx = NormContext(cfg, f)
    if candidates is None:
        candidates = default_candidates(cfg, f, t,
                                        band_limited=ctx.tail_norm == 0.0)
    best, name = math.inf, "none"
    for label, g in candidates:
        val = ctx.norm_diff(g, p) + t * ctx.norm_band(apply_P_spectral(cfg, g), p)
        if val < best:
            best, name = val, label
    if p == 2:
        val = exact if exact is not None else \
            k_exact_p2(cfg, f, t, tail_norm=ctx.tail_norm)
        if val <= best:
            best, name = val, "band-optimal"
    return best, name


def k_upper(cfg: WeightConfig, f: SpectralCoefficients, t, p, *,
            ctx: NormContext = None, candidates=None) -> float:
    return k_upper_detail(cfg, f, t, p, ctx=ctx, candidates=candidates)[0]


def k_lower(cfg: WeightConfig, f: SpectralCoefficients, n, p, *,
            ctx: NormContext = None) -> float:
    """||M_n f - f||_p / 2, the direct-estimate lower bound at t = 1/n."""
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if ctx is None:
        ctx = NormContext(cfg, f)
    if ctx.tail_norm > 0.0 and n > f.max_degree:
        raise ValueError("band too small to apply the degree-n operator exactly")
    return 0.5 * ctx.norm_diff(apply_durrmeyer_spectral(cfg, n, f), p)


def k_bracket(cfg: WeightConfig, f: SpectralCoefficients, n, p, *,
              ctx: NormContext = None) -> KBracket:
    """Lower and upper estimates of K(f, 1/n)_p from one shared context."""
    if ctx is None:
        ctx = NormContext(cfg, f)
    lower = k_lower(cfg, f, n, p, ctx=ctx)
    upper, witness = k_upper_detail(cfg, f, 1.0 / n, p, ctx=ctx)
    return KBracket(lower, upper, witness)
