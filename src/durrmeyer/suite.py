"""Named test functions for the verification runs.

Three families: seeded random polynomials (degree 8), single weighted
eigenfunctions, and functions with one interior kink.  Every entry carries
the metadata the projection and norm code needs: polynomial degree when
exact, kink locations for split quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import basis_eval
from .spectrum import WeightConfig

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class TestFunction:
    f_id: str
    fn: object
    d: int = 1
    degree: int = None
    kinks: tuple = ()

    def __call__(self, x):
        return self.fn(x)


def polynomial_suite(seed=DEFAULT_SEED, count=20, degree=8):
    """Random monomial-basis polynomials with coefficients uniform on
    [-1, 1); reproducible from the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)

        def fn(x, c=coeffs):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

        out.append(TestFunction("poly-%02d" % i, fn, d=1, degree=degree))
    return out


def eigenfunction_suite(cfg: WeightConfig, ells=(1, 2, 3, 5, 8)):
    """Unit-norm eigenfunctions of the operator family for this weight."""
    out = []
    for ell in ells:
        def fn(x, e=int(ell)):
            return basis_eval(cfg, e, 0, x)

        out.append(TestFunction("eig-%02d" % ell, fn, d=cfg.d, degree=int(ell)))
    return out


def kink_suite():
    """Functions smooth away from one interior point, ordered by decreasing
    smoothness at the kink."""

    def absdev(x):
        return np.abs(np.asarray(x, dtype=float) - 0.4)

    def powdev(x):
        return np.abs(np.asarray(x, dtype=float) - 0.6) ** 1.5

    def step(x):
        return np.where(np.asarray(x, dtype=float) >= 0.55, 1.0, 0.0)

    return [
        TestFunction("kink-abs", absdev, d=1, kinks=(0.4,)),
        TestFunction("kink-pow15", powdev, d=1, kinks=(0.6,)),
        TestFunction("kink-step", step, d=1, kinks=(0.55,)),
    ]


# suites with members defined on the interval only
INTERVAL_ONLY_SUITES = ("poly", "kink", "full", "smoke")


def get_suite(name, cfg: WeightConfig, seed=DEFAULT_SEED):
    """Suite by name: full, poly, eig, kink, or smoke (small cross-section).
    Only eig has members on the triangle."""
    if cfg.d != 1 and name in INTERVAL_ONLY_SUITES:
        raise ValueError("suite %r contains interval-only functions; with d = %d "
                         "use the eig suite" % (name, cfg.d))
    if name == "poly":
        return polynomial_suite(seed)
    if name == "eig":
        return eigenfunction_suite(cfg)
    if name == "kink":
        return kink_suite()
    if name == "full":
        return polynomial_suite(seed) + eigenfunction_suite(cfg) + kink_suite()
    if name == "smoke":
        return (polynomial_suite(seed, count=3)
                + eigenfunction_suite(cfg, ells=(1, 3))
                + kink_suite()[:1])
    raise ValueError("unknown suite %r (use full, poly, eig, kink, smoke)" % name)
