"""Apply the smoothing operator to concrete functions and watch it converge.

Three views: a table of ||M_n f - f||_p over a doubling ladder of degrees,
the exact eigenfunction action (a degree-ell basis polynomial comes back
scaled by mu(n, ell), nothing else), and a pointwise before/after profile
for a function with a kink.

Usage:
    python demos/operator_in_action.py
    python demos/operator_in_action.py --alpha 0.5,0.5 --f kink-abs --out errs.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from durrmeyer import (
    NormContext,
    WeightConfig,
    apply_durrmeyer,
    eigenvalue_mu,
    make_plan,
)
from durrmeyer.suite import get_suite

PS = (1.0, 2.0, math.inf)


def pick_function(name, cfg, seed):
    for tf in get_suite("full", cfg, seed):
        if tf.f_id == name:
            return tf
    raise SystemExit("unknown function id %r; try poly-00, eig-03, kink-abs" % name)


def error_table(cfg, tf, ns, band):
    ctx = NormContext.of(cfg, tf, band)
    print("operator error ||M_n f - f||_p for f = %s" % tf.f_id)
    print("%6s" % "n" + "".join("%14s" % ("p=%g" % p if p != math.inf else "p=inf")
                                for p in PS))
    rows = []
    for n in ns:
        errs = [ctx.op_error(n, p) for p in PS]
        print("%6d" % n + "".join("%14.6e" % e for e in errs))
        rows.append([n] + errs)
    # successive ratios show the saturation rate: smooth functions approach
    # the 1/n decay of the spectral gap, kinks are slower
    print("%6s" % "ratio" + "".join(
        "%14.3f" % (rows[-2][i + 1] / rows[-1][i + 1]) for i in range(len(PS))))
    return rows


def eigenfunction_action(cfg, n):
    print()
    print("eigenfunction action at n = %d: output = mu(n, ell) * input" % n)
    x = np.linspace(0.05, 0.95, 7)
    plan = make_plan(cfg, n, f_degree=8)
    for ell in (1, 3, 8):
        tf = pick_function("eig-%02d" % ell, cfg, seed=0)
        got = apply_durrmeyer(plan, tf, x)
        mu = eigenvalue_mu(cfg, n, ell)
        resid = np.max(np.abs(got - mu * tf(x)))
        print("  ell=%d  mu=%.10f  max residual %.2e" % (ell, mu, resid))


def kink_profile(cfg, n):
    print()
    print("pointwise smoothing of |x - 0.4| at n = %d" % n)
    tf = pick_function("kink-abs", cfg, seed=0)
    plan = make_plan(cfg, n, f_degree=3 * n, splits=tf.kinks)
    xs = np.array([0.2, 0.35, 0.4, 0.45, 0.6, 0.8])
    vals = apply_durrmeyer(plan, tf, xs)
    print("%8s %12s %12s" % ("x", "f(x)", "(M_n f)(x)"))
    for x, v in zip(xs, vals):
        print("%8.2f %12.6f %12.6f" % (x, abs(x - 0.4), v))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", default="0,0",
                    help="comma-separated weight exponents (default flat)")
    ap.add_argument("--f", default="poly-00", help="function id from the suite")
    ap.add_argument("--n-max", type=int, default=128)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--out", help="optional CSV with the error table")
    args = ap.parse_args(argv)

    alphas = tuple(float(tok) for tok in args.alpha.split(","))
    cfg = WeightConfig(1, alphas)
    tf = pick_function(args.f, cfg, args.seed)
    ns = [4]
    while ns[-1] * 2 <= args.n_max:
        ns.append(ns[-1] * 2)
    band = max(64, 2 * ns[-1]) if tf.kinks else max(64, ns[-1])
    rows = error_table(cfg, tf, ns, band)
    eigenfunction_action(cfg, 12)
    kink_profile(cfg, 24)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "err_p1", "err_p2", "err_sup"])
            for row in rows:
                writer.writerow([row[0]] + ["%.17g" % v for v in row[1:]])
        print()
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
