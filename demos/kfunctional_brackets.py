"""Two-sided K-functional estimates and what realizes them.

K(f, t)_p balances fidelity against smoothness: the infimum over g of
||f - g||_p + t ||P g||_p, with P the second-order operator tied to the
weight.  At p = 2 the band-restricted value is computed exactly; at other p
the upper end comes from a candidate ladder of smoothers and the lower end
from the operator error at degree n = 1/t.  The printed witness names which
candidate won.

Usage:
    python demos/kfunctional_brackets.py
    python demos/kfunctional_brackets.py --f kink-step --p 1 2 inf --out kf.csv
"""

import argparse
import csv
import math
import sys

from durrmeyer import (
    NormContext,
    WeightConfig,
    k_exact_p2,
    k_lower,
    k_upper_detail,
)
from durrmeyer.suite import get_suite


def parse_p(tokens):
    out = []
    for tok in tokens:
        out.append(math.inf if tok in ("inf", "oo") else float(tok))
    return out


def bracket_table(cfg, tf, ns, ps, band):
    ctx = NormContext.of(cfg, tf, band)
    coeffs = ctx.coeffs
    print("K(f, 1/n)_p brackets for f = %s (tail %.3e)" % (tf.f_id, ctx.tail_norm))
    print("%4s %6s %12s %12s %12s  %s" % ("p", "n", "lower", "upper",
                                          "exact(p=2)", "witness"))
    rows = []
    for p in ps:
        for n in ns:
            try:
                lower = k_lower(cfg, coeffs, n, p, ctx=ctx)
            except ValueError:
                lower = 0.0  # band cannot resolve degree n; K >= 0 still holds
            upper, witness = k_upper_detail(cfg, coeffs, 1.0 / n, p, ctx=ctx)
            exact = (k_exact_p2(cfg, coeffs, 1.0 / n, tail_norm=ctx.tail_norm)
                     if p == 2 else float("nan"))
            ptxt = "inf" if p == math.inf else "%g" % p
            print("%4s %6d %12.6e %12.6e %12s  %s"
                  % (ptxt, n, lower, upper,
                     "%.6e" % exact if p == 2 else "", witness))
            rows.append((ptxt, n, lower, upper, exact, witness))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", default="0,0")
    ap.add_argument("--f", default="poly-03", help="function id from the suite")
    ap.add_argument("--p", nargs="+", default=["1", "2", "inf"])
    ap.add_argument("--n", type=int, nargs="+", default=[4, 8, 16, 32, 64])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--out", help="optional CSV of the bracket table")
    args = ap.parse_args(argv)

    alphas = tuple(float(tok) for tok in args.alpha.split(","))
    cfg = WeightConfig(1, alphas)
    try:
        tf = next(t for t in get_suite("full", cfg, args.seed)
                  if t.f_id == args.f)
    except StopIteration:
        raise SystemExit("unknown function id %r" % args.f)
    ns = sorted(set(args.n))
    band = max(64, 2 * ns[-1])
    rows = bracket_table(cfg, tf, ns, parse_p(args.p), band)

    print()
    print("the gap between lower and upper is the honest uncertainty; the")
    print("direct estimate says upper-side error control costs a factor 2")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "n", "lower", "upper", "exact_p2", "witness"])
            for ptxt, n, lower, upper, exact, witness in rows:
                writer.writerow([ptxt, n, "%.17g" % lower, "%.17g" % upper,
                                 "" if math.isnan(exact) else "%.17g" % exact,
                                 witness])
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
