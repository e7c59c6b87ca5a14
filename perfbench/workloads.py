"""The benchmark's workloads.

Each workload builds its inputs from the workload seed when constructed,
does its timed work in `run()`, and in `finish()` makes the calls kept out
of the timing (the known-fault calls) and checks every output.  Reference
values are computed here (exact rational eigenvalues, `scipy.integrate.quad`
norms, closed forms) or come from a second path through the package (basis
form against spectral form, derivatives against differences).  Every
library call of a round is one operation; an operation that raises is
counted as failed and the round goes on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

import durrmeyer as D
from durrmeyer import cli
from durrmeyer.suite import TestFunction

# Report ids of `harness.report_all`, one per check of the paper.
BATTERY_CHECKS = ("L1", "L1-xi", "L3", "L4", "L5", "L6", "HAT", "EQ24",
                  "MULT-ID", "DIRECT", "THM1", "PROP", "EIGSTRUCT", "TELESCOPE",
                  "QIDENT", "KCLOSED", "CESARO", "KBRACKET")
SUITE_SEED = 12345  # the published default of `durrmeyer --seed`
INF = math.inf


def mu_exact(n, ell, rho) -> Fraction:
    """mu(n, ell) = prod_{j<ell} (n-j) / (n+rho+1+j), in exact rationals."""
    rho = Fraction(rho)
    out = Fraction(1)
    for j in range(ell):
        out *= Fraction(n - j) / (n + rho + 1 + j)
    return out


def mu_table(n, L, rho) -> np.ndarray:
    """mu(n, ell) for ell = 0..L in floats, zero above n; the same product
    as `mu_exact`, rounded once per factor."""
    j = np.arange(min(n, L), dtype=float)
    out = np.zeros(L + 1)
    out[0] = 1.0
    out[1:j.size + 1] = np.cumprod((n - j) / (n + rho + 1.0 + j))
    return out


# Bernoulli numbers B_2 .. B_12 for the asymptotic series of the trigamma
BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
             Fraction(5, 66), Fraction(-691, 2730))


def trigamma_rational(m) -> Fraction:
    """psi'(m) = 1/m + 1/(2 m^2) + sum_k B_2k / m^(2k+1), in rationals; the
    series is cut after B_12, which leaves an error below 1e-25 for m >= 100."""
    m = Fraction(m)
    out = 1 / m + 1 / (2 * m * m)
    for k, b in enumerate(BERNOULLI, 1):
        out += b / m ** (2 * k + 1)
    return out


def nu_derivatives_exact(n, ell, rho):
    """nu_n'(tau) and nu_n''(tau) at an integer tau = ell for an integer rho.

    Then mu_n(ell) is the rational `mu_exact`, the digamma difference
    C_n = psi(n+ell+rho+1) - psi(n-ell+1) is a finite harmonic sum, and only
    C_n' = psi'(n+ell+rho+1) + psi'(n-ell+1) needs the series above.
    """
    assert rho == int(rho) and n - ell + 1 >= 100
    rho = int(rho)
    mu = mu_exact(n, ell, rho)
    om = 1 - mu
    c = sum(Fraction(1, k) for k in range(n - ell + 1, n + ell + rho + 1))
    cp = trigamma_rational(n + ell + rho + 1) + trigamma_rational(n - ell + 1)
    q = ell * (ell + rho)
    d1 = (2 * ell + rho) * mu / (n * om) - q * mu * c / (n * om ** 2)
    d2 = (2 * mu / (n * om) - 2 * (2 * ell + rho) * mu * c / (n * om ** 2)
          - q * mu * cp / (n * om ** 2) + q * (1 + mu) * mu * c ** 2 / (n * om ** 3))
    return float(d1), float(d2)


def weighted_l2_quad(fn, alphas, kinks=()):
    """sqrt of the integral of fn^2 x^a (1-x)^b over [0, 1], by QUADPACK with
    the algebraic endpoint weight, split at the kinks."""
    a, b = alphas
    edges = (0.0,) + tuple(sorted(kinks)) + (1.0,)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # the weight factor of an endpoint outside [lo, hi] is smooth there
        wa = a if lo == 0.0 else 0.0
        wb = b if hi == 1.0 else 0.0

        def integrand(x):
            val = float(fn(np.array([x]))[0]) ** 2
            if lo != 0.0:
                val *= x ** a
            if hi != 1.0:
                val *= (1.0 - x) ** b
            return val

        part, _ = quad(integrand, lo, hi, weight="alg", wvar=(wa, wb),
                       epsabs=1e-14, epsrel=1e-12, limit=200)
        total += part
    return math.sqrt(total)


class Ops:
    """Counts operations; an operation that raises is recorded as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.problems = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the round
            self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            return None

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= rtol * abs(want) + atol


def _normwise(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


class Battery:
    """`durrmeyer --command report-all --out FILE` at published defaults."""

    name = "battery"

    def __init__(self, seed, workdir, small=False):
        # the battery runs at the published suite seed: it is the run users
        # make, so the workload seed selects nothing here
        self.out = os.path.join(workdir, "report.csv")
        if small:
            self.argv = ["--command", "verify-direct", "--suite", "eig",
                         "--p", "2", "--n-start", "4", "--n-stop", "16",
                         "--out", self.out]
        else:
            self.argv = ["--command", "report-all", "--seed", str(SUITE_SEED),
                         "--out", self.out]
        self.small = small
        self.ops = Ops()

    def run(self):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            self.rc = cli.main(self.argv)
        self.summary = stderr.getvalue()

    def finish(self):
        ops = self.ops
        lines = re.findall(r"^(ok  |FAIL) (\S+)\s+rows=(\d+)", self.summary, re.M)
        if not lines:
            ops.attempted = 1
            ops.failures = ["no check ran; exit code %r" % self.rc]
            ops.expect(False, "the CLI ran no check: %s" % self.summary.strip())
            return ops
        ops.attempted = len(lines)
        ops.failures = ["%s failed" % cid for flag, cid, _ in lines if flag == "FAIL"]
        ops.expect(self.rc == (1 if ops.failures else 0),
                   "exit code %r with %d failed checks" % (self.rc, len(ops.failures)))
        if not self.small:
            ids = sorted(cid for _, cid, _ in lines)
            ops.expect(ids == sorted(BATTERY_CHECKS), "checks run: %s" % ids)
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ops.expect(len(rows) == sum(int(r) for _, _, r in lines),
                   "report has %d rows, summary counts %s" % (len(rows), lines))
        if not ops.failures:
            ops.expect(all(r["passed"] == "True" for r in rows),
                       "a row failed although every check passed")
        check_direct_eig_rows(rows, ops)
        return ops


def check_direct_eig_rows(rows, ops):
    """DIRECT rows on a unit eigenfunction at p = 2 carry lhs = 1 - mu(n, ell)."""
    checked = 0
    for r in rows:
        m = re.fullmatch(r"eig-(\d+)", r["f_id"])
        if r["check_id"] != "DIRECT" or not m or r["p"] != "2":
            continue
        n, ell = int(r["n"]), int(m.group(1))
        want = float(1 - mu_exact(n, ell, float(r["rho"])))
        got = float(r["lhs"])
        ops.expect(_close(got, want, 1e-12),
                   "DIRECT eig-%d n=%d: lhs %r, 1 - mu = %r" % (ell, n, got, want))
        checked += 1
    ops.expect(checked > 0, "no DIRECT eigenfunction rows at p = 2")


class Triangle:
    """A d = 2 library session: basis, basis-form operator on eigenfunctions,
    projection, norms, K brackets and an operator-norm estimate."""

    name = "triangle"
    WEIGHTS = ((0.0, 0.0, 0.0), (0.5, -0.5, 1.0))

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        self.L = 12 if small else 32
        self.band = 8 if small else 24
        self.ell_max = 4 if small else 8
        self.ns = tuple(range(2, 7 if small else 25))
        self.k_ns = (2, 4) if small else (2, 4, 8, 16, 24)
        self.norm_n = 4 if small else 12
        self.norm_ps = (2,) if small else (2, INF)
        pairs = [(ell, j) for ell in range(self.ell_max + 1) for j in range(ell + 1)]
        self.cases = []
        for alphas in self.WEIGHTS:
            cfg = D.WeightConfig(2, alphas)
            picks = rng.choice(len(pairs), size=4 if small else 12, replace=False)
            size = (self.ell_max + 1) * (self.ell_max + 2) // 2
            self.cases.append({
                "cfg": cfg,
                "eig": [pairs[i] for i in sorted(picks)],
                "ts": np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 4)),
                "poly": rng.uniform(-1.0, 1.0, size),
            })
        self.ops = Ops()

    def run(self):
        ops = self.ops
        for case in self.cases:
            cfg = case["cfg"]
            basis = ops.call("get_basis", D.get_basis, cfg, self.L)
            if basis is None:
                continue
            case["plans"] = []
            for n in self.ns:
                plan = ops.call("make_plan", D.make_plan, cfg, n, f_degree=self.ell_max)
                if plan is None:
                    continue
                nodes = plan.rule.nodes
                vals = basis.eval_all(nodes)
                outs = []
                for ell, j in case["eig"]:
                    phi = vals[:, basis.flat_index(ell, j)]
                    got = ops.call("apply_durrmeyer", D.apply_durrmeyer,
                                   plan, lambda x, v=phi: v, nodes)
                    outs.append((ell, phi, got))
                case["plans"].append((n, plan.basis_at_nodes.sum(axis=0), outs))
            coeffs = case["poly"]
            poly = TestFunction("tri-poly", lambda x, b=basis, c=coeffs:
                                b.eval_all(x)[:, :c.size] @ c,
                                d=2, degree=self.ell_max)
            proj = ops.call("project", D.project, poly, cfg, self.band)
            case["proj"] = proj
            if proj is None:
                continue
            ctx = ops.call("NormContext", D.NormContext, cfg, proj)
            case["brackets"] = [
                (n, p, ops.call("k_bracket", D.k_bracket, cfg, proj, n, p, ctx=ctx))
                for n in self.k_ns for p in (1, 2, INF)]
            case["kvals"] = []
            for ell, j in case["eig"]:
                flat = np.zeros((max(ell, 1) + 1) * (max(ell, 1) + 2) // 2)
                flat[basis.flat_index(ell, j)] = 1.0
                single = D.SpectralCoefficients.from_flat(cfg, flat)
                for t in case["ts"]:
                    case["kvals"].append((ell, t, ops.call(
                        "k_exact_p2", D.k_exact_p2, cfg, single, float(t))))
            case["opnorm"] = [ops.call("estimate_operator_norm",
                                       D.estimate_operator_norm, "cesaro", p,
                                       self.norm_n, cfg=cfg)
                              for p in self.norm_ps]

    def finish(self):
        ops = self.ops
        for case in self.cases:
            cfg = case["cfg"]
            rho = cfg.rho
            for n, partition, outs in case.get("plans", ()):
                ops.expect(np.allclose(partition, 1.0, rtol=0.0, atol=1e-12),
                           "Bernstein values at n=%d do not sum to 1" % n)
                for ell, phi, got in outs:
                    if got is None:
                        continue
                    want = float(mu_exact(n, ell, rho)) * phi
                    err = float(np.max(np.abs(got - want)))
                    ops.expect(err <= 1e-8, "M_%d phi_%d off by %.3g" % (n, ell, err))
            proj = case.get("proj")
            if proj is not None:
                size = case["poly"].size
                err = float(np.max(np.abs(proj.flat()[:size] - case["poly"])))
                rest = float(np.max(np.abs(proj.flat()[size:])))
                ops.expect(max(err, rest) <= 1e-10,
                           "projection of a degree-%d polynomial off by %.3g"
                           % (self.ell_max, max(err, rest)))
                check_brackets(cfg, proj, 0.0, case["brackets"], ops)
            for ell, t, got in case.get("kvals", ()):
                if got is not None:
                    want = min(1.0, t * ell * (ell + rho))
                    ops.expect(abs(got - want) <= 1e-8,
                               "K(phi_%d, %.3g) = %r, want %r" % (ell, t, got, want))
            for p, est in zip(self.norm_ps, case.get("opnorm", ())):
                if est is not None:
                    ok = 0.0 < est <= 1.0 + 1e-9 if p == 2 else 0.0 < est < INF
                    ops.expect(ok, "Cesaro norm estimate %r at p=%s" % (est, p))
        return ops


def check_brackets(cfg, coeffs, tail, brackets, ops):
    """lower <= exact <= upper at p = 2, exact from the banded p = 2 search."""
    for n, p, br in brackets:
        if br is None or p != 2:
            continue
        exact = D.k_exact_p2(cfg, coeffs, 1.0 / n, tail_norm=tail)
        slack = 1e-9 * max(exact, 1e-300) + 1e-15
        ops.expect(br.lower <= exact + slack and exact <= br.upper + slack,
                   "bracket n=%d: %r <= %r <= %r fails" % (n, br.lower, exact, br.upper))


class IntervalBand:
    """d = 1 at high band on three weights: kink and polynomial functions
    projected at band 256, spectral and basis-form operators, norms, K
    brackets and multipliers up to n = 2^16."""

    name = "interval-band"
    WEIGHTS = ((0.0, 0.0), (-0.5, -0.5), (0.5, 1.5))
    # Projection at this band fails today for every weight; the inputs are
    # fixed so that the failure does not depend on the seed.
    FAULT_BAND = 512
    FAULT_KINK = 0.5
    SMALL_TAUS = 8
    # nu_prime and nu_second lose accuracy at tau below sqrt(n): against
    # exact values their relative error grows about as n^2 eps, to at most
    # 32 n^2 eps over every integer tau below sqrt(n), n = 2^8..2^16, on
    # these weights.  The check holds them to four times that, so a
    # worsening shows while today's error passes.
    SMALL_TAU_RTOL = 128.0 * np.finfo(float).eps

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        self.band = 48 if small else 256
        top = self.band
        self.spec_ns = tuple(range(2, top + 1, 2 if small else 1))
        self.plan_ns = (16, 32, 48) if small else tuple(range(64, top + 1, 16))
        self.mult_ns = tuple(2 ** k for k in range(8, 11 if small else 17))
        # degrees are fixed, since the cost of a bracket or a plan grows with
        # n; the seed picks the functions, points and taus
        self.k_ns = (4, 16, 48) if small else (4, 16, 32, 64, 128, 256)
        self.poly_ns = (8, 16) if small else (16, 32, 64)
        self.cases = []
        for alphas in self.WEIGHTS:
            c0 = float(rng.uniform(0.3, 0.7))
            pc = rng.uniform(-1.0, 1.0, 9)
            self.cases.append({
                "cfg": D.WeightConfig(1, alphas),
                "kink": TestFunction("kink", lambda x, c=c0: np.abs(np.asarray(x) - c),
                                     kinks=(c0,)),
                "poly": TestFunction("poly8", lambda x, c=pc:
                                     np.polynomial.polynomial.polyval(np.asarray(x), c),
                                     degree=8),
                "xs": np.sort(rng.uniform(0.0, 1.0, 65)),
                # nu_n(tau) moves on the scale sqrt(n) and is tiny beyond
                # 8 sqrt(n).  Integer taus below sqrt(n), checked against
                # exact values, come first; then taus in [sqrt(n), 8 sqrt(n)],
                # where differences can check the derivatives
                "taus": [np.concatenate((
                    np.sort(rng.choice(np.arange(1, math.isqrt(n)), self.SMALL_TAUS,
                                       replace=False)).astype(float),
                    np.sort(rng.uniform(math.sqrt(n), min(n - 1.0, 8.0 * math.sqrt(n)), 64))))
                    for n in self.mult_ns],
            })
        self.fault_f = TestFunction(
            "kink-fixed", lambda x: np.abs(np.asarray(x) - self.FAULT_KINK),
            kinks=(self.FAULT_KINK,))
        self.ops = Ops()

    def run(self):
        ops = self.ops
        for case in self.cases:
            cfg, kink = case["cfg"], case["kink"]
            ck = ops.call("project", D.project, kink, cfg, self.band)
            cp = ops.call("project", D.project, case["poly"], cfg, self.band)
            case["ck"], case["cp"] = ck, cp
            if ck is None or cp is None:
                continue
            ctx = ops.call("NormContext", D.NormContext, cfg, ck, f_fn=kink,
                           kinks=kink.kinks)
            case["ctx"] = ctx
            diffs = []
            for n in self.spec_ns:
                g = ops.call("apply_durrmeyer_spectral", D.apply_durrmeyer_spectral,
                             cfg, n, ck)
                diffs.append((n, [ops.call("norm_diff", ctx.norm_diff, g, p)
                                  for p in (1, 2, INF)]))
            case["diffs"] = diffs
            case["brackets"] = [
                (n, p, ops.call("k_bracket", D.k_bracket, cfg, ck, n, p, ctx=ctx))
                for n in self.k_ns for p in (1, 2, INF)]
            case["kink_plans"] = []
            for n in self.plan_ns:
                plan = ops.call("make_plan", D.make_plan, cfg, n, splits=kink.kinks)
                case["kink_plans"].append((n, ops.call(
                    "apply_durrmeyer", D.apply_durrmeyer, plan, kink, ctx.grid)))
            case["poly_plans"] = []
            for n in self.poly_ns:
                plan = ops.call("make_plan", D.make_plan, cfg, n, f_degree=8)
                basis_form = ops.call("apply_durrmeyer", D.apply_durrmeyer,
                                      plan, case["poly"], case["xs"])
                spectral = ops.call("synthesize", D.synthesize,
                                    D.apply_durrmeyer_spectral(cfg, n, cp),
                                    case["xs"])
                case["poly_plans"].append((n, plan, basis_form, spectral))
            case["mult"] = []
            for n, taus in zip(self.mult_ns, case["taus"]):
                case["mult"].append((n, taus,
                                     ops.call("multiplier_nu_all", D.multiplier_nu_all, cfg, n),
                                     ops.call("nu_prime", D.nu_prime, cfg, n, taus),
                                     ops.call("nu_second", D.nu_second, cfg, n, taus)))

    def finish(self):
        ops = self.ops
        for case in self.cases:
            cfg = case["cfg"]
            # known fault: the band-512 projection; kept out of the timing
            got = ops.call("project-512", D.project, self.fault_f, cfg, self.FAULT_BAND)
            if got is not None:
                self._check_bessel(cfg, self.fault_f, got)
            if case.get("ctx") is None:
                continue
            self._check_case(case)
        return ops

    def _check_bessel(self, cfg, f, coeffs):
        norm = weighted_l2_quad(f, cfg.alphas, f.kinks)
        self.ops.expect(norm >= coeffs.norm2() * (1.0 - 1e-10),
                        "Bessel: |f| %r < |coeffs| %r" % (norm, coeffs.norm2()))
        return norm

    def _check_case(self, case):
        ops, cfg = self.ops, case["cfg"]
        rho, L = cfg.rho, self.band
        ck = case["ck"]
        fnorm = self._check_bessel(cfg, case["kink"], ck)
        self._check_bessel(cfg, case["poly"], case["cp"])
        tail2 = max(fnorm ** 2 - ck.norm2() ** 2, 0.0)
        mass = math.exp(math.lgamma(cfg.alphas[0] + 1) + math.lgamma(cfg.alphas[1] + 1)
                        - math.lgamma(cfg.alphas[0] + cfg.alphas[1] + 2))
        c = ck.flat()
        for n, (n1, n2, ninf) in case["diffs"]:
            if None in (n1, n2, ninf):
                continue
            want = math.sqrt(float(np.sum(((1.0 - mu_table(n, L, rho)) * c) ** 2)) + tail2)
            ops.expect(_close(n2, want, 1e-7),
                       "|M_%d f - f|_2 = %r, from eigenvalues %r" % (n, n2, want))
            # Hoelder against the weight's total mass; the sup is taken on a grid
            ops.expect(n1 <= math.sqrt(mass) * n2 * (1 + 1e-9)
                       and n2 <= math.sqrt(mass) * ninf * (1 + 1e-3),
                       "norms out of order at n=%d: %r %r %r" % (n, n1, n2, ninf))
        check_brackets(cfg, ck, case["ctx"].tail_norm, case["brackets"], ops)
        # M_n drops every block above n <= band, so the spectral form on the
        # projection is M_n f up to the projection's quadrature error
        for n, got in case["kink_plans"]:
            if got is None:
                continue
            want = D.synthesize(D.apply_durrmeyer_spectral(cfg, n, ck), case["ctx"].grid)
            ops.expect(_normwise(got, want) <= 1e-8,
                       "kink-split and spectral M_%d f differ by %.3g normwise"
                       % (n, _normwise(got, want)))
        for n, plan, basis_form, spectral in case["poly_plans"]:
            if plan is None or basis_form is None or spectral is None:
                continue
            err = float(np.max(np.abs(basis_form - spectral)))
            ops.expect(err <= 1e-10 * max(1.0, float(np.max(np.abs(spectral)))),
                       "basis and spectral M_%d poly differ by %.3g" % (n, err))
            one = D.apply_durrmeyer(plan, lambda x: np.ones(len(x)), case["xs"])
            ops.expect(np.allclose(one, 1.0, rtol=0.0, atol=1e-12),
                       "M_%d 1 != 1" % n)
        for n, taus, nu, d1, d2 in case["mult"]:
            if nu is None or d1 is None or d2 is None:
                continue
            for ell in (1, 2, 3):
                mu = mu_exact(n, ell, rho)
                want = float(ell * (ell + Fraction(rho)) * mu / (n * (1 - mu)))
                ops.expect(_close(float(nu[ell - 1]), want, 1e-11),
                           "nu(%d, %d) = %r, exact %r" % (n, ell, nu[ell - 1], want))
            k = self.SMALL_TAUS
            rtol = self.SMALL_TAU_RTOL * n * n
            for tau, g1, g2 in zip(taus[:k], d1[:k], d2[:k]):
                w1, w2 = nu_derivatives_exact(n, int(tau), rho)
                ops.expect(_close(g1, w1, rtol) and _close(g2, w2, rtol),
                           "nu', nu'' at n=%d, tau=%d: %r %r, exact %r %r"
                           % (n, tau, g1, g2, w1, w2))
            # central differences; the step follows the scale on which nu
            # varies, min(tau, n / tau), and the tolerance covers their error.
            # Normwise, since nu'' changes sign inside the sample.
            taus, d1, d2 = taus[k:], d1[k:], d2[k:]
            h = 1e-2 * np.minimum(taus, n / taus)
            fd1 = (D.nu_continuous(cfg, n, taus + h)
                   - D.nu_continuous(cfg, n, taus - h)) / (2 * h)
            fd2 = (D.nu_prime(cfg, n, taus + h) - D.nu_prime(cfg, n, taus - h)) / (2 * h)
            ops.expect(_normwise(d1, fd1) <= 2e-3 and _normwise(d2, fd2) <= 2e-3,
                       "nu derivatives at n=%d disagree with differences" % n)


WORKLOADS = {w.name: w for w in (Battery, Triangle, IntervalBand)}
