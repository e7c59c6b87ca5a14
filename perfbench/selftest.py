"""Quick self-test of the benchmark's own checks, at reduced size.

    python3 perfbench/selftest.py

Runs every workload small, in this process, and requires its checks to pass
with only the known-fault operations failing.  Then it feeds each checker a
deliberately wrong output and requires the checker to notice, and runs the
tracer over a few calls to confirm its counts and self times add up.  Exits
non-zero if any of this fails.
"""

import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import durrmeyer as D  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, message):
    if not ok:
        FAILURES.append(message)
        print("FAIL", message)


def run_small(cls, workdir, seed=7):
    wl = cls(seed, workdir, small=True)
    wl.run()
    return wl, wl.finish()


def test_workloads(workdir):
    for cls in workloads.WORKLOADS.values():
        _, ops = run_small(cls, workdir)
        expect(not ops.problems, "%s: checks failed: %s" % (cls.name, ops.problems))
        unexpected = [f for f in ops.failures if not f.startswith("project-512:")]
        expect(not unexpected, "%s: operations failed: %s" % (cls.name, unexpected))
        expect(ops.attempted > len(ops.failures), "%s: nothing succeeded" % cls.name)


def test_checkers_notice(workdir):
    # battery: a DIRECT row whose lhs is off in the tenth digit
    row = {"check_id": "DIRECT", "f_id": "eig-03", "p": "2", "n": "8", "rho": "0"}
    row["lhs"] = repr(float(1 - workloads.mu_exact(8, 3, 0.0)))
    ops = workloads.Ops()
    workloads.check_direct_eig_rows([row], ops)
    expect(not ops.problems, "exact DIRECT row flagged: %s" % ops.problems)
    row["lhs"] = repr(float(row["lhs"]) * (1.0 + 1e-10))
    workloads.check_direct_eig_rows([row], ops)
    expect(ops.problems, "tampered DIRECT row not flagged")

    # triangle: one operator value scaled by 1 + 1e-6
    wl = workloads.Triangle(7, workdir, small=True)
    wl.run()
    n, partition, outs = wl.cases[0]["plans"][-1]
    ell, phi, got = outs[-1]
    outs[-1] = (ell, phi, got * (1.0 + 1e-6) + 1e-6)
    expect(wl.finish().problems, "tampered M_n phi not flagged")

    # interval-band: a p = 2 operator error, a kink-split operator value and
    # a small-tau nu' each off by one part in 1e6, and a K bracket whose
    # lower end exceeds the exact value (at p = 2 the upper end is the exact
    # value)
    wl = workloads.IntervalBand(7, workdir, small=True)
    wl.run()
    case = wl.cases[0]
    n, (n1, n2, ninf) = case["diffs"][5]
    case["diffs"][5] = (n, (n1, n2 * (1.0 + 1e-6), ninf))
    n_k, got = case["kink_plans"][-1]
    got[got.size // 2] *= 1.0 + 1e-6
    n_m, taus, _, d1, _ = case["mult"][-1]
    d1[0] *= 1.0 + 1e-6
    n_b, _, br = next(b for b in case["brackets"] if b[1] == 2)
    problems = wl.finish().problems
    expect(any("|M_%d f - f|_2" % n in p for p in problems),
           "tampered norm_diff not flagged: %s" % problems)
    expect(any("spectral M_%d f" % n_k in p for p in problems),
           "tampered kink-split M_n f not flagged: %s" % problems)
    expect(any("n=%d, tau=%d" % (n_m, taus[0]) in p for p in problems),
           "tampered small-tau nu' not flagged: %s" % problems)
    expect(len(problems) == 3, "untampered outputs flagged: %s" % problems)
    ops = workloads.Ops()
    high = D.KBracket(br.upper * 1.01 + 1e-12, br.upper * 2.0 + 1e-12, "tampered")
    workloads.check_brackets(case["cfg"], case["ck"], case["ctx"].tail_norm,
                             [(n_b, 2, high)], ops)
    expect(ops.problems, "bracket above the exact value not flagged")


def test_tracer():
    cfg = D.WeightConfig(1, (0.0, 0.0))
    tr = tracer.Tracer().install()
    try:
        coeffs = D.project(lambda x: np.abs(x - 0.3), cfg, 16)
        D.k_bracket(cfg, coeffs, 8, 2)
        D.apply_durrmeyer(D.make_plan(cfg, 6), lambda x: x, np.linspace(0, 1, 5))
    finally:
        tr.uninstall()
    m = tr.metrics()
    expect(m["operators.plans_built"] == 1, "plans_built %r" % m["operators.plans_built"])
    expect(m["kfunc.norm_contexts"] == 1, "norm_contexts %r" % m["kfunc.norm_contexts"])
    expect(m["kfunc.k_exact_p2_calls"] == 1, "k_exact_p2_calls %r" % m["kfunc.k_exact_p2_calls"])
    # kfunc reaches the operator through `from .operators import ...`
    name, parent, dur, _ = tr._arrays()
    called = {tr.names[i] for i in name}
    expect(("operators", "apply_durrmeyer_spectral") in called,
           "calls through an internal binding site not traced")
    expect(m["orthopoly.basis_builds"] + m["orthopoly.basis_hits"] >= 2,
           "get_basis calls inside the package not traced")
    expect(m["operators.bernstein_values"] == 7 * (len(D.make_plan(cfg, 6).rule.nodes) + 5),
           "bernstein_values %r" % m["operators.bernstein_values"])
    roots = float(dur[parent < 0].sum())
    layers = sum(m["%s.self_s" % layer] for layer in tracer.LAYERS)
    expect(math.isclose(layers, roots, rel_tol=1e-9),
           "layer self times %r do not add up to the root spans %r" % (layers, roots))
    expect(not any(hasattr(f, "__wrapped__") for f in (
        D.project, D.orthopoly.get_basis, D.kfunc.apply_durrmeyer_spectral,
        D.SpectralCoefficients.__post_init__)), "uninstall left wrappers behind")


def main():
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        for test in (test_workloads, test_checkers_notice):
            test(workdir)
    test_tracer()
    if FAILURES:
        sys.exit("%d self-test failures" % len(FAILURES))
    print("self-test passed")


if __name__ == "__main__":
    main()
