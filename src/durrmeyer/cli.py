"""Command-line front end: sweep configuration, check execution, CSV/JSON
reports.

One fixed report schema serves every command.  Each row is a grid cell with
columns check_id, d, alphas, rho, p, n, ell_or_tau, f_id, lhs, rhs, margin,
empirical_constant, passed; inapplicable cells stay empty.  Output is byte
deterministic for a fixed configuration and seed: floats print as %.17g,
alphas join with ";", p = infinity prints as "inf", and no timestamps or
runtimes are written to report files.  The same CSV doubles as plot input
for external tools.

Exit status: 0 all asserted checks passed, 1 failures (summary on stderr),
2 configuration error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np
from dataclasses import dataclass, field

from . import harness
from .harness import CheckReport, CheckRow
from .kfunc import k_lower, k_upper_detail
from .spectrum import DegeneracyError, WeightConfig
from .suite import DEFAULT_SEED, INTERVAL_ONLY_SUITES, get_suite

COMMANDS = ("verify-lemmas", "verify-direct", "verify-converse",
            "verify-proposition", "kfunc", "norms", "report-all")

CSV_COLUMNS = ("check_id", "d", "alphas", "rho", "p", "n", "ell_or_tau",
               "f_id", "lhs", "rhs", "margin", "empirical_constant", "passed")

class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    d: int = 1
    alphas: tuple = None          # None means "not set": commands pick defaults
    ps: tuple = (2.0,)
    n_start: int = 4
    n_stop: int = 64
    n_step: int = 1
    dyadic: bool = True
    suite: str = "full"
    seed: int = DEFAULT_SEED
    out: str = None
    fmt: str = "csv"
    tol_identity: float = None
    tol_quadrature: float = None
    delta: float = 0.25
    b: float = 4.0
    explicit: set = field(default_factory=set)

    def weight(self) -> WeightConfig:
        alphas = self.alphas
        if alphas is None:
            alphas = (0.0,) * (self.d + 1)
        return WeightConfig(self.d, alphas)

    def ns(self):
        if self.n_start < 1 or self.n_stop < self.n_start:
            raise ConfigError("need 1 <= n-start <= n-stop")
        if self.dyadic:
            out, n = [], self.n_start
            while n <= self.n_stop:
                out.append(n)
                n *= 2
            return tuple(out)
        if self.n_step < 1:
            raise ConfigError("n-step must be >= 1")
        return tuple(range(self.n_start, self.n_stop + 1, self.n_step))

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError("unknown command %r (one of %s)"
                              % (self.command, ", ".join(COMMANDS)))
        if self.d not in (1, 2):
            raise ConfigError("d must be 1 or 2")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.suite not in ("full", "poly", "eig", "kink", "smoke"):
            raise ConfigError("unknown suite %r" % self.suite)
        if (self.d == 2 and self.suite in INTERVAL_ONLY_SUITES
                and self.command in ("verify-direct", "verify-converse", "kfunc")):
            raise ConfigError("suite %r contains interval-only functions; "
                              "with d = 2 use --suite eig" % self.suite)
        for p in self.ps:
            if not (p == math.inf or p >= 1.0):
                raise ConfigError("p must satisfy 1 <= p <= inf, got %r" % p)
        self.weight()  # raises ValueError naming the alpha_i > -1 constraint
        self.ns()


def _parse_p_token(tok):
    tok = tok.strip().lower()
    if tok in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise ConfigError("cannot parse p value %r (use 1, 2, inf, or a decimal)"
                          % tok) from None


def _parse_float_list(value, what):
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    try:
        return tuple(float(tok) for tok in str(value).split(","))
    except ValueError:
        raise ConfigError("cannot parse %s list %r" % (what, value)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="durrmeyer",
        description="Verification sweeps for the weighted Bernstein-Durrmeyer "
                    "operator family; writes one CSV or JSON report per run.")
    ap.add_argument("--command", choices=COMMANDS, default=None,
                    help="which check battery to run")
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="optional JSON file mirroring the flags; "
                         "explicit flags override it")
    ap.add_argument("--alpha", default=None,
                    help="comma list of weight exponents, one more entry than d "
                         "(default: all zeros)")
    ap.add_argument("--d", type=int, default=None, help="domain dimension, 1 or 2")
    ap.add_argument("--p", default=None,
                    help="comma list of Lebesgue exponents; tokens 1, 2, inf, "
                         "or decimals")
    ap.add_argument("--n-start", type=int, default=None)
    ap.add_argument("--n-stop", type=int, default=None)
    ap.add_argument("--n-step", type=int, default=None,
                    help="arithmetic step when --dyadic is off")
    ap.add_argument("--dyadic", action=argparse.BooleanOptionalAction, default=None,
                    help="double n from n-start to n-stop (default on)")
    ap.add_argument("--suite", default=None,
                    choices=("full", "poly", "eig", "kink", "smoke"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="report path (default: stdout)")
    ap.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    ap.add_argument("--tol-identity", type=float, default=None,
                    help="override the algebraic-identity tolerance")
    ap.add_argument("--tol-quadrature", type=float, default=None,
                    help="override the quadrature-mediated tolerance")
    ap.add_argument("--delta", type=float, default=None,
                    help="tail-split parameter for the second-difference decay "
                         "check, 0 < delta <= 1")
    ap.add_argument("--b", type=float, default=None,
                    help="lower cutoff scale sqrt(b n) for the same check")
    return ap


_CONFIG_KEYS = {"command", "alpha", "d", "p", "n_start", "n_stop", "n_step",
                "dyadic", "suite", "seed", "out", "format", "tol_identity",
                "tol_quadrature", "delta", "b"}


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    out = {}
    for key, value in raw.items():
        norm = key.replace("-", "_")
        if norm not in _CONFIG_KEYS:
            raise ConfigError("unknown config key %r" % key)
        out[norm] = value
    return out


def parse_config(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    fileconf = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, file_key, default):
        if flag_value is not None:
            return flag_value, True
        if file_key in fileconf:
            return fileconf[file_key], True
        return default, False

    explicit = set()

    def take(name, flag_value, file_key, default):
        value, was_set = pick(flag_value, file_key, default)
        if was_set:
            explicit.add(name)
        return value

    command = take("command", args.command, "command", None)
    if command is None:
        raise ConfigError("--command is required (one of %s)" % ", ".join(COMMANDS))
    d = int(take("d", args.d, "d", 1))
    alpha_raw = take("alphas", args.alpha, "alpha", None)
    alphas = None if alpha_raw is None else _parse_float_list(alpha_raw, "alpha")
    p_raw = take("ps", args.p, "p", None)
    if p_raw is None:
        ps = (2.0,)
    elif isinstance(p_raw, (list, tuple)):
        ps = tuple(_parse_p_token(str(tok)) for tok in p_raw)
    else:
        ps = tuple(_parse_p_token(tok) for tok in str(p_raw).split(","))
    cfg = RunConfig(
        command=command,
        d=d,
        alphas=alphas,
        ps=ps,
        n_start=int(take("n_start", args.n_start, "n_start", 4)),
        n_stop=int(take("n_stop", args.n_stop, "n_stop", 64)),
        n_step=int(take("n_step", args.n_step, "n_step", 1)),
        dyadic=bool(take("dyadic", args.dyadic, "dyadic", True)),
        suite=take("suite", args.suite, "suite", "full"),
        seed=int(take("seed", args.seed, "seed", DEFAULT_SEED)),
        out=take("out", args.out, "out", None),
        fmt=take("fmt", args.fmt, "format", "csv"),
        tol_identity=take("tol_identity", args.tol_identity, "tol_identity", None),
        tol_quadrature=take("tol_quadrature", args.tol_quadrature,
                            "tol_quadrature", None),
        delta=float(take("delta", args.delta, "delta", 0.25)),
        b=float(take("b", args.b, "b", 4.0)),
        explicit=explicit,
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# command execution


def _run_verify_lemmas(cfg: RunConfig):
    rhos = None
    if cfg.alphas is not None:
        rhos = (cfg.weight().rho,)
    n_max = cfg.n_stop if "n_stop" in cfg.explicit else None
    return [harness.check_lemma(lid, rhos=rhos, n_max=n_max, delta=cfg.delta,
                                b=cfg.b, seed=cfg.seed,
                                tol_identity=cfg.tol_identity)
            for lid in harness.LEMMA_IDS]


def _run_verify_direct(cfg: RunConfig):
    ns = cfg.ns()
    band = max(64, max(ns))
    return [harness.run_direct(cfg=cfg.weight(), ps=cfg.ps, ns=ns,
                               suite_name=cfg.suite, seed=cfg.seed, band=band)]


def _run_verify_converse(cfg: RunConfig):
    ns = cfg.ns() if "n_stop" in cfg.explicit or "n_start" in cfg.explicit \
        else (4, 8, 16, 32)
    band = max(64, 2 * max(ns))
    return [harness.run_theorem1(cfg=cfg.weight(), ps=cfg.ps, ns=ns,
                                 suite_name=cfg.suite, seed=cfg.seed, band=band)]


def _run_verify_proposition(cfg: RunConfig):
    ns = cfg.ns() if "n_stop" in cfg.explicit or "n_start" in cfg.explicit \
        else (8, 16, 32, 64, 128)
    band = max(144, max(ns) + 16)
    return [harness.run_proposition(ps=cfg.ps, ns=ns, suite_name=cfg.suite,
                                    seed=cfg.seed, band=band)]


def _run_kfunc(cfg: RunConfig):
    """K-functional brackets over the suite: lhs = lower bound, rhs = upper
    bound, empirical_constant = exact value at p = 2."""
    weight = cfg.weight()
    ns = cfg.ns()
    band = max(64, max(ns))
    slack = 1e-9
    rows = []
    t0 = time.perf_counter()
    for f in get_suite(cfg.suite, weight, cfg.seed):
        fc = harness.FunctionContext(weight, f, band=band)
        for p in cfg.ps:
            exacts = fc.kvalues(ns, p) if p == 2 else [None] * len(ns)
            for n, exact in zip(ns, exacts):
                # band >= max(ns), so k_lower applies every degree exactly
                lower = k_lower(weight, fc.coeffs, n, p, ctx=fc.ctx)
                upper, _ = k_upper_detail(weight, fc.coeffs, 1.0 / n, p,
                                          ctx=fc.ctx, exact=exact)
                scale = max(upper, 1e-300)
                if exact is None:
                    margin = (upper - lower) / scale + slack
                else:
                    margin = min((exact - lower) / scale,
                                 (upper - exact) / scale) + slack
                rows.append(CheckRow(
                    "KFUNC", d=weight.d, alphas=weight.alphas, rho=weight.rho,
                    p=p, n=n, f_id=f.f_id, lhs=lower, rhs=upper, margin=margin,
                    empirical_constant=exact, passed=margin >= 0.0))
    grid = "suite=%s, p in %s, n in %s, seed=%d" % (
        cfg.suite, list(cfg.ps), list(ns), cfg.seed)
    return [harness._finish("KFUNC", grid, rows, t0)]


def _run_norms(cfg: RunConfig):
    """Empirical operator-norm lower bounds; reported, never asserted."""
    weight = cfg.weight()
    kinds = ("partial_sum", "cesaro") if weight.d == 1 else ("cesaro",)
    rows = []
    t0 = time.perf_counter()
    for kind in kinds:
        for p in cfg.ps:
            for n in cfg.ns():
                est = harness.estimate_operator_norm(kind, p, n, cfg=weight,
                                                     seed=cfg.seed)
                rows.append(CheckRow(
                    "NORM-" + kind, d=weight.d, alphas=weight.alphas,
                    rho=weight.rho, p=p, n=n, empirical_constant=est,
                    passed=True))
    grid = "kinds=%s, p in %s, n in %s, seed=%d" % (
        list(kinds), list(cfg.ps), list(cfg.ns()), cfg.seed)
    return [harness._finish("NORMS", grid, rows, t0)]


def run(cfg: RunConfig):
    if cfg.command == "verify-lemmas":
        return _run_verify_lemmas(cfg)
    if cfg.command == "verify-direct":
        return _run_verify_direct(cfg)
    if cfg.command == "verify-converse":
        return _run_verify_converse(cfg)
    if cfg.command == "verify-proposition":
        return _run_verify_proposition(cfg)
    if cfg.command == "kfunc":
        return _run_kfunc(cfg)
    if cfg.command == "norms":
        return _run_norms(cfg)
    return harness.report_all(seed=cfg.seed, delta=cfg.delta, b=cfg.b,
                              tol_identity=cfg.tol_identity,
                              tol_quadrature=cfg.tol_quadrature)


# ---------------------------------------------------------------------------
# serialization


def _fmt_num(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.17g" % value
    return "%.17g" % float(value)


def _fmt_cell(name, value):
    if value is None:
        return ""
    if name == "check_id" or name == "f_id":
        return str(value)
    if name == "alphas":
        return ";".join("%.17g" % a for a in value)
    if name == "passed":
        return "True" if value else "False"
    return _fmt_num(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(c, getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_value(name, value):
    if value is None:
        return None
    if name == "alphas":
        return [float(a) for a in value]
    if isinstance(value, np.generic):
        value = value.item()
    if name == "p" and isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def reports_to_json(reports) -> str:
    payload = []
    for rep in reports:
        payload.append({
            "check_id": rep.check_id,
            "grid": rep.grid,
            "worst_margin": rep.worst_margin,
            "empirical_constant": rep.empirical_constant,
            "passed": rep.passed,
            "rows": [{c: _json_value(c, getattr(row, c)) for c in CSV_COLUMNS}
                     for row in rep.rows],
        })
    return json.dumps({"reports": payload}, sort_keys=True, indent=2) + "\n"


def write_report(reports, cfg: RunConfig):
    if cfg.fmt == "csv":
        rows = [row for rep in reports for row in rep.rows]
        text = rows_to_csv(rows)
    else:
        text = reports_to_json(reports)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(reports, stream):
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        flag = "ok  " if rep.passed else "FAIL"
        worst = "" if rep.worst_margin is None else \
            " worst_margin=%.3e" % rep.worst_margin
        stream.write("%s %-10s rows=%d%s\n"
                     % (flag, rep.check_id, len(rep.rows), worst))
    if failed:
        stream.write("%d of %d checks failed: %s\n"
                     % (len(failed), len(reports),
                        ", ".join(r.check_id for r in failed)))
    else:
        stream.write("all %d checks passed\n" % len(reports))
    return len(failed)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    try:
        reports = run(cfg)
    except DegeneracyError as exc:
        sys.stderr.write("degeneracy: %s\n" % exc)
        return 3
    except (ConfigError, ValueError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    write_report(reports, cfg)
    failed = _summary(reports, sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
