"""Command-line front end: parses the sweep configuration, runs each command
as one harness call, and serializes the reports as CSV or JSON.  The checks
and their rows live in `durrmeyer.harness`.

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
import re
import sys
import time

import numpy as np
from dataclasses import dataclass, field

from . import harness
from .harness import DEFAULT_SEED, INTERVAL_ONLY_SUITES
from .spectrum import DegeneracyError, WeightConfig

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
            return tuple(harness._dyadic(self.n_start, self.n_stop))
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
    # a value such as "-0.5,0.5" is no plain number, and argparse would read
    # it as a flag: let anything that starts like a negative number be a value
    ap._negative_number_matcher = re.compile(r"-\.?\d")
    ap.add_argument("--command", choices=COMMANDS, default=None,
                    help="which check battery to run")
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="optional JSON file mirroring the flags; "
                         "explicit flags override it")
    ap.add_argument("--alpha", dest="alphas", default=None,
                    help="comma list of weight exponents, one more entry than d "
                         "(default: all zeros)")
    ap.add_argument("--d", type=int, default=None, help="domain dimension, 1 or 2")
    ap.add_argument("--p", dest="ps", default=None,
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


def _load_config_file(path, keys):
    """The file's settings by RunConfig field; keys maps each flag name, with
    "_" for "-", to its field."""
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
        if norm not in keys:
            raise ConfigError("unknown config key %r" % key)
        out[keys[norm]] = value
    return out


def _setting(name, value):
    """A flag or config-file value as the type of its RunConfig field."""
    if name == "alphas":
        return _parse_float_list(value, "alpha")
    if name == "ps":
        tokens = value if isinstance(value, (list, tuple)) else str(value).split(",")
        return tuple(_parse_p_token(str(tok)) for tok in tokens)
    kind = RunConfig.__dataclass_fields__[name].type  # the annotation, as a string
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError("%s must be true or false, got %r" % (name, value))
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max  # not bool
    if kind == "int" and not (number and float(value).is_integer()):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if kind == "float" and not number:
        raise ConfigError("%s must be a finite number, got %r" % (name, value))
    return int(value) if kind == "int" else float(value) if kind == "float" else value


def parse_config(argv=None) -> RunConfig:
    """Each setting from its flag, else from the config file, else from
    RunConfig's own default; `explicit` names the fields a flag or the file
    set."""
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    path = args.pop("config")
    keys = {a.option_strings[0][2:].replace("-", "_"): a.dest
            for a in parser._actions if a.dest in args}
    fileconf = _load_config_file(path, keys) if path else {}
    settings = {}
    for name, flag in args.items():
        value = flag if flag is not None else fileconf.get(name)
        if value is not None:
            settings[name] = _setting(name, value)
    if "command" not in settings:
        raise ConfigError("--command is required (one of %s)" % ", ".join(COMMANDS))
    cfg = RunConfig(explicit=set(settings), **settings)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# command execution


def _ns_if_set(cfg: RunConfig):
    """The n ladder as a keyword when --n-start or --n-stop was given, so
    that the converse and proposition runs keep their own ladders otherwise."""
    return {"ns": cfg.ns()} if cfg.explicit & {"n_start", "n_stop"} else {}


def run(cfg: RunConfig):
    """The reports of one command, each from one harness call."""
    weight, ps, suite, seed = cfg.weight(), cfg.ps, cfg.suite, cfg.seed
    calls = {
        "verify-lemmas": lambda: harness.run_lemmas(
            rhos=None if cfg.alphas is None else (weight.rho,),
            n_max=cfg.n_stop if "n_stop" in cfg.explicit else None,
            delta=cfg.delta, b=cfg.b, seed=seed, tol_identity=cfg.tol_identity),
        "verify-direct": lambda: [harness.run_direct(
            weight, ps, cfg.ns(), suite_name=suite, seed=seed)],
        "verify-converse": lambda: [harness.run_theorem1(
            weight, ps, suite_name=suite, seed=seed, **_ns_if_set(cfg))],
        "verify-proposition": lambda: [harness.run_proposition(
            ps, suite_name=suite, seed=seed, **_ns_if_set(cfg))],
        "kfunc": lambda: [harness.run_kfunc(weight, ps, cfg.ns(), suite, seed)],
        "norms": lambda: [harness.run_norms(weight, ps, cfg.ns(), seed)],
        "report-all": lambda: harness.report_all(
            seed=seed, delta=cfg.delta, b=cfg.b, tol_identity=cfg.tol_identity,
            tol_quadrature=cfg.tol_quadrature),
    }
    return calls[cfg.command]()


# ---------------------------------------------------------------------------
# serialization


def _fmt_cell(name, value):
    if value is None:
        return ""
    if name == "check_id" or name == "f_id":
        return str(value)
    if name == "alphas":
        return ";".join("%.17g" % a for a in value)
    if name == "passed":
        return "True" if value else "False"
    return "%.17g" % float(value)


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


def _summary(reports, stream, wall_s):
    """One line per check with its runtime, then the verdict and the wall
    time of the run and the report writing.  Times go to stderr only: the
    report files stay byte-deterministic."""
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        flag = "ok  " if rep.passed else "FAIL"
        stream.write("%s %-10s rows=%d worst_margin=%.3e runtime_ms=%d\n"
                     % (flag, rep.check_id, len(rep.rows), rep.worst_margin,
                        rep.runtime_ms))
    if failed:
        stream.write("%d of %d checks failed: %s\n"
                     % (len(failed), len(reports),
                        ", ".join(r.check_id for r in failed)))
    else:
        stream.write("all %d checks passed\n" % len(reports))
    stream.write("wall time %.3f s\n" % wall_s)
    return len(failed)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    t0 = time.perf_counter()
    try:
        reports = run(cfg)
    except DegeneracyError as exc:
        sys.stderr.write("degeneracy: %s\n" % exc)
        return 3
    except (ConfigError, ValueError) as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    write_report(reports, cfg)
    failed = _summary(reports, sys.stderr, time.perf_counter() - t0)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
