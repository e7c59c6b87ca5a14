"""Benchmark of the durrmeyer package, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of the workload runs in a fresh interpreter started from this
process (`child.py`), against the package source in `src/`.  Rounds repeat
while the next one is expected to end within S seconds; there is always at
least one, and every run attempts whole rounds.  Timings are medians over
the rounds.  Set-up is short and noisy, so `setup_s` is the median over at
least seven set-ups: every round's, plus interpreters that stop once set up
when the run has fewer rounds than that.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
figures of untraced rounds.  With `--trace 1` each untraced round is followed
by a traced one, and the metrics are the per-layer figures of the traced
rounds plus the tracing overhead (traced minus untraced wall time).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("battery", "triangle", "interval-band")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0  # every run ends well within three minutes
SETUP_SAMPLES = 7


def run_round(args, trace, workdir, start, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(DEADLINE_S - (t0 - start), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit("round of %s did not finish within the run's deadline" % args.workload)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("round of %s exited with code %d" % (args.workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - t0
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "durrmeyer", "__init__.py")):
        sys.exit("no package source at %s: run from the root of a checkout" % SRC)

    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        while True:
            t0 = time.monotonic()
            plain.append(run_round(args, 0, workdir, start))
            if args.trace:
                traced.append(run_round(args, 1, workdir, start))
            # start another round only if it should end within the run
            now = time.monotonic()
            if now + (now - t0) - start > args.seconds:
                break
        extra_setups = [] if args.trace else [
            run_round(args, 0, workdir, start, setup_only=True)
            for _ in range(SETUP_SAMPLES - len(plain))]

    rounds = plain + traced
    problems = sorted({p for r in rounds for p in r["problems"]})
    failures = sorted({f for r in rounds for f in r["failures"]})
    for line in problems:
        sys.stderr.write("INCORRECT %s\n" % line)
    for line in failures:
        sys.stderr.write("FAILED %s\n" % line)
    sys.stderr.write("%s: %d untraced and %d traced rounds in %.1f s; wall_s %s\n"
                     % (args.workload, len(plain), len(traced), time.monotonic() - start,
                        " ".join("%.3f" % r["wall_s"] for r in plain)))

    def median(key, of):
        return statistics.median(r[key] for r in of)

    if args.trace:
        names = sorted(traced[0]["layers"])
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in traced),
                       "unit": "s" if k.endswith("_s") else "count"}
                   for k in names}
        metrics["tracer.overhead_s"] = {
            "value": median("wall_s", traced) - median("wall_s", plain), "unit": "s"}
    else:
        metrics = {k: {"value": median(k, plain), "unit": u} for k, u in END_TO_END.items()}
        metrics["setup_s"]["value"] = median("setup_s", plain + extra_setups)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
