"""One round of one workload in a fresh interpreter.

Run by `run.py`; prints one JSON line with the round's figures:

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --workdir DIR
        [--setup-only]

Set-up ends once the package is imported and the inputs are built; the
timed span is the workload's `run()`.  With `--setup-only` the round ends
there and reports only that moment.  With `--trace 1` the tracer is
installed for the timed span only, and the per-function table is written to
`.perfbench/trace-<workload>-<seed>.json`.
"""

import argparse
import json
import os
import resource
import sys
import time

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   ".perfbench")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import durrmeyer  # noqa: F401
    import durrmeyer.cli  # noqa: F401
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        sys.stdout.write(json.dumps({"ready": ready}) + "\n")
        return

    tr = tracer.Tracer().install() if args.trace else None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        wl.run()
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tr is not None:
            tr.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = wl.finish()
    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb,
              "attempted": ops.attempted, "failed": len(ops.failures),
              "failures": ops.failures, "problems": ops.problems}
    if tr is not None:
        result["layers"] = tr.metrics()
        tr.write(os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed)))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
