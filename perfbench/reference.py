"""One untraced n=1000 run, the scale the final-vote and topology work targets.

Usage (from the repository root):  python3 perfbench/reference.py [--seed 1]

Takes the first operation of the consensus-n400 workload for the seed
(m=8, 30% crash, watts_strogatz), sets n=1000 and a 40-seat step committee,
the sizing of the n=1000 figure in ROADMAP.md, runs it once, checks its
outputs and prints the wall time and the peak resident memory of this
process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time

import run

N = 1000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    cobsim = run.import_program()
    import workloads

    first = workloads.make_inputs("consensus-n400", args.seed)[0]
    op = workloads.Op(first.seed, dataclasses.replace(first.config, n=N, committee=40).validate())
    t0 = time.perf_counter()
    out = workloads.run_op(op)
    run_s = time.perf_counter() - t0
    fails = workloads.check(op, out)
    for line in fails[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "n": N, "scenario_seed": op.seed, "correct": not fails,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_digest": out.trace.digest(), "kernel_backend": cobsim.kernel_backend,
    }))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
