"""End-to-end and per-layer benchmark of the cobsim simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload consensus-n100 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of scenario runs, one after another, in this
single process.  A run repeats whole rounds of the same operations for
about ``--seconds``; each round ends by running its first operation again
and comparing the trace digest.
With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` the public calls into each
layer run inside spans and the result holds the per-layer metrics.
``--print-inputs`` prints the generated scenario configs and exits.
"""

from __future__ import annotations

import os
import sys
import time

_T_TOP = time.perf_counter()


def _since_process_start() -> float:
    """Seconds between the process's start and this module's first line."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME)
                   - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _T_TOP))
    except (OSError, ValueError, IndexError):
        return 0.0


_PRE_SCRIPT_S = _since_process_start()

# One thread, so that a workload never competes with itself for the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def import_program():
    """Import cobsim from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import cobsim
        import networkx  # noqa: F401  (imported lazily by the topology layer)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(cobsim.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: cobsim was imported from {cobsim.__file__}, not {src}")
    return cobsim


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-inputs", action="store_true",
                    help="print the generated scenario configs as JSON and exit")
    return ap.parse_args(argv)


def run_loop(ops, seconds: float, tracer=None):
    """Closed loop over whole rounds; returns the run's record.

    A round runs every operation in ``ops`` once, then the first one again,
    whose trace digest must repeat.  Another round starts only while it can
    end within ``seconds`` at the pace of the last one.  The first round's
    outputs are checked and give the exact figures; later rounds repeat the
    same inputs.
    """
    import workloads

    times: list[float] = []
    fails: list[str] = []
    failed = attempted = 0
    wire = certified = 0
    latencies: list[float] = []
    rounds = 0
    first_op_at = time.perf_counter()
    t_round = 0.0
    while rounds == 0 or time.perf_counter() - first_op_at + t_round <= seconds:
        t_round = time.perf_counter()
        first_digest = None
        for i, op in enumerate(ops + ops[:1]):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.op(attempted, workloads.run_op, op) if tracer \
                    else workloads.run_op(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"perfbench: operation seed {op.seed} failed: {exc!r}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            digest = workloads.trace_of(op, out).digest()
            if i == 0:
                first_digest = digest
            elif i == len(ops) and first_digest not in (None, digest):
                fails.append(f"seed {op.seed}: trace digest changed on a repeated run")
            if rounds == 0 and i < len(ops):
                fails += workloads.check(op, out)
                sent, cert, lats = workloads.wire_and_latency(op, out)
                wire += sent
                certified += cert
                latencies += lats
            del out
        t_round = time.perf_counter() - t_round
        rounds += 1
    return {
        "first_op_at": first_op_at, "times": times, "attempted": attempted,
        "failed": failed, "fails": fails, "rounds": rounds,
        "wire_bytes": wire, "certified": certified, "latencies": latencies,
    }


def end_to_end(rec, setup_s: float) -> dict[str, tuple[float, str]]:
    times, lats = rec["times"], rec["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(times) if times else float("nan"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wire_kb_per_instance": (rec["wire_bytes"] / 1000.0 / max(1, rec["certified"]), "KB"),
        "sim_output_latency": (statistics.fmean(lats) if lats else float("nan"), "sim_s"),
    }


def print_layer_table(layers: dict, op_s: float):
    print(f"per-layer self time per operation (traced op median {op_s:.4f} s)")
    rows = sorted(((k[: -len(".self_s")], v[0]) for k, v in layers.items()
                   if k.endswith(".self_s")), key=lambda r: -r[1])
    total = sum(v for _, v in rows) or 1.0
    for name, value in rows:
        calls = layers.get(f"{name}.calls", (float("nan"),))[0]
        print(f"  {name:<34}{value * 1e3:>10.2f} ms {100 * value / total:>6.1f}%"
              f"  calls/op {calls:>10.1f}")
    for name, (value, unit) in layers.items():
        if not name.endswith((".self_s", ".calls")):
            print(f"  {name:<34}{value:>14.4f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.make_inputs(args.workload, args.seed)
    if args.print_inputs:
        print(json.dumps([{"seed": op.seed, "config": vars(op.config)} for op in ops],
                         indent=1, default=str))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        with tracer_mod.Tracer() as tracer:
            rec = run_loop(ops, args.seconds, tracer)
    else:
        rec = run_loop(ops, args.seconds)
    setup_s = _PRE_SCRIPT_S + (rec["first_op_at"] - _T_TOP)

    import cobsim

    for line in rec["fails"][:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rec['attempted']} operations in "
          f"{rec['rounds']} rounds of {len(ops)}, {rec['failed']} failed, "
          f"{len(rec['fails'])} check failures, kernel backend {cobsim.kernel_backend}")
    if tracer is None:
        metrics = end_to_end(rec, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<24}{value:>14.6g} {unit}")
    else:
        metrics = tracer.layer_metrics(max(1, len(rec["times"])))
        metrics["bench.traced_run_s"] = (statistics.median(rec["times"]), "s")
        print_layer_table(metrics, metrics["bench.traced_run_s"][0])

    result = {
        "correct": not rec["fails"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
