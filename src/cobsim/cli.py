"""Scenario-driven experiment runner.

Subcommands: simulate (consensus instances over a simulated network),
chain (full epochs of the synchronization chain), verify (re-check a chain
dump), bench (cost-model sweep).  Exit codes are a stable contract:
0 success, 1 verification failure, 2 invalid configuration, 3 liveness
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from . import chain as chain_mod
from . import crypto, scenario
from .crypto import KeyRegistry

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_LIVENESS = 3


def cmd_simulate(args) -> int:
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.unsafe_byzantine:
            overrides["unsafe_byzantine"] = True
        cfg = scenario.ScenarioConfig.load(args.config, **overrides)
        if cfg.mode != "simulate":
            raise scenario.ConfigError("mode", "simulate subcommand needs a simulate-mode config")
    except (scenario.ConfigError, OSError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.runs < 1:
        print(f"invalid --runs {args.runs}: need at least one run", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.seed + args.runs > 2**64:
        print(f"invalid --runs {args.runs}: run seeds {cfg.seed} + i must stay below 2**64",
              file=sys.stderr)
        return EXIT_CONFIG

    from .mbba import LivenessError

    ok = True
    for run_idx in range(args.runs):
        seed = cfg.seed + run_idx
        try:
            result = scenario.run_simulate(cfg, seed)
        except LivenessError as exc:
            ok = False
            print(f"run seed={seed}: liveness failure: {exc}", file=sys.stderr)
            continue
        if args.out:
            path = args.out if args.runs == 1 else f"{args.out}.{seed}"
            result.trace.write_jsonl(path)
        failures = result.failures()
        if failures:
            ok = False
            for line in failures:
                print(f"run seed={seed}: {line}", file=sys.stderr)
        else:
            print(f"run seed={seed}: {len(result.results)} instance(s) certified, "
                  f"trace digest {result.trace.digest()[:16]}")
    return EXIT_OK if ok else EXIT_LIVENESS


def cmd_chain(args) -> int:
    try:
        overrides = {"mode": "chain"}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.unsafe_byzantine:
            overrides["unsafe_byzantine"] = True
        cfg = scenario.ScenarioConfig.load(args.config, **overrides)
    except (scenario.ConfigError, OSError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = scenario.run_chain_scenario(cfg, cfg.seed)
    except chain_mod.ChainError as exc:
        print(f"chain halted: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    dump = chain_mod.dump_chain(result, cfg.n)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True)
    if args.registry_out:
        reg = {"n": cfg.n, "master": crypto.digest(b"registry", cfg.seed.to_bytes(8, "big")).hex()}
        with open(args.registry_out, "w") as fh:
            json.dump(reg, fh)
    print(f"chain: {len(dump['blocks'])} certified blocks over {cfg.epochs} epoch(s)")
    return EXIT_OK


def load_registry(path, n_nodes) -> KeyRegistry:
    """The key registry of a dump over ``n_nodes`` nodes.  Its ``n`` is
    checked before any key is derived."""
    with open(path) as fh:
        data = json.load(fh)
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"registry n must be a positive integer, got {n!r:.40}")
    if n != n_nodes:
        raise ValueError(f"registry n {n} does not match the dump's n {n_nodes!r:.40}")
    return KeyRegistry(n, bytes.fromhex(data["master"]))


def cmd_verify(args) -> int:
    try:
        with open(args.chain) as fh:
            dump = json.load(fh)
        registry = load_registry(args.registry, dump["n"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        count = chain_mod.verify_chain_dump(dump, registry)
    except chain_mod.VerifyFailure as exc:
        print(f"verification failed at block {exc.index}: {exc.reason}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"chain dump verified: {count} blocks")
    return EXIT_OK


def _parse_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in text.split(",") if x]


def cmd_bench(args) -> int:
    try:
        if args.model:
            with open(args.model) as fh:
                model = bench_mod.CostModel(**json.load(fh))
        else:
            model = bench_mod.CostModel()
        model.validate()
        shard_range = list(_parse_range(args.shards))
        if not shard_range or any(ns < 1 for ns in shard_range):
            raise ValueError("shard range must be non-empty positive integers")
        for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
            if value < 0:
                raise ValueError(f"{flag} must be >= 0, got {value}")
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid model or range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = bench_mod.sweep(shard_range, model, alpha=args.alpha, beta=args.beta)
    if args.out:
        bench_mod.write_csv(rows, args.out)
    if args.json_out:
        bench_mod.write_json(rows, model, args.json_out, alpha=args.alpha, beta=args.beta)
    xover = bench_mod.crossover(model)
    found = "no crossover up to m=200" if xover is None else f"crossover at m={xover}"
    print(f"bench: {len(rows)} rows, {found}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cobsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run consensus instances over a simulated network")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--out", default=None, help="trace output path (json-lines)")
    sim.add_argument("--unsafe-byzantine", action="store_true")
    sim.set_defaults(fn=cmd_simulate)

    ch = sub.add_parser("chain", help="simulate full synchronization-chain epochs")
    ch.add_argument("--config", required=True)
    ch.add_argument("--seed", type=int, default=None)
    ch.add_argument("--out", default=None, help="chain dump output path (json)")
    ch.add_argument("--registry-out", default=None, help="write the matching key registry")
    ch.add_argument("--unsafe-byzantine", action="store_true")
    ch.set_defaults(fn=cmd_chain)

    ver = sub.add_parser("verify", help="re-check a chain dump bit-exactly")
    ver.add_argument("--chain", required=True)
    ver.add_argument("--registry", required=True)
    ver.set_defaults(fn=cmd_verify)

    be = sub.add_parser("bench", help="cost-model sweep over shard counts")
    be.add_argument("--model", default=None, help="cost model json (defaults built in)")
    be.add_argument("--shards", default="1:100", help="range lo:hi or comma list")
    be.add_argument("--alpha", type=int, default=20)
    be.add_argument("--beta", type=int, default=11)
    be.add_argument("--out", default=None, help="csv output path")
    be.add_argument("--json-out", default=None, help="json output with per-step breakdown")
    be.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
