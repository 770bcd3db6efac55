"""Workload inputs, the operation each workload repeats, and output checks.

An operation is one scenario run for one scenario seed.  The workload seed
given on the command line fixes every input: the list of scenario seeds and,
for simulate workloads, the explicit observation plan of each run.  The
program under test sees only the generated ``ScenarioConfig``.

Every check tests a property the protocol must have (agreement, validity,
certificate quorum, chain structure); none compares with a stored output.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from cobsim import chain, crypto, engine, netsim, scenario
from cobsim.crypto import KeyRegistry

CHAIN_ID = "cobsim"
SETUP_PURPOSE = "synchronization_setup"

# Workload make-up.  ``ops`` is the number of distinct scenario seeds in one
# round; a run repeats whole rounds, so every round is the same operations.
# ``tiny`` is the shrunken size the smoke tests run through the same path;
# its committee is the whole population so that it stays quick.
WORKLOADS = {
    # The acceptance config: the paper's single-instance setting.  The
    # equivocating variants exercise the dedup loop of the tally kernel,
    # delivery sampling and the bootstrap instance dominate.
    "consensus-n100": {
        "mode": "simulate", "ops": 60,
        "config": {"n": 100, "committee": 40, "m": 20, "byzantine_fraction": 0.3,
                   "adversary": "equivocate", "topology": "watts_strogatz"},
        "tiny": {"n": 16, "committee": 16, "m": 6},
    },
    # Layers superlinear in n: hop BFS, the final-vote census over 400
    # full-population finals and per-node certificate builds.  Crash faults
    # put the quorum (267) close to the honest count (280).  Every step runs
    # at the full population: with a 40-seat committee the honest seats,
    # Binomial(280, 0.1), often miss T_high=27, so the iterations to halt,
    # and with them bytes, latency and run time, vary too much per seed for
    # a steady figure.
    "consensus-n400": {
        "mode": "simulate", "ops": 10,
        "config": {"n": 400, "committee": 400, "m": 8, "byzantine_fraction": 0.3,
                   "adversary": "crash", "topology": "watts_strogatz"},
        "tiny": {"n": 24, "committee": 24, "m": 4},
    },
    # The Synchronization Chain: tally at full committee, m=10 per slot and
    # m=140 in the epoch-reconfiguration slot, block observation, epoch
    # merge, dump and verification.
    "chain-100x10": {
        "mode": "chain", "ops": 6,
        "config": {"n": 100, "byzantine_fraction": 0.2, "adversary": "mixed",
                   "topology": "watts_strogatz", "num_shards": 10, "num_slots": 10,
                   "epochs": 1},
        "tiny": {"n": 16, "num_shards": 2, "num_slots": 3},
    },
}


@dataclass
class Op:
    """One operation's inputs: a validated config and its scenario seed."""

    seed: int
    config: scenario.ScenarioConfig


def observation_plan(m: int, rng: np.random.Generator) -> list[dict]:
    """Explicit mixed plan: a third unanimous, a third split, the rest random.

    The make-up is fixed so every seed costs alike; the seed picks the
    component order and every unanimous and split value.
    """
    third = max(1, m // 3)
    kinds = ["unanimous"] * third + ["split"] * third + ["random"] * (m - 2 * third)
    plan = []
    for kind in rng.permutation(kinds):
        if kind == "unanimous":
            plan.append({"kind": "unanimous", "value": rng.bytes(8).hex()})
        elif kind == "split":
            plan.append({"kind": "split", "values": [rng.bytes(8).hex(), rng.bytes(8).hex()]})
        else:
            plan.append({"kind": "random", "alphabet": 3})
    return plan


def make_inputs(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one round, a pure function of (workload, seed)."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    ops = []
    for seed_i in rng.integers(0, 2**31 - 1, size=spec["ops"]).tolist():
        data = {"mode": spec["mode"], "chain_id": CHAIN_ID, "seed": seed_i, **spec["config"]}
        if tiny:
            data.update(spec["tiny"])
        if spec["mode"] == "simulate":
            data["observation_plan"] = observation_plan(data["m"], rng)
        ops.append(Op(seed_i, scenario.ScenarioConfig.from_dict(data)))
    return ops


def registry_for(op: Op) -> KeyRegistry:
    """The key registry an outside verifier derives from the scenario seed."""
    return KeyRegistry(op.config.n, crypto.digest(b"registry", op.seed.to_bytes(8, "big")))


def run_op(op: Op):
    """Run one operation; chain runs include the dump and its verification."""
    if op.config.mode == "simulate":
        return scenario.run_simulate(op.config, op.seed)
    result = scenario.run_chain_scenario(op.config, op.seed)
    dump = chain.dump_chain(result, op.config.n)
    count = chain.verify_chain_dump(dump, registry_for(op))
    return result, dump, count


def trace_of(op: Op, out) -> netsim.Trace:
    return out.trace if op.config.mode == "simulate" else out[0].trace


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure descriptions; empty means correct.


def _honest(op: Op) -> list[int]:
    byz = scenario.byzantine_set(op.config, op.seed)
    return [v for v in range(op.config.n) if v not in byz]


def check_simulate(op: Op, out: scenario.SimulateResult) -> list[str]:
    cfg, fails = op.config, []
    honest = _honest(op)
    registry = registry_for(op)
    quorum = 2 * cfg.n // 3 + 1
    entropy = crypto.digest(b"entropy", CHAIN_ID.encode(), op.seed.to_bytes(8, "big"))
    if len(out.results) != cfg.instances:
        return [f"{len(out.results)} instance results, expected {cfg.instances}"]
    for k, res in enumerate(out.results):
        tag = f"seed {op.seed} instance {k}"
        missing = [v for v in honest if v not in res.outputs]
        if not res.certified or missing:
            fails.append(f"{tag}: certified={res.certified}, {len(missing)} honest nodes "
                         "without output")
            continue
        idents = {res.outputs[v].encode_identity() for v in honest}
        if len(idents) != 1:
            fails.append(f"{tag}: {len(idents)} distinct honest outputs")
        for v in honest:
            o = res.outputs[v]
            for j, entry in enumerate(cfg.observation_plan):
                if (o.values[j] is None) != (o.bits[j] == 1):
                    fails.append(f"{tag}: node {v} component {j} blank/bit mismatch")
                # Committees are sampled, so a unanimous component keeps its
                # value only with high probability in the committee size: when
                # a step's honest seats fall below T_high it is blanked.  It
                # may never take another value.
                if entry["kind"] == "unanimous" and o.values[j] not in (
                        None, bytes.fromhex(entry["value"])):
                    fails.append(f"{tag}: node {v} component {j} lost its unanimous value")
        cert = res.certificate
        supporters = {s.node_id for s in cert.supporters}
        if len(supporters) < quorum:
            fails.append(f"{tag}: certificate has {len(supporters)} supporters, "
                         f"quorum is {quorum}")
        reasons: list[str] = []
        if not engine.verify_certificate(cert, registry, cfg.n, cfg.n, entropy, reasons):
            fails.append(f"{tag}: certificate rejected: {reasons}")
        first = res.outputs[honest[0]]
        if tuple(cert.bits) != first.bits or cert.theta_digest != first.theta_digest:
            fails.append(f"{tag}: certificate does not certify the honest output")
        entropy = crypto.digest(entropy, res.theta_digest)
    return fails


def expected_reconfig_m(cfg: scenario.ScenarioConfig) -> int:
    """alpha + beta * Ns' + Ns with beta = slots + extra shard parameters."""
    beta = cfg.num_slots + cfg.extra_shard_params
    return cfg.alpha + beta * cfg.num_shards + cfg.num_shards


def check_chain(op: Op, out) -> list[str]:
    result, dump, count = out
    cfg, fails = op.config, []
    expected = cfg.epochs * cfg.num_slots
    order = [(b["epoch"], b["slot"]) for b in dump["blocks"]]
    want = [(e, s) for e in range(cfg.epochs) for s in range(1, cfg.num_slots + 1)]
    if order != want:
        fails.append(f"seed {op.seed}: blocks in order {order}, expected {want}")
    try:
        verified = chain.verify_chain_dump(dump, registry_for(op))
    except chain.VerifyFailure as exc:
        fails.append(f"seed {op.seed}: dump rejected: {exc}")
        verified = None
    if verified is not None and verified != expected:
        fails.append(f"seed {op.seed}: verify_chain_dump counted {verified}, expected {expected}")
    if count != expected:
        fails.append(f"seed {op.seed}: timed verification counted {count}, expected {expected}")

    byz = scenario.byzantine_set(cfg, op.seed)
    strategies = scenario.build_strategies(cfg, byz)
    withholds = {v for v, s in strategies.items() if isinstance(s, netsim.CrashStrategy)}
    honest = _honest(op)
    for rec, raw in zip(result.blocks, dump["blocks"]):
        tag = f"seed {op.seed} block {rec.epoch}/{rec.slot}"
        epoch_cfg = result.configs[rec.epoch]
        for i, (shard, creator) in enumerate(sorted(epoch_cfg.creators(rec.slot).items())):
            blank = raw["shard_digests"][i] is None
            if blank != (creator in withholds):
                fails.append(f"{tag}: shard {shard} blank={blank} but creator {creator} "
                             f"withholds={creator in withholds}")
        missing = [v for v in honest if v not in rec.result.outputs]
        if missing:
            fails.append(f"{tag}: {len(missing)} honest nodes without output")
        idents = {rec.result.outputs[v].encode_identity() for v in honest
                  if v in rec.result.outputs}
        if len(idents) != 1:
            fails.append(f"{tag}: {len(idents)} distinct honest outputs")
    m_last = expected_reconfig_m(cfg)
    if result.blocks and (result.blocks[-1].result.params.m != m_last
                          or len(dump["blocks"][-1]["values"]) != m_last):
        fails.append(f"seed {op.seed}: last slot instance has m="
                     f"{result.blocks[-1].result.params.m}, expected {m_last}")
    return fails


def check(op: Op, out) -> list[str]:
    return check_simulate(op, out) if op.config.mode == "simulate" else check_chain(op, out)


# ---------------------------------------------------------------------------
# Exact per-run figures read from the trace.


def wire_and_latency(op: Op, out) -> tuple[int, int, list[float]]:
    """(bytes sent by consensus instances, certified instances, latencies).

    The bootstrap instance and shard-block broadcasts are excluded.  A
    latency is one honest node's simulated time from an instance's start
    to its output.
    """
    honest = set(_honest(op))
    if op.config.mode == "simulate":
        certified = sum(1 for r in out.results if r.certified)
    else:
        certified = len(out[0].blocks)
    sent = 0
    starts: dict[tuple, float] = {}
    latencies = []
    for t_abs, _, node, kind, label, step, size, _, _ in trace_of(op, out).records:
        if label.startswith(SETUP_PURPOSE) or label.startswith("blocks/"):
            continue
        if kind == "send":
            sent += size
        elif kind == "timeout" and step == "start":
            starts[(label, node)] = t_abs
        elif kind == "output" and node in honest:
            latencies.append(t_abs - starts[(label, node)])
    return sent, certified, latencies
