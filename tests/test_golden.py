"""Golden trace digests: the behaviour lock for refactors.

A run is a pure function of (scenario, seed) and its trace digest is the
witness.  ``golden_digests.json`` holds the digest of every scenario in the
corpus below; a change that alters any of them changes behaviour.  Only an
intended behaviour change may regenerate the file, and it must say which
digests moved and why:

    PYTHONPATH=src python tests/test_golden.py --write

The corpus runs once per test run, under a line counter.  The same pass
checks that no send repeats within a run, which the pools rely on instead
of suppressing duplicates, and that the corpus runs every statement of
the runner, its pools and the engine's node lifecycle, but for the exempt
ones listed below.
"""

import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from cobsim import engine, netsim, scenario
from line_counter import LineCounter

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
CONFIGS = HERE.parent / "configs"

N25 = {"mode": "simulate", "n": 25, "committee": 25, "m": 4, "observation_plan": "mixed", "seed": 5}
SCALE_N100 = {
    "mode": "simulate", "n": 100, "committee": 100, "m": 4, "observation_plan": "mixed",
    "adversary": "crash", "topology": "watts_strogatz", "byzantine_fraction": 0.3, "seed": 0,
}


def corpus() -> dict[str, scenario.ScenarioConfig]:
    """Every golden case: the scenarios, then the failure paths."""
    return {**scenarios(), **failure_paths()}


def scenarios() -> dict[str, scenario.ScenarioConfig]:
    """Every simulate-mode adversary x topology at n=25, every shipped config,
    two instances, two larger runs that stress the final-vote census and the
    hop BFS, and two chain runs."""
    cases = {}
    for adversary in scenario.ADVERSARIES:
        if adversary == "late_block":
            continue  # chain mode only
        for topology in scenario.TOPOLOGIES:
            cases[f"{adversary}/{topology}"] = scenario.ScenarioConfig.from_dict({
                **N25, "adversary": adversary, "topology": topology,
                "byzantine_fraction": 0.0 if adversary == "honest" else 0.2,
            })
    for path in sorted(CONFIGS.glob("*.json")):
        cases[f"configs/{path.name}"] = scenario.ScenarioConfig.load(path)
    cases["two-instances"] = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 25, "committee": 25, "m": 4, "observation_plan": "mixed",
        "adversary": "mixed", "byzantine_fraction": 0.2, "instances": 2, "seed": 9,
    })
    # Full committee with 30% crashed: 70 honest finals against a quorum of
    # 67, so stragglers catch up from the final pool (both adoption branches).
    cases["scale/n100-crash-watts_strogatz"] = scenario.ScenarioConfig.from_dict(SCALE_N100)
    # A 60-node ring: about 30 BFS levels, paths routed around byzantine nodes.
    cases["scale/ring-n60"] = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 60, "committee": 30, "m": 4, "observation_plan": "mixed",
        "adversary": "mixed", "topology": "ring", "byzantine_fraction": 0.2, "seed": 3,
    })
    # Clock skew of six steps: rows reach a step pool after its first tally,
    # so a late row must invalidate the cached tally.
    cases["skew/n25-mixed-skew6"] = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 25, "committee": 12, "m": 4, "observation_plan": "mixed",
        "adversary": "mixed", "byzantine_fraction": 0.2, "initial_skew": 6, "seed": 2,
    })
    # Chain mode, where late_block acts: byzantine creators release their
    # shard blocks half a block-lambda before the slot ends.
    cases["chain/late_block-n33-3x3"] = scenario.ScenarioConfig.from_dict({
        "mode": "chain", "n": 33, "num_shards": 3, "num_slots": 3,
        "adversary": "late_block", "byzantine_fraction": 0.2, "seed": 4,
    })
    # A sampled chain committee: 20 expected seats per step out of 33 nodes.
    cases["chain/committee20-mixed-n33"] = scenario.ScenarioConfig.from_dict({
        "mode": "chain", "n": 33, "num_shards": 3, "num_slots": 3, "chain_committee": 20,
        "adversary": "mixed", "byzantine_fraction": 0.2, "seed": 4,
    })
    return cases


def failure_paths() -> dict[str, scenario.ScenarioConfig]:
    """One run per failure path of the runner, each a config a user could
    write.  Their n=25 topologies come from the generators that the
    scenarios' adjacency digests lock."""
    cases = {}
    # A horizon cut after the agreement loop, with no certified output: a
    # row still queued at its step pool's release lands in the closed matrix.
    cases["horizon/n25-crash-cut12"] = scenario.ScenarioConfig.from_dict({
        **N25, "adversary": "crash", "byzantine_fraction": 0.2, "horizon": 12,
    })
    # A horizon cut before any final: the instance closes with no final pool.
    cases["horizon/n25-crash-cut2"] = scenario.ScenarioConfig.from_dict({
        **N25, "adversary": "crash", "byzantine_fraction": 0.2, "horizon": 2,
    })
    # A byzantine node walled in by byzantine ring neighbours gets no
    # certificate, so its next start is infinite, and it reaches the
    # iteration cap of the bootstrap (a liveness failure).
    cases["failure/ring-mixed-two-instances"] = scenario.ScenarioConfig.from_dict({
        **N25, "adversary": "mixed", "byzantine_fraction": 0.3, "topology": "ring",
        "instances": 2, "seed": 1,
    })
    # Two seats per step: some nodes count no vote in a coin phase.
    cases["failure/split-committee2-empty-coin"] = scenario.ScenarioConfig.from_dict({
        **N25, "observation_plan": "split", "committee": 2, "adversary": "crash",
        "byzantine_fraction": 0.3, "seed": 2,
    })
    # Two seats per step against 20% equivocators: honest thetas diverge, so
    # a certificate from the final pool does not match some nodes' theta
    # (output-mismatch) ...
    cases["failure/equivocate-committee2-mismatch"] = scenario.ScenarioConfig.from_dict({
        **N25, "adversary": "equivocate", "byzantine_fraction": 0.2, "committee": 2,
        "seed": 15,
    })
    # ... or the finals split and no content reaches the quorum.
    cases["failure/equivocate-committee2-no-quorum"] = scenario.ScenarioConfig.from_dict({
        **N25, "adversary": "equivocate", "byzantine_fraction": 0.2, "committee": 2,
        "seed": 14,
    })
    return cases


def run(cfg: scenario.ScenarioConfig):
    return (scenario.run_chain_scenario if cfg.mode == "chain" else scenario.run_simulate)(cfg)


def digest(cfg: scenario.ScenarioConfig) -> str:
    return run(cfg).trace.digest()


def compute() -> dict[str, str]:
    return {name: digest(cfg) for name, cfg in corpus().items()}


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per case whose digest differs, is missing or is new."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(name), actual.get(name)
        if want != got:
            lines.append(f"{name}: expected {want}, got {got}")
    return lines


# The code whose every statement a pinned case must run.
COUNTED = [
    *(fn for cls in (netsim.InstanceRunner, netsim.Pool, netsim._Rows)
      for fn in vars(cls).values() if inspect.isfunction(fn)),
    engine.cob_start, engine.initial_send, engine._send, engine._mbba_send,
    engine._final_send, engine.step_outcomes, engine.on_step_deadline, engine._advance,
    engine._halt_and_final, engine.adopt_decided_bits, engine.adopt_output,
    engine.adopt_certificate,
]
# (function, statement) that no pinned case runs.  The raises guard the API
# against misuse: a node passed a deadline that is not its step, a read of
# a released step pool, decided bits adopted before grading, and a node
# started twice or with an observation of the wrong length.  The theta-less
# return is a fault detector: a node that never graded would need a quorum
# of finals before its own third deadline, and a node with no start (no
# certificate in the instance before) has no reachable honest signer.  No
# config reached it in two searches: 217 n=25 runs that got past the
# bootstrap (equivocate, mixed, withhold_then_release and bit_flip_votes at
# fractions 0.3-0.7, ring and geometric, two instances, seeds 0-9), and
# 1396 runs with committees 2-8 (n=26: every adversary at 0.2-0.4, seeds
# 0-19; n=25: equivocate at 0.2, seeds 0-29).
EXEMPT = [
    ("Pool._settle", 'raise RuntimeError("read of a released step pool")'),
    ("cob_start", "raise ValueError("),
    ("cob_start",
     'raise RuntimeError(f"instance already started at node {node}; instances are single-shot")'),
    ("on_step_deadline",
     "raise ValueError(f\"deadline {step} does not match the node's step {state.step}\")"),
    ("adopt_decided_bits",
     'raise RuntimeError("cannot adopt decisions before the graded phase completed")'),
    ("adopt_certificate", "return False  # never graded, so it holds no values"),
]


@pytest.fixture(scope="module")
def corpus_run():
    """(digests, repeated sends, unrun statements) of one corpus pass: per
    case its digest and every (instance, digest prefix) that more than one
    send record carries, and the counted statements no case ran."""
    digests, repeated = {}, {}
    with LineCounter(COUNTED) as lines:
        for name, cfg in corpus().items():
            trace = run(cfg).trace
            digests[name] = trace.digest()
            sends = Counter((rec[4], rec[7]) for rec in trace.records if rec[3] == "send")
            repeated[name] = [key for key, count in sends.items() if count > 1]
    return digests, repeated, lines.unrun()


def test_golden_digests(corpus_run):
    lines = moved(json.loads(GOLDEN.read_text()), corpus_run[0])
    assert not lines, "golden digests moved:\n" + "\n".join(lines)


def test_no_send_repeats_within_a_run(corpus_run):
    # A node sends one plan per step and a strategy's variants differ in
    # content, so a pool counts each send once without a digest set (gossip
    # relays forward each message once).
    assert {name: keys for name, keys in corpus_run[1].items() if keys} == {}


def test_corpus_runs_every_runner_statement(corpus_run):
    assert sorted(corpus_run[2]) == sorted(EXEMPT)


def test_reference_digest_n2000():
    # Past the corpus sizes: the first consensus-n400 benchmark operation of
    # seed 1 at n=2000 with a 40-seat step committee (about 3 s, 300 MB).
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 2000, "committee": 40, "m": 8, "byzantine_fraction": 0.3,
        "adversary": "crash", "topology": "watts_strogatz", "seed": 242293318,
        "observation_plan": [
            {"kind": "random", "alphabet": 3},
            {"kind": "random", "alphabet": 3},
            {"kind": "split", "values": ["c7578f990bcc30a0", "f5f2ffab57cd73b9"]},
            {"kind": "random", "alphabet": 3},
            {"kind": "split", "values": ["57c7932bd85f7da3", "d763b6e5b48c1881"]},
            {"kind": "unanimous", "value": "657b7f88cc5c1be1"},
            {"kind": "unanimous", "value": "6ec7f3cf9fdbd502"},
            {"kind": "random", "alphabet": 3},
        ],
    })
    assert digest(cfg) == "bdd64d8c0e479e6d99245d581f612ffc56c324e7c21a23a02c5c3585c726ffac"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
