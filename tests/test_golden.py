"""Golden trace digests: the behaviour lock for refactors.

A run is a pure function of (scenario, seed) and its trace digest is the
witness.  ``golden_digests.json`` holds the digest of every scenario in the
corpus below; a change that alters any of them changes behaviour.  Only an
intended behaviour change may regenerate the file, and it must say which
digests moved and why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

from cobsim import scenario

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
CONFIGS = HERE.parent / "configs"

SCALE_N100 = {
    "mode": "simulate", "n": 100, "committee": 100, "m": 4, "observation_plan": "mixed",
    "adversary": "crash", "topology": "watts_strogatz", "byzantine_fraction": 0.3, "seed": 0,
}


def corpus() -> dict[str, scenario.ScenarioConfig]:
    """Every simulate-mode adversary x topology at n=25, every shipped config,
    two instances, two larger runs that stress the final-vote census and the
    hop BFS, and two chain runs."""
    cases = {}
    for adversary in scenario.ADVERSARIES:
        if adversary == "late_block":
            continue  # chain mode only
        for topology in scenario.TOPOLOGIES:
            cases[f"{adversary}/{topology}"] = scenario.ScenarioConfig.from_dict({
                "mode": "simulate", "n": 25, "committee": 25, "m": 4,
                "observation_plan": "mixed", "adversary": adversary, "topology": topology,
                "byzantine_fraction": 0.0 if adversary == "honest" else 0.2, "seed": 5,
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


def digest(cfg: scenario.ScenarioConfig) -> str:
    run = scenario.run_chain_scenario if cfg.mode == "chain" else scenario.run_simulate
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


def test_golden_digests():
    lines = moved(json.loads(GOLDEN.read_text()), compute())
    assert not lines, "golden digests moved:\n" + "\n".join(lines)


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
