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


def corpus() -> dict[str, scenario.ScenarioConfig]:
    """Every adversary x topology at n=25, every shipped config, two instances."""
    cases = {}
    for adversary in scenario.ADVERSARIES:
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
    return cases


def digest(cfg: scenario.ScenarioConfig) -> str:
    run = scenario.run_chain_scenario if cfg.mode == "chain" else scenario.run_simulate
    return run(cfg).trace.digest()


def compute() -> dict[str, str]:
    return {name: digest(cfg) for name, cfg in corpus().items()}


def test_golden_digests():
    assert compute() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
