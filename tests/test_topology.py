"""Adjacency digests: the lock on the topology generators.

``topology_digests.json`` holds the sha256 of the adjacency lists that
``netsim.build_topology`` returns for every golden scenario case (with the
byzantine set and topology seed ``scenario.build_network`` derives), for
Watts-Strogatz and geometric graphs at n=1000 and n=3000, and for a grid of
small sizes and rewiring probabilities.  The dense Watts-Strogatz cases
(k = n - 2) bring nodes to full degree, where a skipped rewire still
consumes draws.  A generator rewrite that moves no edge leaves every
digest in place.

The one-node ring has no adjacency digest: it is locked by the trace digest
of a one-node run instead, which reads no edge.  Only an intended topology
change may regenerate the file, and it must say which digests moved:

    PYTHONPATH=src python tests/test_topology.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from cobsim import netsim, scenario

from test_golden import moved, scenarios

HERE = Path(__file__).resolve().parent
LOCK = HERE / "topology_digests.json"

# The scenario seed of the first operation of perfbench/reference.py --seed 1
# (the consensus-n400 workload, 30% byzantine, scaled up in n).
REFERENCE_SEED = 242293318
GRID_SIZES = (3, 4, 7, 25, 60, 122)
RING_N1 = {"mode": "simulate", "n": 1, "committee": 1, "m": 2, "topology": "ring", "seed": 3}


def adjacency_digest(adj: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(adj, separators=(",", ":")).encode()).hexdigest()


def topology_cases():
    """(name, n, byz, family, params, seed) for every locked adjacency."""
    for name, cfg in scenarios().items():
        yield (f"golden/{name}", cfg.n, scenario.byzantine_set(cfg, cfg.seed), cfg.topology,
               cfg.topology_params, scenario.topology_seed(cfg.seed))
    for family in ("watts_strogatz", "geometric"):
        for n in (1000, 3000):
            cfg = scenario.ScenarioConfig.from_dict({
                "mode": "simulate", "n": n, "committee": 40, "byzantine_fraction": 0.3,
                "adversary": "crash", "topology": family, "seed": REFERENCE_SEED,
            })
            yield (f"reference/{family}-n{n}", n, scenario.byzantine_set(cfg, REFERENCE_SEED),
                   family, {}, scenario.topology_seed(REFERENCE_SEED))
    for family in scenario.TOPOLOGIES:
        probabilities = (0, 0.2, 0.5, 1) if family == "watts_strogatz" else (None,)
        for n in GRID_SIZES:
            byz = {v for v in range(n) if v % 4 == 1}
            for p in probabilities:
                params = {} if p is None else {"p": p}
                suffix = "" if p is None else f"-p{p}"
                yield f"grid/{family}-n{n}{suffix}", n, byz, family, params, 1000 + n
    for n in GRID_SIZES[1:]:
        byz = {v for v in range(n) if v % 4 == 1}
        for p in (0.2, 0.5):
            yield (f"grid/watts_strogatz-dense-n{n}-p{p}", n, byz, "watts_strogatz",
                   {"k": n - 2, "p": p}, 1000 + n)


def compute() -> dict:
    adjacency = {
        name: adjacency_digest(netsim.build_topology(n, byz, family, params, seed))
        for name, n, byz, family, params, seed in topology_cases()
    }
    ring_n1 = scenario.run_simulate(scenario.ScenarioConfig.from_dict(RING_N1)).trace.digest()
    return {"adjacency": adjacency, "trace": {"ring-n1": ring_n1}}


def test_topology_digests():
    expected, actual = json.loads(LOCK.read_text()), compute()
    lines = [f"{part}/{line}" for part in ("adjacency", "trace")
             for line in moved(expected[part], actual[part])]
    assert not lines, "topology digests moved:\n" + "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_topology.py --write")
    LOCK.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
