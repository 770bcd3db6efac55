import numpy as np
import pytest

from cobsim import crypto, netsim, scenario

from conftest import make_network


def test_topology_families_connected():
    import networkx as nx

    for family in ("complete", "ring", "watts_strogatz", "geometric"):
        byz = {1, 5, 9}
        adj = netsim.build_topology(24, byz, family, {}, seed=11)
        g = nx.Graph((u, w) for u, nbrs in enumerate(adj) for w in nbrs)
        g.add_nodes_from(range(24))
        assert nx.is_connected(g)
        honest = [v for v in range(24) if v not in byz]
        assert nx.is_connected(g.subgraph(honest))


def test_adversary_containment_over_random_topologies():
    # honest subgraph stays connected in every generated topology
    import networkx as nx

    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(10, 50))
        byz = set(rng.choice(n, size=n // 4, replace=False).tolist())
        family = ("watts_strogatz", "geometric")[trial % 2]
        adj = netsim.build_topology(n, byz, family, {}, seed=trial)
        g = nx.Graph((u, w) for u, nbrs in enumerate(adj) for w in nbrs)
        g.add_nodes_from(range(n))
        honest = [v for v in range(n) if v not in byz]
        assert nx.is_connected(g.subgraph(honest))


def test_hop_matrix_byzantine_do_not_relay():
    # path 0-1-2 with 1 byzantine: 2 unreachable from 0 except via 1
    adj = [[1], [0, 2], [1]]
    hops = netsim.hop_matrix(adj, {1})
    assert hops[0, 1] == 1
    assert hops[0, 2] == -1
    hops2 = netsim.hop_matrix(adj, set())
    assert hops2[0, 2] == 2


def test_gossip_complete_graph_delivers_once():
    net = make_network(n=3, topology="complete", seed=1)
    row = net.deliver(0, 0.0, 100, crypto.digest(b"m"))
    assert row[0] == 0.0
    assert np.isfinite(row[1]) and np.isfinite(row[2])
    assert (row[1:] <= net.lam(100)).all()


def test_gossip_ring_respects_bound():
    net = make_network(n=10, topology="ring", seed=2)
    row = net.deliver(0, 5.0, 200, crypto.digest(b"ring"))
    assert (row - 5.0 <= net.lam(200) + 1e-12).all()
    # farthest node needs 5 hops; nearer nodes arrive sooner
    assert row[5] >= row[1]


def test_gossip_random_graphs_bound_and_coverage():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(5, 50))
        net = make_network(n=n, seed=trial + 100,
                           topology=("watts_strogatz", "geometric")[trial % 2])
        size = int(rng.integers(50, 4000))
        row = net.deliver(int(rng.integers(0, n)), 0.0, size, crypto.digest(bytes([trial])))
        assert np.isfinite(row).all()  # every honest node reached
        assert (row <= net.lam(size) + 1e-12).all()


def test_fifo_per_origin_destination():
    net = make_network(n=12, seed=4)
    rows = []
    for k in range(6):
        rows.append(net.deliver(0, 0.05 * k, 80, crypto.digest(b"fifo", bytes([k]))))
    for a, b in zip(rows, rows[1:]):
        assert (b >= a).all()


def test_relay_closure_bounds_byzantine_masking():
    net = make_network(n=10, byz={0}, seed=5)
    mask = np.zeros(10, dtype=bool)
    mask[3] = True  # delivered directly only to node 3
    row = net.deliver(0, 1.0, 100, crypto.digest(b"mask"), dest_mask=mask)
    assert np.isfinite(row[3])
    # relays reach everyone within lambda of the first honest receipt
    assert np.isfinite(row[net.honest_mask]).all()
    assert (row[net.honest_mask] <= row[3] + net.lam(100) + 1e-12).all()


def test_same_seed_same_trace_digest():
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 30, "byzantine_fraction": 0.2, "adversary": "equivocate",
        "committee": 12, "m": 4, "observation_plan": "mixed", "seed": 9,
    })
    a = scenario.run_simulate(cfg, 9).trace.digest()
    b = scenario.run_simulate(cfg, 9).trace.digest()
    assert a == b
    c = scenario.run_simulate(cfg, 10).trace.digest()
    assert a != c


def test_single_node_trace_contains_only_timeouts_and_output():
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 1, "committee": 1, "m": 1,
        "observation_plan": "unanimous", "seed": 0,
    })
    result = scenario.run_simulate(cfg, 0)
    assert result.ok
    kinds = {r[3] for r in result.trace.records}
    # a single node talks only to itself: timeouts, its own sends, outputs
    assert "timeout" in kinds
    assert "output" in kinds


def test_crash_third_still_agrees():
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 100, "byzantine_fraction": 0.33, "adversary": "crash",
        "committee": 40, "m": 3, "observation_plan": "unanimous", "seed": 2,
    })
    result = scenario.run_simulate(cfg, 2)
    assert result.ok
    res = result.results[0]
    honest = [v for v in range(100) if v not in result.net.byz]
    assert len(honest) == 67
    idents = {res.outputs[v].encode_identity() for v in honest}
    assert len(idents) == 1


def test_synchronize_resets_and_bounds_skew():
    net = make_network(n=25, seed=6)
    rng = np.random.default_rng(0)
    res = netsim.synchronize(net, b"c", crypto.digest(b"e"), net.n, 0.8, rng)
    assert res.certified
    skew = net.offsets.max() - net.offsets.min()
    final_size = max(
        r[6] for r in net.trace.records if r[3] == "send" and r[5] == "final"
    )
    assert skew <= net.lam(final_size)


def test_deep_topology_scales_hop_delays():
    # a 30-ring has 15-hop paths; per-hop delays shrink so the worst path
    # stays inside the diffusion bound without clamping
    net = make_network(n=30, topology="ring", d_max=0.2, lam_base=1.0, seed=7)
    assert net.d_max * 15 <= net.lam_base + 1e-12
    row = net.deliver(0, 0.0, 10, crypto.digest(b"deep"))
    assert (row <= net.lam(10)).all()


def test_trace_jsonl_roundtrip(tmp_path):
    net = make_network(n=5, seed=8)
    net.trace.add(1.0, 0.5, 2, "send", "inst", "mgc-1", 77, "aa")
    path = tmp_path / "trace.jsonl"
    net.trace.write_jsonl(path)
    import json

    rec = json.loads(path.read_text().splitlines()[0])
    assert rec["size_bytes"] == 77 and rec["kind"] == "send"


@pytest.mark.parametrize("seed", [0, 1, 27, 33])
def test_empty_step_committee_certifies(seed):
    # With 2 expected seats among 7 nodes some steps draw nobody; the empty
    # pool must still tally m components, not one.
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 7, "committee": 2, "m": 3, "adversary": "honest",
        "topology": "complete", "seed": seed,
    })
    result = scenario.run_simulate(cfg)
    assert result.ok
    res = result.results[0]
    assert res.bits == (1, 1, 1)
    assert len({out.encode_identity() for out in res.outputs.values()}) == 1
