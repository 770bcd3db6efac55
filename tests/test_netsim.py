import hashlib
import json
import sys
from collections import Counter, deque

import numpy as np
import pytest

from cobsim import _kernels, crypto, engine, mbba, netsim, scenario

from conftest import make_network
from test_golden import GOLDEN, SCALE_N100, corpus


def spy_pool_rows(monkeypatch) -> dict:
    """Record every row added to a ``Pool``, in send order, keyed by the pool.

    Each entry is (sender, payload row, delivery, sortition output), as the
    runner added it; the pool's own storage is not consulted.  The
    delivery's ``row`` is set once the network delivers its queue.  Keying
    by the pool keeps it alive, so no later pool can share its key.
    """
    rows: dict[netsim.Pool, list] = {}
    add = netsim.Pool.add

    def spy(pool, sender, payload_row, delivery, vrf_out):
        add(pool, sender, payload_row, delivery, vrf_out)
        rows.setdefault(pool, []).append((sender, payload_row, delivery, vrf_out))

    monkeypatch.setattr(netsim.Pool, "add", spy)
    return rows


def deliver_one(net, origin, t_send, size, digest, dest_mask=None, delay=0.0):
    """Queue one message, deliver the queue and return the message's row."""
    sent = net.send(origin, t_send, size, digest, dest_mask, delay)
    net.deliver()
    return sent.row


def assert_honest_relays_connect(adj, byz):
    """Every honest pair is joined through honest relays: the honest
    subgraph is connected, so no byzantine node is a cut vertex for it."""
    honest = [v for v in range(len(adj)) if v not in byz]
    assert (netsim.hop_matrix(adj, byz)[np.ix_(honest, honest)] >= 0).all()


def test_topology_families_connected():
    for family in scenario.TOPOLOGIES:
        adj = netsim.build_topology(24, {1, 5, 9}, family, {}, seed=11)
        assert all(v not in nbrs and nbrs == sorted(set(nbrs)) for v, nbrs in enumerate(adj))
        assert all(v in adj[w] for v, nbrs in enumerate(adj) for w in nbrs)  # undirected
        assert (netsim.hop_matrix(adj, set()) >= 0).all()
        assert_honest_relays_connect(adj, {1, 5, 9})


def test_adversary_containment_over_random_topologies():
    # honest subgraph stays connected in every generated topology
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(10, 50))
        byz = set(rng.choice(n, size=n // 4, replace=False).tolist())
        family = ("watts_strogatz", "geometric")[trial % 2]
        assert_honest_relays_connect(netsim.build_topology(n, byz, family, {}, seed=trial), byz)


def test_every_family_runs_without_networkx(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)  # any import of it fails
    for family in scenario.TOPOLOGIES:
        cfg = scenario.ScenarioConfig.from_dict({
            "mode": "simulate", "n": 16, "committee": 16, "m": 2, "topology": family,
            "adversary": "crash", "byzantine_fraction": 0.25, "seed": 6,
        })
        assert scenario.run_simulate(cfg).ok, family


def test_hop_matrix_byzantine_do_not_relay():
    # path 0-1-2 with 1 byzantine: 2 unreachable from 0 except via 1
    adj = [[1], [0, 2], [1]]
    hops = netsim.hop_matrix(adj, {1})
    assert hops[0, 1] == 1
    assert hops[0, 2] == -1
    hops2 = netsim.hop_matrix(adj, set())
    assert hops2[0, 2] == 2


def reference_hops(adj, byz):
    """Per-origin deque BFS, the oracle for the all-origins ``hop_matrix``."""
    n = len(adj)
    hops = np.full((n, n), -1, dtype=np.int32)
    for origin in range(n):
        dist = hops[origin]
        dist[origin] = 0
        q = deque([origin])
        while q:
            u = q.popleft()
            if u != origin and u in byz:
                continue  # malicious nodes do not relay
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
    return hops


def _byzantine_sets(rng, n):
    """Empty, random, and all nodes but one."""
    return [
        set(),
        set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()),
        set(range(n)) - {int(rng.integers(0, n))},
    ]


def _hop_cases():
    rng = np.random.default_rng(21)
    for trial in range(48):
        family = scenario.TOPOLOGIES[trial % 4]
        n = int(rng.integers(3 if family == "watts_strogatz" else 2, 81))
        params = {}
        if trial % 8 >= 4 and family in ("watts_strogatz", "geometric"):
            # dense enough that the second level expands by matrix product
            params = {"k": max(2, n // 2)} if family == "watts_strogatz" else {"radius": 0.6}
        for byz in _byzantine_sets(rng, n):
            yield f"{family}/n{n}", netsim.build_topology(n, byz, family, params, trial), byz
    for trial in range(12):
        # arbitrary directed adjacency lists, often disconnected: unreachable pairs
        n = int(rng.integers(2, 60))
        p = float(rng.choice([0.02, 0.05, 0.3]))
        adj = [sorted(np.flatnonzero(rng.random(n) < p).tolist()) for _ in range(n)]
        for byz in _byzantine_sets(rng, n):
            yield f"random/n{n}/p{p}", adj, byz
    for n in (150, 301):
        # deep rings: up to 150 levels, every one expanded by gathering
        for byz in _byzantine_sets(rng, n)[:2]:
            yield f"ring/n{n}", netsim.build_topology(n, byz, "ring", {}, n), byz


def test_hop_matrix_matches_per_origin_bfs(monkeypatch):
    branches = Counter()
    for name in ("_expand_sparse", "_expand_dense"):
        original = getattr(netsim, name)

        def spy(*args, _name=name, _original=original):
            branches[_name] += 1
            return _original(*args)

        monkeypatch.setattr(netsim, name, spy)
    unreachable = byzantine_origins = 0
    for label, adj, byz in _hop_cases():
        want = reference_hops(adj, byz)
        got = netsim.hop_matrix(adj, byz)
        assert got.dtype == np.int32
        assert np.array_equal(got, want), (label, sorted(byz))
        unreachable += int((want < 0).any())
        byzantine_origins += int(any((want[b] > 1).any() for b in byz))
    assert unreachable > 10 and byzantine_origins > 10
    assert branches["_expand_sparse"] > 1000 and branches["_expand_dense"] > 10


def test_gossip_complete_graph_delivers_once():
    net = make_network(n=3, topology="complete", seed=1)
    row = deliver_one(net, 0, 0.0, 100, crypto.digest(b"m"))
    assert row[0] == 0.0
    assert np.isfinite(row[1]) and np.isfinite(row[2])
    assert (row[1:] <= net.lam(100)).all()


def test_gossip_ring_respects_bound():
    net = make_network(n=10, topology="ring", seed=2)
    row = deliver_one(net, 0, 5.0, 200, crypto.digest(b"ring"))
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
        row = deliver_one(net, int(rng.integers(0, n)), 0.0, size, crypto.digest(bytes([trial])))
        assert np.isfinite(row).all()  # every honest node reached
        assert (row <= net.lam(size) + 1e-12).all()


def test_fifo_per_origin_destination():
    net = make_network(n=12, seed=4)
    rows = []
    for k in range(6):
        rows.append(deliver_one(net, 0, 0.05 * k, 80, crypto.digest(b"fifo", bytes([k]))))
    for a, b in zip(rows, rows[1:]):
        assert (b >= a).all()


def test_relay_closure_bounds_byzantine_masking():
    net = make_network(n=10, byz={0}, seed=5)
    mask = np.zeros(10, dtype=bool)
    mask[3] = True  # delivered directly only to node 3
    row = deliver_one(net, 0, 1.0, 100, crypto.digest(b"mask"), dest_mask=mask)
    assert np.isfinite(row[3])
    # relays reach everyone within lambda of the first honest receipt
    assert np.isfinite(row[net.honest_mask]).all()
    assert (row[net.honest_mask] <= row[3] + net.lam(100) + 1e-12).all()


def test_adversarial_variants_of_a_vote():
    # An equivocator sends its vote to a random half and, to the other
    # half, a junk row with every bit inverted and no flag; a bit flipper
    # sends the junk row to everyone.  The proof and step travel unchanged.
    net = make_network(n=12, byz={4}, seed=3)
    params = engine.CobParams(engine.CobInstanceId(b"c", 0, 0, "slot_timing"), 6,
                              crypto.digest(b"junk"), net.registry, net.n)
    key = engine.AGREEMENT + 3 * 2 + 1  # iteration 2, phase 1
    bits, flags = np.array([0, 1, 1, 0, 1, 0]), np.array([1, 1, 0, 0, 0, 1])
    plan = engine.SendPlan(key, engine.vote_row(bits, flags), params.draw(key, 4))
    inverted = (1 - bits).tolist()

    vote, junk = netsim.EquivocateStrategy().message_plans(net, 4, plan, params)
    assert vote.row is plan.row
    assert (junk.row & 1).tolist() == inverted and (junk.row >> 1).tolist() == [0] * 6
    assert np.array_equal(vote.dest_mask, ~junk.dest_mask)
    for sent in (vote, junk):
        assert (sent.step, sent.proof, sent.delay) == (key, plan.proof, 0.0)

    (flipped,) = netsim.BitFlipStrategy().message_plans(net, 4, plan, params)
    assert flipped.row.tolist() == inverted and flipped.dest_mask is None
    assert netsim.Strategy().message_plans(net, 4, plan, params) == [plan]


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
    res = netsim.synchronize(net, b"c", crypto.digest(b"e"), 0.8, rng)
    assert res.certified
    skew = net.offsets.max() - net.offsets.min()
    final_size = max(
        r[6] for r in net.trace.records if r[3] == "send" and r[5] == "final"
    )
    assert skew <= net.lam(final_size)


def test_runner_rolls_clocks_over_only_when_certified():
    net = make_network(n=10, seed=31)
    rng = np.random.default_rng(31)
    netsim.synchronize(net, b"c", crypto.digest(b"e"), 0.5, rng)
    before = net.offsets.copy()

    def runner(slot, start_local):
        inst = engine.CobInstanceId(b"c", 0, slot, "slot_timing")
        params = engine.CobParams(inst, 1, crypto.digest(b"roll"), net.registry, net.n)
        return netsim.InstanceRunner(net, params, [[b"x"]] * net.n, start_local)

    cut = runner(1, 2.0)
    assert np.array_equal(cut.start_abs, before + 2.0)
    res = cut.run(horizon=float(cut.start_abs.min()) + 0.5 * cut.step_len)
    assert not res.certified
    assert np.array_equal(net.offsets, before)  # the horizon cut leaves the clocks alone

    res = runner(2, 0.0).run()
    assert res.certified
    assert np.array_equal(net.offsets, res.assembly_times)
    assert not np.array_equal(net.offsets, before)


def test_deep_topology_scales_hop_delays():
    # a 30-ring has 15-hop paths; per-hop delays shrink so the worst path
    # stays inside the diffusion bound without clamping
    net = make_network(n=30, topology="ring", d_max=0.2, lam_base=1.0, seed=7)
    assert net.d_max * 15 <= net.lam_base + 1e-12
    row = deliver_one(net, 0, 0.0, 10, crypto.digest(b"deep"))
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


def test_adoption_from_finals_takes_both_branches(monkeypatch):
    # 70 honest finals against a quorum of 67: nodes catch up from the final
    # pool with a full certificate ("output": the node now holds its output)
    # or with decided bits only ("halted": it halts and holds none yet).
    # adopt_output halts through adopt_decided_bits, so the branches are
    # told apart by the node's state change, not by which function ran.
    kinds = Counter()
    adopt = netsim.InstanceRunner._maybe_adopt_from_finals

    def spy(self, node, t_abs):
        state = self.states[node]
        had_output, was_halted = state.output is not None, state.halted
        plans = adopt(self, node, t_abs)
        if state.output is not None and not had_output:
            kinds["output"] += 1
        elif state.halted and not was_halted:
            kinds["halted"] += 1
        return plans

    monkeypatch.setattr(netsim.InstanceRunner, "_maybe_adopt_from_finals", spy)
    assert scenario.run_simulate(scenario.ScenarioConfig.from_dict(SCALE_N100)).ok
    assert kinds["output"] > 0 and kinds["halted"] > 0


def test_straggler_adopting_an_output_sends_one_final(monkeypatch):
    # On a complete graph some nodes reach an agreement deadline after a
    # certificate quorum of finals arrived but before casting their own:
    # they adopt the output and back it with exactly one final.
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 25, "committee": 25, "m": 4, "observation_plan": "mixed",
        "adversary": "honest", "topology": "complete", "seed": 5,
    })
    stragglers = []
    rows = spy_pool_rows(monkeypatch)
    adopt = netsim.InstanceRunner._maybe_adopt_from_finals

    def spy(self, node, t_abs):
        state = self.states[node]
        had_final, had_output = state.halted, state.output is not None
        plans = adopt(self, node, t_abs)
        if state.output is not None and not had_output and not had_final:
            stragglers.append((self, node, plans))
        return plans

    monkeypatch.setattr(netsim.InstanceRunner, "_maybe_adopt_from_finals", spy)
    assert scenario.run_simulate(cfg).ok
    assert stragglers
    for runner, v, plans in stragglers:
        state = runner.states[v]
        assert [p.step for p in plans] == [engine.FINAL_STEP]
        finals = rows[runner.pools[engine.FINAL_STEP]]
        assert [sender for sender, *_ in finals].count(v) == 1
        assert state.halted and state.step is None and state.output is not None


def test_one_certificate_per_output_holding_the_finals_seen(monkeypatch):
    # The horizon cuts the instance while some nodes are still waiting for
    # their next deadline: 41 nodes adopt from the final pool, 59 assemble
    # their certificate when the run finishes.
    cfg = scenario.ScenarioConfig.from_dict({**SCALE_N100, "horizon": 21.44})
    runs, adopted_at, builds = [], {}, Counter()
    rows = spy_pool_rows(monkeypatch)
    run = netsim.InstanceRunner.run
    adopt = netsim.InstanceRunner._maybe_adopt_from_finals
    init = engine.Certificate.__init__

    def spy_run(self, horizon=np.inf):
        result = run(self, horizon)
        runs.append((self, result))
        return result

    def spy_adopt(self, node, t_abs):
        had_output = self.states[node].output is not None
        plans = adopt(self, node, t_abs)
        if self.states[node].output is not None and not had_output:
            adopted_at[id(self), node] = t_abs
        return plans

    def spy_init(cert, *args, **kwargs):
        builds["certificates"] += 1
        init(cert, *args, **kwargs)

    monkeypatch.setattr(netsim.InstanceRunner, "run", spy_run)
    monkeypatch.setattr(netsim.InstanceRunner, "_maybe_adopt_from_finals", spy_adopt)
    monkeypatch.setattr(engine.Certificate, "__init__", spy_init)
    result = scenario.run_simulate(cfg)
    assert result.ok and len(runs) == 2  # bootstrap and the configured instance
    # the cut instance certified first, so it keeps its outputs and is no failure
    assert runs[1][1].cut_at == 21.44 and runs[1][1].certified

    late = 0
    for runner, res in runs:
        params, net = runner.params, runner.net
        first = {}  # sender -> (signature, delivery row) of its first certified final
        for sender, payload, delivery, _ in rows[runner.pools[engine.FINAL_STEP]]:
            if (payload[0], payload[1]) == (bytes(res.bits), res.theta_digest):
                first.setdefault(sender, (payload[2], delivery.row))
        for v in map(int, np.flatnonzero(net.honest_mask)):
            t = adopted_at.get((id(runner), v))
            if t is None:
                late += 1
                t = res.assembly_times[v]
            want = [
                engine.FinalVote(sender, params.draw(engine.FINAL_STEP, sender).pseudo_vrf_output,
                                 sig)
                for sender, (sig, delivery) in first.items() if delivery[v] <= t
            ]
            cert = res.outputs[v].certificate
            assert cert.supporters == want, v
            assert engine.verify_certificate(cert, net.registry, net.n, net.n,
                                             params.entropy)
    assert 0 < late < 100
    # one certificate per output, plus each instance's canonical one
    outputs = [out.certificate for _, res in runs for out in res.outputs.values()]
    assert len({id(c) for c in outputs}) == len(outputs)
    assert builds["certificates"] == len(outputs) + len(runs)


@pytest.mark.parametrize("case, late_rows", [
    ("equivocate/watts_strogatz", False),
    ("skew/n25-mixed-skew6", True),
])
def test_step_pool_tallies_match_the_raw_rows(monkeypatch, case, late_rows):
    # Equivocators pool several rows per sender; under a six-step clock skew
    # rows reach a step pool after its first tally.  At every node's
    # deadline each step pool must count exactly what the kernel counts over
    # the raw rows, sorted by sender with a stable sort, and its coin
    # minimum must be the plain minimum over the timely rows.  A tally made
    # before the interner grew is the recount's leading columns; the
    # columns of the newer values are all zeros.  The row the node applies,
    # taken from the step's batch, must be what the rules give for that
    # node's full-width tally alone.
    rows = spy_pool_rows(monkeypatch)
    step_outcome = netsim.InstanceRunner.step_outcome
    seen = {}  # pool -> rows present at its first check
    late = multi = rebatched = narrow = 0

    def spy(runner, step, node):
        nonlocal late, multi, rebatched, narrow
        batch = runner.pool(step).batch
        row, present = step_outcome(runner, step, node)
        pool = runner.pools[step]
        rebatched += batch is not None and pool.batch is not batch
        raw = rows.get(pool, [])
        deadlines = runner.start_abs + step * runner.step_len
        assert np.array_equal(pool.deadlines, deadlines)
        num_values = len(runner.params.interner) if step <= engine.GRADED else 4
        senders = np.array([sender for sender, *_ in raw], dtype=np.int32)
        order = np.argsort(senders, kind="stable")
        payloads = np.array([payload for _, payload, *_ in raw], dtype=np.int32)
        deliveries = np.array([delivery.row for _, _, delivery, _ in raw])
        want = _kernels.tally_votes(
            deliveries.reshape(len(raw), runner.net.n)[order], deadlines, senders[order],
            payloads.reshape(len(raw), runner.params.m)[order], num_values)
        got = pool.tally(num_values)
        width = got.shape[-1]
        assert np.array_equal(got, want[..., :width]) and not want[..., width:].any()
        narrow += width < num_values
        mins, present_now = pool.min_vrf()
        coins = None
        for v in range(runner.net.n):
            timely = [crypto.u64_from(vrf) for _, _, delivery, vrf in raw
                      if delivery.row[v] <= deadlines[v]]
            assert bool(present_now[v]) == bool(timely)
            if timely:
                assert int(mins[v]) == min(timely)
        if present is not None:
            assert np.array_equal(present, present_now)
            coins = mbba.coin_bit(mins[[node]], present_now[[node]])
        state = runner.states[node]
        alone = engine.step_outcomes(runner.params, step, [state], want[[node]], coins)
        assert len(row) == len(alone)
        for part, single in zip(row, alone):
            assert np.array_equal(part, single[0]), (step, node)
        late += seen.setdefault(pool, len(raw)) != len(raw)
        multi += len(set(senders.tolist())) < len(raw)
        return row, present

    monkeypatch.setattr(netsim.InstanceRunner, "step_outcome", spy)
    scenario.run_simulate(corpus()[case])
    assert multi > 0 and narrow > 0
    assert (late > 0) == late_rows
    # Only a late row recomputes a tally, and the nodes still at the step
    # then get a new batch; a junk value interned after the first tally
    # changes neither.
    assert (rebatched > 0) == late_rows


def reference_rows(net, sends):
    """Each queued send delivered alone, in send order: the per-message model."""
    floor, rows = {}, []
    for d in sends:
        row = _kernels.delivery_times([d.t_send], net.hops[[d.origin]], [d.seed],
                                      net.d_min, net.d_max, [d.cap])[0]
        if d.dest_mask is not None:
            keep = np.array(d.dest_mask, dtype=bool)
            keep[d.origin] = True
            row[~keep] = np.inf
        if d.origin in net.byz:
            direct = row[net.honest_mask]
            if np.isfinite(direct).any():
                row = np.minimum(row, direct.min() + d.cap)
        else:
            if d.origin in floor:
                row = np.maximum(row, floor[d.origin])
            floor[d.origin] = row
        rows.append(row)
    return rows


@pytest.mark.parametrize("cells", [netsim.DELIVERY_CELLS, 64])
def test_queued_delivery_matches_sending_alone(monkeypatch, cells):
    # A random send sequence through the runner: honest and byzantine
    # origins, repeated origins, destination masks and delays.  Mid-stream
    # the iteration-0 pools are released, some of their rows still queued,
    # and the later sends go to iteration 1, as a run's do: no node sends
    # for a step past its deadline.  Delivered after every send or once at
    # the end, in one chunk or many, each row is the one the message gets
    # when sent alone at its turn, and each open pool holds the rows of its
    # sends.  A row still queued at its pool's release is delivered into
    # the closed matrix, which stays empty.
    monkeypatch.setattr(netsim, "DELIVERY_CELLS", cells)
    sends: list[netsim.Delivery] = []
    send = netsim.Network.send

    def spy(net, *args):
        sends.append(send(net, *args))
        return sends[-1]

    monkeypatch.setattr(netsim.Network, "send", spy)
    runs = []
    for flush_each in (True, False):
        sends.clear()
        net = make_network(n=12, byz={2, 7}, seed=5)
        params = engine.CobParams(engine.CobInstanceId(b"q", 0, 0, "slot_timing"), 3,
                                  crypto.digest(b"queue"), net.registry, net.n)
        runner = netsim.InstanceRunner(net, params, [[b"a", b"b", b"c"]] * net.n)
        rng = np.random.default_rng(8)
        t, released, detached = 0.0, set(), []
        for i in range(160):
            if i == 60:
                for key, pool in runner.pools.items():
                    if engine.agreement(key)[0] == 0:
                        detached += [(pool, d) for d in sends
                                     if d.into is pool.deliveries and d.row is None]
                        pool.release()
                        released.add(key)
            node = int(rng.choice([0, 1, 2, 3, 7, 0, 1]))
            t += float(rng.choice([0.0, 0.01, 0.2]))
            iteration = 1 if released else int(rng.integers(0, 2))
            key = engine.AGREEMENT + 3 * iteration + int(rng.integers(0, 3))
            row = engine.vote_row(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
            mask = rng.random(net.n) < 0.5 if node in net.byz and i % 3 == 0 else None
            delay = float(rng.uniform(0, 0.3)) if node in net.byz and i % 5 == 0 else 0.0
            runner._emit(node, t, engine.SendPlan(key, row, params.draw(key, node), None,
                                                  mask, delay))
            if flush_each:
                net.deliver()
        net.deliver()
        assert all(d.into is not None for d in sends)  # every send is pooled
        want = reference_rows(net, sends)
        assert all(np.array_equal(d.row, w) for d, w in zip(sends, want))
        for key, pool in runner.pools.items():
            if key in released:
                assert pool.deliveries.size == 0 and pool._tally is None
                continue
            kept = [d.row for d in sends if d.into is pool.deliveries]
            assert np.array_equal(pool.deliveries.view(), np.array(kept))
        # rows queued at their pool's release were delivered into its closed matrix
        assert (len(detached) > 0) == (not flush_each)
        assert all(d.into is pool.deliveries and d.row is not None for pool, d in detached)
        runs.append([d.row for d in sends])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_released_step_pool_refuses_reads():
    # A released pool raises on a tally or coin read.  A row still queued
    # at the release lands in the closed matrix, which keeps nothing.
    net = make_network(n=6, seed=2)
    deadlines = np.full(net.n, 5.0)
    deadlines[3] = np.inf  # a node that never reaches the step
    pool = netsim.Pool(net, 2, deadlines)
    assert pool.release_at == 5.0
    assert netsim.Pool(net, 2, np.full(net.n, np.inf)).release_at == -np.inf
    row = np.array([1, 2], dtype=np.int32)
    pool.add(0, row, net.send(0, 0.0, 10, crypto.digest(b"first")), bytes(32))
    assert pool.tally(3).sum() > 0  # delivers the queue
    assert pool.min_vrf()[1].any()
    queued = net.send(2, 0.5, 10, crypto.digest(b"second"))
    pool.add(2, row, queued, bytes(32))
    pool.release()
    assert pool.batch is None and pool._tally is None and queued.into is pool.deliveries
    for read in (lambda: pool.tally(3), lambda: pool.min_vrf()):
        with pytest.raises(RuntimeError, match="released"):
            read()
    net.deliver()
    assert queued.row is not None and pool.deliveries.size == 0


@pytest.mark.parametrize("case", [
    "skew/n25-mixed-skew6",
    "equivocate/watts_strogatz",
    "chain/committee20-mixed-n33",
])
def test_step_pools_live_only_as_long_as_their_step(monkeypatch, case):
    # Every deadline event the loop pops is its node's entry of the step
    # pool's deadline vector, and a pool's release time is that vector's
    # largest finite entry: the latest deadline over all nodes.  At every
    # node's deadline a step pool is released exactly when the event loop
    # has passed that time, so only the pools still open hold a tally or a
    # rule batch.  After the run every step pool is released and holds no
    # rows, tally or batch; the final pool's census stays.
    runners, reads, open_reads = [], Counter(), Counter()
    step_outcome = netsim.InstanceRunner.step_outcome
    on_deadline = netsim.InstanceRunner._on_deadline
    run = netsim.InstanceRunner.run

    def spy_deadline(runner, v, t, key, liveness):
        assert t == runner.pools[key].deadlines[v], (key, v)
        reads["deadlines"] += 1
        return on_deadline(runner, v, t, key, liveness)

    def spy_outcome(runner, step, node):
        t = runner.pools[step].deadlines[node]
        for key, pool in runner.pools.items():
            if key == engine.FINAL_STEP:
                continue
            passed = pool.release_at < t
            assert pool.released == passed, (key, step, node)
            if passed:
                assert pool._tally is None and pool.batch is None
            else:
                open_reads[pool._tally is not None] += 1
        reads["released"] += sum(p.released for p in runner.pools.values())
        reads["calls"] += 1
        return step_outcome(runner, step, node)

    def spy_run(runner, horizon=np.inf):
        result = run(runner, horizon)
        runners.append(runner)
        return result

    monkeypatch.setattr(netsim.InstanceRunner, "_on_deadline", spy_deadline)
    monkeypatch.setattr(netsim.InstanceRunner, "step_outcome", spy_outcome)
    monkeypatch.setattr(netsim.InstanceRunner, "run", spy_run)
    cfg = corpus()[case]
    (scenario.run_chain_scenario if cfg.mode == "chain" else scenario.run_simulate)(cfg)
    assert reads["calls"] > 0 and reads["released"] > 0 and reads["deadlines"] > reads["calls"]
    assert open_reads[True] > 0  # open pools do hold tallies between reads
    assert len(runners) >= 2
    for runner in runners:
        assert not runner._open
        finite_starts = runner.start_abs[np.isfinite(runner.start_abs)]
        for key, pool in runner.pools.items():
            if key == engine.FINAL_STEP:
                assert not pool.released and pool.final_groups()
                continue
            finite = pool.deadlines[np.isfinite(pool.deadlines)]
            assert pool.release_at == finite.max()
            assert pool.release_at == finite_starts.max() + key * runner.step_len
            assert pool.released and pool._tally is None and pool._last is None
            assert pool.batch is None and pool.deliveries.size == 0
            assert pool.senders is pool.vrf64 is pool.payloads is None


# ---------------------------------------------------------------------------
# Trace format lock: the digest and the JSONL file see one line per decided
# component, formatted exactly as a record was formatted when every decided
# component was its own record.


def reference_notes(rec) -> list[str]:
    """A record's note per trace line: a decide record has one line per
    (component, bit) pair of its note."""
    return [f"component {c} -> {b}" for c, b in rec[8]] if rec[3] == "decide" else [rec[8]]


def reference_digest(records) -> str:
    """blake2b over every line, its fields formatted one by one and joined."""
    h = hashlib.blake2b(digest_size=32)
    for rec in records:
        for note in reference_notes(rec):
            h.update("|".join((f"{rec[0]:.17g}", f"{rec[1]:.17g}", str(rec[2]), rec[3], rec[4],
                               rec[5], str(rec[6]), rec[7], note)).encode())
            h.update(b"\n")
    return h.hexdigest()


def reference_jsonl(records) -> str:
    keys = ("t_abs", "t_local", "node", "kind", "instance", "step", "size_bytes", "digest", "note")
    return "".join(json.dumps(dict(zip(keys, rec[:8] + (note,))), sort_keys=True) + "\n"
                   for rec in records for note in reference_notes(rec))


TRACE_CASE = "configs/chain_small.json"  # block sends, obs-rejects, a 48-component slot


def run_case(name):
    cfg = corpus()[name]
    return (scenario.run_chain_scenario if cfg.mode == "chain" else scenario.run_simulate)(cfg)


@pytest.mark.parametrize("batch", [netsim.TRACE_BATCH, 7])
def test_trace_format_digest_matches_the_reference(monkeypatch, batch):
    # digest() mid-run, then again each time at least one batch of records
    # has been hashed in between, and once after the run.  Each instance
    # run ends with every record hashed.
    monkeypatch.setattr(netsim, "TRACE_BATCH", batch)
    checked = []
    on_deadline = netsim.InstanceRunner._on_deadline

    def spy_deadline(runner, v, t, step, liveness):
        trace = runner.net.trace
        if not checked or len(trace.records) > checked[-1] + batch:
            checked.append(len(trace.records))
            assert trace.digest() == reference_digest(trace.records), checked
        return on_deadline(runner, v, t, step, liveness)

    run = netsim.InstanceRunner.run
    runs = []

    def spy_run(runner, horizon=np.inf):
        result = run(runner, horizon)
        trace = runner.net.trace
        assert trace._hashed == len(trace.records)  # hashed inside the run
        runs.append(len(trace.records))
        return result

    monkeypatch.setattr(netsim.InstanceRunner, "_on_deadline", spy_deadline)
    monkeypatch.setattr(netsim.InstanceRunner, "run", spy_run)
    trace = run_case(TRACE_CASE).trace
    assert len(checked) >= 2 and len(runs) >= 2
    assert max(len(r[8]) for r in trace.records if r[3] == "decide") >= 2
    assert trace.digest() == reference_digest(trace.records)
    assert trace.digest() == json.loads(GOLDEN.read_text())[TRACE_CASE]


def test_trace_format_jsonl_matches_the_reference(tmp_path):
    trace = run_case(TRACE_CASE).trace
    assert max(len(r[8]) for r in trace.records if r[3] == "decide") >= 2
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    assert path.read_text() == reference_jsonl(trace.records)


# ---------------------------------------------------------------------------
# Decide records: one per (node, deadline), its pairs in decision_log order.


def spy_decisions(monkeypatch, fail_first=False) -> tuple[list, list]:
    """(calls, failed): (instance label, node, step label, new decision_log
    entries) of every ``on_step_deadline`` call.  With ``fail_first``, the
    first slot-instance call that decides anything raises ``LivenessError``
    after deciding, as the iteration cap does, and is also in ``failed``."""
    calls, failed = [], []
    on_step_deadline = engine.on_step_deadline

    def spy(state, step, row):
        before = len(state.decision_log)
        plans = on_step_deadline(state, step, row)
        inst = state.params.instance
        call = (f"{inst.purpose}/{inst.epoch}/{inst.slot}", state.node,
                engine.step_label(step), state.decision_log[before:])
        calls.append(call)
        if fail_first and call[3] and not failed and inst.purpose == "slot_timing":
            failed.append(call)
            raise mbba.LivenessError("injected")
        return plans

    monkeypatch.setattr(engine, "on_step_deadline", spy)
    return calls, failed


def test_decide_record_one_per_deadline_in_log_order(monkeypatch):
    calls, _ = spy_decisions(monkeypatch)
    result = run_case("two-instances")
    want = [((label, v, step), tuple((c, b) for _, _, c, b in new))
            for label, v, step, new in calls if new]
    got = [((r[4], r[2], r[5]), r[8]) for r in result.trace.records if r[3] == "decide"]
    assert got == want
    assert any(len(note) >= 2 for _, note in got)
    # A node's decide notes, in trace order, are its decision log.
    for res in result.results:
        label = f"slot_timing/0/{res.params.instance.slot}"
        for v, state in res.states.items():
            pairs = [p for r in result.trace.records
                     if r[3] == "decide" and r[4] == label and r[2] == v for p in r[8]]
            assert pairs == [entry[2:] for entry in state.decision_log]


def test_decide_record_decision_log_holds_python_ints():
    result = run_case("two-instances")
    entries = [e for res in result.results for s in res.states.values() for e in s.decision_log]
    assert entries
    assert all(type(e) is tuple and len(e) == 4 and all(type(x) is int for x in e)
               for e in entries)
    notes = [r[8] for r in result.trace.records if r[3] == "decide"]
    assert all(type(p) is tuple and all(type(x) is int for x in p) for note in notes for p in note)


def test_decide_record_none_at_a_liveness_failure(monkeypatch):
    _, failed = spy_decisions(monkeypatch, fail_first=True)
    result = run_case("two-instances")
    [(label, v, step, new)] = failed
    assert new  # the failing deadline did decide components
    at_deadline = [r[3] for r in result.trace.records
                   if r[4] == label and r[2] == v and r[5] == step
                   and r[3] in ("decide", "liveness-failure")]
    assert at_deadline == ["liveness-failure"]
    assert v in [u for res in result.results for u in res.liveness_failures]
