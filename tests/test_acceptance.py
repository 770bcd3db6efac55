"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; regression constants were computed once and frozen.
"""

import itertools
import time

import numpy as np
import pytest

from cobsim import bench, chain, crypto, engine, mbba, mgc, netsim, scenario
from cobsim.bench import CostModel

from conftest import make_network

N = 100
COMMITTEE = 40
M = 20
BYZ_FRACTION = 0.3
STRATEGIES = ("crash", "equivocate", "withhold_then_release", "bit_flip_votes")
RUNS_PER_STRATEGY = 200


def _criterion1_runs():
    """Shared corpus for criteria 1 and 2: 200 seeded runs per strategy."""
    if _criterion1_runs.cache is None:
        corpus = []
        t0 = time.time()
        for adv in STRATEGIES:
            cfg = scenario.ScenarioConfig.from_dict({
                "mode": "simulate", "n": N, "byzantine_fraction": BYZ_FRACTION,
                "adversary": adv, "committee": COMMITTEE, "m": M,
                "observation_plan": "mixed", "seed": 0,
            })
            for seed in range(RUNS_PER_STRATEGY):
                r = scenario.run_simulate(cfg, seed)
                res = r.results[0]
                honest = [v for v in range(N) if v not in r.net.byz]
                grades = {v: res.states[v].grades.copy() for v in honest}
                thetas = {v: res.states[v].theta.copy() for v in honest}
                outputs = {
                    v: res.outputs[v].encode_identity() if v in res.outputs else None
                    for v in honest
                }
                cert_sizes = {
                    v: len(res.outputs[v].certificate.supporters)
                    for v in honest if v in res.outputs
                }
                sample_cert = res.outputs[honest[0]].certificate if honest[0] in res.outputs else None
                corpus.append({
                    "adv": adv, "seed": seed, "honest": honest,
                    "certified": res.certified and r.ok,
                    "outputs": outputs, "grades": grades, "thetas": thetas,
                    "cert_sizes": cert_sizes, "sample_cert": sample_cert,
                    "params": res.params, "registry": r.net.registry,
                    "honest_caps": [v for v in res.liveness_failures if v in honest],
                })
        _criterion1_runs.elapsed = time.time() - t0
        _criterion1_runs.cache = corpus
    return _criterion1_runs.cache


_criterion1_runs.cache = None
_criterion1_runs.elapsed = 0.0


def test_criterion_1_end_to_end_agreement():
    """All honest outputs byte-identical and certificates verify, 800 runs."""
    corpus = _criterion1_runs()
    failures = []
    verified = 0
    for run in corpus:
        tag = (run["adv"], run["seed"])
        if not run["certified"]:
            failures.append((*tag, "liveness: not every honest node produced output"))
            continue
        idents = set(run["outputs"].values())
        if len(idents) != 1 or None in idents:
            failures.append((*tag, "outputs diverge"))
        t_cert = run["params"].t_cert
        if any(size < t_cert for size in run["cert_sizes"].values()):
            failures.append((*tag, "certificate below quorum"))
        cert = run["sample_cert"]
        if cert is not None:
            ok = engine.verify_certificate(
                cert, run["registry"], N, N, run["params"].entropy
            )
            if ok:
                verified += 1
            else:
                failures.append((*tag, "certificate failed verification"))
    assert not failures, failures[:10]
    assert verified == len(corpus)
    print(f"\nACCEPTANCE 1: PASS — {len(corpus)} runs ({RUNS_PER_STRATEGY} per strategy), "
          f"all honest outputs identical, {verified} certificates verified, "
          f"runtime {_criterion1_runs.elapsed:.0f}s (< 300s target)")
    assert _criterion1_runs.elapsed < 300


def test_criterion_2_grade_properties():
    """Per-component honest grade gap <= 1; grade 2 implies shared theta."""
    corpus = _criterion1_runs()
    violations = []
    for run in corpus:
        honest = run["honest"]
        g = np.stack([run["grades"][v] for v in honest])  # (h, m)
        t = np.stack([run["thetas"][v] for v in honest])
        gap = g.max(axis=0) - g.min(axis=0)
        for comp in np.nonzero(gap > 1)[0]:
            violations.append((run["adv"], run["seed"], int(comp), "grade gap > 1"))
        for comp in np.nonzero((g == 2).any(axis=0))[0]:
            if len(set(t[:, comp].tolist())) != 1:
                violations.append((run["adv"], run["seed"], int(comp), "grade-2 theta split"))
        if run["honest_caps"]:
            violations.append((run["adv"], run["seed"], -1, "honest node hit iteration cap"))
    assert not violations, violations[:10]
    print(f"ACCEPTANCE 2: PASS — zero grade-gap or grade-2 violations over {len(corpus)} runs")


def test_criterion_3_validity_and_leaderlessness():
    """Unanimous honest observations are preserved; single-node ablation is inert."""
    n, committee, m = 60, 60, 3
    x = bytes.fromhex("aabbccdd")
    plan = [{"kind": "unanimous", "value": x.hex()}] * m
    base_cfg = {"mode": "simulate", "n": n, "byzantine_fraction": 0.0,
                "adversary": "honest", "committee": committee, "m": m,
                "observation_plan": plan, "seed": 0}
    failures = []
    idents = {}
    for seed in range(40):
        r = scenario.run_simulate(scenario.ScenarioConfig.from_dict(base_cfg), seed)
        res = r.results[0]
        if not r.ok:
            failures.append((seed, "liveness"))
            continue
        for v, out in res.outputs.items():
            if out.values != [x] * m:
                failures.append((seed, f"node {v} output {out.values}"))
                break
        idents[seed] = res.outputs[0].encode_identity()
    assert not failures, failures[:5]

    ablations = 0
    for seed in (0, 1, 2):
        for victim in range(n):
            cfg = scenario.ScenarioConfig.from_dict({**base_cfg, "ablate_node": victim})
            r = scenario.run_simulate(cfg, seed)
            res = r.results[0]
            others = [v for v in range(n) if v != victim]
            if any(v not in res.outputs for v in others):
                failures.append((seed, victim, "missing output"))
                continue
            if any(res.outputs[v].encode_identity() != idents[seed] for v in others):
                failures.append((seed, victim, "output changed by ablation"))
            ablations += 1
    assert not failures, failures[:5]
    print(f"ACCEPTANCE 3: PASS — unanimity preserved in 40/40 runs; "
          f"{ablations} single-node ablations left the output unchanged")


def _timed_slot_run(seed, offset_frac, offset_lambdas, n=40, byz_extra=0):
    cfg = chain.genesis_config(crypto.digest(b"c4", seed.to_bytes(4, "big")), n, 1, 1, 40.0)
    creator = cfg.assignment[(1, 1)]
    net = make_network(n=n, seed=1000 + seed)
    net.byz = {creator}
    net.strategies = {creator: netsim.LateBlockStrategy(offset_frac, offset_lambdas)}
    net.honest_mask = np.array([v != creator for v in range(n)], dtype=bool)
    res = chain.run_chain(net, b"c4", 1, cfg, rng=np.random.default_rng(seed))
    return res.blocks[0].block.shard_digests[0]


def test_criterion_4_time_slot_soundness():
    """Release-time sweep: early releases always certify, late never, the
    ambiguous window never forks."""
    points = {
        "0.5t": (0.5, 0.0, "always"),
        "t-2lam": (1.0, -2.0, "always"),
        "t-1.5lam": (1.0, -1.5, "either"),
        "t-0.5lam": (1.0, -0.5, "either"),
        "t+lam": (1.0, 1.0, "never"),
    }
    seeds = 100
    stats = {}
    for label, (frac, lam, expect) in points.items():
        certified = 0
        for seed in range(seeds):
            digest = _timed_slot_run(seed, frac, lam)
            if digest is not None:
                certified += 1
        stats[label] = certified
        if expect == "always":
            assert certified == seeds, (label, certified)
        elif expect == "never":
            assert certified == 0, (label, certified)
    print(f"ACCEPTANCE 4: PASS — certification counts over {seeds} seeds/point: {stats} "
          f"(early=100%, late=0%, window forks: none)")


class ClaimLateStrategy(netsim.Strategy):
    """Honest votes, except a blank step-1 vector: claims every block was late."""

    def message_plans(self, net, node, plan, params):
        if plan.step == 1:
            blank = np.zeros(params.m, dtype=np.int32)
            return [engine.SendPlan(plan.step, blank, plan.proof)]
        return super().message_plans(net, node, plan, params)


def test_criterion_5_late_claim_attack_resistance():
    """30% of nodes voting blank cannot suppress an on-time honest block."""
    n = 40
    suppressed = 0

    for seed in range(200):
        cfg = chain.genesis_config(crypto.digest(b"c5", seed.to_bytes(4, "big")), n, 1, 1, 40.0)
        creator = cfg.assignment[(1, 1)]
        byz = [v for v in range(n) if v != creator][: int(n * 0.3)]
        net = make_network(n=n, seed=2000 + seed)
        net.byz = set(byz)
        net.honest_mask = np.array([v not in net.byz for v in range(n)], dtype=bool)
        net.strategies = {v: ClaimLateStrategy() for v in byz}
        res = chain.run_chain(net, b"c5", 1, cfg, rng=np.random.default_rng(seed))
        if res.blocks[0].block.shard_digests[0] is None:
            suppressed += 1
    assert suppressed == 0
    print(f"ACCEPTANCE 5: PASS — 200/200 on-time blocks certified against "
          f"{int(n * 0.3)}/{n} blank-voting nodes")


def test_criterion_6_epoch_arithmetic():
    assert chain.compute_nc(20, 11, 10, 10) == 140
    for ns in range(1, 101):
        assert chain.compute_nc(20, 11, ns, ns) == 20 + 12 * ns
    print("ACCEPTANCE 6: PASS — Nc(20, 11, 10, 10) = 140 and Nc = 20 + 12*Ns exact for Ns in 1..100")


def test_criterion_7_chain_integrity():
    """3 epochs x 10 slots, shards in {1,4,16}, mixed adversaries, 60 runs."""
    n = 40
    runs = 0
    fallbacks = 0
    for shards in (1, 4, 16):
        for seed in range(20):
            cfg_d = {
                "mode": "chain", "n": n, "byzantine_fraction": BYZ_FRACTION,
                "adversary": "mixed", "epochs": 3, "num_shards": shards,
                "num_slots": 10, "slot_duration": 60.0, "seed": seed,
                "chain_id": f"c7-{shards}",
            }
            cfg = scenario.ScenarioConfig.from_dict(cfg_d)
            result = scenario.run_chain_scenario(cfg, seed)
            assert len(result.blocks) == 30, (shards, seed)
            # exactly one certified block per slot, in order
            slots = [(rec.epoch, rec.slot) for rec in result.blocks]
            assert slots == [(e, s) for e in range(3) for s in range(1, 11)]
            # every hash link and certificate re-verifies
            dump = chain.dump_chain(result, n)
            reg = scenario.KeyRegistry(n, crypto.digest(b"registry", seed.to_bytes(8, "big")))
            assert chain.verify_chain_dump(dump, reg) == 30
            # last-of-epoch blocks carry epoch data; blanks fell back cleanly
            for rec in result.blocks:
                has_ed = rec.block.epoch_data is not None
                assert has_ed == (rec.slot == 10), (shards, seed, rec.slot)
                if has_ed:
                    fallbacks += sum(
                        1 for v in rec.block.epoch_data.parameters if v is None
                    )
            for cfg_epoch in result.configs:
                cfg_epoch.validate(n, 0.0 if cfg_epoch.slot_duration > 0 else 1.0)
            runs += 1
    assert runs == 60

    # Exercise the blank-component fallback: partitioned evidence blanks the
    # shard-count proposal; the merged config must carry the previous value
    # and still satisfy its invariants.
    for seed in range(6):
        net = make_network(n=n, seed=4000 + seed)
        gcfg = chain.genesis_config(crypto.digest(b"c7f", seed.to_bytes(4, "big")), n, 2, 2, 40.0)
        overrides = {v: (7).to_bytes(8, "big") for v in range(0, n, 2)}
        result = chain.run_chain(net, b"c7f", 1, gcfg, rng=np.random.default_rng(seed),
                                 evidence_overrides=overrides)
        ed = result.blocks[-1].block.epoch_data
        assert ed is not None and ed.parameters[0] is None
        fallbacks += 1
        merged = result.configs[1]
        assert merged.num_shards == gcfg.num_shards
        merged.validate(n, chain.block_lambda(net.lam_base, net.lam_per_byte, 256))
    print(f"ACCEPTANCE 7: PASS — 60/60 chains intact (30 blocks each), all dumps verified; "
          f"{fallbacks} blanked epoch components fell back per policy with valid merged configs")


def test_criterion_8_cost_model_shape():
    """Baseline linear, multi-valued affine with smaller slope, pinned
    crossover; simulation within +-20% of the closed-form model."""
    model = CostModel()
    base1 = bench.algorand_baseline(1, model)
    for ns in range(1, 101):
        for kind in ("regular", "last"):
            m = bench.components_for(ns, kind)
            assert bench.algorand_baseline(m, model) == m * base1  # exactly linear
    d1 = bench.cob_cost(2, model) - bench.cob_cost(1, model)
    for m in range(2, 260, 13):
        assert bench.cob_cost(m + 1, model) - bench.cob_cost(m, model) == d1  # affine
    assert d1 < base1  # per-component increment below the baseline's
    xover = bench.crossover(model)
    assert xover == 1  # pinned regression constant
    for ns in range(1, 101):
        for kind in ("regular", "last"):
            m = bench.components_for(ns, kind)
            if m >= xover:
                assert bench.cob_cost(m, model) < bench.algorand_baseline(m, model)

    # simulation vs model: 100 seeds at N=200, committee 40, m=20
    measured = CostModel.measured(n=200, committee=40, value_bytes=10,
                                  expected_mbba_iterations=1.1)
    predicted = bench.cob_cost(M, measured)
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "simulate", "n": 200, "byzantine_fraction": 0.0, "adversary": "honest",
        "committee": 40, "m": M, "observation_plan": "unanimous", "seed": 0,
    })
    ratios = []
    for seed in range(100):
        r = scenario.run_simulate(cfg, seed)
        total, _ = bench.account_trace(r.trace, "slot_timing/0/0")
        ratios.append(total / predicted)
    assert all(0.8 <= q <= 1.2 for q in ratios), (min(ratios), max(ratios))
    print(f"ACCEPTANCE 8: PASS — baseline linear, cost affine (slope {d1:.0f} vs {base1:.0f}), "
          f"crossover m={xover}; sim/model ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_9_determinism():
    """20 spot checks: identical (scenario, seed) gives identical trace digests."""
    checks = 0
    for adv in STRATEGIES:
        for seed in (3, 17):
            cfg = scenario.ScenarioConfig.from_dict({
                "mode": "simulate", "n": 40, "byzantine_fraction": 0.25, "adversary": adv,
                "committee": 16, "m": 5, "observation_plan": "mixed", "seed": seed,
            })
            assert scenario.run_simulate(cfg, seed).trace.digest() == \
                scenario.run_simulate(cfg, seed).trace.digest()
            checks += 1
    for shards in (1, 3):
        for seed in (5, 6, 7):
            cfg = scenario.ScenarioConfig.from_dict({
                "mode": "chain", "n": 33, "byzantine_fraction": 0.25, "adversary": "mixed",
                "epochs": 1, "num_shards": shards, "num_slots": 2, "slot_duration": 40.0,
                "seed": seed,
            })
            assert scenario.run_chain_scenario(cfg, seed).trace.digest() == \
                scenario.run_chain_scenario(cfg, seed).trace.digest()
            checks += 1
    for seed in range(6):
        cfg = scenario.ScenarioConfig.from_dict({
            "mode": "simulate", "n": 25, "byzantine_fraction": 0.0, "adversary": "honest",
            "committee": 25, "m": 2, "observation_plan": "unanimous", "seed": 100 + seed,
        })
        assert scenario.run_simulate(cfg).trace.digest() == scenario.run_simulate(cfg).trace.digest()
        checks += 1
    assert checks == 20
    print(f"ACCEPTANCE 9: PASS — {checks}/20 spot checks bit-identical")


def test_criterion_10_small_instance_oracles():
    """Exhaustive rule-oracle equivalence; exact, zero tolerance."""
    from test_mgc import counts_from_votes, oracle_echo, oracle_finalize
    from test_mbba import oracle_transition, run_transition

    digests = [crypto.digest(b"d", bytes([i])) for i in range(3)]
    ranks = np.zeros(3, dtype=np.int64)
    for rank, vid in enumerate(sorted(range(3), key=lambda i: digests[i])):
        ranks[vid] = rank
    checked_mgc = 0
    for total in range(0, 9):
        for votes in itertools.product((0, 1, 2), repeat=total):
            counts = counts_from_votes(votes, 3)
            assert int(mgc.echo_filter(counts)[0]) == oracle_echo(votes, 3)
            theta, grades = mgc.finalize(counts, ranks, 6, 3)
            assert (int(theta[0]), int(grades[0])) == oracle_finalize(votes, digests, 6, 3)
            checked_mgc += 1

    checked_mbba = 0
    for z in range(11):
        for o in range(11 - z):
            for fz in range(z + 1):
                for fo in range(o + 1):
                    for phase in (0, 1, 2):
                        for coin in ((0, 1) if phase == 2 else (None,)):
                            for bit in (0, 1):
                                got = run_transition(bit, False, phase, z, o, fz, fo, 7, coin)
                                want = oracle_transition(bit, False, phase, z, o, fz, fo, 7, coin)
                                assert got[:2] == want
                                checked_mbba += 1
    print(f"ACCEPTANCE 10: PASS — {checked_mgc} graded-consensus tallies and "
          f"{checked_mbba} agreement transitions match the brute-force oracles exactly")
