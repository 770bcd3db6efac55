import dataclasses
import math
import struct

import numpy as np
import pytest

from cobsim import chain, crypto, netsim, scenario

from conftest import make_network


def make_config(n=33, shards=2, slots=3, duration=40.0, entropy=b"cfg"):
    return chain.genesis_config(crypto.digest(entropy), n, shards, slots, duration)


def run(net, epochs=1, shards=2, slots=3, duration=40.0, seed=1, **kw):
    cfg = make_config(net.n, shards, slots, duration)
    return chain.run_chain(net, b"chainT", epochs, cfg, rng=np.random.default_rng(seed), **kw)


# -- compute_nc ---------------------------------------------------------------

def test_compute_nc_reference_values():
    assert chain.compute_nc(20, 11, 10, 10) == 140
    assert chain.compute_nc(20, 11, 50, 50) == 620
    assert chain.compute_nc(0, 0, 0, 7) == 7


def test_compute_nc_formula_grid():
    for ns in range(1, 101):
        assert chain.compute_nc(20, 11, ns, ns) == 20 + 12 * ns
    for a in (0, 3, 20):
        for b in (0, 5, 11):
            for nsn in (1, 4, 9):
                for nsc in (1, 7):
                    assert chain.compute_nc(a, b, nsn, nsc) == a + b * nsn + nsc


def test_compute_nc_rejects_negatives():
    with pytest.raises(ValueError):
        chain.compute_nc(-1, 11, 10, 10)
    with pytest.raises(ValueError):
        chain.compute_nc(20, 11, -2, 10)


# -- config and observation rules ---------------------------------------------

def test_config_validation():
    cfg = make_config()
    cfg.validate(33, lam_bound=1.0)
    with pytest.raises(ValueError):
        make_config(duration=3.0).validate(33, lam_bound=1.0)  # t must exceed 4*lambda
    bad = make_config()
    del bad.assignment[(1, 1)]
    with pytest.raises(ValueError):
        bad.validate(33, lam_bound=1.0)


def test_slot_observation_time_boundary():
    blk = chain.ShardBlock(b"c", 0, 1, 1, 5, chain.shard_genesis_digest(b"c", 1), b"pp")
    dig = blk.digest()
    creators = {1: 5}
    prev = {1: chain.shard_genesis_digest(b"c", 1)}
    row = np.array([9.0, 10.0, 11.0])
    blocks = [(blk, dig, row)]
    # strictly before local t=10 counts; at or after does not
    assert chain.slot_observation(blocks, creators, prev, 10.0, 0) == [dig]
    assert chain.slot_observation(blocks, creators, prev, 10.0, 1) == [None]
    assert chain.slot_observation(blocks, creators, prev, 10.0, 2) == [None]


def test_slot_observation_rejects_wrong_creator_and_link():
    prev = {1: chain.shard_genesis_digest(b"c", 1)}
    wrong_creator = chain.ShardBlock(b"c", 0, 1, 1, 6, prev[1], b"pp")
    wrong_link = chain.ShardBlock(b"c", 0, 1, 1, 5, bytes(32), b"pp")
    row = np.array([1.0])
    blocks = [(wrong_creator, wrong_creator.digest(), row),
              (wrong_link, wrong_link.digest(), row)]
    assert chain.slot_observation(blocks, {1: 5}, prev, 5.0, 0) == [None]


def test_late_block_release_time():
    for frac, lams in ((1.0, -0.5), (0.5, 0.0), (1.0, 1.0), (0.25, -2.0)):
        got = netsim.LateBlockStrategy(frac, lams).block_release(40.0, 1.25)
        assert got == frac * 40.0 + lams * 1.25
    assert netsim.Strategy().block_release(40.0, 1.25) == 0.0
    assert netsim.CrashStrategy().block_release(40.0, 1.25) is None


def test_late_block_is_sent_against_the_block_bound():
    cfg = make_config(33, 1, 1)
    creator = cfg.assignment[(1, 1)]
    net = make_network(n=33, seed=22)
    net.byz = {creator}
    net.strategies = {creator: netsim.LateBlockStrategy(1.0, -0.5)}
    chain.run_chain(net, b"chainT", 1, cfg, block_size=100, rng=np.random.default_rng(22))
    [send] = [r for r in net.trace.records if r[3] == "send" and r[4] == "blocks/0/1"]
    lam_block = chain.block_lambda(net.lam_base, net.lam_per_byte, 100)
    assert send[1] == pytest.approx(40.0 - 0.5 * lam_block, abs=1e-9)


# -- epoch parameter layout -------------------------------------------------------

@pytest.mark.parametrize("extra", [0, 1, 2])
def test_vector_round_trips_through_apply_epoch_output(extra):
    for shards in range(1, 17):
        for alpha in range(3, 21):
            entropy = crypto.digest(b"vec", bytes([shards, alpha, extra]))
            cfg = chain.genesis_config(entropy, 33, shards, 3, 40.0, alpha, extra)
            vec = cfg.vector()
            assert len(vec) == cfg.alpha + cfg.beta * shards
            got = chain.apply_epoch_output(vec, cfg, 33, 1.0)
            assert got.assignment == cfg.assignment
            assert got.general_params == cfg.general_params
            assert got.shard_params == cfg.shard_params
            assert got.vector() == vec


def test_epoch_observation_lays_out_the_derived_config():
    prev = chain.genesis_config(crypto.digest(b"cfg"), 33, 3, 4, 40.0, alpha=6,
                                extra_shard_params=2)
    entropy = crypto.digest(b"ent")
    want = [(3).to_bytes(8, "big"), (4).to_bytes(8, "big"), struct.pack(">d", 40.0)]
    want += [crypto.digest(entropy, b"gp", k.to_bytes(4, "big"))[:8] for k in range(3, 6)]
    assignment = chain.derive_assignment(entropy, 4, 3, 33)
    for shard in range(1, 4):
        want += [assignment[(slot, shard)].to_bytes(8, "big") for slot in range(1, 5)]
        want += [crypto.digest(entropy, b"sp", shard.to_bytes(4, "big"), k.to_bytes(4, "big"))[:8]
                 for k in range(2)]
    assert chain.epoch_observation(prev, entropy, 33) == want


def test_last_slot_agrees_on_nc_components():
    net = make_network(n=16, seed=28)
    res = run(net, shards=3, slots=2, seed=28)
    cfg = res.configs[0]
    nc = chain.compute_nc(cfg.alpha, cfg.beta, cfg.num_shards, cfg.num_shards)
    assert [rec.result.params.m for rec in res.blocks] == [3, nc]
    assert len(res.blocks[-1].block.epoch_data.parameters) == nc - cfg.num_shards


# -- merge rules ----------------------------------------------------------------

def oracle_merge(parameters, prev, n_nodes):
    """Independent componentwise merge used to cross-check apply_epoch_output."""
    alpha, beta = prev.alpha, prev.beta
    ns = (len(parameters) - alpha) // beta
    creators = sorted({v for v in prev.assignment.values()})
    fallback = 0
    merged = {}
    for shard in range(1, ns + 1):
        base = alpha + (shard - 1) * beta
        for slot in range(1, prev.num_slots + 1):
            raw = parameters[base + slot - 1]
            if raw is None:
                merged[(slot, shard)] = creators[fallback % len(creators)]
                fallback += 1
            else:
                merged[(slot, shard)] = int.from_bytes(raw, "big")
    return merged


def test_apply_epoch_output_adopts_verbatim():
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    cfg = chain.apply_epoch_output(props, prev, 33, 1.0)
    assert cfg.epoch == prev.epoch + 1
    assert cfg.num_shards == prev.num_shards
    assert cfg.assignment == oracle_merge(props, prev, 33)


def test_apply_epoch_output_full_fallback():
    prev = make_config()
    props = [None] * (prev.alpha + prev.beta * prev.num_shards)
    cfg = chain.apply_epoch_output(props, prev, 33, 1.0)
    assert cfg.epoch == prev.epoch + 1
    assert cfg.num_shards == prev.num_shards
    assert cfg.slot_duration == prev.slot_duration
    assert cfg.assignment == oracle_merge(props, prev, 33)


def test_apply_epoch_output_partial_blank_duration():
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    props[2] = None  # blank the slot-duration component only
    cfg = chain.apply_epoch_output(props, prev, 33, 1.0)
    assert cfg.slot_duration == prev.slot_duration
    assert cfg.assignment == oracle_merge(props, prev, 33)


def test_apply_epoch_output_blank_assignments_round_robin():
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    for k in range(prev.alpha, prev.alpha + prev.num_slots):
        props[k] = None  # blank shard-1 creators
    cfg = chain.apply_epoch_output(props, prev, 33, 1.0)
    assert cfg.assignment == oracle_merge(props, prev, 33)
    cfg.validate(33, 1.0)


def test_apply_epoch_output_rejects_inconsistent_shard_count():
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    props[0] = (99).to_bytes(8, "big")  # contradicts the list-L layout
    with pytest.raises(chain.EpochRejected):
        chain.apply_epoch_output(props, prev, 33, 1.0)


def test_apply_epoch_output_rejects_unknown_node():
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    props[prev.alpha] = (1000).to_bytes(8, "big")
    with pytest.raises(chain.EpochRejected):
        chain.apply_epoch_output(props, prev, 33, 1.0)


@pytest.mark.parametrize("component, raw", [
    (2, struct.pack(">d", 40.0)[:7]),  # slot duration, 7 bytes
    ("creator", (5).to_bytes(7, "big")),  # first creator of shard 1, 7 bytes
    (2, struct.pack(">d", math.inf)),
    (2, struct.pack(">d", math.nan)),
], ids=["short-duration", "short-creator", "inf-duration", "nan-duration"])
def test_apply_epoch_output_rejects_malformed_components(component, raw):
    prev = make_config()
    props = chain.epoch_observation(prev, crypto.digest(b"ent"), 33)
    idx = prev.alpha if component == "creator" else component
    props[idx] = raw
    with pytest.raises(chain.EpochRejected) as err:
        chain.apply_epoch_output(props, prev, 33, 1.0)
    if len(raw) != 8:
        assert str(err.value) == f"component {idx}: 7 bytes, need 8"
    else:
        assert "must be finite" in str(err.value)


# -- slot and chain runs ---------------------------------------------------------

def test_all_honest_chain_structure():
    net = make_network(n=33, seed=20)
    res = run(net, epochs=2, shards=2, slots=3, seed=20)
    assert len(res.blocks) == 6
    for rec in res.blocks:
        assert (rec.block.epoch_data is not None) == (rec.slot == 3)
        assert all(d is not None for d in rec.block.shard_digests)
    # hash links
    prev = crypto.digest(b"genesis", b"chainT")
    for rec in res.blocks:
        assert rec.block.prev == prev
        prev = rec.block.digest()


def test_crash_creator_blanks_only_its_shard():
    seed = 21
    base_net = make_network(n=33, seed=seed)
    base = run(base_net, shards=3, slots=2, seed=seed)

    cfg = make_config(33, 3, 2)
    victim = cfg.assignment[(1, 2)]  # creator of shard 2 in slot 1
    net = make_network(n=33, seed=seed)
    net.byz = {victim}
    net.strategies = {victim: netsim.CrashStrategy()}
    res = run(net, shards=3, slots=2, seed=seed)

    blk = res.blocks[0].block
    base_blk = base.blocks[0].block
    assert blk.shard_digests[1] is None  # shard 2 blanked
    # component independence: other shards certified identically (same seed)
    assert blk.shard_digests[0] == base_blk.shard_digests[0]
    assert blk.shard_digests[2] == base_blk.shard_digests[2]


def test_late_block_never_certified_when_released_after_slot_end():
    cfg = make_config(33, 1, 1)
    creator = cfg.assignment[(1, 1)]
    net = make_network(n=33, seed=22)
    net.byz = {creator}
    net.strategies = {creator: netsim.LateBlockStrategy(1.0, +1.0)}
    res = chain.run_chain(net, b"chainT", 1, cfg, rng=np.random.default_rng(22))
    assert res.blocks[0].block.shard_digests == [None]


def test_honest_release_always_certified():
    cfg = make_config(33, 1, 1)
    creator = cfg.assignment[(1, 1)]
    net = make_network(n=33, seed=23)
    net.byz = {creator}
    net.strategies = {creator: netsim.LateBlockStrategy(1.0, -2.0)}  # exactly t - 2*lambda
    res = chain.run_chain(net, b"chainT", 1, cfg, rng=np.random.default_rng(23))
    assert res.blocks[0].block.shard_digests[0] is not None


def test_dump_verify_roundtrip_and_epoch_structure():
    net = make_network(n=33, seed=24)
    res = run(net, epochs=2, shards=2, slots=3, seed=24)
    dump = chain.dump_chain(res, 33)
    assert chain.verify_chain_dump(dump, net.registry) == 6

    import copy

    # corrupt a shard digest
    bad = copy.deepcopy(dump)
    bad["blocks"][2]["shard_digests"][0] = bytes(32).hex()
    with pytest.raises(chain.VerifyFailure):
        chain.verify_chain_dump(bad, net.registry)

    # remove supporters below quorum
    bad = copy.deepcopy(dump)
    keep = res.blocks[0].result.params.t_cert - 1
    bad["blocks"][0]["certificate"]["supporters"] = \
        bad["blocks"][0]["certificate"]["supporters"][:keep]
    with pytest.raises(chain.VerifyFailure):
        chain.verify_chain_dump(bad, net.registry)

    # break a hash link
    bad = copy.deepcopy(dump)
    bad["blocks"][3]["prev"] = bytes(32).hex()
    with pytest.raises(chain.VerifyFailure):
        chain.verify_chain_dump(bad, net.registry)


def test_each_slot_starts_a_slot_duration_after_the_last_certificate():
    net = make_network(n=16, seed=27)
    res = run(net, epochs=2, shards=2, slots=3, seed=27)
    records = net.trace.records
    rollover = {r[2]: r[0] for r in records if r[3] == "clock-reset"}  # the bootstrap's
    for rec in res.blocks:
        label = f"{rec.result.params.instance.purpose}/{rec.epoch}/{rec.slot}"
        starts = {r[2]: r[0] for r in records
                  if r[3] == "timeout" and r[4] == label and r[5] == "start"}
        assert starts == {v: float(rollover[v] + 40.0) for v in range(net.n)}, label
        rollover = dict(enumerate(rec.result.assembly_times))


def test_skew_stays_bounded_over_many_slots():
    net = make_network(n=21, seed=25)
    res = run(net, epochs=1, shards=1, slots=100, duration=30.0, seed=25)
    assert len(res.blocks) == 100
    final_sizes = [r[6] for r in net.trace.records if r[3] == "send" and r[5] == "final"]
    bound = net.lam(max(final_sizes))
    for rec in res.blocks:
        times = rec.result.assembly_times
        assert times.max() - times.min() <= bound + 1e-12


def test_partitioned_evidence_blanks_component_and_falls_back():
    # half the nodes propose a different shard count: no 2/3 majority on that
    # component, the network agrees on blank, the previous value is carried
    net = make_network(n=33, seed=26)
    cfg = make_config(33, 2, 2)
    overrides = {v: (5).to_bytes(8, "big") for v in range(0, 33, 2)}
    res = chain.run_chain(net, b"chainT", 1, cfg, rng=np.random.default_rng(26),
                          evidence_overrides=overrides)
    last = res.blocks[-1]
    assert last.block.epoch_data is not None
    assert last.block.epoch_data.parameters[0] is None  # blanked
    assert res.configs[1].num_shards == cfg.num_shards  # fallback to layout


def test_rejected_epoch_data_carries_the_configuration_over():
    # Every node proposes shard count 5 over a two-shard list-L layout: the
    # network agrees on it, the merge rejects it, and each epoch keeps the
    # previous configuration with only its counter advanced.
    net = make_network(n=33, seed=26)
    cfg = make_config(33, 2, 2)
    overrides = {v: (5).to_bytes(8, "big") for v in range(33)}
    res = chain.run_chain(net, b"chainT", 2, cfg, rng=np.random.default_rng(26),
                          evidence_overrides=overrides)
    assert len(res.blocks) == 4
    rejected = [r for r in net.trace.records if r[3] == "epoch-rejected"]
    assert [r[8] for r in rejected] == \
        ["agreed shard count 5 contradicts the list-L layout 2"] * 2
    for rec in (res.blocks[1], res.blocks[3]):
        assert rec.block.epoch_data.parameters[0] == (5).to_bytes(8, "big")
    assert [c.epoch for c in res.configs] == [0, 1, 2]
    for c in res.configs[1:]:
        assert c == dataclasses.replace(cfg, epoch=c.epoch)
    assert chain.verify_chain_dump(chain.dump_chain(res, 33), net.registry) == 4


def test_chain_bootstrap_honours_zero_skew(monkeypatch):
    skews = []
    synchronize = netsim.synchronize

    def spy(net, chain_id, entropy, initial_skew, rng):
        skews.append(initial_skew)
        return synchronize(net, chain_id, entropy, initial_skew, rng)

    monkeypatch.setattr(netsim, "synchronize", spy)
    cfg = scenario.ScenarioConfig.from_dict({
        "mode": "chain", "n": 16, "num_shards": 1, "num_slots": 1, "initial_skew": 0, "seed": 1,
    })
    assert len(scenario.run_chain_scenario(cfg).blocks) == 1
    assert skews == [0]
