import dataclasses
from collections import Counter

import numpy as np
import pytest

from cobsim import crypto, engine, mbba, netsim, sortition, values
from cobsim.crypto import KeyRegistry
from cobsim.engine import CobInstanceId, CobParams

from conftest import bootstrap, make_network


def make_params(m=3, n=20, committee=None, tag=b"t"):
    reg = KeyRegistry(n, crypto.digest(b"engine", tag))
    inst = CobInstanceId(b"chain", 0, 0, "slot_timing")
    return CobParams(inst, m, crypto.digest(b"e", tag), reg, committee or n)


def counts_for(params, payload):
    """(m, V) step tally holding one message with ``payload``."""
    c = np.zeros((params.m, len(params.interner)), dtype=np.int32)
    for comp, vid in enumerate(payload):
        c[comp, vid] += 1
    return c


def agreement_step(iteration, phase):
    """The step of agreement iteration ``iteration``, phase ``phase``."""
    return engine.AGREEMENT + 3 * iteration + phase


def deadline(state, step, counts, coin_min_vrf=None):
    """Pass one deadline as the runner does, for this node alone: the step's
    rules over its (m, V) tally, then its row applied.  ``coin_min_vrf`` is
    the minimum sortition output among the coin-phase votes counted."""
    coins = None
    if step > engine.GRADED and engine.agreement(step)[1] == mbba.PHASE_COIN:
        present = coin_min_vrf is not None
        coins = mbba.coin_bit(np.array([coin_min_vrf or 0], dtype=np.uint64), present)
    outcome = engine.step_outcomes(state.params, step, [state], counts[None], coins)
    return engine.on_step_deadline(state, step, tuple(part[0] for part in outcome))


def graded_node(m=2, n=1, tag=b"lifecycle"):
    """A node past the three graded steps, each tallying only its own
    message, so every component has grade 2 and bit 0."""
    params = make_params(m=m, n=n, committee=n, tag=tag)
    state = engine.cob_start(params, 0, [bytes([65 + c]) for c in range(m)])
    payload = state.observation
    for step in (1, 2, 3):
        sends = deadline(state, step, counts_for(params, payload))
        payload = sends[0].row if step < 3 else None
    assert state.step == agreement_step(0, 0)
    return state


def vote_counts(zeros, ones):
    """(m, VOTE_VALUES) agreement tally of unflagged votes per bit."""
    counts = np.zeros((len(zeros), engine.VOTE_VALUES), dtype=np.int32)
    counts[:, 0], counts[:, 1] = zeros, ones
    return counts


def certified_digest(state):
    """(bits, output digest) of the node's theta, computed from the interned
    values directly; the params' memo must hold the same pair."""
    bits = state.bits.tolist()
    theta_values = [state.params.interner.value(v) for v in state.theta.tolist()]
    values = engine.output_values(theta_values, bits)
    digest = engine.output_digest(state.params.digest, bits, values)
    assert state.params.output(state.theta, bits) == (values, digest)
    return bytes(bits), digest


def run_instance(net, m, observations, committee=None, entropy=None, tag=0):
    inst = CobInstanceId(b"testchain", 0, tag, "slot_timing")
    params = CobParams(
        inst, m, entropy or crypto.digest(b"ent", tag.to_bytes(4, "big")),
        net.registry, committee or net.n,
    )
    runner = netsim.InstanceRunner(net, params, observations)
    return runner.run(), runner


def test_instance_id_purposes():
    CobInstanceId(b"c", 0, 0, "slot_timing")
    CobInstanceId(b"c", 0, 0, "epoch_reconfig")
    CobInstanceId(b"c", 0, 0, "synchronization_setup")
    with pytest.raises(ValueError):
        CobInstanceId(b"c", 0, 0, "other")


def test_cob_start_accepts_matching_length():
    params = make_params(m=3)
    state = engine.cob_start(params, 0, [b"a", None, b"c"])
    assert state.step == 1


def test_cob_start_rejects_length_mismatch():
    params = make_params(m=3)
    with pytest.raises(ValueError):
        engine.cob_start(params, 0, [b"a", None])


def test_cob_start_single_shot():
    params = make_params(m=1)
    engine.cob_start(params, 0, [b"a"])
    with pytest.raises(RuntimeError):
        engine.cob_start(params, 0, [b"a"])


def test_output_determination_rule():
    assert engine.output_values([b"x", b"y"], [0, 1]) == [b"x", None]
    assert engine.output_values([b"x", b"y"], [1, 1]) == [None, None]
    assert engine.output_values([b"x", b"y"], [0, 0]) == [b"x", b"y"]
    with pytest.raises(ValueError):
        engine.output_values([b"x"], [0, 1])


def test_output_memo_is_one_entry_per_theta_and_bits(monkeypatch):
    # Nodes sharing (theta, bits) share one encoding of the output values;
    # the bits array and tuple forms of one vector hit one entry.
    params = make_params(m=3)
    theta = np.array(params.interner.intern_vector([b"a", None, b"c"]), dtype=np.int32)
    want = engine.output_digest(params.digest, (0, 0, 1), [b"a", None, None])
    calls = []
    encode_vector = values.encode_vector
    monkeypatch.setattr(values, "encode_vector",
                        lambda vals: calls.append(vals) or encode_vector(vals))
    first = params.output(theta, np.array([0, 0, 1], dtype=np.int8))
    assert first == ([b"a", None, None], want)
    assert params.output(theta.copy(), (0, 0, 1)) is first
    other = params.output(theta, (0, 0, 0))
    assert other[0] == [b"a", None, b"c"] and other[1] != first[1]
    assert len(calls) == 2


def test_one_sortition_seed_encoding_per_step(monkeypatch):
    # Every node draws against its step's one lottery: the seed is built and
    # encoded once per step, not once per (node, step).
    encodes = Counter()
    encode = sortition.SortitionSeed.encode

    def counted(seed):
        encodes[seed] += 1
        return encode(seed)

    monkeypatch.setattr(sortition.SortitionSeed, "encode", counted)
    draws = Counter()
    draw = sortition.draw
    monkeypatch.setattr(sortition, "draw",
                        lambda step, node, registry: draws.update([step.seed_bytes])
                        or draw(step, node, registry))
    net = make_network(n=20, seed=3)
    bootstrap(net, seed=3)
    encodes.clear()
    draws.clear()
    res, runner = run_instance(net, 2, [[b"x", b"y"]] * 20, committee=12)
    assert res.certified
    steps = runner.params._lotteries
    assert len(steps) >= 6 and engine.FINAL_STEP in steps
    assert set(encodes.values()) == {1} and len(encodes) == len(steps)
    assert sorted(draws) == sorted(step.seed_bytes for step in steps.values())
    assert sum(draws.values()) > 2 * len(steps)
    for key, step in steps.items():
        assert runner.params.lottery(key) is step
        assert step.seed_bytes == runner.params.step_seed(key).encode()


def test_full_instance_unanimous_fast_path():
    net = make_network(n=20, seed=3)
    bootstrap(net, seed=3)
    res, _ = run_instance(net, 1, [[b"x"]] * 20)
    assert res.certified and res.cut_at is None
    assert res.bits == (0,)
    assert len(res.outputs) == 20
    assert all(out.values == [b"x"] for out in res.outputs.values())
    # one agreement iteration on the fast path
    assert all(s.decision_log[0][0] == 0 for s in res.states.values())


def test_split_observations_blank_the_component():
    net = make_network(n=40, seed=4)
    bootstrap(net, seed=4)
    obs = [[b"x"] if v < 20 else [b"y"] for v in range(40)]
    res, _ = run_instance(net, 1, obs)
    assert res.certified
    assert res.bits == (1,)
    assert all(out.values == [None] for out in res.outputs.values())


def test_outputs_byte_identical_across_nodes():
    net = make_network(n=25, seed=5)
    bootstrap(net, seed=5)
    obs = [[b"x", None, b"z", b"w"] for _ in range(25)]
    res, _ = run_instance(net, 4, obs)
    idents = {out.encode_identity() for out in res.outputs.values()}
    assert len(idents) == 1


def test_certificate_roundtrip_and_mutations():
    net = make_network(n=20, seed=6)
    bootstrap(net, seed=6)
    res, _ = run_instance(net, 2, [[b"a", b"b"]] * 20)
    out = res.outputs[0]
    cert = out.certificate
    entropy = res.params.entropy
    ok = engine.verify_certificate(cert, net.registry, net.n, net.n, entropy)
    assert ok

    # each mutation of one supporter fails with its own reason
    def reasons_for(supporters):
        mutated = engine.Certificate(cert.instance, cert.bits, cert.theta_digest, supporters)
        reasons = []
        assert not engine.verify_certificate(mutated, net.registry, net.n,
                                             net.n, entropy, reasons)
        return reasons

    victim = cert.supporters[0]
    rest = list(cert.supporters[1:])
    for bad, reason in [
        (dataclasses.replace(victim, node_id=(victim.node_id + 1) % net.n),
         "sortition output mismatch"),
        (dataclasses.replace(victim, node_id=net.n), "unknown node"),
        (dataclasses.replace(victim, pseudo_vrf_output=bytes(32)), "sortition output mismatch"),
        (dataclasses.replace(victim, signature=bytes(64)), "bad signature"),
    ]:
        assert reasons_for([bad] + rest) == [f"supporter {bad.node_id}: {reason}"]
    t_cert = res.params.t_cert
    assert reasons_for(cert.supporters[: t_cert - 1]) == [
        f"only {t_cert - 1} valid supporters, need {t_cert}"]

    # mutated bits invalidate every supporter signature
    flipped = engine.Certificate(cert.instance, tuple(1 - b for b in cert.bits),
                                 cert.theta_digest, cert.supporters)
    assert not engine.verify_certificate(flipped, net.registry, net.n, net.n, entropy)

    # mutated digest likewise
    bad_digest = engine.Certificate(cert.instance, cert.bits, bytes(32), cert.supporters)
    assert not engine.verify_certificate(bad_digest, net.registry, net.n, net.n, entropy)


def test_passive_node_still_outputs():
    # a node never selected still assembles the output from received finals
    net = make_network(n=30, seed=8)
    bootstrap(net, seed=8)
    res, _ = run_instance(net, 1, [[b"q"]] * 30, committee=10)
    assert res.certified
    assert len(res.outputs) == 30


def test_grade2_component_keeps_value():
    net = make_network(n=30, seed=9)
    bootstrap(net, seed=9)
    res, _ = run_instance(net, 2, [[b"keep", None]] * 30)
    for v, state in res.states.items():
        if int(state.grades[0]) == 2:
            assert res.outputs[v].values[0] == b"keep"
    assert res.bits[0] == 0


def test_single_node_lifecycle_contract():
    # Drive one node through the whole instance by hand: unanimity means the
    # node's own view suffices to reach a decided final state.
    params = make_params(m=2, n=1, committee=1, tag=b"single")
    state = engine.cob_start(params, 0, [b"x", b"y"])
    sends = engine.initial_send(state)
    assert sends and sends[0].step == 1
    assert state.step == 1
    own = np.array(params.interner.intern_vector([b"x", b"y"]), dtype=np.int32)

    with pytest.raises(ValueError):
        deadline(state, 2, counts_for(params, own))
    sends = deadline(state, 1, counts_for(params, own))
    assert sends[0].step == 2 and state.output is None
    for step in (2, 3):
        sends = deadline(state, step, counts_for(params, sends[0].row))
    assert state.grades.tolist() == [2, 2]
    assert state.bits.tolist() == [0, 0]
    assert state.step == agreement_step(0, 0)
    assert sends[0].row.tolist() == [0, 0]  # bit 0, no flag
    # phase 0 with its own zero-vote reaches the degenerate quorum of one
    sends = deadline(state, agreement_step(0, 0), vote_counts([1, 1], [0, 0]))
    assert state.halted
    assert [p.step for p in sends] == [engine.FINAL_STEP, agreement_step(0, 1)]
    assert sends[0].row.tolist() == [0, 0]  # the final carries the bits alone
    # halted, the node echoes its decided bits with final flags
    assert state.step == agreement_step(0, 1)
    sends = engine.on_step_deadline(state, state.step, None)
    assert [p.step for p in sends] == [agreement_step(0, 2)]
    assert sends[0].row.tolist() == engine.vote_row([0, 0], [1, 1]).tolist() == [2, 2]


def test_vote_rows_decode_as_bits_and_flags():
    # One vote, flagged 1 on component 0 and unflagged 1 on component 1, at
    # a quorum of one: the flag decides component 0, while component 1 only
    # moves to bit 1 in the fix-0 phase.
    state = graded_node(m=2, n=1, tag=b"decode")
    row = engine.vote_row([1, 1], [1, 0])
    counts = np.zeros((2, engine.VOTE_VALUES), dtype=np.int32)
    counts[np.arange(2), row] = 1
    deadline(state, agreement_step(0, 0), counts)
    assert state.bits.tolist() == [1, 1]
    assert state.decided.tolist() == [True, False]
    assert state.decision_log == [(0, 0, 0, 1)]


def test_iteration_cap_aborts_with_liveness_error():
    # adversarial schedule: quorums never form, the loop must abort loudly
    # at the cap instead of silently defaulting
    state = graded_node(m=1, n=9, tag=b"cap")
    starved = vote_counts([1], [1])
    with pytest.raises(mbba.LivenessError) as err:
        for _ in range(3 * mbba.ITERATION_CAP + 3):
            deadline(state, state.step, starved, 2)
    assert "iteration cap" in str(err.value)
    assert state.step is None and state.output is None


def test_next_step_walks_every_deadline_once():
    # From step 1 to the iteration cap: one deadline per step length, and
    # every step has its own label and its own sortition seed.  One node
    # passes the graded deadlines, then advances through the agreement
    # phases until the cap leaves it no next deadline.
    params = make_params(m=1, n=1, committee=1, tag=b"walk")
    state = engine.cob_start(params, 0, [b"x"])
    steps, payload = [], state.observation
    while state.step <= engine.GRADED:
        steps.append(state.step)
        payload = deadline(state, state.step, counts_for(params, payload))[0].row
    while state.step is not None:
        steps.append(state.step)
        engine._advance(state)
    assert steps[:5] == [1, 2, 3, agreement_step(0, 0), agreement_step(0, 1)]
    assert steps[-1] == agreement_step(mbba.ITERATION_CAP - 1, mbba.PHASE_COIN) == engine.END - 1
    assert steps == list(range(1, engine.END))
    assert [engine.agreement(step) for step in steps[3:6]] == [(0, 0), (0, 1), (0, 2)]
    assert engine.agreement(steps[-1]) == (mbba.ITERATION_CAP - 1, mbba.PHASE_COIN)
    labels = [engine.step_label(step) for step in steps + [engine.FINAL_STEP]]
    assert labels[:4] == ["mgc-1", "mgc-2", "mgc-3", "mbba-0-0"] and labels[-1] == "final"
    assert len(set(labels)) == len(steps) + 1
    seeds = {params.step_seed(step).encode() for step in steps + [engine.FINAL_STEP]}
    assert len(seeds) == len(steps) + 1


@pytest.mark.parametrize("phase", [0, 1, mbba.PHASE_COIN])
def test_advance_moves_one_phase(phase):
    state = graded_node()
    state.step = agreement_step(3, phase)
    assert engine._advance(state)
    assert state.step == (agreement_step(4, 0) if phase == mbba.PHASE_COIN
                          else agreement_step(3, phase + 1))


def test_advance_stops_at_the_iteration_cap():
    state = graded_node()
    last = mbba.ITERATION_CAP - 1
    state.step = agreement_step(last, mbba.PHASE_COIN - 1)
    assert engine._advance(state)
    assert state.step == agreement_step(last, mbba.PHASE_COIN)
    assert not engine._advance(state)
    assert state.step is None


def test_next_deadline_and_echo_budget():
    state = graded_node()
    sends = engine.adopt_decided_bits(state, bytes([0, 0]))
    assert [p.step for p in sends] == [engine.FINAL_STEP, agreement_step(0, 1)]
    assert state.halted and state.step == agreement_step(0, 1)
    # the last echo of the budget, then the node goes quiet
    state.step = agreement_step(mbba.ITERATION_CAP - 1, mbba.PHASE_COIN - 1)
    assert [p.step for p in engine.on_step_deadline(state, state.step, None)] == [
        agreement_step(mbba.ITERATION_CAP - 1, mbba.PHASE_COIN)]
    assert state.step is not None
    assert engine.on_step_deadline(state, state.step, None) == []
    assert state.halted and state.step is None
    # halting in the last coin phase leaves no echo at all
    state = graded_node()
    state.step = agreement_step(mbba.ITERATION_CAP - 1, mbba.PHASE_COIN)
    assert [p.step for p in engine.adopt_decided_bits(state, bytes([0, 0]))] == [
        engine.FINAL_STEP]
    assert state.step is None


def test_mbba_wire_format_is_bits_then_flags():
    params = make_params(m=7)
    proof = params.draw(agreement_step(5, 2), 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.integers(0, 2, params.m)
        flags = rng.integers(0, 2, params.m)
        encoded = engine.encode_mbba_message(params, 5, 2, 3, engine.vote_row(bits, flags), proof)
        assert encoded == (
            params.digest + (3).to_bytes(4, "big") + (5).to_bytes(4, "big") + bytes([2])
            + params.m.to_bytes(2, "big") + bytes(bits.tolist()) + bytes(flags.tolist())
            + proof.encode()
        )


def test_straggler_adopting_an_output_casts_one_final():
    state = graded_node()
    bits_bytes, digest = certified_digest(state)
    cert = engine.Certificate(state.params.instance, tuple(bits_bytes), digest, [])
    # a digest the node's own theta does not reproduce is refused
    assert engine.adopt_output(state, bits_bytes, bytes(32), cert) is None
    assert state.output is None and not state.halted
    sends = engine.adopt_output(state, bits_bytes, digest, cert)
    assert [p.step for p in sends] == [engine.FINAL_STEP]
    assert sends[0].theta_digest == digest
    assert bytes(int(b) for b in sends[0].row) == bits_bytes
    assert state.halted and state.step is None
    assert state.output.certificate is cert
    assert engine.on_step_deadline(state, state.step, None) == []
    # holding its output and its own final, the node sends nothing more
    assert engine.adopt_output(state, bits_bytes, digest, cert) == []


def test_horizon_exceeded_leaves_partial_trace_marker():
    net = make_network(n=10, seed=31)
    bootstrap(net, seed=31)
    from cobsim.engine import CobInstanceId, CobParams
    from cobsim import crypto as _crypto

    inst = CobInstanceId(b"testchain", 0, 9, "slot_timing")
    params = CobParams(inst, 1, _crypto.digest(b"hz"), net.registry, net.n)
    runner = netsim.InstanceRunner(net, params, [[b"x"]] * 10)
    horizon = float(net.offsets.min()) + 0.5 * runner.step_len
    res = runner.run(horizon=horizon)
    assert not res.certified
    assert res.cut_at == horizon
    assert any(r[3] == "timeout-horizon" for r in net.trace.records)


def test_ablation_leaves_output_unchanged():
    # leaderless validity: no single node's message determines the output
    base_net = make_network(n=24, seed=10)
    bootstrap(base_net, seed=10)
    base_res, _ = run_instance(base_net, 2, [[b"x", b"y"]] * 24)
    base_ident = base_res.outputs[0].encode_identity()
    for victim in (0, 5, 11):
        net = make_network(n=24, seed=10)
        net.byz = {victim}
        net.strategies = {victim: netsim.CrashStrategy()}
        bootstrap(net, seed=10)
        res, _ = run_instance(net, 2, [[b"x", b"y"]] * 24)
        others = [v for v in res.outputs if v != victim]
        assert all(res.outputs[v].encode_identity() == base_ident for v in others)


def test_mgc_wire_format_joins_the_interned_encodings():
    params = make_params(m=4)
    row = np.array(params.interner.intern_vector([b"a", None, b"a" * 64, b"zz"]), dtype=np.int32)
    proof = params.draw(2, 5)
    encoded = engine.encode_mgc_message(params, 2, 5, row, proof)
    assert encoded == (
        params.digest + (5).to_bytes(4, "big") + bytes([2]) + params.m.to_bytes(2, "big")
        + values.encode_vector([b"a", None, b"a" * 64, b"zz"]) + proof.encode()
    )
    assert params.interner.encodings == [values.encode_value(v) for v in params.interner.values]
