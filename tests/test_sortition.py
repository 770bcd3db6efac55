import dataclasses

import numpy as np
import pytest

from cobsim import crypto, engine, sortition
from cobsim.crypto import KeyRegistry
from cobsim.engine import CobInstanceId
from cobsim.sortition import SortitionSeed

ENTROPY = b"\x07" * 32
BITS, THETA = (0, 1), b"\x05" * 32


def seed_for(r=0, s=0, entropy=ENTROPY):
    return SortitionSeed(r, s, b"ctx", entropy)


def selected(seed, registry, tau, n) -> set[int]:
    """The nodes that ``sortition.draw`` selects for one step."""
    step = sortition.lottery(seed, tau, n)
    return {v for v in range(n) if sortition.draw(step, v, registry) is not None}


def instance(epoch=0, slot=0) -> CobInstanceId:
    return CobInstanceId(b"sortition-test", epoch, slot, "slot_timing")


def final_votes(registry, inst, tau) -> list[engine.FinalVote]:
    """A signed final vote, backing (BITS, THETA), from every selected node."""
    step = sortition.lottery(SortitionSeed(0, 0, inst.digest(), ENTROPY), tau,
                             registry.num_nodes)
    votes = []
    for v in range(registry.num_nodes):
        proof = sortition.draw(step, v, registry)
        if proof is not None:
            body = engine.encode_final_body(inst.digest(), v, BITS, THETA, proof)
            votes.append(engine.FinalVote(v, proof.pseudo_vrf_output, registry.sign(v, body)))
    return votes


def verify_reasons(registry, inst, votes, tau) -> list[str]:
    """Why ``engine.verify_certificate`` rejects a certificate over ``votes``;
    empty when it accepts."""
    reasons = []
    cert = engine.Certificate(inst, BITS, THETA, votes)
    ok = engine.verify_certificate(cert, registry, tau, registry.num_nodes, ENTROPY, reasons)
    assert ok == (not reasons)
    return reasons


def flip(data: bytes, index: int, bit: int = 0) -> bytes:
    out = bytearray(data)
    out[index] ^= 1 << bit
    return bytes(out)


def test_full_committee_selects_everyone(registry):
    n = registry.num_nodes
    assert selected(seed_for(), registry, n, n) == set(range(n))
    votes = final_votes(registry, instance(), n)
    assert [vote.node_id for vote in votes] == list(range(n))
    assert verify_reasons(registry, instance(), votes, n) == []


def test_zero_committee_rejected(registry):
    with pytest.raises(ValueError):
        sortition.lottery(seed_for(), 0, registry.num_nodes)
    with pytest.raises(ValueError):
        sortition.lottery(seed_for(), 10, 0)
    with pytest.raises(ValueError):
        sortition.lottery(seed_for(), 50, 40)


def test_draw_deterministic(registry):
    a = sortition.draw(sortition.lottery(seed_for(3, 1), 20, registry.num_nodes), 5, registry)
    b = sortition.draw(sortition.lottery(seed_for(3, 1), 20, registry.num_nodes), 5, registry)
    assert a == b


def test_committee_size_statistics():
    # N=1000, tau=100: mean within [95, 105], every sample within [50, 160].
    # The bounds correspond to binomial tails far below 1e-8 per draw.
    n, tau, trials = 1000, 100, 400
    registry = KeyRegistry(n, crypto.digest(b"stats"))
    sizes = []
    for t in range(trials):
        seed = SortitionSeed(t, 0, b"stats", crypto.digest(b"e", t.to_bytes(4, "big")))
        size = len(selected(seed, registry, tau, n))
        sizes.append(size)
        assert 50 <= size <= 160
    assert 95 <= np.mean(sizes) <= 105


def test_verify_rejects_bit_flips(registry):
    # A certificate vote whose sortition output, signature or node id was
    # altered is rejected, with a reason naming that supporter.
    tau, inst = registry.num_nodes, instance(1, 2)
    votes = final_votes(registry, inst, tau)
    vote, rest = votes[7], votes[:7] + votes[8:]
    assert verify_reasons(registry, inst, [vote] + rest, tau) == []
    for bad, reason in [
        (dataclasses.replace(vote, pseudo_vrf_output=flip(vote.pseudo_vrf_output, 0)),
         "supporter 7: sortition output mismatch"),
        (dataclasses.replace(vote, signature=flip(vote.signature, 0)),
         "supporter 7: bad signature"),
        (dataclasses.replace(vote, node_id=8), "supporter 8: sortition output mismatch"),
        (dataclasses.replace(vote, node_id=40), "supporter 40: unknown node"),
        (dataclasses.replace(vote, node_id=-1), "supporter -1: unknown node"),
    ]:
        assert verify_reasons(registry, inst, [bad] + rest, tau) == [reason]


def test_proof_not_replayable_across_steps(registry):
    # Final votes drawn and signed for one instance verify in no other.
    tau = registry.num_nodes
    instances = [instance(e, s) for e in range(3) for s in range(3)]
    votes = {inst: final_votes(registry, inst, tau) for inst in instances}
    for made_for in instances:
        for claimed in instances:
            reasons = verify_reasons(registry, claimed, votes[made_for], tau)
            assert (reasons == []) == (made_for == claimed)


def test_mutation_fuzz_soundness(registry):
    rng = np.random.default_rng(0)
    tau, n, inst = 30, registry.num_nodes, instance(9, 1)
    votes = final_votes(registry, inst, tau)
    assert votes and verify_reasons(registry, inst, votes, tau) == []
    for i, vote in enumerate(votes):
        rest = votes[:i] + votes[i + 1:]
        for _ in range(10):
            which = rng.integers(0, 3)
            out, sig, node = vote.pseudo_vrf_output, vote.signature, vote.node_id
            if which == 0:
                out = flip(out, rng.integers(0, len(out)), rng.integers(0, 8))
            elif which == 1:
                sig = flip(sig, rng.integers(0, len(sig)), rng.integers(0, 8))
            else:
                node = (node + 1 + int(rng.integers(0, n - 1))) % n
            mutated = engine.FinalVote(node, out, sig)
            assert verify_reasons(registry, inst, [mutated] + rest, tau)


def test_entropy_bit_resamples_selection():
    # Flipping one entropy bit re-rolls the selected set: overlap statistics
    # must look like independent sampling, not a perturbation.
    n, tau = 200, 60
    registry = KeyRegistry(n, crypto.digest(b"resample"))
    p = tau / n
    agree = 0
    trials = 300
    for t in range(trials):
        base = bytearray(crypto.digest(b"ent", t.to_bytes(4, "big")))
        s1 = SortitionSeed(0, 0, b"x", bytes(base))
        base[0] ^= 1
        s2 = SortitionSeed(0, 0, b"x", bytes(base))
        c1 = selected(s1, registry, tau, n)
        c2 = selected(s2, registry, tau, n)
        agree += len(c1 & c2)
    # Under independence the expected per-trial overlap is n*p^2.
    expected = trials * n * p * p
    sd = (trials * n * p * p * (1 - p * p)) ** 0.5
    assert abs(agree - expected) < 5 * sd


def test_independence_across_nodes():
    # Joint selection frequency of node pairs factorizes.
    n, tau = 50, 20
    registry = KeyRegistry(n, crypto.digest(b"pairs"))
    trials = 2000
    sel = np.zeros((trials, n), dtype=bool)
    for t in range(trials):
        seed = SortitionSeed(t, 0, b"ind", crypto.digest(b"e", t.to_bytes(4, "big")))
        for v in selected(seed, registry, tau, n):
            sel[t, v] = True
    p = tau / n
    joint = (sel[:, 0] & sel[:, 1]).mean()
    se = (p * p * (1 - p * p) / trials) ** 0.5
    assert abs(joint - p * p) < 5 * se
