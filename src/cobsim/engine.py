"""One consensus instance end to end, per node.

A node walks through: observation intake, the 3 graded-consensus steps,
the bit mapping, the binary-agreement loop, a signed final vote, and
output assembly.  A node participates actively in a step only when
sortition elects it; every node tallies passively and produces the output.

The certificate for an instance is a quorum of matching signed final
votes.  Finals are cast by the whole population (the final step runs with
expected committee = N, so every node carries a selection proof), which
makes the certificate threshold floor(2N/3)+1: reachable by the honest
share alone at the maximal fault count, and unique because honest nodes
sign at most one final each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crypto, mbba, mgc, sortition, values as values_mod
from .crypto import KeyRegistry
from .values import ValueInterner

PURPOSES = ("slot_timing", "epoch_reconfig", "synchronization_setup")

# Step keys: ("mgc", 1..3) | ("mbba", iteration, phase) | ("final",)
FINAL_STEP = ("final",)
MBBA_BASE_INDEX = 4  # deadline index of ("mbba", 0, 0)


def step_index(step_key) -> int:
    """Deadline index of a step: its deadline is start + index * step length."""
    if step_key[0] == "mgc":
        return step_key[1]
    if step_key[0] == "mbba":
        return MBBA_BASE_INDEX + step_key[1] * 3 + step_key[2]
    raise ValueError(step_key)


def step_label(step_key) -> str:
    if step_key[0] == "mgc":
        return f"mgc-{step_key[1]}"
    if step_key[0] == "mbba":
        return f"mbba-{step_key[1]}-{step_key[2]}"
    return "final"


@dataclass(frozen=True)
class CobInstanceId:
    chain_id: bytes
    epoch: int
    slot: int
    purpose: str

    def __post_init__(self):
        if self.purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {self.purpose!r}")

    def encode(self) -> bytes:
        return (
            len(self.chain_id).to_bytes(2, "big")
            + self.chain_id
            + self.epoch.to_bytes(8, "big", signed=True)
            + self.slot.to_bytes(8, "big", signed=True)
            + PURPOSES.index(self.purpose).to_bytes(1, "big")
        )

    def digest(self) -> bytes:
        return crypto.digest(b"instance", self.encode())


class CobParams:
    """Shared, immutable description of one instance."""

    def __init__(
        self,
        instance: CobInstanceId,
        m: int,
        entropy: bytes,
        registry: KeyRegistry,
        committee: float,
    ):
        if m < 1:
            raise ValueError("instance needs at least one component")
        self.instance = instance
        self.m = m
        self.entropy = entropy
        self.registry = registry
        self.n = registry.num_nodes
        self.tau = committee
        self.t_high, self.t_low = mgc.thresholds(committee)
        # Certificate quorum: floor(2n/3)+1 is reachable by the honest
        # population alone at the maximal fault count (honest >= floor(2n/3)+1
        # whenever faults < n/3) and still pigeonhole-unique: two conflicting
        # quorums would need more honest signers than exist.
        self.t_cert = mgc.supermajority(self.n)
        # Smallest final-vote count guaranteed to include an honest signer.
        self.t_adopt = self.n // 3 + 1
        self.digest = instance.digest()
        self.interner = ValueInterner()
        self._started: set[int] = set()

    def step_seed(self, step_key) -> sortition.SortitionSeed:
        if step_key[0] == "mgc":
            round_id, step_id = 0, step_key[1]
        elif step_key[0] == "mbba":
            round_id, step_id = 1 + step_key[1], step_key[2]
        elif step_key == FINAL_STEP:
            return final_seed(self.digest, self.entropy)
        else:
            raise ValueError(f"bad step key {step_key}")
        return sortition.SortitionSeed(round_id, step_id, self.digest, self.entropy)

    def draw(self, step_key, node: int) -> sortition.SortitionProof | None:
        """The node's selection proof for a step; the final step seats everyone."""
        tau = self.n if step_key == FINAL_STEP else self.tau
        return sortition.draw(self.step_seed(step_key), node, self.registry, tau, self.n)


def final_seed(instance_digest: bytes, entropy: bytes) -> sortition.SortitionSeed:
    """Sortition seed of an instance's final step."""
    return sortition.SortitionSeed(0, 0, instance_digest, entropy)


# ---------------------------------------------------------------------------
# Wire formats.  Fixed-order field concatenation; signatures cover everything
# up to the signature itself.

def encode_mgc_message(params, step, sender, payload_ids, proof) -> bytes:
    vec = values_mod.encode_vector([params.interner.value(v) for v in payload_ids])
    return (
        params.digest
        + sender.to_bytes(4, "big")
        + bytes([step])
        + params.m.to_bytes(2, "big")
        + vec
        + proof.encode()
    )


def encode_mbba_message(params, iteration, phase, sender, bits, flags, proof) -> bytes:
    return (
        params.digest
        + sender.to_bytes(4, "big")
        + iteration.to_bytes(4, "big")
        + bytes([phase])
        + params.m.to_bytes(2, "big")
        + bytes(int(b) for b in bits)
        + bytes(int(f) for f in flags)
        + proof.encode()
    )


def encode_final_body(instance_digest, sender, bits, theta_digest, proof) -> bytes:
    return (
        instance_digest
        + sender.to_bytes(4, "big")
        + bytes(int(b) for b in bits)
        + theta_digest
        + proof.encode()
    )


def output_values(theta_values: list[bytes | None], bits) -> list[bytes | None]:
    """Blank every component whose agreed bit is 1, keep the rest."""
    if len(theta_values) != len(bits):
        raise ValueError("theta/bits length mismatch")
    return [v if int(b) == 0 else None for v, b in zip(theta_values, bits)]


def output_digest(instance_digest: bytes, bits, out_values) -> bytes:
    return crypto.digest(
        b"cob-output",
        instance_digest,
        bytes(int(b) for b in bits),
        values_mod.encode_vector(out_values),
    )


@dataclass(frozen=True)
class FinalVote:
    node_id: int
    pseudo_vrf_output: bytes
    signature: bytes

    def encode(self) -> bytes:
        return self.node_id.to_bytes(4, "big") + self.pseudo_vrf_output + self.signature


@dataclass
class Certificate:
    instance: CobInstanceId
    bits: tuple[int, ...]
    theta_digest: bytes
    supporters: list[FinalVote]

    def encode(self) -> bytes:
        body = (
            self.instance.encode()
            + bytes(self.bits)
            + self.theta_digest
            + len(self.supporters).to_bytes(2, "big")
        )
        return body + b"".join(s.encode() for s in sorted(self.supporters, key=lambda s: s.node_id))


def verify_certificate(
    cert: Certificate,
    registry: KeyRegistry,
    tau_final: float,
    population: int,
    entropy: bytes,
    reasons: list | None = None,
) -> bool:
    """Re-check a certificate from scratch: quorum size, proofs, signatures.
    The simulator's final step seats everyone: ``tau_final`` = ``population``."""

    def fail(reason):
        if reasons is not None:
            reasons.append(reason)
        return False

    if tau_final <= 0:
        return fail("bad final committee parameter")
    t_cert = mgc.supermajority(tau_final)
    seen = set()
    inst_digest = cert.instance.digest()
    seed = final_seed(inst_digest, entropy)
    valid = 0
    for vote in cert.supporters:
        if vote.node_id in seen:
            continue
        seen.add(vote.node_id)
        if not 0 <= vote.node_id < registry.num_nodes:
            return fail(f"supporter {vote.node_id}: sortition output mismatch")
        proof = sortition.draw(seed, vote.node_id, registry, tau_final, population)
        if proof is None:
            return fail(f"supporter {vote.node_id}: not selected for the final step")
        if proof.pseudo_vrf_output != vote.pseudo_vrf_output:
            return fail(f"supporter {vote.node_id}: sortition output mismatch")
        body = encode_final_body(inst_digest, vote.node_id, cert.bits, cert.theta_digest, proof)
        if not registry.verify(vote.node_id, body, vote.signature):
            return fail(f"supporter {vote.node_id}: bad signature")
        valid += 1
    if valid < t_cert:
        return fail(f"only {valid} valid supporters, need {t_cert}")
    return True


@dataclass
class CobOutput:
    instance: CobInstanceId
    values: list[bytes | None]
    bits: tuple[int, ...]
    theta_digest: bytes
    certificate: Certificate

    def encode_identity(self) -> bytes:
        """Canonical bytes compared across nodes; the certificate's supporter
        set is view-dependent and deliberately excluded."""
        return (
            self.instance.encode()
            + bytes(self.bits)
            + values_mod.encode_vector(self.values)
        )


# ---------------------------------------------------------------------------
# Per-node state machine.

MGC1, MGC2, MGC3, MBBA, DONE = "mgc-1", "mgc-2", "mgc-3", "mbba", "done"


@dataclass
class SendPlan:
    """An outbound step message before adversarial post-processing."""

    step_key: tuple
    payload_ids: np.ndarray | None  # value ids for mgc steps
    bits: np.ndarray | None
    flags: np.ndarray | None
    theta_digest: bytes | None
    proof: sortition.SortitionProof | None = None


@dataclass
class NodeTally:
    """What a node sees at a step deadline, precomputed by the transport."""

    counts: np.ndarray | None = None  # (m, V) for mgc steps
    zeros: np.ndarray | None = None  # (m,) for mbba phases
    ones: np.ndarray | None = None
    flagged_zeros: np.ndarray | None = None
    flagged_ones: np.ndarray | None = None
    coin_min_vrf: int | None = None  # min u64 among received coin-phase votes


class CobNodeState:
    def __init__(self, params: CobParams, node: int, observation_ids: np.ndarray):
        self.params = params
        self.node = node
        self.observation = observation_ids
        self.stage = MGC1
        self.iteration = 0
        self.phase = 0
        self.theta: np.ndarray | None = None
        self.grades: np.ndarray | None = None
        self.bits: np.ndarray | None = None
        self.decided: np.ndarray | None = None
        self.halted = False
        self.liveness_failed = False
        self.final_payload: tuple[bytes, bytes] | None = None  # (bits bytes, theta digest)
        self.output: CobOutput | None = None
        self.decision_log: list[tuple] = []  # (iteration, phase, component, bit)

    # -- helpers ----------------------------------------------------------
    def _theta_values(self) -> list[bytes | None]:
        return [self.params.interner.value(int(v)) for v in self.theta]

    def current_step_key(self) -> tuple:
        if self.stage == MGC1:
            return ("mgc", 1)
        if self.stage == MGC2:
            return ("mgc", 2)
        if self.stage == MGC3:
            return ("mgc", 3)
        if self.stage == MBBA:
            return ("mbba", self.iteration, self.phase)
        return FINAL_STEP


def cob_start(params: CobParams, node: int, observation: list[bytes | None]) -> CobNodeState:
    """Position a node at step 1 with its recorded observation."""
    if len(observation) != params.m:
        raise ValueError(
            f"observation length {len(observation)} != instance dimension {params.m}"
        )
    if node in params._started:
        raise RuntimeError(f"instance already started at node {node}; instances are single-shot")
    params._started.add(node)
    obs_ids = np.array(params.interner.intern_vector(observation), dtype=np.int32)
    return CobNodeState(params, node, obs_ids)


def initial_send(state: CobNodeState) -> list[SendPlan]:
    """Step-1 broadcast of the observation vector, for elected players."""
    proof = state.params.draw(("mgc", 1), state.node)
    if proof is None:
        return []
    payload = np.array(mgc.step1_payload(list(state.observation)), dtype=np.int32)
    return [SendPlan(("mgc", 1), payload, None, None, None, proof)]


def _mbba_send(state: CobNodeState) -> list[SendPlan]:
    key = ("mbba", state.iteration, state.phase)
    proof = state.params.draw(key, state.node)
    if proof is None:
        return []
    return [
        SendPlan(
            key,
            None,
            state.bits.copy(),
            state.decided.astype(np.int8),
            None,
            proof,
        )
    ]


def _final_send(state: CobNodeState) -> list[SendPlan]:
    out_vals = output_values(state._theta_values(), state.bits)
    theta_dig = output_digest(state.params.digest, state.bits, out_vals)
    state.final_payload = (bytes(int(b) for b in state.bits), theta_dig)
    proof = state.params.draw(FINAL_STEP, state.node)
    return [SendPlan(FINAL_STEP, None, state.bits.copy(), None, theta_dig, proof)]


def on_step_deadline(state: CobNodeState, step_key: tuple, tally: NodeTally) -> list[SendPlan]:
    """Advance the node past one step deadline.  Returns the next sends."""
    if state.stage == DONE or state.halted:
        return []
    if step_key != state.current_step_key():
        raise ValueError(f"deadline {step_key} does not match stage {state.current_step_key()}")

    if step_key[0] == "mgc":
        step = step_key[1]
        if step in (1, 2):
            nxt = ("mgc", step + 1)
            state.stage = MGC2 if step == 1 else MGC3
            proof = state.params.draw(nxt, state.node)
            if proof is None:
                return []
            payload = mgc.echo_filter(tally.counts)
            return [SendPlan(nxt, payload.astype(np.int32), None, None, None, proof)]
        # step 3: grade and move to the agreement loop
        ranks = np.array(state.params.interner.digest_ranks(), dtype=np.int64)
        theta, grades = mgc.finalize(tally.counts, ranks, state.params.t_high, state.params.t_low)
        state.theta = theta
        state.grades = grades
        state.bits = mbba.init_bits(grades)
        state.decided = np.zeros(state.params.m, dtype=bool)
        state.stage = MBBA
        state.iteration = 0
        state.phase = 0
        return _mbba_send(state)

    if step_key[0] == "mbba":
        coin = mbba.coin_bit(tally.coin_min_vrf) if state.phase == mbba.PHASE_COIN else None
        bits, decided, newly = mbba.phase_transition(
            state.bits,
            state.decided,
            state.phase,
            tally.zeros,
            tally.ones,
            tally.flagged_zeros,
            tally.flagged_ones,
            state.params.t_high,
            coin,
        )
        state.bits, state.decided = bits, decided
        for comp in np.nonzero(newly)[0]:
            state.decision_log.append(
                (state.iteration, state.phase, int(comp), int(bits[comp]))
            )
        if mbba.halt_check(decided, bits) is not None:
            return _halt_and_final(state)
        if not _advance(state):
            state.liveness_failed = True
            state.stage = DONE
            raise mbba.LivenessError(
                f"node {state.node}: iteration cap {mbba.ITERATION_CAP} reached with "
                f"{int((~decided).sum())} undecided components"
            )
        return _mbba_send(state)

    raise ValueError(f"unexpected step key {step_key}")


def _advance(state: CobNodeState) -> bool:
    """Move to the next agreement phase: the next phase, or phase 0 of the
    next iteration after the coin phase.  False once the iteration cap is
    reached."""
    if state.phase == mbba.PHASE_COIN:
        state.iteration += 1
        state.phase = 0
    else:
        state.phase += 1
    return not _capped(state)


def _capped(state: CobNodeState) -> bool:
    return state.iteration >= mbba.ITERATION_CAP


def next_deadline(state: CobNodeState) -> tuple | None:
    """Step key of the node's next deadline, or None once it has none: the
    node is DONE, or it is halted and its echo budget is spent."""
    if state.stage == DONE or (state.halted and _capped(state)):
        return None
    return state.current_step_key()


def _halt_and_final(state: CobNodeState) -> list[SendPlan]:
    """Halt: sign the final vote, and keep the echo stream one phase ahead."""
    state.halted = True
    sends = _final_send(state)
    if _advance(state):
        sends.extend(_mbba_send(state))
    return sends


def _set_decided(state: CobNodeState, bits_bytes: bytes):
    """Take every component as decided, with the bits of a final-vote quorum."""
    if state.bits is None:
        raise RuntimeError("cannot adopt decisions before the graded phase completed")
    state.bits = np.array(list(bits_bytes), dtype=np.int8)
    state.decided = np.ones(state.params.m, dtype=bool)


def adopt_decided_bits(state: CobNodeState, bits_bytes: bytes) -> list[SendPlan]:
    """Adopt decisions carried by a plurality of matching final votes.

    More than floor(n/3) matching finals contain at least one honest
    signer, whose per-component decisions were reached soundly; adopting
    the whole bit vector is then equivalent to a flag-quorum catch-up, but
    over the accumulating final pool instead of one phase's committee.
    """
    _set_decided(state, bits_bytes)
    return _halt_and_final(state)


def on_echo_deadline(state: CobNodeState) -> list[SendPlan] | None:
    """Post-halt participation: decided bits re-broadcast with final flags.

    Halted nodes keep echoing so late nodes can still assemble quorums; the
    echo budget shares the global iteration cap, after which None signals
    the node to go quiet (the instance-level liveness verdict is separate).
    """
    if not state.halted or state.stage == DONE:
        return None
    return _mbba_send(state) if _advance(state) else None


def adopt_output(
    state: CobNodeState, bits_bytes: bytes, theta_digest: bytes, cert: Certificate
) -> list[SendPlan] | None:
    """Catch up on a certified outcome from the final pool.

    Returns None when the node's theta does not reproduce the certified
    digest.  Otherwise the node holds its output, and a node that had not
    cast its own final yet halts and backs the certificate with one.
    """
    if not adopt_certificate(state, tuple(bits_bytes), theta_digest, cert):
        return None
    if state.final_payload is not None:
        return []
    _set_decided(state, bits_bytes)
    state.halted = True
    return _final_send(state)


def adopt_certificate(state: CobNodeState, bits, theta_digest: bytes, cert: Certificate) -> bool:
    """Adopt a certified outcome; true iff this node can produce the output.

    The node's own theta must reproduce the certified digest: values travel
    in the consensus steps, finals only pin their digest.
    """
    if state.output is not None:
        return True
    if state.theta is None:
        return False
    out_vals = output_values(state._theta_values(), bits)
    if output_digest(state.params.digest, bits, out_vals) != theta_digest:
        return False
    state.output = CobOutput(
        state.params.instance, out_vals, tuple(int(b) for b in bits), theta_digest, cert
    )
    state.stage = DONE
    return True
