"""One consensus instance end to end, per node.

A node walks through: observation intake, the 3 graded-consensus steps,
the bit mapping, the binary-agreement loop, a signed final vote, and
output assembly.  A node participates actively in a step only when
sortition elects it; every node tallies passively and produces the output.

A step is one int, its deadline index: its deadline is the instance's
start plus the index times the step length.  ``START`` (0) is the start
event, 1..``GRADED`` are the graded steps, agreement iteration i, phase p
is ``AGREEMENT + 3i + p``, below ``END``, and the final step is ``END``.
``agreement`` is the one decoder of an agreement step.  A node's place is
its step (``CobNodeState.step``); the next one is ``step + 1``.  A
message is one ``SendPlan`` carrying the row its step tallies, and a
node's view at a deadline is its (m, V) tally of those rows: the engine
encodes agreement votes as ``vote_row`` and decodes them.
The rules of a step run for many nodes at once (``step_outcomes``, one
call per rule over their stacked tallies); each node then applies its own
row at its own deadline (``on_step_deadline``).

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

START = 0
GRADED = 3
AGREEMENT = GRADED + 1
END = AGREEMENT + 3 * mbba.ITERATION_CAP
FINAL_STEP = END  # above every agreement step, so no test for "graded" passes it


def agreement(step: int) -> tuple[int, int]:
    """(iteration, phase) of an agreement step."""
    return divmod(step - AGREEMENT, 3)


def _label(step: int) -> str:
    if step <= GRADED:
        return f"mgc-{step}"
    if step == FINAL_STEP:
        return "final"
    return "mbba-%d-%d" % agreement(step)


_STEP_LABELS = tuple(_label(step) for step in range(END + 1))


def step_label(step: int) -> str:
    """The trace label of a step: ``mgc-s``, ``mbba-i-p`` or ``final``."""
    return _STEP_LABELS[step]


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
        self._lotteries: dict[int, sortition.Lottery] = {}
        self._outputs: dict[tuple[bytes, bytes], tuple[list, bytes]] = {}

    def step_seed(self, step: int) -> sortition.SortitionSeed:
        if step == FINAL_STEP:
            return final_seed(self.digest, self.entropy)
        if not START < step < END:
            raise ValueError(f"bad step {step}")
        if step <= GRADED:
            round_id, step_id = 0, step
        else:
            iteration, step_id = agreement(step)
            round_id = 1 + iteration
        return sortition.SortitionSeed(round_id, step_id, self.digest, self.entropy)

    def lottery(self, step: int) -> sortition.Lottery:
        """A step's sortition lottery, built once per step; the final step
        seats everyone."""
        lottery = self._lotteries.get(step)
        if lottery is None:
            tau = self.n if step == FINAL_STEP else self.tau
            lottery = self._lotteries[step] = sortition.lottery(self.step_seed(step), tau, self.n)
        return lottery

    def draw(self, step: int, node: int) -> sortition.SortitionProof | None:
        """The node's selection proof for a step."""
        return sortition.draw(self.lottery(step), node, self.registry)

    def output(self, theta: np.ndarray, bits) -> tuple[list, bytes]:
        """(output values, output digest) of a node's theta (value ids) under
        agreed ``bits``, memoised per (theta, bits): honest nodes share them.
        Every caller gets the same values list, which none may modify."""
        bits = np.asarray(bits, dtype=np.uint8).tobytes()
        key = (np.asarray(theta, dtype=np.int32).tobytes(), bits)
        hit = self._outputs.get(key)
        if hit is None:
            vals = output_values([self.interner.value(v) for v in theta.tolist()], bits)
            hit = self._outputs[key] = (vals, output_digest(self.digest, bits, vals))
        return hit


def final_seed(instance_digest: bytes, entropy: bytes) -> sortition.SortitionSeed:
    """Sortition seed of an instance's final step."""
    return sortition.SortitionSeed(0, 0, instance_digest, entropy)


# ---------------------------------------------------------------------------
# Wire formats.  Fixed-order field concatenation; signatures cover everything
# up to the signature itself.

def encode_mgc_message(params, step, sender, row, proof) -> bytes:
    encodings = params.interner.encodings  # each value id's encode_value bytes
    vec = b"".join([encodings[v] for v in row.tolist()])
    return (
        params.digest
        + sender.to_bytes(4, "big")
        + bytes([step])
        + params.m.to_bytes(2, "big")
        + vec
        + proof.encode()
    )


def encode_mbba_message(params, iteration, phase, sender, row, proof) -> bytes:
    """An agreement vote: the bits of its ``vote_row``, then the flags."""
    return (
        params.digest
        + sender.to_bytes(4, "big")
        + iteration.to_bytes(4, "big")
        + bytes([phase])
        + params.m.to_bytes(2, "big")
        + (row & 1).astype(np.uint8).tobytes()
        + (row >> 1).astype(np.uint8).tobytes()
        + proof.encode()
    )


def encode_final_body(instance_digest, sender, bits, theta_digest, proof) -> bytes:
    return (
        instance_digest
        + sender.to_bytes(4, "big")
        + np.asarray(bits, dtype=np.uint8).tobytes()
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


@dataclass
class Certificate:
    instance: CobInstanceId
    bits: tuple[int, ...]
    theta_digest: bytes
    supporters: list[FinalVote]


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
    step = sortition.lottery(final_seed(inst_digest, entropy), tau_final, population)
    valid = 0
    for vote in cert.supporters:
        if vote.node_id in seen:
            continue
        seen.add(vote.node_id)
        if not 0 <= vote.node_id < registry.num_nodes:
            return fail(f"supporter {vote.node_id}: unknown node")
        proof = sortition.draw(step, vote.node_id, registry)
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


VOTE_VALUES = 4  # vote-row ids: bit + 2 * flag


def vote_row(bits, flags) -> np.ndarray:
    """An agreement vote as one tally row: bit + 2 * flag per component."""
    return np.asarray(bits, dtype=np.int32) + 2 * np.asarray(flags, dtype=np.int32)


@dataclass
class SendPlan:
    """One outbound message.  ``row`` is what its step tallies: value ids in
    a graded step, ``vote_row(bits, flags)`` in an agreement phase, the bits
    of a final (which also carries ``theta_digest``).  A strategy may mask
    destinations (bool (n,); None reaches everyone) or add a ``delay``."""

    step: int
    row: np.ndarray
    proof: sortition.SortitionProof
    theta_digest: bytes | None = None
    dest_mask: np.ndarray | None = None
    delay: float = 0.0


class CobNodeState:
    def __init__(self, params: CobParams, node: int, observation_ids: np.ndarray):
        self.params = params
        self.node = node
        self.observation = observation_ids
        self.step: int | None = START + 1  # next deadline; None once done
        self.theta: np.ndarray | None = None
        self.grades: np.ndarray | None = None
        self.bits: np.ndarray | None = None
        self.decided: np.ndarray | None = None
        self.halted = False  # decided, own final cast
        self.output: CobOutput | None = None
        self.decision_log: list[tuple] = []  # (iteration, phase, component, bit)


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


def _send(state: CobNodeState, row) -> list[SendPlan]:
    """The node's message of its step ``state.step`` carrying ``row``, if
    sortition elects it for that step."""
    proof = state.params.draw(state.step, state.node)
    return [] if proof is None else [SendPlan(state.step, row, proof)]


def initial_send(state: CobNodeState) -> list[SendPlan]:
    """Step-1 broadcast of the observation vector, for elected players."""
    return _send(state, state.observation)


def _mbba_send(state: CobNodeState) -> list[SendPlan]:
    return _send(state, vote_row(state.bits, state.decided))


def _final_send(state: CobNodeState) -> list[SendPlan]:
    _, theta_dig = state.params.output(state.theta, state.bits)
    proof = state.params.draw(FINAL_STEP, state.node)
    return [SendPlan(FINAL_STEP, state.bits.copy(), proof, theta_dig)]


def step_outcomes(params: CobParams, step: int, states: list[CobNodeState],
                  counts: np.ndarray, coins: np.ndarray | None = None) -> tuple:
    """One step's rules for several nodes at once, one call per rule.

    ``counts`` is the nodes' (k, m, V) tallies of the step's rows; in an
    agreement phase V is ``VOTE_VALUES``.  ``coins`` is their (k,) coin
    bits, exactly in a coin phase.  Returns (k, m) arrays whose row i
    ``on_step_deadline`` applies to ``states[i]``: the echo in graded steps
    1 and 2, (theta, grades) at step 3, and (bits, decided, newly decided)
    in an agreement phase.
    """
    if step <= GRADED:
        if step < GRADED:
            return (mgc.echo_filter(counts),)
        ranks = np.array(params.interner.digest_ranks(), dtype=np.int64)
        return mgc.finalize(counts, ranks, params.t_high, params.t_low)
    phase = agreement(step)[1]
    # Column = vote_row id (bit + 2 * flag); a flagged vote also counts for its bit.
    flagged_zeros, flagged_ones = counts[..., 2], counts[..., 3]
    return mbba.phase_transition(
        np.array([s.bits for s in states]), np.array([s.decided for s in states]), phase,
        counts[..., 0] + flagged_zeros, counts[..., 1] + flagged_ones,
        flagged_zeros, flagged_ones, params.t_high, coins,
    )


def on_step_deadline(state: CobNodeState, step: int, row: tuple) -> list[SendPlan]:
    """Advance the node past one step deadline.  Returns the next sends.

    ``row`` is the node's row of ``step_outcomes`` for this step.
    """
    if state.step is None or state.halted:
        return []
    if step != state.step:
        raise ValueError(f"deadline {step} does not match the node's step {state.step}")

    if step <= GRADED:
        state.step = step + 1
        if step < GRADED:
            return _send(state, row[0])
        # step 3: grade and move to the agreement loop
        state.theta, state.grades = row
        state.bits = mbba.init_bits(state.grades)
        state.decided = np.zeros(state.params.m, dtype=bool)
        return _mbba_send(state)

    iteration, phase = agreement(step)
    state.bits, state.decided, newly = row
    comps = np.flatnonzero(newly)
    if comps.size:
        state.decision_log.extend(
            [(iteration, phase, c, b)
             for c, b in zip(comps.tolist(), state.bits[comps].tolist())])
    if state.decided.all():
        return _halt_and_final(state)
    if not _advance(state):
        raise mbba.LivenessError(
            f"node {state.node}: iteration cap {mbba.ITERATION_CAP} reached with "
            f"{int((~state.decided).sum())} undecided components"
        )
    return _mbba_send(state)


def _advance(state: CobNodeState) -> bool:
    """Move to the next agreement step.  At the iteration cap the node has
    no next deadline (``step`` None) and this returns False."""
    step = state.step + 1
    state.step = step if step < END else None
    return state.step is not None


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
    if not state.halted or state.step is None:
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
    if state.halted:
        return []
    _set_decided(state, bits_bytes)
    state.halted = True
    return _final_send(state)


def adopt_certificate(state: CobNodeState, bits, theta_digest: bytes, cert: Certificate) -> bool:
    """Adopt a certified outcome; true iff this node can produce the output.

    The node's own theta must reproduce the certified digest: values travel
    in the consensus steps, finals only pin their digest.  A node holding
    its output is done.
    """
    if state.output is not None:
        return True
    if state.theta is None:
        return False
    out_vals, digest = state.params.output(state.theta, bits)
    if digest != theta_digest:
        return False
    state.output = CobOutput(
        state.params.instance, out_vals, tuple(int(b) for b in bits), theta_digest, cert
    )
    state.step = None
    return True
