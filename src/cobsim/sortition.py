"""Seed-derived committee selection with verifiable proofs.

Each node is selected for a protocol step independently with probability
tau/N, by comparing a keyed hash of the step seed against an integer
threshold.  The construction is a pseudo-VRF: output = H(secret, seed),
deterministic per (seed, node) and uniform across distinct seeds, so
committee sizes are binomial exactly as the analysis assumes.  A step's
``Lottery`` (its encoded seed and threshold) is built once and shared by
every node's ``draw``.  A proof is checked by drawing again:
``engine.verify_certificate`` does so for every supporter of a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .crypto import KeyRegistry

_TWO64 = 1 << 64


@dataclass(frozen=True)
class SortitionSeed:
    """Identifies one selection context: (round, step) within a protocol instance."""

    round_id: int
    step_id: int
    context_tag: bytes
    epoch_entropy: bytes

    def __post_init__(self):
        if self.round_id < 0 or self.step_id < 0:
            raise ValueError("round_id and step_id must be non-negative")
        if len(self.epoch_entropy) != 32:
            raise ValueError("epoch_entropy must be 32 bytes")

    def encode(self) -> bytes:
        return (
            self.round_id.to_bytes(8, "big")
            + self.step_id.to_bytes(8, "big")
            + len(self.context_tag).to_bytes(2, "big")
            + self.context_tag
            + self.epoch_entropy
        )


@dataclass(frozen=True)
class SortitionProof:
    node_id: int
    pseudo_vrf_output: bytes
    signature: bytes

    def encode(self) -> bytes:
        return self.node_id.to_bytes(4, "big") + self.pseudo_vrf_output + self.signature


def _check_params(expected_committee: float, population: int):
    if population <= 0:
        raise ValueError("population must be positive")
    if not expected_committee > 0:
        raise ValueError("expected committee size must be positive")
    if expected_committee > population:
        raise ValueError("expected committee size cannot exceed the population")


def selection_threshold(expected_committee: float, population: int) -> int:
    """Integer threshold t such that P(u64 output < t) = tau/N exactly for integral tau."""
    _check_params(expected_committee, population)
    return int(expected_committee * _TWO64) // population


@dataclass(frozen=True)
class Lottery:
    """One step's selection: the encoded seed every node hashes, and the
    threshold its output must stay below."""

    seed_bytes: bytes
    threshold: int


def lottery(seed: SortitionSeed, expected_committee: float, population: int) -> Lottery:
    """The step's lottery, with tau = ``expected_committee`` of ``population``."""
    return Lottery(seed.encode(), selection_threshold(expected_committee, population))


def draw(step: Lottery, node_id: int, registry: KeyRegistry) -> SortitionProof | None:
    """Return a proof iff this node is selected for the step, else None."""
    secret = registry.secret(node_id)
    output = crypto.keyed_digest(secret, b"sortition", step.seed_bytes)
    if crypto.u64_from(output) >= step.threshold:
        return None
    sig = crypto.sign(secret, b"sortition-proof" + step.seed_bytes + output)
    return SortitionProof(node_id, output, sig)
