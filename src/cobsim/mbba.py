"""Multidimensional binary agreement: the repeated 3-phase loop.

Votes are m-bit vectors plus per-component "final" flags echoing already
decided components.  Each iteration runs a fix-0 phase, a fix-1 phase and
a coin phase.  A component decides when a full T_high quorum of matching
votes is observed; absent a quorum a node keeps its bit unless a quorum
for the opposite bit or (in the coin phase) a shared coin flips it toward
the blank outcome.

Bits never flip to 0 by coin: a zero bit asserts "every honest node holds
my value", which only a quorum may establish.  The coin's only job is to
break symmetry by herding undecided nodes toward 1, which is always safe
(it can only blank a component, never forge agreement).

Flag quorums are transferable decision evidence: T_high flagged votes for
a bit imply at least one honest node genuinely decided, so observers may
adopt the decision no matter the phase.
"""

from __future__ import annotations

import numpy as np

PHASE_FIX0 = 0
PHASE_FIX1 = 1
PHASE_COIN = 2

ITERATION_CAP = 32


class LivenessError(RuntimeError):
    """Raised when an agreement instance exhausts its iteration budget."""


def init_bits(grades: np.ndarray) -> np.ndarray:
    """Initial vote: 0 iff the graded-consensus grade was 2, else 1."""
    grades = np.asarray(grades)
    if grades.shape[-1] < 1:
        raise ValueError("at least one component required")
    return np.where(grades == 2, 0, 1).astype(np.int8)


def phase_transition(
    bits: np.ndarray,
    decided: np.ndarray,
    phase: int,
    zeros: np.ndarray,
    ones: np.ndarray,
    flagged_zeros: np.ndarray,
    flagged_ones: np.ndarray,
    t_high: int,
    coin=None,
):
    """Apply one phase's rules; returns (bits', decided', newly_decided mask).

    All arrays are shaped (..., m) and are not modified in place.  Decided
    components are frozen.  ``coin`` is required exactly in the coin phase:
    one bit, or one per node, shaped like the leading axes.
    """
    if phase == PHASE_COIN:
        if coin is None:
            raise ValueError("coin phase requires a coin bit")
    elif coin is not None:
        raise ValueError("coin supplied outside the coin phase")
    bits = np.asarray(bits).astype(np.int8, copy=True)
    decided = np.asarray(decided).astype(bool, copy=True)
    decided_on_entry = decided.copy()
    open_ = ~decided

    # Transferable decisions from final-flag quorums, any phase.
    adopt0 = open_ & (flagged_zeros >= t_high)
    bits[adopt0] = 0
    decided |= adopt0
    open_ &= ~adopt0
    adopt1 = open_ & (flagged_ones >= t_high)
    bits[adopt1] = 1
    decided |= adopt1
    open_ &= ~adopt1

    q0 = zeros >= t_high
    q1 = ones >= t_high
    if phase == PHASE_FIX0:
        dec = open_ & q0
        bits[dec] = 0
        decided |= dec
        flip = open_ & ~q0 & q1
        bits[flip] = 1
    elif phase == PHASE_FIX1:
        dec = open_ & q1
        bits[dec] = 1
        decided |= dec
        flip = open_ & ~q1 & q0
        bits[flip] = 0
    elif phase == PHASE_COIN:
        set0 = open_ & q0
        bits[set0] = 0
        set1 = open_ & ~q0 & q1
        bits[set1] = 1
        herd = open_ & ~q0 & ~q1 & (np.asarray(coin)[..., None] == 1)
        bits[herd] = 1
    else:
        raise ValueError(f"bad phase {phase}")
    newly = decided & ~decided_on_entry
    return bits, decided, newly


def coin_bit(min_vrf, present=True):
    """Shared coin: LSB of the minimum sortition output among coin-phase votes.

    A phase that received no votes is a liveness fault with no coin
    material (``present`` false); the coin is then 0, which keeps every
    open bit.  Works per node on arrays of minima and ``present`` flags.
    """
    return np.where(present, np.asarray(min_vrf, dtype=np.uint64) & np.uint64(1), 0)
