"""Multidimensional graded consensus: the 3-step tally rules.

Step 1 broadcasts the observation vector.  Steps 2 and 3 echo, per
component, the value that got strictly more than 2/3 of the valid
messages received for that step (else the blank value).  The final tally
grades each component 0/1/2 against two absolute thresholds derived from
the expected step committee size.

All rule functions work on dense count arrays indexed (component, value
id); value id 0 is the blank BOT.  They accept leading batch axes: the
runner evaluates one step for all its nodes in one call over their
(k, m, V) tallies, through ``engine.step_outcomes``.
"""

from __future__ import annotations

import numpy as np


def supermajority(tau: float) -> int:
    """floor(2*tau/3)+1: the smallest count exceeding 2/3 of tau seats."""
    return int(2 * tau) // 3 + 1


def thresholds(expected_committee: float) -> tuple[int, int]:
    """(T_high, T_low) for a step with expected committee size tau.

    The classical strict-supermajority pair: T_high = floor(2*tau/3)+1 is the
    smallest count exceeding 2/3 of the committee, and is reachable by the
    guaranteed honest share (> 2/3) even at the maximal fault count.  T_high
    never exceeds ceil(tau), so it stays reachable for every tau > 0; for
    tau <= 2, T_low clamps to stay strictly below T_high.
    """
    if expected_committee <= 0:
        raise ValueError("committee size must be positive")
    t_high = supermajority(expected_committee)
    t_low = int(expected_committee) // 3 + 1
    if t_low >= t_high:
        t_low = t_high - 1
    return t_high, t_low


def echo_filter(counts: np.ndarray) -> np.ndarray:
    """Step-2/3 rule: value with count strictly above 2/3 of messages counted.

    counts: (..., m, V) per-component tallies including BOT in column 0.
    Returns (..., m) value ids; 0 where no value clears the bar.  At most
    one value can exceed 2/3 of the total, so argmax is exact.
    """
    counts = np.asarray(counts)
    totals = counts.sum(axis=-1)
    vals = counts[..., 1:]
    if vals.shape[-1] == 0:
        return np.zeros(counts.shape[:-1], dtype=np.int32)
    best = np.argmax(vals, axis=-1).astype(np.int32) + 1
    best_count = np.take_along_axis(vals, best[..., None] - 1, axis=-1)[..., 0]
    passed = 3 * best_count > 2 * totals
    return np.where(passed, best, 0).astype(np.int32)


def finalize(
    counts: np.ndarray, digest_ranks: np.ndarray, t_high: int, t_low: int
) -> tuple[np.ndarray, np.ndarray]:
    """Grade each component from the step-3 tally.

    The winning value per component is the non-BOT value with the highest
    count, ties broken toward the lexicographically smallest value digest.
    count >= t_high -> grade 2; >= t_low -> grade 1; else (BOT, 0).
    ``digest_ranks`` may rank more values than ``counts`` has columns; the
    outcome is that of ``counts`` padded with zero columns to that width.
    Returns (theta value ids, grades), shapes (..., m).
    """
    if not t_low < t_high:
        raise ValueError("t_low must be below t_high")
    counts = np.asarray(counts)
    vals = counts[..., 1:]
    m_shape = counts.shape[:-1]
    if vals.shape[-1] == 0:
        return (
            np.zeros(m_shape, dtype=np.int32),
            np.zeros(m_shape, dtype=np.int32),
        )
    # Deterministic argmax: maximize count, then minimize digest rank.
    scale = len(digest_ranks)
    ranks = np.asarray(digest_ranks)[1:counts.shape[-1]]
    key = vals.astype(np.int64)
    key *= scale
    key += scale - 1 - ranks.astype(np.int64)
    best = np.argmax(key, axis=-1).astype(np.int32) + 1
    best_count = np.take_along_axis(vals, best[..., None] - 1, axis=-1)[..., 0]
    floor = max(t_low, 1)  # a grade needs at least one actual vote
    grades = np.where(best_count >= t_high, 2, np.where(best_count >= floor, 1, 0))
    theta = np.where(grades > 0, best, 0).astype(np.int32)
    return theta, grades.astype(np.int32)
