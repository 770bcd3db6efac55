"""Graded-consensus step rules against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from cobsim import crypto, mgc, values


def counts_from_votes(votes, num_values):
    out = np.zeros((1, num_values), dtype=np.int32)
    for v in votes:
        out[0, v] += 1
    return out


def oracle_echo(votes, num_values):
    """Independent recount of the 2/3 echo rule for one component."""
    total = len(votes)
    tallies = {}
    for v in votes:
        tallies[v] = tallies.get(v, 0) + 1
    for v, c in tallies.items():
        if v != 0 and 3 * c > 2 * total:
            return v
    return 0


def oracle_finalize(votes, digests, t_high, t_low):
    """Independent recount with digest tie-break for one component."""
    tallies = {}
    for v in votes:
        if v != 0:
            tallies[v] = tallies.get(v, 0) + 1
    if not tallies:
        return 0, 0
    best = min(tallies, key=lambda v: (-tallies[v], digests[v]))
    c = tallies[best]
    if c >= t_high:
        return best, 2
    if c >= t_low:
        return best, 1
    return 0, 0


def test_thresholds_formula():
    assert mgc.thresholds(12) == (9, 5)
    assert mgc.thresholds(40) == (27, 14)
    # reachable by the guaranteed honest majority at the fault boundary:
    # 33 faulty of 100 leaves 67 honest, and floor(200/3)+1 = 67
    assert mgc.thresholds(100) == (67, 34)
    assert mgc.thresholds(33) == (23, 12)
    # degenerate committees clamp instead of going unreachable
    assert mgc.thresholds(1) == (1, 0)
    assert mgc.thresholds(2) == (2, 1)
    with pytest.raises(ValueError):
        mgc.thresholds(0)


def test_thresholds_reachable_and_ordered_over_tau_grid():
    taus = np.concatenate([np.arange(1, 4001) / 40.0, np.linspace(1e-3, 1.0, 997),
                           np.arange(1, 2001, dtype=float)])
    for tau in taus.tolist():
        t_high, t_low = mgc.thresholds(tau)
        assert t_high == mgc.supermajority(tau) <= math.ceil(tau), tau
        assert 0 <= t_low < t_high, tau


def test_echo_unanimity():
    counts = counts_from_votes([1] * 10, 3)
    assert mgc.echo_filter(counts)[0] == 1


def test_echo_no_majority():
    counts = counts_from_votes([1] * 5 + [2] * 5, 3)
    assert mgc.echo_filter(counts)[0] == 0


def test_echo_exact_two_thirds_fails():
    # strictly-more-than is required: 6 of 9 is not enough
    counts = counts_from_votes([1] * 6 + [2] * 3, 3)
    assert mgc.echo_filter(counts)[0] == 0
    counts = counts_from_votes([1] * 7 + [2] * 2, 3)
    assert mgc.echo_filter(counts)[0] == 1


def test_echo_matches_oracle_exhaustively():
    # all 3^7 vote assignments over alphabet {bot, x, y}
    for votes in itertools.product((0, 1, 2), repeat=7):
        counts = counts_from_votes(votes, 3)
        got = int(mgc.echo_filter(counts)[0])
        assert got == oracle_echo(votes, 3), votes


def test_finalize_unanimity_above_t_high():
    counts = counts_from_votes([1] * 12, 2)
    theta, grades = mgc.finalize(counts, np.array([1, 0]), 9, 5)
    assert (int(theta[0]), int(grades[0])) == (1, 2)


def test_finalize_tie_breaks_by_digest():
    interner = values.ValueInterner()
    x = interner.intern(b"value-x")
    y = interner.intern(b"value-y")
    ranks = np.array(interner.digest_ranks())
    counts = counts_from_votes([x] * 6 + [y] * 6, 3)
    theta, grades = mgc.finalize(counts, ranks, 9, 5)
    expected = x if interner.digests[x] < interner.digests[y] else y
    assert int(theta[0]) == expected
    assert int(grades[0]) == 1
    # confirm against the raw digests, computed independently
    dx = crypto.digest(values.encode_value(b"value-x"))
    dy = crypto.digest(values.encode_value(b"value-y"))
    assert (dx < dy) == (expected == x)


def test_finalize_below_both_thresholds():
    counts = counts_from_votes([1] * 3 + [2] * 2, 3)
    theta, grades = mgc.finalize(counts, np.array([2, 0, 1]), 9, 5)
    assert (int(theta[0]), int(grades[0])) == (0, 0)


def test_finalize_matches_oracle_exhaustively():
    # every tally of at most 8 messages over alphabet {bot, x, y} (criterion:
    # small-instance oracle equivalence, exact)
    digests = [crypto.digest(b"d", bytes([i])) for i in range(3)]
    ranks = np.zeros(3, dtype=np.int64)
    for rank, vid in enumerate(sorted(range(3), key=lambda i: digests[i])):
        ranks[vid] = rank
    t_high, t_low = 6, 3
    checked = 0
    for total in range(0, 9):
        for votes in itertools.product((0, 1, 2), repeat=total):
            counts = counts_from_votes(votes, 3)
            theta, grades = mgc.finalize(counts, ranks, t_high, t_low)
            want = oracle_finalize(votes, digests, t_high, t_low)
            assert (int(theta[0]), int(grades[0])) == want, votes
            checked += 1
    assert checked == sum(3**k for k in range(9))


def test_finalize_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        mgc.finalize(np.zeros((1, 2)), np.array([0, 1]), 5, 5)


def test_vectorized_shapes():
    # batch axis: 4 nodes, 3 components, 3 values
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 5, (4, 3, 3)).astype(np.int32)
    out = mgc.echo_filter(counts)
    assert out.shape == (4, 3)
    theta, grades = mgc.finalize(counts, np.array([2, 0, 1]), 6, 3)
    assert theta.shape == grades.shape == (4, 3)


def test_one_call_over_nodes_equals_single_rows():
    # The runner applies steps 2 and 3 to every node of a step in one call
    # over its (k, m, V) tallies: row i must be node i's single-row result.
    rng = np.random.default_rng(9)
    k, m, nv = 30, 5, 6
    counts = rng.integers(0, 8, (k, m, nv)).astype(np.int32)
    counts[: k // 3, :, 1] = 20  # a value clears 2/3 on these rows
    ranks = rng.permutation(nv)
    echo = mgc.echo_filter(counts)
    theta, grades = mgc.finalize(counts, ranks, 9, 4)
    for i in range(k):
        assert np.array_equal(echo[i], mgc.echo_filter(counts[i]))
        single = mgc.finalize(counts[i], ranks, 9, 4)
        assert np.array_equal(theta[i], single[0]) and np.array_equal(grades[i], single[1])
    assert (echo > 0).any() and (echo == 0).any()
    assert set(np.unique(grades).tolist()) == {0, 1, 2}


def test_finalize_with_ranks_of_newer_values_pads_the_counts():
    # A step's tally is made once per set of rows, so the interner may rank
    # values interned after it: their columns count zero.  Ties and empty
    # rows included, the outcome is that of the counts padded to the ranks.
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 7, (40, 6, 4)).astype(np.int32)
    counts[:5] = 0
    for width in (4, 5, 9):
        ranks = rng.permutation(width)
        padded = np.zeros(counts.shape[:-1] + (width,), dtype=np.int32)
        padded[..., :4] = counts
        theta, grades = mgc.finalize(counts, ranks, 5, 2)
        want_theta, want_grades = mgc.finalize(padded, ranks, 5, 2)
        assert np.array_equal(theta, want_theta) and np.array_equal(grades, want_grades)
        assert set(np.unique(grades).tolist()) == {0, 1, 2}
