"""Hot loops of the network simulator: gossip delay sampling and vote tallies.

Trace digests depend on every bit these return, so the integer mixing and
the float64 operation order are fixed: per-hop delays are summed
sequentially from the origin outwards, never pairwise.  Delivery sampling
takes a batch of messages, one row each, over one (hops, k, n) grid.
Each cell sees the same integer and float64 operations, in the same
order, as when its message is sampled alone, and every PRF counter depends
only on its own (message, destination, hop), so a row's bits do not
depend on the batch it is in.  ``tests/test_kernels`` holds the plain-loop
reference they must match exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)
_DEST_STRIDE = np.uint64(0xC2B2AE3D27D4EB4F)
_HOP_STRIDE = np.uint64(0x165667B19E3779F9)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_SHIFT_53 = np.uint64(11)  # keep the top 53 bits
_INV_2_53 = float(2.0**-53)
_FLOAT_MAX = np.finfo(np.float64).max


@lru_cache(maxsize=64)
def _prf_counters(n: int, max_hops: int) -> np.ndarray:
    """Seed-free PRF counters, (max_hops, n).

    Entry [k, v] holds ``v * DEST_STRIDE + k * HOP_STRIDE``, the counter of
    hop k towards v.
    """
    counters = (np.arange(max_hops, dtype=np.uint64)[:, None] * _HOP_STRIDE
                + np.arange(n, dtype=np.uint64) * _DEST_STRIDE)
    counters.setflags(write=False)
    return counters


def delivery_times(t_send, hops, seeds, d_min, d_max, caps):
    """Per-destination delivery times for k gossiped messages, one row each.

    t_send: (k,) send times; hops: (k, n) hop distances from each row's
    origin (0 = origin itself, negative = unreachable); seeds: (k,) u64;
    caps: (k,) end-to-end bounds.  Hop j towards v takes a delay drawn
    uniformly from [d_min, d_max) by splitmix64 of ``seed + v * DEST_STRIDE
    + j * HOP_STRIDE``; the end-to-end delay is clamped to the row's cap.
    Returns (k, n) float64.
    """
    hops = np.asarray(hops, dtype=np.int32)
    k, n = hops.shape
    depth = max(1, int(hops.max(initial=0)))
    # The grid is hop-major, (hops, k, n), so that the running sum over hops
    # below adds whole contiguous (k, n) planes.  splitmix64 in place; each
    # row's seed and the gamma step fold into one add.
    x = _prf_counters(n, depth)[:, None, :] + (np.asarray(seeds, dtype=np.uint64)
                                               + np.uint64(_SM_GAMMA))[None, :, None]
    t = x >> _SHIFT1
    x ^= t
    x *= _SM_MUL1
    np.right_shift(x, _SHIFT2, out=t)
    x ^= t
    x *= _SM_MUL2
    np.right_shift(x, _SHIFT3, out=t)
    x ^= t
    x >>= _SHIFT_53
    delays = x.astype(np.float64)
    delays *= _INV_2_53
    delays *= d_max - d_min
    delays += d_min
    # delays[h - 1, r, v] becomes the delay of the first h hops, added in hop order.
    for h in range(1, depth):
        delays[h] += delays[h - 1]
    # The origin's delay is zero; unreachable destinations read a stray
    # entry here and are overwritten below.
    flat = (hops.astype(np.intp) - 1) * (k * n)
    flat += np.arange(k * n, dtype=np.intp).reshape(k, n)
    total = delays.ravel().take(flat, mode="clip")
    total[hops == 0] = 0.0
    np.minimum(total, np.asarray(caps, dtype=np.float64)[:, None], out=total)
    total += np.asarray(t_send, dtype=np.float64)[:, None]
    total[hops < 0] = np.inf
    return total


def _first_arrivals(deliveries, deadlines, senders) -> np.ndarray:
    """(k, n) bool: row r counts at node v.

    A row counts if it arrived, by the node's (inclusive) deadline, and is
    the earliest such row of its sender; equal times go to the lower row.
    """
    counted = deliveries <= np.minimum(deadlines, _FLOAT_MAX)[None, :]  # inf never arrives
    new_sender = np.empty(len(senders), dtype=bool)
    new_sender[0] = True
    np.not_equal(senders[1:], senders[:-1], out=new_sender[1:])
    if new_sender.all():
        return counted
    starts = np.flatnonzero(new_sender)
    group = np.cumsum(new_sender) - 1
    times = np.where(counted, deliveries, np.inf)
    earliest = np.minimum.reduceat(times, starts, axis=0)
    counted &= times == earliest[group]
    # Among equal earliest rows keep the first: a running count per group.
    running = np.cumsum(counted, axis=0, dtype=np.int32)
    before = np.zeros_like(earliest, dtype=np.int32)
    before[1:] = running[starts[1:] - 1]
    counted &= running - before[group] == 1
    return counted


def tally_votes(deliveries, deadlines, senders, payloads, num_values):
    """Per-node per-component value counts with first-arrival sender dedup.

    deliveries: (k, n) float64, per-row per-node arrival time (inf = never).
    deadlines:  (n,) float64, per-node tally cutoff (inclusive).
    senders:    (k,) int32, nondecreasing; equal ids are variants of one sender.
    payloads:   (k, m) int32 value ids in [0, num_values).
    Returns (n, m, num_values) int32 counts.
    """
    deliveries = np.asarray(deliveries, dtype=np.float64)
    deadlines = np.asarray(deadlines, dtype=np.float64)
    senders = np.asarray(senders, dtype=np.int32)
    payloads = np.asarray(payloads, dtype=np.int32)
    k, n = deliveries.shape
    m = payloads.shape[1]
    counts = np.zeros((n, m * num_values), dtype=np.int32)
    if k > 0:
        counted = _first_arrivals(deliveries, deadlines, senders)
        # One column per (component, value) cell that some row votes for.
        cells, column = np.unique(payloads + np.arange(m, dtype=np.int32) * num_values,
                                  return_inverse=True)
        votes = np.zeros((k, cells.size), dtype=np.float32)
        votes[np.arange(k)[:, None], column.reshape(k, m)] = 1.0
        # float32 sums of 0/1 are exact below 2**24 rows.
        counts[:, cells] = counted.T.astype(np.float32) @ votes
    return counts.reshape(n, m, num_values)
