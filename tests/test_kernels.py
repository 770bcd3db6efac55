"""Kernels against their plain-loop reference, bit for bit.

Trace digests depend on every bit the kernels return, so these are exact
equality checks, not tolerance comparisons.  The reference functions below
are the specification: one destination and one hop, or one node and one
sender, at a time.
"""

import math

import numpy as np

from cobsim import _kernels

MASK = 0xFFFFFFFFFFFFFFFF
DEST_STRIDE = 0xC2B2AE3D27D4EB4F
HOP_STRIDE = 0x165667B19E3779F9


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def reference_delivery_times(t_send, hops, seed, d_min, d_max, cap):
    seed &= MASK
    span = d_max - d_min
    out = []
    for v, h in enumerate(hops):
        if h < 0:
            out.append(math.inf)
            continue
        acc = 0.0
        for k in range(h):
            x = (seed + v * DEST_STRIDE + k * HOP_STRIDE) & MASK
            u = float(splitmix64(x) >> 11) * 2.0**-53
            acc = acc + (d_min + u * span)
        if acc > cap:
            acc = cap
        out.append(t_send + acc)
    return np.array(out, dtype=np.float64)


def reference_tally_votes(deliveries, deadlines, senders, payloads, num_values):
    k, n = deliveries.shape
    m = payloads.shape[1]
    counts = np.zeros((n, m, num_values), dtype=np.int32)
    for v in range(n):
        start = 0
        while start < k:
            end = start + 1
            while end < k and senders[end] == senders[start]:
                end += 1
            best, best_t = -1, math.inf
            for r in range(start, end):
                t = deliveries[r, v]
                if t <= deadlines[v] and t < best_t:
                    best, best_t = r, t
            if best >= 0:
                for c in range(m):
                    counts[v, c, payloads[best, c]] += 1
            start = end
    return counts


def random_tally_case(rng):
    k = int(rng.integers(0, 16))
    n = int(rng.integers(1, 24))
    m = int(rng.integers(1, 9))
    nv = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        # a coarse grid, so equal arrival times and arrivals at the deadline happen
        deliveries = rng.integers(0, 6, (k, n)) / 4.0
        deadlines = rng.integers(0, 6, n) / 4.0
    else:
        deliveries = rng.uniform(0, 2, (k, n))
        deadlines = rng.uniform(0.2, 1.8, n)
    deliveries[rng.random((k, n)) < 0.25] = np.inf
    deadlines[rng.random(n) < 0.1] = np.inf
    senders = np.sort(rng.integers(0, max(1, k // 2), k)).astype(np.int32)
    payloads = rng.integers(0, nv, (k, m)).astype(np.int32)
    return deliveries, deadlines, senders, payloads, nv


def test_tally_matches_reference_fuzz():
    rng = np.random.default_rng(42)
    shapes = {"empty": 0, "multi-row sender": 0, "tie": 0}
    for _ in range(400):
        case = random_tally_case(rng)
        deliveries, _, senders, _, _ = case
        shapes["empty"] += len(senders) == 0
        shapes["multi-row sender"] += len(set(senders.tolist())) < len(senders)
        shapes["tie"] += any(
            len(set(col.tolist())) < len(col) for col in deliveries.T if np.isfinite(col).all()
        )
        got = _kernels.tally_votes(*case)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_tally_votes(*case))
    assert min(shapes.values()) >= 10, shapes


def test_delivery_matches_reference_fuzz():
    # Every row of a batched call is the message sampled alone.  One call
    # mixes hop depths, unreachable destinations and origin-only rows, each
    # row with its own send time, seed and cap; the batch sizes run from one
    # row to a grid far larger than one delivery chunk.
    rng = np.random.default_rng(43)
    seen = {"unreachable": 0, "clamped": 0, "origin only": 0, "8+ hops unclamped": 0,
            "mixed depths": 0}
    for i in range(160):
        n = int(rng.integers(1, 100))
        k = 1 if i % 8 == 0 else 64 if i % 8 == 1 else int(rng.integers(2, 12))
        depth = rng.choice([1, 3, 9, 24], size=k)
        hops = (rng.integers(-1, 2**20, (k, n)) % (depth[:, None] + 1) - 1).astype(np.int32)
        hops[rng.random(k) < 0.1] = np.minimum(hops[0], 0)  # origin-only rows
        seeds = [int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2)) for _ in range(k)]
        t0 = rng.uniform(0, 1000, k)
        d_min = float(rng.uniform(0, 0.05))
        d_max = d_min + float(rng.uniform(0, 0.2))
        # the bound of the deepest path, give or take: some paths clamp, most do not
        caps = rng.uniform(0.5, 1.5, k) * d_max * np.maximum(1, hops.max(axis=1))
        got = _kernels.delivery_times(t0, hops, seeds, d_min, d_max, caps)
        assert got.shape == (k, n)
        for r in range(k):
            want = reference_delivery_times(t0[r], hops[r].tolist(), seeds[r], d_min, d_max,
                                            caps[r])
            assert np.array_equal(got[r], want), (i, r)
            seen["unreachable"] += bool((hops[r] < 0).any())
            seen["clamped"] += bool((want == t0[r] + caps[r]).any())
            seen["origin only"] += int(hops[r].max()) <= 0
            seen["8+ hops unclamped"] += bool(((hops[r] >= 8) & (want < t0[r] + caps[r])).any())
        seen["mixed depths"] += len(set(hops.max(axis=1).tolist())) > 2
    assert min(seen.values()) >= 10, seen


def test_delivery_semantics():
    hops = np.array([[0, 1, 3, -1]], dtype=np.int32)
    out = _kernels.delivery_times([5.0], hops, [99], 0.01, 0.02, [10.0])[0]
    assert out[0] == 5.0  # origin
    assert 5.01 <= out[1] <= 5.02
    assert 5.03 <= out[2] <= 5.06
    assert np.isinf(out[3])


def test_delivery_clamped_to_cap():
    hops = np.array([[50]], dtype=np.int32)
    out = _kernels.delivery_times([0.0], hops, [7], 0.1, 0.2, [1.0])[0]
    assert out[0] == 1.0


def test_tally_first_arrival_dedup():
    # Two variants from one sender: the earlier delivery wins per node.
    deliveries = np.array([[0.1, 0.9], [0.5, 0.2]])
    deadlines = np.array([1.0, 1.0])
    senders = np.array([4, 4], dtype=np.int32)
    payloads = np.array([[1], [2]], dtype=np.int32)
    counts = np.asarray(_kernels.tally_votes(deliveries, deadlines, senders, payloads, 3))
    assert counts[0].tolist() == [[0, 1, 0]]  # node 0 sees variant 1 first
    assert counts[1].tolist() == [[0, 0, 1]]  # node 1 sees variant 2 first


def test_tally_respects_deadline():
    deliveries = np.array([[0.5, 1.5]])
    deadlines = np.array([1.0, 1.0])
    senders = np.array([0], dtype=np.int32)
    payloads = np.array([[1]], dtype=np.int32)
    counts = np.asarray(_kernels.tally_votes(deliveries, deadlines, senders, payloads, 2))
    assert counts[0, 0, 1] == 1
    assert counts[1, 0, 1] == 0
