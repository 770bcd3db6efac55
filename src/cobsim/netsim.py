"""Deterministic simulator of the asynchronous gossiping network.

Messages diffuse hop by hop: the delay to each destination is the sum of
per-hop delays along its hop-shortest path through honest relays, sampled
by a counter-based PRF keyed on (run seed, message digest, destination,
hop) and clamped to the size-dependent bound lambda(size).  Every run is a
pure function of (scenario, seed), and the delivery times of a message do
not depend on unrelated traffic, which the component-independence
properties rely on.

The topology is plain Python drawing from ``random.Random(seed)``, so it
too depends on nothing but (scenario, seed).  ``watts_strogatz`` is the
connected small-world ring, rewired edge by edge in lattice order.
``geometric`` places each node uniformly in the unit square (x, then y,
in node order) and joins two nodes exactly when dx*dx + dy*dy <= r*r, in
IEEE double products and sums, with no ``pow`` and no spatial index.  Its
components, ordered by least node, are chained by an edge between
consecutive least nodes; the same patch then joins the components of the
honest subgraph, so a byzantine node never cuts honest nodes apart.

Hop counts for every (origin, destination) pair come from one BFS over all
origins at once, level by level: a sparse frontier expands by gathering
neighbours from CSR arrays, and a frontier whose gather would touch more
than n * n entries by one matrix product with the adjacency matrix.
Byzantine nodes send their own messages but relay nothing.

Byzantine senders escape the envelope: a strategy turns each
``engine.SendPlan`` of its node into the wire variants it sends, built
with the ``SendPlan`` constructor.  A variant may carry another row (junk
value ids, or every vote bit inverted with no flag), a destination mask
or a delay, and an empty list withholds the message.  The honest strategy
returns the plan itself.  Honest-origin gossip is untouchable.

The event loop is one heap of per-node deadline events ordered by (time,
node, step); the heap is the order of record, and every trace record is
written at its own node's event.  Every node starts at one local clock
reading (0, or the slot duration in chain mode).  The engine owns each
node's lifecycle: at a deadline the runner hands the node its row of the
step's rule outcome (or a catch-up from the final pool), and after every
event it schedules the node's next step, ``CobNodeState.step``, with one
push, or none once that is None: the node is done or its echo budget is
spent.  The runner alone rolls the clocks over: after writing its closing
records, a certified run re-zeros every node's clock at its certificate
assembly time.

Delivery, tallies and rules run per batch.  A send joins the network's
queue, and its pool keeps the payload at once; the delivery rows follow
when a pool read needs them (a tally, a coin minimum, the final census),
and then the whole queue is delivered in send order, a chunk of messages
per ``delivery_times`` call.  Delivery rows depend only on the sends
before them, so batching moves no bit.  At the first deadline of a step
the tally is evaluated for all nodes in one kernel call, and the step's
rules in one call for every node at that step that has not halted.  Sends
happen one full step earlier, so the pool is usually complete by then;
when the clock skew exceeds a step, a row that joins later drops the
cached tally, and the next deadline evaluates the tally and the rules
again for the nodes still at that step.  Nothing else changes a tally: a
value interned after it would only add a column of zeros.

Every pool stores each accepted row once.  A step pool is the one record
of its step: the runner builds it with the step's (n,) deadline vector,
start + step * step length (a step is its deadline index), the only place
that formula is evaluated, and reads each node's next deadline from it.
It appends payload and delivery rows to two growing matrices, which its
tally reads sorted by sender at those deadlines, and caches its tally of
the rows present next to the rule batch computed from it.  A step pool
lives as long as its step: once the event loop pops a time past its
release time, the largest finite deadline, the runner releases it, which drops its rows, tally, sortition outputs and rule
batch and closes its delivery matrix.  Its digests stay, so a late
duplicate is still rejected, and a late new send is still traced and
queued, so it still moves its origin's FIFO floor; its row joins no
matrix, and a row still queued at the release lands in the closed one,
which keeps nothing.  The final pool keeps only its census, built as
votes arrive: per content (bits, theta digest), the first ``FinalVote``
of each sender and that vote's arrival times.  A straggler's catch-up
check and the closing certificate assembly read one column of the
arrivals and collect references to the votes, and a node that already
adopted an output builds no second certificate when the instance closes.

The trace keeps one record per event.  A node's decisions at one deadline
are one ``decide`` record whose note is the tuple of its (component, bit)
pairs, in ``decision_log`` order.  The digest and the JSONL file expand it
to one line per pair, ``component c -> b``, which is the line a record per
decided component would give, so neither changed when decisions merged.
The trace hashes its records in batches of ``TRACE_BATCH`` while the run
appends them, and each instance run ends by hashing the rest, so
``digest`` finds nothing left to hash after a run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import _kernels as kernels
from . import crypto, engine, mbba
from .crypto import KeyRegistry
from .engine import CobNodeState, CobParams, SendPlan

U64MAX = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Topology


def build_topology(n: int, byz: set[int], family: str, params: dict, seed: int):
    """Adjacency lists for a connected graph whose honest subgraph is connected.

    Malicious nodes may not be cut vertices: after generation the honest-
    induced subgraph is patched with deterministic extra edges between
    component representatives if necessary.
    """
    if family == "complete":
        adj = [set(range(n)) - {v} for v in range(n)]
    elif family == "ring":
        adj = [{(v - 1) % n, (v + 1) % n} - {v} for v in range(n)]
    elif family == "watts_strogatz":
        k = int(params.get("k", max(4, n // 10)))
        p = float(params.get("p", 0.2))
        adj = _watts_strogatz(n, min(k, n - 1), p, random.Random(seed))
    elif family == "geometric":
        radius = float(params.get("radius", 0.0)) or (2.0 / max(n, 4) ** 0.5)
        adj = _geometric(n, radius, random.Random(seed))
        _link_components(adj, range(n))
    else:
        raise ValueError(f"unknown topology family {family!r}")
    _link_components(adj, [v for v in range(n) if v not in byz])
    return [sorted(a) for a in adj]


def _watts_strogatz(n: int, k: int, p: float, rng: random.Random):
    """A connected small-world ring (Watts and Strogatz, Nature 1998).

    Each try lays a ring lattice joining every node to its k // 2 nearest
    nodes on each side, then visits the lattice edges (u, u + j), j outer
    and u inner, and with probability p rewires one to (u, w) for a uniform w
    that is neither u nor a neighbour of u.  The rewire is skipped once u
    neighbours every other node.  Up to 200 tries share ``rng``; the first
    connected one is the graph.
    """
    nodes = list(range(n))
    for _ in range(200):
        adj = [{(u + j) % n for j in range(-(k // 2), k // 2 + 1) if j} for u in nodes]
        for j in range(1, k // 2 + 1):
            for u in nodes:
                if rng.random() < p:
                    w = rng.choice(nodes)
                    # The full-degree test follows each redraw; moving it
                    # before the redraw changes how many draws a skip costs.
                    while w == u or w in adj[u]:
                        w = rng.choice(nodes)
                        if len(adj[u]) >= n - 1:
                            break
                    else:
                        v = (u + j) % n
                        adj[u].remove(v)
                        adj[v].remove(u)
                        adj[u].add(w)
                        adj[w].add(u)
        if len(_component_minima(adj, nodes)) <= 1:
            return adj
    raise ValueError("watts_strogatz: no connected graph in 200 tries")


def _geometric(n: int, radius: float, rng: random.Random):
    """Uniform points in the unit square, x then y per node in node order,
    joined wherever dx*dx + dy*dy <= radius*radius; one block of rows at a time."""
    xs, ys = np.array([rng.random() for _ in range(2 * n)]).reshape(n, 2).T
    r2 = radius * radius
    adj = []
    block = max(1, 2**20 // n)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        dx, dy = xs[lo:hi, None] - xs, ys[lo:hi, None] - ys
        near = dx * dx + dy * dy <= r2
        near[np.arange(hi - lo), np.arange(lo, hi)] = False
        adj.extend(set(np.flatnonzero(row).tolist()) for row in near)
    return adj


def _component_minima(adj, members) -> list[int]:
    """The least node of each component of the subgraph induced on
    ``members``, which are ascending; in ascending order."""
    inside = set(members)
    seen = set()
    minima = []
    for v in members:
        if v in seen:
            continue
        minima.append(v)
        seen.add(v)
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return minima


def _link_components(adj, members):
    """Join consecutive components of the subgraph induced on ``members``,
    ordered by their least node, with an edge between those least nodes."""
    minima = _component_minima(adj, members)
    for a, b in zip(minima, minima[1:]):
        adj[a].add(b)
        adj[b].add(a)


def hop_matrix(adj: list[list[int]], byz: set[int]) -> np.ndarray:
    """BFS hop counts with only honest nodes relaying; -1 where unreachable.

    One level-synchronous BFS runs from every origin at once.  The frontier
    holds the (origin, node) pairs first reached at the previous level, as
    flat indices origin * n + node.  Level 1 expands every origin, so a
    byzantine node still sends its own messages; later levels drop
    byzantine nodes from the frontier, so they do not relay.  A level
    expands by gathering neighbours from CSR arrays unless that gather
    would touch more than n * n entries; then one matrix product over the
    dense frontier is cheaper (Beamer et al., "Direction-Optimizing
    Breadth-First Search", SC 2012).
    """
    n = len(adj)
    degree = np.fromiter((len(a) for a in adj), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=int(indptr[-1]))
    relays = np.array([v not in byz for v in range(n)], dtype=bool)
    hops = np.full(n * n, -1, dtype=np.int32)
    seen = np.zeros(n * n, dtype=bool)
    slot = np.empty(n * n, dtype=np.int64)  # dedup scratch, written only where reached
    frontier = np.arange(n, dtype=np.int64) * (n + 1)  # every origin, level 0
    hops[frontier] = 0
    seen[frontier] = True
    dense_adj = None
    level, unseen = 0, n * n - n
    while frontier.size and unseen:
        level += 1
        nodes = frontier % n
        if level > 1:
            keep = relays[nodes]
            frontier, nodes = frontier[keep], nodes[keep]
        if int(degree[nodes].sum()) > n * n:
            if dense_adj is None:
                dense_adj = np.zeros((n, n), dtype=np.float32)
                dense_adj[np.repeat(np.arange(n), degree), indices] = 1.0
            reached = _expand_dense(frontier, dense_adj)
        else:
            reached = _expand_sparse(frontier, nodes, degree, indptr, indices)
        reached = reached[~seen[reached]]
        # A pair reached through several frontier nodes is kept once: of
        # all positions writing the same slot, exactly one reads itself back.
        order = np.arange(reached.size)
        slot[reached] = order
        frontier = reached[slot[reached] == order]
        hops[frontier] = level
        seen[frontier] = True
        unseen -= frontier.size
    return hops.reshape(n, n)


def _expand_sparse(frontier, nodes, degree, indptr, indices) -> np.ndarray:
    """Flat (origin, neighbour) pairs one hop past the frontier, gathered;
    a pair appears once per frontier node it neighbours."""
    counts = degree[nodes]
    total = int(counts.sum())
    ends = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(indptr[nodes] - (ends - counts), counts)
    return np.repeat(frontier - nodes, counts) + indices[pos]


def _expand_dense(frontier, dense_adj) -> np.ndarray:
    """Flat (origin, neighbour) pairs one hop past the frontier, by matrix product."""
    n = len(dense_adj)
    rows = np.zeros(n * n, dtype=np.float32)
    rows[frontier] = 1.0
    return np.flatnonzero(rows.reshape(n, n) @ dense_adj > 0)


# ---------------------------------------------------------------------------
# Trace


_JSONL_KEYS = ("t_abs", "t_local", "node", "kind", "instance", "step", "size_bytes", "digest", "note")
TRACE_BATCH = 256  # records hashed per digest update
_LINE = "%.17g|%.17g|%s|%s|%s|%s|%s|%s|%s"
_DECIDE_NOTE = "component %d -> %d"  # one decided (component, bit) pair


class Trace:
    """Append-only event log; its digest is the run's determinism witness.

    A record is a 9-tuple (t_abs, t_local, node, kind, instance, step,
    size_bytes, digest8, note).  A ``decide`` record holds all of one node's
    decisions at one deadline: its note is the tuple of (component, bit)
    pairs in ``decision_log`` order.  The digest and ``write_jsonl`` see it
    as one line per pair, with the note ``component c -> b``.  Every other
    record is one line, each field as text and the times as ``%.17g``.  The
    digest is blake2b over those lines, each ending in a newline, fed one
    batch of ``TRACE_BATCH`` records at a time as the run appends them; the
    instance runner flushes the rest when its instance ends.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self._h = hashlib.blake2b(digest_size=32)
        self._hashed = 0  # records already fed to the hash

    def add(self, t_abs, t_local, node, kind, instance, step, size_bytes, digest8, note=""):
        records = self.records
        records.append((float(t_abs), float(t_local), node, kind, instance, step, size_bytes,
                        digest8, note))
        if len(records) - self._hashed >= TRACE_BATCH:
            self.flush()

    def flush(self):
        """Hash every record not hashed yet."""
        lines = []
        for rec in self.records[self._hashed:]:
            if rec[3] == "decide":
                head = _LINE % (rec[:8] + ("",))
                lines.extend([head + _DECIDE_NOTE % pair for pair in rec[8]])
            else:
                lines.append(_LINE % rec)
        lines.append("")  # so the last line ends in a newline too
        self._h.update("\n".join(lines).encode())
        self._hashed = len(self.records)

    def digest(self) -> str:
        self.flush()
        return self._h.hexdigest()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                lines = ([rec[:8] + (_DECIDE_NOTE % pair,) for pair in rec[8]]
                         if rec[3] == "decide" else [rec])
                for line in lines:
                    fh.write(json.dumps(dict(zip(_JSONL_KEYS, line)), sort_keys=True))
                    fh.write("\n")


# ---------------------------------------------------------------------------
# Adversary strategies


class Strategy:
    """Byzantine behavior hooks; the base class behaves honestly."""

    name = "honest"

    def message_plans(self, net, node, plan: SendPlan, params) -> list[SendPlan]:
        """The wire variants of one send."""
        return [plan]

    def block_release(self, slot_duration: float, lam_block: float):
        """Local-clock release time of a shard block, the slot start for an
        honest creator; None withholds it.  ``lam_block`` is lambda(block)."""
        return 0.0


class CrashStrategy(Strategy):
    name = "crash"

    def message_plans(self, net, node, plan, params):
        return []

    def block_release(self, slot_duration, lam_block):
        return None


class EquivocateStrategy(Strategy):
    """Conflicting content to two random halves of the network."""

    name = "equivocate"

    def message_plans(self, net, node, plan, params):
        mask = net.adv_rng.random(net.n) < 0.5
        junk = _junk_row(params, plan, shared=False)
        return [
            SendPlan(plan.step, plan.row, plan.proof, plan.theta_digest, mask),
            SendPlan(plan.step, junk, plan.proof, plan.theta_digest, ~mask),
        ]


class WithholdThenReleaseStrategy(Strategy):
    """Correct content, released late enough to straddle tally deadlines."""

    name = "withhold_then_release"

    def message_plans(self, net, node, plan, params):
        step_len = step_length(net, params)
        lo = max(0.0, step_len - 2.0 * net.lam(512))
        delay = float(net.adv_rng.uniform(lo, step_len))
        return [SendPlan(plan.step, plan.row, plan.proof, plan.theta_digest, None, delay)]


class BitFlipStrategy(Strategy):
    """Broadcasts corrupted votes: junk values, inverted bits."""

    name = "bit_flip_votes"

    def message_plans(self, net, node, plan, params):
        junk = _junk_row(params, plan, shared=True)
        return [SendPlan(plan.step, junk, plan.proof, plan.theta_digest)]


class LateBlockStrategy(Strategy):
    """Honest votes, but shard blocks released at a configured local time.

    release = offset_frac * slot_duration + offset_lambdas * lambda(block).
    """

    name = "late_block"

    def __init__(self, offset_frac: float = 1.0, offset_lambdas: float = -0.5):
        self.offset_frac = offset_frac
        self.offset_lambdas = offset_lambdas

    def block_release(self, slot_duration, lam_block):
        return self.offset_frac * slot_duration + self.offset_lambdas * lam_block


def _junk_row(params, plan: SendPlan, shared: bool) -> np.ndarray:
    """Replacement row for an adversarial variant of one message: one junk
    value id everywhere in a graded step, else every bit inverted with no
    flag."""
    if plan.step <= engine.GRADED:
        tag = b"flip" if shared else b"equiv"
        # The golden trace digests fix these bytes: they hash repr(("mgc", step)).
        junk_bytes = crypto.digest(params.digest, tag, repr(("mgc", plan.step)).encode())[:8]
        vid = params.interner.intern(junk_bytes)
        return np.full(params.m, vid, dtype=np.int32)
    return 1 - (plan.row & 1)


STRATEGIES = {
    "honest": Strategy,
    "crash": CrashStrategy,
    "equivocate": EquivocateStrategy,
    "withhold_then_release": WithholdThenReleaseStrategy,
    "bit_flip_votes": BitFlipStrategy,
    "late_block": LateBlockStrategy,
}

_HONEST = Strategy()


# ---------------------------------------------------------------------------
# Message pools


class _Rows:
    """Rows appended in place to one growing matrix, doubled when full."""

    def __init__(self, width: int, dtype):
        self._data = np.empty((8, width), dtype=dtype)
        self.size = 0

    def append(self, row):
        self.extend(row[None])

    def extend(self, rows):
        if self._data is None:
            return  # closed
        end = self.size + len(rows)
        if end > len(self._data):
            grown = np.empty((max(end, 2 * len(self._data)), self._data.shape[1]),
                             dtype=self._data.dtype)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        self._data[self.size:end] = rows
        self.size = end

    def view(self) -> np.ndarray:
        return self._data[: self.size]

    def close(self):
        """Drop every row; a later ``extend`` keeps nothing."""
        self._data, self.size = None, 0


class _Census:
    """One content's finals: each sender's first vote and its arrival times."""

    def __init__(self, n: int):
        self.votes: list[engine.FinalVote] = []
        self.senders: set[int] = set()
        self.arrivals = _Rows(n, np.float64)


class Pool:
    """All wire variants of one (instance, step), each row stored once.

    A step pool is the record of its step: ``deadlines`` is the step's (n,)
    deadline vector, which its tally and coin reads use, and ``release_at``
    its largest finite entry.  It appends every accepted variant's payload
    and delivery row to two growing matrices and caches its tally of the
    rows present next to ``batch``, the runner's rule batch over it, until
    ``release`` drops them.  The final pool (``deadlines`` None) keeps only
    its census: per content (bits, theta digest), the first ``FinalVote``
    of each sender and its arrival times.  A delivery row joins when the
    network delivers its queue; every read that needs the rows delivers it
    first if one of this pool's rows is still queued.
    """

    def __init__(self, net: Network, m: int, deadlines: np.ndarray | None):
        self.net = net
        self.n = net.n
        self.deadlines = deadlines
        self.digests: set[bytes] = set()
        self.released = False
        self._last: Delivery | None = None  # the latest send whose row this pool keeps
        self._census: dict[tuple, _Census] | None = None
        if deadlines is None:
            self._census = {}
            return
        finite = deadlines[np.isfinite(deadlines)]
        self.release_at = float(finite.max()) if finite.size else -math.inf
        self.senders: list[int] = []
        self.vrf64: list[int] = []
        self.payloads = _Rows(m, np.int32)
        self.deliveries = _Rows(self.n, np.float64)
        self._tally: np.ndarray | None = None  # the counts over the rows present
        self.batch: tuple | None = None  # the runner's (counts, present, rows by node)

    def add(self, sender, payload_row, delivery: Delivery, digest, vrf_out: bytes) -> bool:
        """Pool one wire variant unless its digest is already here.

        ``delivery`` is the variant's queued send; the row it delivers joins
        the pool.  ``vrf_out`` is the sender's sortition output; its leading
        64 bits feed the coin.  A final's payload is (bits, theta digest,
        signature); it joins the census as a ``FinalVote`` (sender,
        ``vrf_out``, signature) unless its sender already backs that content.
        """
        if digest in self.digests:
            return False  # gossip duplicate suppression
        self.digests.add(digest)
        if self._census is not None:
            key = (payload_row[0], payload_row[1])
            group = self._census.get(key)
            if group is None:
                group = self._census[key] = _Census(self.n)
            if sender not in group.senders:
                group.senders.add(sender)
                group.votes.append(engine.FinalVote(sender, vrf_out, payload_row[2]))
                delivery.into, self._last = group.arrivals, delivery
            return True
        if self.released:
            return True
        self.senders.append(sender)
        self.vrf64.append(crypto.u64_from(vrf_out))
        self.payloads.append(payload_row)
        delivery.into, self._last = self.deliveries, delivery
        self._tally = None
        return True

    def release(self):
        """Drop a step pool's rows, sortition outputs, tally and rule batch
        once no deadline can read them.  ``digests`` stay for duplicate
        suppression; a queued row of this pool joins the closed matrix,
        which keeps nothing."""
        self.released = True
        self.deliveries.close()
        self._last = self._tally = self.batch = None
        self.senders = self.vrf64 = self.payloads = None

    def _settle(self):
        """Deliver the network's queue if a row of this pool is in it."""
        if self.released:
            raise RuntimeError("read of a released step pool")
        if self._last is not None and self._last.row is None:
            self.net.deliver()

    def may_hold(self, node: int, t_abs: float, count: int) -> bool:
        """Whether ``node`` may hold ``count`` finals of one content by
        ``t_abs``: its delivered rows that arrived, plus every queued one.
        False settles the census check without delivering the queue."""
        for g in self._census.values():
            queued = len(g.votes) - g.arrivals.size
            if len(g.votes) >= count and queued + int(
                    np.count_nonzero(g.arrivals.view()[:, node] <= t_abs)) >= count:
                return True
        return False

    def final_groups(self):
        """Finals grouped by content: {(bits, digest): (votes, arrivals)}.

        One vote per sender (first emitted wins); arrivals[j] is the
        delivery row of votes[j].  Both are the census's own storage.
        """
        self._settle()
        return {key: (g.votes, g.arrivals.view()) for key, g in self._census.items()}

    def tally(self, num_values: int) -> np.ndarray:
        """(n, m, V) counts at the step's deadlines, one kernel call per set
        of rows: on the first read, or the first after a row joined.  A
        later read gets the cached counts even when ``num_values`` has grown
        since: every pooled row's ids are below the cached width V, so the
        columns of newer values would be all zeros."""
        self._settle()
        if self._tally is None:
            senders = np.array(self.senders, dtype=np.int32)
            order = np.argsort(senders, kind="stable")
            self._tally = kernels.tally_votes(
                self.deliveries.view()[order], self.deadlines, senders[order],
                self.payloads.view()[order], num_values)
        return self._tally

    def min_vrf(self):
        """(mins, present): per-node minimum sortition output among timely rows."""
        self._settle()
        if not self.senders:
            return np.zeros(self.n, dtype=np.uint64), np.zeros(self.n, dtype=bool)
        counted = self.deliveries.view() <= self.deadlines[None, :]
        vrf = np.array(self.vrf64, dtype=np.uint64)
        masked = np.where(counted, vrf[:, None], np.uint64(U64MAX))
        return masked.min(axis=0), counted.any(axis=0)


# ---------------------------------------------------------------------------
# Network


DELIVERY_CELLS = 1 << 14  # PRF grid cells per delivery_times call: the grid stays in cache


class Delivery:
    """One queued send: its sampling inputs, and its delivery row once
    ``Network.deliver`` has run.  A pool that keeps the row sets ``into``,
    the matrix the row is appended to."""

    __slots__ = ("origin", "t_send", "cap", "seed", "dest_mask", "into", "row")

    def __init__(self, origin, t_send, cap, seed, dest_mask):
        self.origin = origin
        self.t_send = t_send
        self.cap = cap
        self.seed = seed
        self.dest_mask = dest_mask
        self.into = None
        self.row = None


def diffusion_bound(lam_base: float, lam_per_byte: float, size_bytes: int) -> float:
    """lambda(size): the bound on a message's diffusion to every honest node."""
    return lam_base + size_bytes * lam_per_byte


class Network:
    """Transport state shared by every instance of one run."""

    def __init__(
        self,
        n: int,
        byz: set[int],
        adj,
        registry: KeyRegistry,
        seed: int,
        lam_base: float,
        lam_per_byte: float,
        d_min: float,
        d_max: float,
        strategies: dict[int, Strategy],
        trace: Trace,
    ):
        self.n = n
        self.byz = byz
        self.hops = hop_matrix(adj, byz)
        self.registry = registry
        self.lam_base = lam_base
        self.lam_per_byte = lam_per_byte
        self.d_min = d_min
        self.d_max = d_max
        self.strategies = strategies
        self.trace = trace
        self.delay_seed = crypto.u64_from(crypto.digest(b"delays", seed.to_bytes(8, "big")))
        self.adv_rng = np.random.default_rng(
            crypto.u64_from(crypto.digest(b"adversary", seed.to_bytes(8, "big")))
        )
        self.offsets = np.zeros(n, dtype=np.float64)  # abs time at local 0
        self.honest_mask = np.array([v not in byz for v in range(n)], dtype=bool)
        self._queue: list[Delivery] = []
        self._fifo_floor: dict[int, np.ndarray] = {}  # latest row of each honest origin
        # Keep worst-case path delays strictly inside the diffusion bound so
        # the envelope clamp never has to fire: scale the per-hop window down
        # when the realized topology is deep.
        max_hops = max(1, int(self.hops.max()))
        self._grid_row = max_hops * n  # PRF grid cells of one delivery row, at most
        if d_max * max_hops > lam_base:
            scale = lam_base / (d_max * max_hops)
            self.d_max = d_max * scale
            self.d_min = min(d_min, self.d_max)

    def lam(self, size_bytes: int) -> float:
        return diffusion_bound(self.lam_base, self.lam_per_byte, size_bytes)

    def local(self, node: int, t_abs: float) -> float:
        off = self.offsets[node]
        if not (math.isfinite(t_abs) and math.isfinite(off)):
            return float("inf")
        return t_abs - off

    def strategy(self, node: int) -> Strategy:
        if node in self.byz:
            return self.strategies.get(node, _HONEST)
        return _HONEST

    def send(self, origin, t_send, size, digest, dest_mask=None, delay=0.0) -> Delivery:
        """Queue one message for the next ``deliver``; returns its ``Delivery``."""
        seed = (self.delay_seed ^ crypto.u64_from(digest)) & U64MAX
        queued = Delivery(origin, t_send + delay, self.lam(size), seed, dest_mask)
        self._queue.append(queued)
        return queued

    def deliver(self):
        """Deliver every queued send, in send order, a chunk of rows per
        ``delivery_times`` call; each row is the one the message would get
        if it were sent alone at its turn."""
        queue, self._queue = self._queue, []
        per_call = max(1, DELIVERY_CELLS // self._grid_row)
        while queue:
            chunk = queue[:per_call]
            del queue[:per_call]  # a delivered chunk's rows live only in their pools
            self._deliver_chunk(chunk)

    def _deliver_chunk(self, chunk: list[Delivery]):
        k = len(chunk)
        origins = np.fromiter((d.origin for d in chunk), dtype=np.intp, count=k)
        caps = np.fromiter((d.cap for d in chunk), dtype=np.float64, count=k)
        rows = kernels.delivery_times(
            np.fromiter((d.t_send for d in chunk), dtype=np.float64, count=k),
            self.hops[origins], np.fromiter((d.seed for d in chunk), dtype=np.uint64, count=k),
            self.d_min, self.d_max, caps,
        )
        masked = [i for i, d in enumerate(chunk) if d.dest_mask is not None]
        if masked:
            keep = np.array([chunk[i].dest_mask for i in masked], dtype=bool)
            keep[np.arange(len(masked)), origins[masked]] = True
            rows[masked] = np.where(keep, rows[masked], np.inf)
        byz = np.fromiter((d.origin in self.byz for d in chunk), dtype=bool, count=k)
        if byz.any():
            # Honest nodes relay whatever they hold: a byzantine-origin
            # message re-diffuses within lambda(size) of its earliest honest
            # receipt, so selective delivery only buys a bounded head start.
            b = np.flatnonzero(byz)
            sub = rows[b]
            t_first = sub[:, self.honest_mask].min(axis=1, initial=np.inf)
            rows[b] = np.minimum(sub, (t_first + caps[b])[:, None])
        # FIFO per (origin -> destination): an honest sender's later message
        # never overtakes an earlier one.  The clamp respects the envelope
        # because earlier sends carry earlier bounds.  A row's floor is its
        # origin's previous row, clamped first, in send order.
        floor = self._fifo_floor
        for i in np.flatnonzero(~byz).tolist():
            v = chunk[i].origin
            if v in floor:
                np.maximum(rows[i], floor[v], out=rows[i])
            floor[v] = rows[i].copy()  # its own array: no chunk outlives the send
        start = 0  # rows[start:i + 1] run to one pool's matrix
        for i, d in enumerate(chunk):
            d.row = rows[i]
            if i + 1 == k or chunk[i + 1].into is not d.into:
                if d.into is not None:
                    d.into.extend(rows[start:i + 1])
                start = i + 1


# ---------------------------------------------------------------------------
# Instance runner

RULE_CELLS = 1 << 15  # (node, component, value) cells per rule call


def mgc_message_size_bound(m: int) -> int:
    """Bytes of the largest step message of an m-component instance: every
    component carries a 64-byte value."""
    return 32 + 4 + 1 + 2 + m * 66 + 100 + crypto.SIG_SIZE


def step_length(net: Network, params: CobParams) -> float:
    """Time between an instance's step deadlines: twice the diffusion bound
    of its largest step message.  The runner and the adversary strategies
    that time their sends against the deadlines both read it here."""
    return 2.0 * net.lam(mgc_message_size_bound(params.m))


@dataclass
class InstanceResult:
    params: CobParams
    states: dict[int, CobNodeState]
    outputs: dict[int, engine.CobOutput]
    assembly_times: np.ndarray | None
    liveness_failures: list[int]
    certificate: engine.Certificate | None = None  # canonical, full supporter set
    cut_at: float | None = None  # the horizon, when it stopped the run early

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    @property
    def bits(self) -> tuple | None:
        return None if self.certificate is None else self.certificate.bits

    @property
    def theta_digest(self) -> bytes | None:
        return None if self.certificate is None else self.certificate.theta_digest


class InstanceRunner:
    """Drives one instance at every node over a shared event heap, from the
    local clock reading ``start_local``; a certified run rolls the clocks
    over to its certificate assembly times."""

    def __init__(self, net: Network, params: CobParams, observations, start_local: float = 0.0):
        self.net = net
        self.params = params
        self.pools: dict[int, Pool] = {}
        self.start_abs = net.offsets + start_local
        self.step_len = step_length(net, params)
        self.label = f"{params.instance.purpose}/{params.instance.epoch}/{params.instance.slot}"
        self.states = {v: engine.cob_start(params, v, observations[v]) for v in range(net.n)}
        self._open: list[tuple] = []  # (release_at, step) of the unreleased step pools

    def pool(self, step: int) -> Pool:
        """The step's pool, built at its first use with the step's deadlines
        start + step * step length.  The final pool has no deadlines and is
        never released."""
        p = self.pools.get(step)
        if p is None:
            if step == engine.FINAL_STEP:
                p = Pool(self.net, self.params.m, None)
            else:
                p = Pool(self.net, self.params.m, self.start_abs + step * self.step_len)
                heapq.heappush(self._open, (p.release_at, step))
            self.pools[step] = p
        return p

    def _release_before(self, t: float):
        """Release every step pool whose latest deadline is before ``t``."""
        while self._open and self._open[0][0] < t:
            self.pools[heapq.heappop(self._open)[1]].release()

    def _record(self, v: int, t, kind: str, step: str, size=0, digest="", note=""):
        """One trace record of node ``v`` at absolute time ``t``; a record
        with no time (``t`` None) reads 0 on both clocks."""
        t_abs, t_local = (0.0, 0.0) if t is None else (t, self.net.local(v, t))
        self.net.trace.add(t_abs, t_local, v, kind, self.label, step, size, digest, note)

    # -- sends --------------------------------------------------------------
    def dispatch(self, node: int, t_abs: float, plans: list[SendPlan]):
        net, params = self.net, self.params
        strategy = net.strategy(node)
        for plan in plans:
            for sent in strategy.message_plans(net, node, plan, params):
                self._emit(node, t_abs, sent)

    def _emit(self, node: int, t_abs: float, plan: SendPlan):
        params, net = self.params, self.net
        step, row, proof = plan.step, plan.row, plan.proof
        if step <= engine.GRADED:
            encoded = engine.encode_mgc_message(params, step, node, row, proof)
        elif step == engine.FINAL_STEP:
            encoded = engine.encode_final_body(params.digest, node, row, plan.theta_digest, proof)
        else:
            encoded = engine.encode_mbba_message(params, *engine.agreement(step), node, row, proof)
        sig = net.registry.sign(node, encoded)
        digest = crypto.digest(encoded, sig)
        size = len(encoded) + len(sig)
        # Queued even when the pool rejects it: the send still moves its
        # origin's FIFO floor.
        delivery = net.send(node, t_abs, size, digest, plan.dest_mask, plan.delay)
        if step == engine.FINAL_STEP:
            row = (np.asarray(row, dtype=np.uint8).tobytes(), plan.theta_digest, sig)
        pool = self.pool(step)
        if pool.add(node, row, delivery, digest, proof.pseudo_vrf_output):
            self._record(node, t_abs, "send", engine.step_label(step), size, digest[:8].hex())

    # -- step rules -------------------------------------------------------------
    def step_outcome(self, step: int, node: int) -> tuple[tuple, np.ndarray | None]:
        """(row, present): the node's row of its step's rule outcome, as
        ``engine.on_step_deadline`` applies it, and in a coin phase the
        per-node flags of having counted any vote (None outside coin phases).

        The rules run for every node of the step at once, at the first
        deadline that needs them.  A batch is reused while the step's tally
        is the one it was computed from; a late row recomputes the tally,
        and the nodes still at the step then get a new batch, as does a
        node that reaches the step after the batch was made.
        """
        pool = self.pool(step)
        num_values = len(self.params.interner) if step <= engine.GRADED else engine.VOTE_VALUES
        counts = pool.tally(num_values)
        batch = pool.batch
        if batch is None or batch[0] is not counts or node not in batch[2]:
            batch = pool.batch = self._rule_batch(step, pool, counts)
        return batch[2][node], batch[1]

    def _rule_batch(self, step: int, pool: Pool, counts) -> tuple:
        """Rule outcome rows for every node at ``step`` that has not halted.
        Only a node's own events change its state, so each row holds until
        that node's deadline."""
        members = [v for v, s in self.states.items() if s.step == step and not s.halted]
        coins = present = None
        if step > engine.GRADED and engine.agreement(step)[1] == mbba.PHASE_COIN:
            mins, present = pool.min_vrf()
            coins = mbba.coin_bit(mins, present)
        # Bound the (nodes, m, V) temporaries of one rule call.
        per_call = max(1, RULE_CELLS // counts[0].size)
        rows: dict[int, tuple] = {}
        for start in range(0, len(members), per_call):
            chunk = members[start:start + per_call]
            outcome = engine.step_outcomes(
                self.params, step, [self.states[v] for v in chunk], counts[chunk],
                None if coins is None else coins[chunk],
            )
            rows.update(zip(chunk, zip(*outcome)))
        return counts, present, rows

    def _maybe_adopt_from_finals(self, node: int, t_abs: float) -> list[SendPlan] | None:
        """Straggler catch-up from the accumulating final pool.

        Returns the node's sends when it adopted a full certificate quorum
        (it holds its output) or only the decided bits (it halts and casts
        its own final), else None.
        """
        pool = self.pools.get(engine.FINAL_STEP)
        state = self.states[node]
        if pool is None or len(pool.digests) < self.params.t_adopt:
            return None
        # The check below acts only on a content held t_adopt times, or
        # t_cert times once the node halted.  When no content can get there
        # even with its queued rows counted as held, it needs no delivery.
        if not pool.may_hold(node, t_abs, self.params.t_cert if state.halted
                             else self.params.t_adopt):
            return None
        census = []
        for key, (votes, arrivals) in pool.final_groups().items():
            held = arrivals[:, node] <= t_abs
            census.append((int(np.count_nonzero(held)), key, votes, held))
        census.sort(key=lambda g: (-g[0], g[1]))
        for count, (bits_bytes, theta_digest), votes, held in census:
            if count >= self.params.t_cert:
                cert = self._certificate(bits_bytes, theta_digest, votes, held)
                plans = engine.adopt_output(state, bits_bytes, theta_digest, cert)
                if plans is not None:
                    return plans
            elif not state.halted and count >= self.params.t_adopt:
                return engine.adopt_decided_bits(state, bits_bytes)
        return None

    def _certificate(self, bits, theta_digest, votes, held=None) -> engine.Certificate:
        """Certificate over the census ``votes``, or those selected by ``held``."""
        picked = list(votes) if held is None else list(compress(votes, held.tolist()))
        return engine.Certificate(self.params.instance, tuple(bits), theta_digest, picked)

    # -- event loop -------------------------------------------------------------
    def run(self, horizon: float = np.inf) -> InstanceResult:
        net = self.net
        heap: list[tuple] = []
        for v in range(net.n):
            heapq.heappush(heap, (float(self.start_abs[v]), v, engine.START))
        liveness: list[int] = []
        cut_at = None
        while heap:
            t, v, step = heapq.heappop(heap)
            if not math.isfinite(t):
                continue  # node unreachable from every honest relay
            if t > horizon:
                self._record(v, t, "timeout-horizon", "-")
                cut_at = horizon
                break
            self._release_before(t)
            state = self.states[v]
            if step == engine.START:
                self._record(v, t, "timeout", "start")
                self.dispatch(v, t, engine.initial_send(state))
            else:
                self.dispatch(v, t, self._on_deadline(v, t, step, liveness))
            if state.step is not None:
                heapq.heappush(heap, (float(self.pool(state.step).deadlines[v]), v, state.step))
        self._release_before(math.inf)
        result = self._finish(liveness)
        net.trace.flush()
        result.cut_at = cut_at
        net.deliver()  # the rest of the queue: the sends still move FIFO floors
        if result.certified:
            net.offsets = result.assembly_times.copy()
        return result

    def _on_deadline(self, v: int, t: float, step: int, liveness: list[int]) -> list[SendPlan]:
        """Node ``v`` at its deadline ``step``: catch up from the final pool,
        echo once halted, or pass the step.  Returns the node's sends."""
        state = self.states[v]
        if step > engine.GRADED:
            plans = self._maybe_adopt_from_finals(v, t)
            if plans is not None:
                return plans
        if state.halted:
            # Decided bits keep being echoed with final flags until the
            # node holds a certificate, so stragglers can catch up.
            return engine.on_echo_deadline(state) or []
        row, present = self.step_outcome(step, v)
        label = engine.step_label(step)
        if present is not None and not present[v]:
            self._record(v, t, "note", label, note="empty coin phase")
        log = state.decision_log
        decisions_before = len(log)
        try:
            plans = engine.on_step_deadline(state, step, row)
        except mbba.LivenessError as exc:
            liveness.append(v)
            self._record(v, t, "liveness-failure", label, note=str(exc))
            return []
        if len(log) > decisions_before:
            # One record per deadline: its (component, bit) pairs in log order.
            self._record(v, t, "decide", label,
                         note=tuple([entry[2:] for entry in log[decisions_before:]]))
        return plans

    # -- certificate assembly -----------------------------------------------------
    def _finish(self, liveness: list[int]) -> InstanceResult:
        net, params = self.net, self.params
        pool = self.pools.get(engine.FINAL_STEP)
        outputs: dict[int, engine.CobOutput] = {}
        if pool is None or not pool.digests:
            return InstanceResult(params, self.states, outputs, None, liveness)
        quorum_key, votes, arrivals = None, None, None
        for gkey, (group_votes, arr) in sorted(pool.final_groups().items()):
            if len(group_votes) >= params.t_cert:
                quorum_key, votes, arrivals = gkey, group_votes, arr
                break
        if quorum_key is None:
            return InstanceResult(params, self.states, outputs, None, liveness)
        bits_bytes, theta_digest = quorum_key
        bits = tuple(bits_bytes)
        assembly = np.sort(arrivals, axis=0)[params.t_cert - 1, :]
        canonical = self._certificate(bits, theta_digest, votes)
        for v in range(net.n):
            t_v = float(assembly[v])
            if not np.isfinite(t_v):
                self._record(v, None, "no-certificate", "final")
                continue
            state = self.states[v]
            # A node that adopted from the final pool already holds its output.
            if state.output is not None or engine.adopt_certificate(
                state, bits, theta_digest,
                self._certificate(bits, theta_digest, votes, arrivals[:, v] <= t_v),
            ):
                outputs[v] = state.output
                self._record(v, t_v, "output", "final", digest=theta_digest[:8].hex())
            else:
                self._record(v, t_v, "output-mismatch", "final", digest=theta_digest[:8].hex())
        return InstanceResult(params, self.states, outputs, assembly, liveness, canonical)


def synchronize(net: Network, chain_id: bytes, entropy: bytes, initial_skew: float,
                rng) -> InstanceResult:
    """Bootstrap: agree on "start"; certificate arrival resets every clock.

    Clocks begin with arbitrary offsets up to initial_skew (a coarse prior
    synchronization); after the reset, honest skew is bounded by the
    diffusion spread of final votes.  Every step of the bootstrap instance
    seats the whole population.
    """
    net.offsets = np.asarray(rng.uniform(0.0, initial_skew, net.n), dtype=np.float64)
    inst = engine.CobInstanceId(chain_id, 0, -1, "synchronization_setup")
    params = CobParams(inst, 1, entropy, net.registry, net.n)
    observations = [[b"start"] for _ in range(net.n)]
    result = InstanceRunner(net, params, observations).run()
    if not result.certified:
        raise mbba.LivenessError("synchronization setup failed to certify")
    for v in range(net.n):
        net.trace.add(float(net.offsets[v]), 0.0, v, "clock-reset", "setup", "final", 0, "")
    return result
