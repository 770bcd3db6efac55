"""The synchronization chain: time-slots, block timing, epoch turnover.

Each slot, the node assigned by the list L broadcasts one block per shard;
when a node's private clock reads the slot duration it freezes what it saw
(a digest per shard, or blank) and the network runs one consensus instance
over those observations.  The certified outcome becomes the next
synchronization block: it hash-links the timely shard blocks, carries the
next epoch's parameters in the last slot of an epoch, and its certificate
is the rollover signal that resets every clock.

Blank components never stall the chain: the merge policy substitutes the
previous epoch's value (round-robin creators for blank assignment slots)
and structurally inconsistent epoch data is rejected wholesale in favor of
the previous configuration.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import crypto, engine, netsim
from .engine import CobParams


def compute_nc(alpha: int, beta: int, ns_next: int, ns_cur: int) -> int:
    """Component count of a last-slot instance: alpha + beta*Ns' + Ns."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if ns_next < 0 or ns_cur < 0:
        raise ValueError("shard counts must be non-negative")
    return alpha + beta * ns_next + ns_cur


# ---------------------------------------------------------------------------
# Epoch configuration


@dataclass
class EpochConfig:
    epoch: int
    num_shards: int
    num_slots: int
    slot_duration: float
    assignment: dict[tuple[int, int], int]  # (slot 1.., shard 1..) -> node
    general_params: list[bytes]
    shard_params: dict[int, list[bytes]]

    @property
    def alpha(self) -> int:
        return len(self.general_params)

    @property
    def beta(self) -> int:
        return self.num_slots + len(next(iter(self.shard_params.values())))

    def validate(self, n_nodes: int, lam_bound: float):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not self.slot_duration > 4 * lam_bound:
            raise ValueError(
                f"slot duration {self.slot_duration} must exceed 4*lambda = {4 * lam_bound}"
            )
        for slot in range(1, self.num_slots + 1):
            for shard in range(1, self.num_shards + 1):
                node = self.assignment.get((slot, shard))
                if node is None or not 0 <= node < n_nodes:
                    raise ValueError(f"assignment missing or invalid for slot {slot} shard {shard}")

    def creators(self, slot: int) -> dict[int, int]:
        return {s: self.assignment[(slot, s)] for s in range(1, self.num_shards + 1)}


def default_general_params(alpha: int, entropy: bytes, num_shards: int, num_slots: int,
                           slot_duration: float) -> list[bytes]:
    """Layout: [0]=shard count, [1]=slot count, [2]=duration, rest opaque."""
    out = [
        num_shards.to_bytes(8, "big"),
        num_slots.to_bytes(8, "big"),
        struct.pack(">d", slot_duration),
    ]
    for k in range(3, alpha):
        out.append(crypto.digest(entropy, b"gp", k.to_bytes(4, "big"))[:8])
    return out


def derive_assignment(entropy: bytes, num_slots: int, num_shards: int, n_nodes: int):
    """Deterministic pseudo-random creator assignment from shared entropy."""
    assignment = {}
    for slot in range(1, num_slots + 1):
        for shard in range(1, num_shards + 1):
            h = crypto.digest(entropy, b"L", slot.to_bytes(4, "big"), shard.to_bytes(4, "big"))
            assignment[(slot, shard)] = crypto.u64_from(h) % n_nodes
    return assignment


def genesis_config(entropy: bytes, n_nodes: int, num_shards: int, num_slots: int,
                   slot_duration: float, alpha: int = 20, extra_shard_params: int = 1):
    assignment = derive_assignment(entropy, num_slots, num_shards, n_nodes)
    shard_params = {
        s: [crypto.digest(entropy, b"sp", s.to_bytes(4, "big"), k.to_bytes(4, "big"))[:8]
            for k in range(extra_shard_params)]
        for s in range(1, num_shards + 1)
    }
    return EpochConfig(
        0, num_shards, num_slots, slot_duration,
        assignment, default_general_params(alpha, entropy, num_shards, num_slots, slot_duration),
        shard_params,
    )


# ---------------------------------------------------------------------------
# Blocks


@dataclass
class ShardBlock:
    chain_id: bytes
    epoch: int
    slot: int
    shard: int
    creator: int
    prev_digest: bytes
    payload: bytes

    def encode(self) -> bytes:
        return (
            self.chain_id
            + self.epoch.to_bytes(8, "big")
            + self.slot.to_bytes(8, "big")
            + self.shard.to_bytes(4, "big")
            + self.creator.to_bytes(4, "big")
            + self.prev_digest
            + len(self.payload).to_bytes(4, "big")
            + self.payload
        )

    def digest(self) -> bytes:
        return crypto.digest(b"shard-block", self.encode())


def shard_genesis_digest(chain_id: bytes, shard: int) -> bytes:
    return crypto.digest(b"shard-genesis", chain_id, shard.to_bytes(4, "big"))


@dataclass
class EpochData:
    parameters: list[bytes | None]  # alpha + beta*Ns' raw agreed values, blanks allowed
    list_l: dict[tuple[int, int], int]  # merged assignment for the next epoch

    def encode(self) -> bytes:
        from . import values as values_mod

        body = values_mod.encode_vector(self.parameters)
        for (slot, shard), node in sorted(self.list_l.items()):
            body += slot.to_bytes(4, "big") + shard.to_bytes(4, "big") + node.to_bytes(4, "big")
        return body


@dataclass
class SyncBlock:
    prev: bytes
    epoch: int
    slot: int
    shard_digests: list[bytes | None]
    epoch_data: EpochData | None

    def encode(self) -> bytes:
        from . import values as values_mod

        body = (
            self.prev
            + self.epoch.to_bytes(8, "big")
            + self.slot.to_bytes(8, "big")
            + len(self.shard_digests).to_bytes(4, "big")
            + values_mod.encode_vector(self.shard_digests)
        )
        if self.epoch_data is not None:
            body += b"\x01" + self.epoch_data.encode()
        else:
            body += b"\x00"
        return body

    def digest(self) -> bytes:
        # The certificate is attached beside the block, not hashed into it:
        # supporter sets are view-dependent, the agreed content is not.
        return crypto.digest(b"sync-block", self.encode())


@dataclass
class CertifiedSyncBlock:
    block: SyncBlock
    certificate: engine.Certificate
    values: list[bytes | None]  # raw instance output backing the block


# ---------------------------------------------------------------------------
# Observation and merge rules


def slot_observation(blocks, creators: dict[int, int], shard_prev: dict[int, bytes],
                     obs_time_abs: float, node: int, trace=None, label="") -> list[bytes | None]:
    """Per-shard digest of the first valid block seen strictly before local t.

    blocks: iterable of (ShardBlock, digest, delivery_row).
    """
    best: dict[int, tuple[float, bytes]] = {}
    for blk, dig, row in blocks:
        shard = blk.shard
        expected = creators.get(shard)
        t_arr = row[node]
        if not np.isfinite(t_arr) or t_arr >= obs_time_abs:
            continue
        if blk.creator != expected:
            if trace is not None:
                trace.add(t_arr, 0.0, node, "obs-reject", label, f"shard-{shard}", 0, "",
                          "wrong creator")
            continue
        if blk.prev_digest != shard_prev[shard]:
            if trace is not None:
                trace.add(t_arr, 0.0, node, "obs-reject", label, f"shard-{shard}", 0, "",
                          "bad prev link")
            continue
        cur = best.get(shard)
        if cur is None or (t_arr, dig) < cur:
            best[shard] = (t_arr, dig)
    return [best[s][1] if s in best else None for s in sorted(creators)]


def epoch_observation(config: EpochConfig, entropy: bytes, n_nodes: int,
                      ns_next: int, evidence_override: bytes | None = None) -> list[bytes | None]:
    """Proposed next-epoch parameters, as one value per component.

    The proposal rules are deterministic functions of shared state (the
    previous certified block digest), so honest nodes propose identical
    vectors; evidence_override perturbs the shard-count component to model
    nodes whose local evidence disagrees.
    """
    alpha = config.alpha
    props: list[bytes | None] = list(
        default_general_params(alpha, entropy, ns_next, config.num_slots, config.slot_duration)
    )
    if evidence_override is not None:
        props[0] = evidence_override
    next_assign = derive_assignment(entropy, config.num_slots, ns_next, n_nodes)
    extra = len(next(iter(config.shard_params.values())))
    for shard in range(1, ns_next + 1):
        for slot in range(1, config.num_slots + 1):
            props.append(next_assign[(slot, shard)].to_bytes(8, "big"))
        for k in range(extra):
            props.append(crypto.digest(entropy, b"sp", shard.to_bytes(4, "big"),
                                       k.to_bytes(4, "big"))[:8])
    return props


class EpochRejected(ValueError):
    pass


def apply_epoch_output(parameters: list[bytes | None], prev: EpochConfig,
                       n_nodes: int, lam_bound: float) -> EpochConfig:
    """Merge agreed epoch parameters over the previous configuration.

    Blank general components carry the previous epoch's value; blank
    assignment components fall back to a deterministic round-robin over the
    previous epoch's creator set.  A structurally inconsistent vector
    (layout/agreed shard count mismatch, invalid nodes) raises
    EpochRejected; the caller then retains the previous config wholesale.
    """
    alpha = prev.alpha
    extra = len(next(iter(prev.shard_params.values())))
    beta = prev.num_slots + extra
    if (len(parameters) - alpha) % beta != 0:
        raise EpochRejected("parameter vector does not tile into per-shard blocks")
    ns_layout = (len(parameters) - alpha) // beta

    def _int_param(idx, fallback):
        raw = parameters[idx]
        if raw is None:
            return fallback
        if len(raw) != 8:
            raise EpochRejected(f"component {idx}: bad integer encoding")
        return int.from_bytes(raw, "big")

    num_shards = _int_param(0, ns_layout)
    num_slots = _int_param(1, prev.num_slots)
    raw_dur = parameters[2]
    slot_duration = prev.slot_duration if raw_dur is None else struct.unpack(">d", raw_dur)[0]

    if num_shards != ns_layout:
        raise EpochRejected(
            f"agreed shard count {num_shards} contradicts the list-L layout {ns_layout}"
        )
    if num_slots != prev.num_slots:
        raise EpochRejected("slot count is fixed per deployment")

    general = []
    for k in range(alpha):
        raw = parameters[k]
        if raw is None:
            raw = prev.general_params[k] if k < len(prev.general_params) else b""
        general.append(raw)
    general[0] = num_shards.to_bytes(8, "big")
    general[1] = num_slots.to_bytes(8, "big")
    general[2] = struct.pack(">d", slot_duration)

    prev_creators = sorted({v for v in prev.assignment.values()})
    assignment = {}
    shard_params: dict[int, list[bytes]] = {}
    fallback_i = 0
    for shard in range(1, num_shards + 1):
        base = alpha + (shard - 1) * beta
        for slot in range(1, num_slots + 1):
            raw = parameters[base + slot - 1]
            if raw is None:
                node = prev_creators[fallback_i % len(prev_creators)]
                fallback_i += 1
            else:
                if len(raw) != 8:
                    raise EpochRejected(f"assignment for slot {slot} shard {shard} malformed")
                node = int.from_bytes(raw, "big")
                if not 0 <= node < n_nodes:
                    raise EpochRejected(
                        f"assignment for slot {slot} shard {shard} references node {node}"
                    )
            assignment[(slot, shard)] = node
        sp = []
        for k in range(extra):
            raw = parameters[base + num_slots + k]
            if raw is None:
                raw = prev.shard_params.get(shard, [b""] * extra)[k] if shard in prev.shard_params \
                    else crypto.digest(b"sp-fallback", shard.to_bytes(4, "big"))[:8]
            sp.append(raw)
        shard_params[shard] = sp

    cfg = EpochConfig(prev.epoch + 1, num_shards, num_slots, slot_duration,
                      assignment, general, shard_params)
    try:
        cfg.validate(n_nodes, lam_bound)
    except ValueError as exc:
        raise EpochRejected(str(exc)) from exc
    return cfg


def carried_over(prev: EpochConfig) -> EpochConfig:
    """Previous configuration retained wholesale, epoch counter advanced."""
    return EpochConfig(
        prev.epoch + 1, prev.num_shards, prev.num_slots, prev.slot_duration,
        dict(prev.assignment), list(prev.general_params),
        {s: list(p) for s, p in prev.shard_params.items()},
    )


# ---------------------------------------------------------------------------
# Chain runner


class ChainError(RuntimeError):
    pass


@dataclass
class SlotRecord:
    epoch: int
    slot: int
    certified: CertifiedSyncBlock
    result: netsim.InstanceResult


@dataclass
class ChainResult:
    chain_id: bytes
    blocks: list[SlotRecord]
    configs: list[EpochConfig]
    trace: netsim.Trace


def _block_payload(chain_id: bytes, epoch: int, slot: int, shard: int, size: int) -> bytes:
    out = b""
    i = 0
    while len(out) < size:
        out += crypto.digest(chain_id, b"payload", epoch.to_bytes(8, "big"),
                             slot.to_bytes(8, "big"), shard.to_bytes(4, "big"),
                             i.to_bytes(4, "big"))
        i += 1
    return out[:size]


# ---------------------------------------------------------------------------
# Dump and external verification


def _hex(b: bytes | None):
    return None if b is None else b.hex()


def dump_chain(result: ChainResult, n_nodes: int) -> dict:
    """JSON-ready dump of the certified blocks, re-checkable bit-exactly."""
    blocks = []
    for rec in result.blocks:
        blk = rec.certified.block
        ed = None
        if blk.epoch_data is not None:
            ed = {
                "parameters": [_hex(v) for v in blk.epoch_data.parameters],
                "list_l": [
                    [slot, shard, node]
                    for (slot, shard), node in sorted(blk.epoch_data.list_l.items())
                ],
            }
        cert = rec.certified.certificate
        blocks.append(
            {
                "epoch": blk.epoch,
                "slot": blk.slot,
                "prev": blk.prev.hex(),
                "shard_digests": [_hex(d) for d in blk.shard_digests],
                "epoch_data": ed,
                "digest": blk.digest().hex(),
                "values": [_hex(v) for v in rec.certified.values],
                "certificate": {
                    "bits": list(cert.bits),
                    "theta_digest": cert.theta_digest.hex(),
                    "supporters": [
                        {
                            "node": s.node_id,
                            "vrf": s.pseudo_vrf_output.hex(),
                            "sig": s.signature.hex(),
                        }
                        for s in sorted(cert.supporters, key=lambda s: s.node_id)
                    ],
                },
            }
        )
    return {"chain_id": result.chain_id.hex(), "n": n_nodes, "blocks": blocks}


class VerifyFailure(ValueError):
    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"block {index}: {reason}")


def _parse_block(raw, chain_id: bytes):
    """One dumped block, typed: (block, its digest, stated digest, values,
    certificate, digest of the certified output).

    Raises KeyError, TypeError, ValueError or OverflowError when a field is
    missing, mistyped or out of range, or holds bad hex.
    """
    def unhex(v):
        return None if v is None else bytes.fromhex(v)

    ed = None
    if raw["epoch_data"] is not None:
        ed = EpochData(
            [unhex(v) for v in raw["epoch_data"]["parameters"]],
            {(operator.index(s), operator.index(sh)): operator.index(n_)
             for s, sh, n_ in raw["epoch_data"]["list_l"]},
        )
    epoch, slot = operator.index(raw["epoch"]), operator.index(raw["slot"])
    blk = SyncBlock(bytes.fromhex(raw["prev"]), epoch, slot,
                    [unhex(v) for v in raw["shard_digests"]], ed)
    values = [unhex(v) for v in raw["values"]]
    cert = raw["certificate"]
    purpose = "epoch_reconfig" if ed is not None else "slot_timing"
    inst = engine.CobInstanceId(chain_id, epoch, slot, purpose)
    bits = tuple(operator.index(b) for b in cert["bits"])
    supporters = [
        engine.FinalVote(operator.index(s["node"]), bytes.fromhex(s["vrf"]), bytes.fromhex(s["sig"]))
        for s in cert["supporters"]
    ]
    certificate = engine.Certificate(inst, bits, bytes.fromhex(cert["theta_digest"]), supporters)
    return (blk, blk.digest(), bytes.fromhex(raw["digest"]), values, certificate,
            engine.output_digest(inst.digest(), bits, values))


_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _malformed(what: str, exc: Exception) -> str:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return f"malformed {what}: {detail}"


def verify_chain_dump(dump: dict, registry) -> int:
    """Re-check every hash link and certificate; returns the block count.

    Raises VerifyFailure with the first failing block index and reason,
    also for a block with a missing field or a mistyped value.
    """
    try:
        chain_id = bytes.fromhex(dump["chain_id"])
        blocks = list(dump["blocks"])
    except _MALFORMED as exc:
        raise VerifyFailure(0, _malformed("dump", exc)) from None
    prev, last = crypto.digest(b"genesis", chain_id), None
    for idx, raw in enumerate(blocks):
        try:
            blk, digest, stated, values, cert, out_digest = _parse_block(raw, chain_id)
        except _MALFORMED as exc:
            raise VerifyFailure(idx, _malformed("block", exc)) from None
        if last is not None:
            if last.epoch_data is not None and blk.epoch != last.epoch + 1:
                raise VerifyFailure(idx - 1, "epoch data present but the epoch did not advance")
            if last.epoch_data is None and blk.epoch != last.epoch:
                raise VerifyFailure(idx - 1, "epoch advanced without epoch data")
        ed, shard_digests = blk.epoch_data, blk.shard_digests
        if blk.prev != prev:
            raise VerifyFailure(idx, "hash link broken: prev pointer mismatch")
        if digest != stated:
            raise VerifyFailure(idx, "stated digest does not match block contents")
        if values[-len(shard_digests):] != shard_digests:
            raise VerifyFailure(idx, "shard digests do not match certified values")
        if ed is not None and values[: len(ed.parameters)] != ed.parameters:
            raise VerifyFailure(idx, "epoch parameters do not match certified values")
        bits = cert.bits
        if len(bits) != len(values):
            raise VerifyFailure(idx, "certificate bit vector length mismatch")
        for j, v in enumerate(values):
            if (v is None) != (bits[j] == 1):
                raise VerifyFailure(idx, f"component {j}: blank/bit mismatch")
        if out_digest != cert.theta_digest:
            raise VerifyFailure(idx, "certified output digest mismatch")
        reasons: list[str] = []
        ok = engine.verify_certificate(
            cert, registry, registry.num_nodes, registry.num_nodes, prev, reasons,
        )
        if not ok:
            raise VerifyFailure(idx, f"certificate invalid: {reasons[0] if reasons else '?'}")
        prev, last = digest, blk
    return len(blocks)


def run_chain(
    net: netsim.Network,
    chain_id: bytes,
    epochs: int,
    config: EpochConfig,
    committee: float | None = None,
    block_size: int = 256,
    rng=None,
    setup_skew: float | None = None,
    evidence_overrides: dict[int, bytes] | None = None,
    horizon: float = np.inf,
) -> ChainResult:
    """Simulate whole epochs; raises ChainError on any uncertified slot.

    Bootstrap clock offsets are drawn up to ``setup_skew`` (``lam_base`` when
    None); ``committee`` seats the pre-final steps (all nodes when None).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    committee = net.n if committee is None else committee
    genesis = crypto.digest(b"genesis", chain_id)
    block_bound = 32 + 4 + 1 + 2 + 0 + 100 + 64 + block_size + 64
    net.lam_block = net.lam(block_bound)
    config.validate(net.n, net.lam_block)

    setup_skew = net.lam_base if setup_skew is None else setup_skew
    netsim.synchronize(net, chain_id, genesis, setup_skew, rng)
    slot_start = net.offsets.copy()

    prev_digest = genesis
    shard_prev = {}
    records: list[SlotRecord] = []
    configs = [config]

    for _epoch_i in range(epochs):
        for s in range(1, config.num_shards + 1):
            shard_prev.setdefault(s, shard_genesis_digest(chain_id, s))
        for slot in range(1, config.num_slots + 1):
            last = slot == config.num_slots
            creators = config.creators(slot)
            label = f"blocks/{config.epoch}/{slot}"

            # Block creation: assigned creators broadcast before t - 2*lambda.
            blocks = []
            for shard, creator in sorted(creators.items()):
                strat = net.strategy(creator)
                release_local = strat.block_release(net, creator, slot, shard,
                                                    config.slot_duration)
                if release_local is None:
                    continue
                blk = ShardBlock(
                    chain_id, config.epoch, slot, shard, creator,
                    shard_prev[shard],
                    _block_payload(chain_id, config.epoch, slot, shard, block_size),
                )
                encoded = blk.encode()
                sig = net.registry.sign(creator, encoded)
                dig = blk.digest()
                size = len(encoded) + len(sig)
                t_send = float(slot_start[creator] + release_local)
                row = net.deliver(creator, t_send, size, dig)
                blocks.append((blk, dig, row))
                net.trace.add(t_send, net.local(creator, t_send), creator, "send",
                              label, f"shard-{shard}", size, dig[:8].hex())

            # Observations at local time t, then the slot's consensus instance.
            obs_abs = slot_start + config.slot_duration
            ns_next = config.num_shards
            m = (
                compute_nc(config.alpha, config.beta, ns_next, config.num_shards)
                if last
                else config.num_shards
            )
            purpose = "epoch_reconfig" if last else "slot_timing"
            inst = engine.CobInstanceId(chain_id, config.epoch, slot, purpose)
            params = CobParams(inst, m, prev_digest, net.registry, committee)
            observations = []
            for v in range(net.n):
                slot_obs = slot_observation(
                    blocks, creators, shard_prev, float(obs_abs[v]), v, net.trace, label
                )
                if last:
                    override = (evidence_overrides or {}).get(v)
                    obs = epoch_observation(config, prev_digest, net.n, ns_next, override)
                    obs.extend(slot_obs)
                else:
                    obs = slot_obs
                observations.append(obs)

            runner = netsim.InstanceRunner(net, params, observations, obs_abs)
            result = runner.run(horizon)
            if not result.certified or not result.outputs:
                raise ChainError(
                    f"slot {slot} of epoch {config.epoch} failed to certify"
                )

            # All honest nodes assemble the same block; any honest output works.
            honest = [v for v in result.outputs if v not in net.byz]
            out = result.outputs[honest[0]]
            idents = {result.outputs[v].encode_identity() for v in honest}
            if len(idents) != 1:
                raise ChainError(f"fork detected in slot {slot} of epoch {config.epoch}")

            shard_digests = out.values[-config.num_shards:]
            epoch_data = None
            next_config = None
            if last:
                raw_params = out.values[: config.alpha + config.beta * ns_next]
                try:
                    next_config = apply_epoch_output(raw_params, config, net.n, net.lam_block)
                except EpochRejected as exc:
                    net.trace.add(0.0, 0.0, -1, "epoch-rejected", label, "-", 0, "", str(exc))
                    next_config = carried_over(config)
                epoch_data = EpochData(raw_params, dict(next_config.assignment))

            sync = SyncBlock(prev_digest, config.epoch, slot, list(shard_digests), epoch_data)
            records.append(
                SlotRecord(config.epoch, slot,
                           CertifiedSyncBlock(sync, result.certificate, out.values), result)
            )

            # Advance shard chains, clocks, and entropy.
            for i, shard in enumerate(sorted(creators)):
                if shard_digests[i] is not None:
                    shard_prev[shard] = shard_digests[i]
            prev_digest = sync.digest()
            slot_start = result.assembly_times.copy()
            net.offsets = slot_start.copy()
            if last:
                config = next_config
                configs.append(config)
                shard_prev = {
                    s: shard_prev.get(s, shard_genesis_digest(chain_id, s))
                    for s in range(1, config.num_shards + 1)
                }

    return ChainResult(chain_id, records, configs, net.trace)
