"""The synchronization chain: time-slots, block timing, epoch turnover.

Each slot, the node assigned by the list L broadcasts one block per shard;
when a node's private clock reads the slot duration it freezes what it saw
(a digest per shard, or blank) and the network runs one consensus instance
over those observations.  The certified outcome becomes the next
synchronization block: it hash-links the timely shard blocks, carries the
next epoch's parameters in the last slot of an epoch, and its certificate
is the rollover signal: the instance runner re-zeros every node's clock at
its certificate assembly time.  A block is due 2*lambda(block)
(``block_lambda``) before its slot ends, and the last slot agrees on
Nc = alpha + beta*Ns' + Ns components: the next epoch's parameters
(``EpochConfig.vector``), then the shard digests.  The parameters lead
with the ``TYPED_PARAMS`` components that ``EpochConfig`` holds as typed
fields (shard count, slot count, slot duration), then the opaque general
parameters, then shard by shard its creator per slot (list L) and its
extra parameters.  ``apply_epoch_output`` reads every typed 8-byte
component through one decoder.

Blank components never stall the chain: the merge policy substitutes the
previous epoch's value (round-robin creators for blank assignment slots)
and structurally inconsistent epoch data is rejected wholesale in favor of
the previous configuration.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import crypto, engine, mbba, netsim
from . import values as values_mod
from .engine import CobParams


def compute_nc(alpha: int, beta: int, ns_new: int, ns_cur: int) -> int:
    """Component count of a last-slot instance: alpha + beta*Ns' + Ns."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if ns_new < 0 or ns_cur < 0:
        raise ValueError("shard counts must be non-negative")
    return alpha + beta * ns_new + ns_cur


def block_lambda(lam_base: float, lam_per_byte: float, block_size: int) -> float:
    """lambda(block) of a signed shard block with a ``block_size``-byte payload."""
    return netsim.diffusion_bound(lam_base, lam_per_byte,
                                  32 + 4 + 1 + 2 + 100 + 64 + block_size + 64)


# ---------------------------------------------------------------------------
# Epoch configuration


TYPED_PARAMS = 3  # the general components that EpochConfig holds as typed fields


@dataclass
class EpochConfig:
    epoch: int
    num_shards: int
    num_slots: int
    slot_duration: float
    assignment: dict[tuple[int, int], int]  # (slot 1.., shard 1..) -> node
    general_params: list[bytes]  # the alpha - TYPED_PARAMS opaque general parameters
    shard_params: dict[int, list[bytes]]

    @property
    def alpha(self) -> int:
        return TYPED_PARAMS + len(self.general_params)

    @property
    def extra(self) -> int:
        """Extra parameters per shard, beyond its creators."""
        return len(next(iter(self.shard_params.values())))

    @property
    def beta(self) -> int:
        return self.num_slots + self.extra

    def validate(self, n_nodes: int, lam_bound: float):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not (math.isfinite(self.slot_duration) and self.slot_duration > 4 * lam_bound):
            raise ValueError(f"slot duration {self.slot_duration} must be finite and "
                             f"exceed 4*lambda = {4 * lam_bound}")
        for slot in range(1, self.num_slots + 1):
            for shard in range(1, self.num_shards + 1):
                node = self.assignment.get((slot, shard))
                if node is None or not 0 <= node < n_nodes:
                    raise ValueError(f"assignment missing or invalid for slot {slot} shard {shard}")

    def creators(self, slot: int) -> dict[int, int]:
        return {s: self.assignment[(slot, s)] for s in range(1, self.num_shards + 1)}

    def vector(self) -> list[bytes]:
        """The epoch parameters as alpha + beta*Ns components of 8 bytes: shard
        count, slot count (``>Q``) and slot duration (``>d``), the opaque
        general parameters, then per shard its creator (``>Q``) for each slot
        and its extra parameters.  ``apply_epoch_output`` decodes this layout."""
        out = [struct.pack(">Q", self.num_shards), struct.pack(">Q", self.num_slots),
               struct.pack(">d", self.slot_duration), *self.general_params]
        for shard in range(1, self.num_shards + 1):
            for slot in range(1, self.num_slots + 1):
                out.append(struct.pack(">Q", self.assignment[(slot, shard)]))
            out.extend(self.shard_params[shard])
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
    general_params = [crypto.digest(entropy, b"gp", k.to_bytes(4, "big"))[:8]
                      for k in range(TYPED_PARAMS, alpha)]
    shard_params = {
        s: [crypto.digest(entropy, b"sp", s.to_bytes(4, "big"), k.to_bytes(4, "big"))[:8]
            for k in range(extra_shard_params)]
        for s in range(1, num_shards + 1)
    }
    return EpochConfig(0, num_shards, num_slots, slot_duration, assignment, general_params,
                       shard_params)


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


def epoch_observation(config: EpochConfig, entropy: bytes, n_nodes: int) -> list[bytes]:
    """Proposed next-epoch parameters, one value per component: the config
    ``genesis_config`` derives from shared state (the previous certified
    block digest) in the current shape, so honest proposals are identical."""
    return genesis_config(entropy, n_nodes, config.num_shards, config.num_slots,
                          config.slot_duration, config.alpha, config.extra).vector()


class EpochRejected(ValueError):
    pass


def apply_epoch_output(parameters: list[bytes | None], prev: EpochConfig,
                       n_nodes: int, lam_bound: float) -> EpochConfig:
    """Merge agreed epoch parameters over the previous configuration.

    Every typed component (shard count, slot count, slot duration and each
    creator of list L) is read by one decoder: a blank gives the previous
    epoch's value, or for a creator a deterministic round-robin over the
    previous epoch's creator set, and a length other than 8 bytes is
    rejected.  Blank opaque components carry the previous value.  A
    structurally inconsistent vector (malformed component, layout/agreed
    shard count mismatch, invalid node or duration) raises EpochRejected;
    the caller then retains the previous config wholesale.
    """
    alpha, beta, extra = prev.alpha, prev.beta, prev.extra
    if (len(parameters) - alpha) % beta != 0:
        raise EpochRejected("parameter vector does not tile into per-shard blocks")
    ns_layout = (len(parameters) - alpha) // beta

    def decode(idx, fmt, fallback):
        raw = parameters[idx]
        if raw is None:
            return fallback
        if len(raw) != 8:
            raise EpochRejected(f"component {idx}: {len(raw)} bytes, need 8")
        return struct.unpack(fmt, raw)[0]

    num_shards = decode(0, ">Q", ns_layout)
    num_slots = decode(1, ">Q", prev.num_slots)
    slot_duration = decode(2, ">d", prev.slot_duration)
    if num_shards != ns_layout:
        raise EpochRejected(
            f"agreed shard count {num_shards} contradicts the list-L layout {ns_layout}"
        )
    if num_slots != prev.num_slots:
        raise EpochRejected("slot count is fixed per deployment")
    general = [prev.general_params[k] if raw is None else raw
               for k, raw in enumerate(parameters[TYPED_PARAMS:alpha])]

    prev_creators = sorted({v for v in prev.assignment.values()})
    assignment = {}
    shard_params: dict[int, list[bytes]] = {}
    fallback_i = 0
    for shard in range(1, num_shards + 1):
        base = alpha + (shard - 1) * beta
        for slot in range(1, num_slots + 1):
            node = decode(base + slot - 1, ">Q", None)
            if node is None:
                node = prev_creators[fallback_i % len(prev_creators)]
                fallback_i += 1
            elif not 0 <= node < n_nodes:
                raise EpochRejected(
                    f"assignment for slot {slot} shard {shard} references node {node}"
                )
            assignment[(slot, shard)] = node
        fallback = prev.shard_params.get(shard) or \
            [crypto.digest(b"sp-fallback", shard.to_bytes(4, "big"))[:8]] * extra
        shard_params[shard] = [fallback[k] if raw is None else raw
                               for k, raw in enumerate(parameters[base + num_slots:base + beta])]

    cfg = EpochConfig(prev.epoch + 1, num_shards, num_slots, slot_duration,
                      assignment, general, shard_params)
    try:
        cfg.validate(n_nodes, lam_bound)
    except ValueError as exc:
        raise EpochRejected(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# Chain runner


class ChainError(RuntimeError):
    pass


@dataclass
class SlotRecord:
    """A certified slot: its block, the values and the instance that certified it."""

    block: SyncBlock
    values: list[bytes | None]
    result: netsim.InstanceResult

    @property
    def epoch(self) -> int:
        return self.block.epoch

    @property
    def slot(self) -> int:
        return self.block.slot


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
        blk = rec.block
        ed = None
        if blk.epoch_data is not None:
            ed = {
                "parameters": [_hex(v) for v in blk.epoch_data.parameters],
                "list_l": [
                    [slot, shard, node]
                    for (slot, shard), node in sorted(blk.epoch_data.list_l.items())
                ],
            }
        cert = rec.result.certificate
        blocks.append(
            {
                "epoch": blk.epoch,
                "slot": blk.slot,
                "prev": blk.prev.hex(),
                "shard_digests": [_hex(d) for d in blk.shard_digests],
                "epoch_data": ed,
                "digest": blk.digest().hex(),
                "values": [_hex(v) for v in rec.values],
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
    """Simulate whole epochs; raises ChainError on a failed bootstrap and on
    any slot that does not give an honest node a certified output.

    Bootstrap clock offsets are drawn up to ``setup_skew`` (``lam_base`` when
    None); ``committee`` seats the pre-final steps (all nodes when None).
    ``evidence_overrides`` replaces, per node, the shard-count component of
    its last-slot proposal, to model nodes whose local evidence disagrees.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    committee = net.n if committee is None else committee
    genesis = crypto.digest(b"genesis", chain_id)
    lam_block = block_lambda(net.lam_base, net.lam_per_byte, block_size)
    config.validate(net.n, lam_block)

    setup_skew = net.lam_base if setup_skew is None else setup_skew
    try:
        netsim.synchronize(net, chain_id, genesis, setup_skew, rng)
    except mbba.LivenessError as exc:
        raise ChainError(f"bootstrap: {exc}") from None

    prev_digest = genesis
    shard_prev = {s: shard_genesis_digest(chain_id, s) for s in range(1, config.num_shards + 1)}
    records: list[SlotRecord] = []
    configs = [config]

    for _epoch_i in range(epochs):
        for slot in range(1, config.num_slots + 1):
            last = slot == config.num_slots
            creators = config.creators(slot)
            label = f"blocks/{config.epoch}/{slot}"
            where = f"slot {slot} of epoch {config.epoch}"

            # Block creation: assigned creators broadcast before t - 2*lambda.
            blocks = []
            for shard, creator in sorted(creators.items()):
                release = net.strategy(creator).block_release(config.slot_duration, lam_block)
                if release is None:
                    continue
                blk = ShardBlock(
                    chain_id, config.epoch, slot, shard, creator,
                    shard_prev[shard],
                    _block_payload(chain_id, config.epoch, slot, shard, block_size),
                )
                encoded = blk.encode()
                size = len(encoded) + len(net.registry.sign(creator, encoded))
                dig = blk.digest()
                t_send = float(net.offsets[creator] + release)
                blocks.append((blk, dig, net.send(creator, t_send, size, dig)))
                net.trace.add(t_send, net.local(creator, t_send), creator, "send",
                              label, f"shard-{shard}", size, dig[:8].hex())
            net.deliver()
            blocks = [(blk, dig, sent.row) for blk, dig, sent in blocks]

            # Observations at local time t, then the slot's consensus
            # instance, which starts there too.  The last slot also agrees
            # on the next epoch's parameters, which come first.
            obs_abs = net.offsets + config.slot_duration
            proposal = epoch_observation(config, prev_digest, net.n) if last else []
            purpose = "epoch_reconfig" if last else "slot_timing"
            inst = engine.CobInstanceId(chain_id, config.epoch, slot, purpose)
            params = CobParams(inst, len(proposal) + config.num_shards, prev_digest,
                               net.registry, committee)
            observations = []
            for v in range(net.n):
                slot_obs = slot_observation(
                    blocks, creators, shard_prev, float(obs_abs[v]), v, net.trace, label
                )
                override = (evidence_overrides or {}).get(v) if last else None
                head = proposal if override is None else [override, *proposal[1:]]
                observations.append(head + slot_obs)

            result = netsim.InstanceRunner(net, params, observations,
                                           config.slot_duration).run(horizon)
            if not result.certified:
                cut = "" if result.cut_at is None else f": the horizon cut it at t={result.cut_at:g}"
                raise ChainError(f"{where} failed to certify{cut}")

            # All honest nodes assemble the same block; any honest output works.
            honest = [v for v in result.outputs if v not in net.byz]
            if not honest:
                raise ChainError(f"{where} certified, but no honest node holds its output")
            out = result.outputs[honest[0]]
            # Honest outputs share their instance's memoised values list, so
            # each distinct (values list, bits, instance) is encoded once.
            distinct = {(id(o.values), o.bits, o.instance): o
                        for o in (result.outputs[v] for v in honest)}
            idents = {o.encode_identity() for o in distinct.values()}
            if len(idents) != 1:
                raise ChainError(f"fork detected in {where}")

            shard_digests = out.values[-config.num_shards:]
            epoch_data = None
            next_config = None
            if last:
                raw_params = out.values[: len(proposal)]
                try:
                    next_config = apply_epoch_output(raw_params, config, net.n, lam_block)
                except EpochRejected as exc:
                    # The previous configuration is retained wholesale.
                    net.trace.add(0.0, 0.0, -1, "epoch-rejected", label, "-", 0, "", str(exc))
                    next_config = replace(config, epoch=config.epoch + 1)
                epoch_data = EpochData(raw_params, dict(next_config.assignment))

            sync = SyncBlock(prev_digest, config.epoch, slot, list(shard_digests), epoch_data)
            records.append(SlotRecord(sync, out.values, result))

            # Advance shard chains and entropy; the runner rolled the clocks over.
            for i, shard in enumerate(sorted(creators)):
                if shard_digests[i] is not None:
                    shard_prev[shard] = shard_digests[i]
            prev_digest = sync.digest()
            if last:
                config = next_config
                configs.append(config)
                shard_prev = {
                    s: shard_prev.get(s, shard_genesis_digest(chain_id, s))
                    for s in range(1, config.num_shards + 1)
                }

    return ChainResult(chain_id, records, configs, net.trace)
