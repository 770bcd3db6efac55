"""Byte accounting and the closed-form cost comparison.

One consensus instance over m components is compared against m single-
value instances of an Algorand-style protocol.  Both sides draw every size
constant from the same CostModel, so the comparison is like-for-like; the
multi-valued side amortizes headers, selection proofs and signatures over
all components, which is the entire effect being measured.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass


@dataclass
class CostModel:
    sig_bytes: int = 64
    proof_bytes: int = 80
    digest_bytes: int = 32
    header_bytes: int = 32
    component_value_bytes: int = 34  # one encoded digest-sized value
    mbba_component_bytes: int = 2  # vote bit + final flag, byte each
    committee_mgc: int = 40
    committee_mbba: int = 40
    final_participants: int = 100
    expected_mbba_iterations: float = 2.0
    baseline_committee: int = 40
    baseline_steps_per_instance: int = 11

    def validate(self):
        for name, value in asdict(self).items():
            if value <= 0:
                raise ValueError(f"cost model field {name} must be positive, got {value}")

    @property
    def envelope(self) -> int:
        return self.header_bytes + self.proof_bytes + self.sig_bytes

    @classmethod
    def measured(cls, n: int, committee: float, value_bytes: int = 34,
                 expected_mbba_iterations: float = 2.0) -> "CostModel":
        """Constants matching this package's wire encodings.

        header: instance digest 32 + sender 4 + step/iteration tag 5 + m 2;
        proof: node 4 + output 32 + signature 64.
        """
        return cls(
            sig_bytes=64,
            proof_bytes=100,
            digest_bytes=32,
            header_bytes=41,
            component_value_bytes=value_bytes,
            mbba_component_bytes=2,
            committee_mgc=int(committee),
            committee_mbba=int(committee),
            final_participants=n,
            expected_mbba_iterations=expected_mbba_iterations,
            baseline_committee=int(committee),
            baseline_steps_per_instance=11,
        )


def cob_breakdown(m: int, model: CostModel) -> dict[str, float]:
    """Expected bytes broadcast by one m-component instance, per phase."""
    if m < 1:
        raise ValueError("m must be >= 1")
    mgc_msg = model.envelope + m * model.component_value_bytes
    mbba_msg = model.envelope + m * model.mbba_component_bytes
    final_msg = model.envelope + m + model.digest_bytes
    return {
        "mgc_bytes": 3 * model.committee_mgc * mgc_msg,
        "mbba_bytes": model.expected_mbba_iterations * 3 * model.committee_mbba * mbba_msg,
        "final_bytes": model.final_participants * final_msg,  # certificate diffusion
    }


def cob_cost(m: int, model: CostModel) -> float:
    """Expected bytes broadcast by one m-component instance."""
    parts = cob_breakdown(m, model)
    return float(parts["mgc_bytes"] + parts["mbba_bytes"] + parts["final_bytes"])


def algorand_baseline(m: int, model: CostModel) -> float:
    """Bytes for m single-component instances; exactly linear in m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    per_instance = (
        model.baseline_steps_per_instance
        * model.baseline_committee
        * (model.envelope + model.component_value_bytes)
    )
    return float(m * per_instance)


def crossover(model: CostModel, max_m: int = 200) -> int | None:
    """Smallest m <= max_m where the multi-valued instance undercuts the
    baseline, or None."""
    for m in range(1, max_m + 1):
        if cob_cost(m, model) < algorand_baseline(m, model):
            return m
    return None


def account_trace(trace, instance_label: str):
    """Total bytes and per-step subtotals over the send events of an instance.

    trace: a netsim.Trace or an iterable of its records.
    """
    records = trace.records if hasattr(trace, "records") else list(trace)
    total = 0
    per_step: dict[str, int] = {}
    seen = False
    for rec in records:
        if rec[3] != "send" or rec[4] != instance_label:
            continue
        seen = True
        total += rec[6]
        per_step[rec[5]] = per_step.get(rec[5], 0) + rec[6]
    if not seen:
        raise KeyError(f"no send events for instance {instance_label!r} in trace")
    return total, per_step


def components_for(num_shards: int, slot_kind: str, alpha: int = 20, beta: int = 11) -> int:
    """Component count per slot kind; last slots add the epoch parameters."""
    if slot_kind == "regular":
        return num_shards
    if slot_kind == "last":
        from .chain import compute_nc

        return compute_nc(alpha, beta, num_shards, num_shards)
    raise ValueError(f"bad slot kind {slot_kind!r}")


def sweep(shard_range, model: CostModel, alpha: int = 20, beta: int = 11):
    """Cost rows for every shard count, regular and last slots."""
    shard_range = list(shard_range)
    if not shard_range:
        raise ValueError("shard range is empty")
    rows = []
    for ns in shard_range:
        for kind in ("regular", "last"):
            m = components_for(ns, kind, alpha, beta)
            rows.append(
                {
                    "num_shards": ns,
                    "slot_kind": kind,
                    "cob_mb": cob_cost(m, model) / 1e6,
                    "baseline_mb": algorand_baseline(m, model) / 1e6,
                }
            )
    return rows


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["num_shards", "slot_kind", "cob_mb", "baseline_mb"])
        w.writeheader()
        for row in rows:
            w.writerow(row)


def write_json(rows, model: CostModel, path, alpha: int = 20, beta: int = 11):
    """JSON variant carrying the per-step byte breakdown per row."""
    detailed = []
    for row in rows:
        m = components_for(row["num_shards"], row["slot_kind"], alpha, beta)
        detailed.append({**row, "components": m, "breakdown": cob_breakdown(m, model)})
    with open(path, "w") as fh:
        json.dump({"model": asdict(model), "rows": detailed}, fh, indent=2, sort_keys=True)
