"""Scenario configuration: the experiment vocabulary of the simulator.

A scenario is a JSON document, strictly validated: every field is checked
against its annotation, then against its range, and a failure names the
field.  Every piece of randomness in a run flows from the single seed
through named sub-streams (topology, byzantine set, adversary,
observations), so any component can be varied in isolation without
disturbing the others.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from . import chain as chain_mod
from . import crypto, engine, netsim
from .crypto import KeyRegistry
from .values import MAX_VALUE_BYTES


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"config field {field_name!r}: {message}")


ADVERSARIES = (*netsim.STRATEGIES, "mixed")
TOPOLOGIES = ("complete", "ring", "watts_strogatz", "geometric")
TOPOLOGY_PARAMS = {"complete": (), "ring": (), "watts_strogatz": ("k", "p"),
                   "geometric": ("radius",)}
MODES = ("simulate", "chain")
# Observation plan entry kinds, each with the keys it reads besides "kind".
PLAN_KINDS = {"unanimous": ("value",), "bot": (), "split": ("values",), "random": ("alphabet",)}
WIRE_COUNT_MAX = 0xFFFF  # a component count travels in 2 bytes (engine's message encoders)
BLOCK_SIZE_MAX = 0xFFFFFFFF  # a shard block's payload length travels in 4 bytes
JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
              dict: "an object", list: "an array", type(None): "null"}


@dataclass
class ScenarioConfig:
    mode: str = "simulate"
    n: int = 100
    byzantine_fraction: float = 0.0
    adversary: str = "honest"
    topology: str = "watts_strogatz"
    topology_params: dict = field(default_factory=dict)
    lam_base: float = 1.0
    lam_per_byte: float = 1e-4
    d_min: float = 0.02
    d_max: float = 0.1
    committee: float = 40.0
    initial_skew: float = 0.5
    m: int = 8
    observation_plan: list | str = "unanimous"
    instances: int = 1
    seed: int = 0
    horizon: float = float("inf")
    unsafe_byzantine: bool = False
    ablate_node: int | None = None
    # chain mode
    epochs: int = 1
    num_shards: int = 4
    num_slots: int = 10
    chain_committee: float | None = None  # None = full population
    slot_duration: float = 40.0
    alpha: int = 20
    extra_shard_params: int = 1
    block_size: int = 256
    chain_id: str = "cobsim"

    def validate(self):
        def req(cond, fname, msg):
            if not cond:
                raise ConfigError(fname, msg)

        self._validate_types()
        req(self.mode in MODES, "mode", f"must be one of {MODES}")
        req(self.n >= 1, "n", "need at least one node")
        req(0 <= self.seed < 2**64, "seed", "must be in [0, 2**64)")
        req(0.0 <= self.byzantine_fraction <= 1.0, "byzantine_fraction", "must be in [0, 1]")
        if self.byzantine_fraction >= 1 / 3 and not self.unsafe_byzantine:
            raise ConfigError(
                "byzantine_fraction",
                "fractions >= 1/3 violate the fault assumption; pass unsafe_byzantine "
                "to run a violation experiment",
            )
        req(self.adversary in ADVERSARIES, "adversary", f"must be one of {ADVERSARIES}")
        req(self.topology in TOPOLOGIES, "topology", f"must be one of {TOPOLOGIES}")
        self._validate_topology_params()
        for name in ("lam_base", "lam_per_byte", "d_min", "d_max", "initial_skew",
                     "slot_duration"):
            req(math.isfinite(getattr(self, name)), name, "must be finite")
        req(self.lam_base > 0, "lam_base", "must be positive")
        req(self.lam_per_byte >= 0, "lam_per_byte", "must be non-negative")
        req(0 <= self.d_min <= self.d_max, "d_min", "need 0 <= d_min <= d_max")
        req(self.d_max > 0, "d_max", "must be positive")
        if self.mode == "simulate":
            req(self.adversary != "late_block", "adversary",
                "late_block retimes shard blocks, which only chain mode has")
            req(0 < self.committee <= self.n, "committee", "must be in (0, n]")
            req(self.m >= 1, "m", "need at least one component")
            req(self.m <= WIRE_COUNT_MAX, "m", f"at most {WIRE_COUNT_MAX}, the 2-byte wire field")
            req(self.instances >= 1, "instances", "need at least one instance")
            self._validate_observation_plan()
        req(self.initial_skew >= 0, "initial_skew", "must be non-negative")
        req(self.horizon >= 0, "horizon", "must be non-negative")
        if self.ablate_node is not None:
            req(0 <= self.ablate_node < self.n, "ablate_node", "must be a node id")
        if self.mode == "chain":
            if self.chain_committee is not None:
                req(0 < self.chain_committee <= self.n, "chain_committee", "must be in (0, n]")
            req(self.epochs >= 1, "epochs", "need at least one epoch")
            req(self.num_shards >= 1, "num_shards", "need at least one shard")
            req(self.num_slots >= 1, "num_slots", "need at least one slot")
            req(self.alpha >= chain_mod.TYPED_PARAMS, "alpha",
                f"layout reserves {chain_mod.TYPED_PARAMS} typed general components")
            req(self.extra_shard_params >= 0, "extra_shard_params", "must be non-negative")
            for name in ("alpha", "num_shards", "num_slots", "extra_shard_params"):
                req(getattr(self, name) <= WIRE_COUNT_MAX, name,
                    f"at most {WIRE_COUNT_MAX}, the 2-byte wire field of a component count")
            nc = chain_mod.compute_nc(self.alpha, self.num_slots + self.extra_shard_params,
                                      self.num_shards, self.num_shards)
            req(nc <= WIRE_COUNT_MAX, "num_shards", f"the last slot's instance would have "
                f"alpha + (num_slots + extra_shard_params) * num_shards + num_shards = {nc} "
                f"components, more than the 2-byte wire field's {WIRE_COUNT_MAX}")
            req(self.block_size >= 1, "block_size", "must be positive")
            req(self.block_size <= BLOCK_SIZE_MAX, "block_size",
                f"at most {BLOCK_SIZE_MAX}, the 4-byte length field of a shard block")
        self._validate_deadlines()
        if self.mode == "chain":
            lam_block = chain_mod.block_lambda(self.lam_base, self.lam_per_byte, self.block_size)
            req(self.slot_duration > 4 * lam_block, "slot_duration", f"must exceed "
                f"4*lambda(block) = {4 * lam_block:.6g} at block_size {self.block_size}")
        return self

    def _validate_deadlines(self):
        """Reject a schedule whose step deadlines are infinite or too far out
        to keep apart.  The latest deadline of an instance is its start plus
        its last step's deadline index times the step length
        2*lambda(size bound), largest at m components in simulate mode and
        Nc in chain mode.  An infinite one names ``lam_base``, or
        ``lam_per_byte`` when ``lam_base`` alone is safe.

        Then the latest absolute deadline of the run: the skew, the
        bootstrap and every instance up to its last step (chain mode: every
        slot, each a slot duration plus its steps).  Floats that far out
        must still be spaced finer than ``d_max``, or deadlines a step apart
        round together; the error names the field behind the largest term."""
        if self.mode == "simulate":
            m, start, runs = self.m, self.initial_skew, self.instances
        else:
            beta = self.num_slots + self.extra_shard_params
            m = chain_mod.compute_nc(self.alpha, beta, self.num_shards, self.num_shards)
            start = self.initial_skew + self.slot_duration
            runs = self.epochs * self.num_slots
        size = netsim.mgc_message_size_bound(m)
        last = engine.END - 1
        for name, per_byte in (("lam_base", 0.0), ("lam_per_byte", self.lam_per_byte)):
            step = 2.0 * netsim.diffusion_bound(self.lam_base, per_byte, size)
            if not math.isfinite(start + last * step):
                raise ConfigError(name, f"too large: the last step deadline of a {m}-component "
                                  f"instance, {start:g} + {last} * 2*lambda({size} bytes), "
                                  f"is not finite")
        # Step lengths are 2*lambda: a lam_base part and a lam_per_byte part.
        setup_size = netsim.mgc_message_size_bound(1)
        terms = {"initial_skew": self.initial_skew,
                 "lam_base": last * 2.0 * self.lam_base * (1 + runs),
                 "lam_per_byte": last * 2.0 * self.lam_per_byte * (setup_size + runs * size),
                 "slot_duration": runs * self.slot_duration if self.mode == "chain" else 0.0}
        latest = sum(terms.values())
        if not math.ulp(latest) < self.d_max:
            name = max(terms, key=terms.get)
            raise ConfigError(name, f"too large: the latest step deadline, about {latest:.6g} s, "
                              f"lies where floats are {math.ulp(latest):g} s apart, not less "
                              f"than d_max = {self.d_max:g}, so step deadlines round together")

    def _validate_types(self):
        """Reject a field whose value does not match its annotation.  An int
        field takes no bool or float; a float field takes an int."""
        for name, hint in FIELD_TYPES.items():
            kinds = typing.get_args(hint) or (hint,)
            value = getattr(self, name)
            if not any(_is_a(value, kind) for kind in kinds):
                expected = " or ".join(JSON_TYPES[kind] for kind in kinds)
                raise ConfigError(name, f"must be {expected}, got {value!r:.40}")

    def _validate_topology_params(self):
        """Reject what ``netsim.build_topology`` cannot build, naming the field."""
        params = self.topology_params
        if self.topology == "watts_strogatz" and self.n == 2:
            # Each node needs two ring neighbours, and a second node is only one.
            raise ConfigError("topology", "watts_strogatz cannot connect 2 nodes; "
                              "use complete or ring")
        allowed = TOPOLOGY_PARAMS[self.topology]
        for key, value in params.items():
            fname = f"topology_params.{key}"
            if key not in allowed:
                raise ConfigError(fname, f"unknown for {self.topology}, which takes "
                                  f"{', '.join(allowed) or 'no parameters'}")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if key == "k" and not (number and isinstance(value, int) and value >= 2):
                raise ConfigError(fname, "must be an integer >= 2 (ring neighbours per node)")
            if key == "p" and not (number and 0.0 <= value <= 1.0):
                raise ConfigError(fname, "must be a probability in [0, 1]")
            if key == "radius" and not (number and value >= 0.0):
                raise ConfigError(fname, "must be a non-negative number (0 picks the default)")

    def _validate_observation_plan(self):
        """Reject a plan that ``observation_matrix`` cannot expand, naming the
        component."""
        plan = self.observation_plan

        def fail(msg):
            raise ConfigError("observation_plan", msg)

        def check_value(value, i):
            try:
                size = len(bytes.fromhex(value))
            except (TypeError, ValueError):
                fail(f"component {i}: value {value!r:.40} is not a hex string")
            if size > MAX_VALUE_BYTES:
                fail(f"component {i}: value has {size} bytes, at most {MAX_VALUE_BYTES}")

        if isinstance(plan, str):
            if plan != "mixed" and plan not in PLAN_KINDS:
                fail(f"must be mixed, one of {tuple(PLAN_KINDS)} or a list, got {plan!r:.40}")
            return
        if len(plan) != self.m:
            fail(f"expected {self.m} entries, one per component, got {len(plan)}")
        for i, entry in enumerate(plan):
            if not isinstance(entry, dict):
                fail(f"component {i}: entry must be an object, got {entry!r:.40}")
            kind = entry.get("kind", "unanimous")
            if not (isinstance(kind, str) and kind in PLAN_KINDS):
                fail(f"component {i}: unknown kind {kind!r:.40}, not in {tuple(PLAN_KINDS)}")
            for key in sorted(entry.keys() - {"kind", *PLAN_KINDS[kind]}):
                fail(f"component {i}: key {key!r:.40} is unknown for kind {kind}")
            if "value" in entry:
                check_value(entry["value"], i)
            values = entry.get("values", [])
            if not isinstance(values, list):
                fail(f"component {i}: values must be an array of hex strings or null")
            for value in values:
                if value is not None:
                    check_value(value, i)
            alphabet = entry.get("alphabet", 3)
            if not (_is_a(alphabet, int) and 1 <= alphabet < 2**32):
                fail(f"component {i}: alphabet must be an integer in [1, 2**32), "
                     f"got {alphabet!r:.40}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        for key in data:
            if key not in known:
                raise ConfigError(key, "unknown field")
        cfg = cls(**data)
        return cfg.validate()

    @classmethod
    def load(cls, path, **overrides) -> "ScenarioConfig":
        """A config file, with ``overrides`` replacing its fields before validation."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"not valid JSON: line {exc.lineno} col {exc.colno}")
        if not isinstance(data, dict):
            raise ConfigError("<file>", "top level must be an object")
        return cls.from_dict({**data, **overrides})


FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _is_a(value, kind) -> bool:
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _substream(seed: int, label: bytes) -> np.random.Generator:
    return np.random.default_rng(crypto.u64_from(crypto.digest(label, seed.to_bytes(8, "big", signed=False))))


def byzantine_set(config: ScenarioConfig, seed: int) -> set[int]:
    count = int(config.n * config.byzantine_fraction)
    if count == 0:
        return set()
    rng = _substream(seed, b"byzset")
    return set(rng.choice(config.n, size=count, replace=False).tolist())


def build_strategies(config: ScenarioConfig, byz: set[int]) -> dict[int, netsim.Strategy]:
    if not byz:
        return {}
    if config.adversary == "mixed":
        names = ["crash", "equivocate", "withhold_then_release", "bit_flip_votes"]
        return {
            v: netsim.STRATEGIES[names[i % len(names)]]()
            for i, v in enumerate(sorted(byz))
        }
    return {v: netsim.STRATEGIES[config.adversary]() for v in byz}


def topology_seed(seed: int) -> int:
    """The seed ``build_network`` hands to ``netsim.build_topology``."""
    return int(_substream(seed, b"topology").integers(0, 2**31 - 1))


def registry_master(seed: int) -> bytes:
    """The master secret of a run's key registry, as ``cobsim chain
    --registry-out`` writes it for ``cobsim verify``."""
    return crypto.digest(b"registry", seed.to_bytes(8, "big"))


def build_network(config: ScenarioConfig, seed: int) -> netsim.Network:
    byz = byzantine_set(config, seed)
    registry = KeyRegistry(config.n, registry_master(seed))
    adj = netsim.build_topology(config.n, byz, config.topology, config.topology_params,
                                topology_seed(seed))
    return netsim.Network(
        config.n, byz, adj, registry, seed,
        config.lam_base, config.lam_per_byte, config.d_min, config.d_max,
        build_strategies(config, byz), netsim.Trace(),
    )


# ---------------------------------------------------------------------------
# Observations


def _expand_plan(plan, m: int) -> list[dict]:
    if isinstance(plan, str):
        if plan == "mixed":
            third = max(1, m // 3)
            return [
                {"kind": "unanimous"} if i < third
                else ({"kind": "split"} if i < 2 * third else {"kind": "random"})
                for i in range(m)
            ]
        return [{"kind": plan}] * m
    return plan


def observation_matrix(config: ScenarioConfig, seed: int) -> list[list[bytes | None]]:
    """Per-node observation vectors from the scenario's observation plan,
    which ``ScenarioConfig.validate`` checked."""
    rng = _substream(seed, b"observations")
    plan = _expand_plan(config.observation_plan, config.m)
    columns = []
    for i, entry in enumerate(plan):
        kind = entry.get("kind", "unanimous")
        if kind == "unanimous":
            value = bytes.fromhex(entry["value"]) if "value" in entry else \
                crypto.digest(b"obs", i.to_bytes(4, "big"), seed.to_bytes(8, "big"))[:8]
            col = [value] * config.n
        elif kind == "bot":
            col = [None] * config.n
        elif kind == "split":
            raw = entry.get("values")
            vals = [bytes.fromhex(v) if v is not None else None for v in raw] if raw else [
                crypto.digest(b"obsA", i.to_bytes(4, "big"))[:8],
                crypto.digest(b"obsB", i.to_bytes(4, "big"))[:8],
            ]
            col = [vals[rng.integers(0, len(vals))] for _ in range(config.n)]
        else:  # random
            width = entry.get("alphabet", 3)
            vals = [crypto.digest(b"obsR", i.to_bytes(4, "big"), k.to_bytes(4, "big"))[:8]
                    for k in range(width)]
            col = [vals[rng.integers(0, width)] for _ in range(config.n)]
        columns.append(col)
    return [[columns[i][v] for i in range(config.m)] for v in range(config.n)]


# ---------------------------------------------------------------------------
# Runs


@dataclass
class SimulateResult:
    config: ScenarioConfig
    seed: int
    net: netsim.Network
    results: list[netsim.InstanceResult]
    trace: netsim.Trace

    def failures(self) -> list[str]:
        """One line per instance that did not give every honest node an output."""
        honest = [v for v in range(self.config.n) if v not in self.net.byz]
        lines = []
        for k, res in enumerate(self.results):
            missing = [str(v) for v in honest if v not in res.outputs]
            cut = "" if res.cut_at is None else f"the horizon cut the run at t={res.cut_at:g}"
            if not res.certified:
                lines.append(f"instance {k}: {cut or 'liveness failure'}, no certified output")
            elif missing:
                lines.append(f"instance {k}: certified, but honest node(s) "
                             f"{', '.join(missing)} hold no output" + (f" ({cut})" if cut else ""))
        return lines

    @property
    def ok(self) -> bool:
        return not self.failures()


def run_simulate(config: ScenarioConfig, seed: int | None = None) -> SimulateResult:
    """Bootstrap the clocks, then run the configured instances in sequence."""
    seed = config.seed if seed is None else seed
    net = build_network(config, seed)
    if config.ablate_node is not None and config.ablate_node not in net.byz:
        net.byz.add(config.ablate_node)
        net.strategies[config.ablate_node] = netsim.CrashStrategy()
        # Ablation silences the node's sends but keeps it relaying, so the
        # delivery fabric (hop counts) is untouched.
    chain_id = config.chain_id.encode()
    entropy = crypto.digest(b"entropy", chain_id, seed.to_bytes(8, "big"))
    rng = _substream(seed, b"clocks")
    netsim.synchronize(net, chain_id, entropy, config.initial_skew, rng)
    observations = observation_matrix(config, seed)
    results = []
    for k in range(config.instances):
        inst = engine.CobInstanceId(chain_id, 0, k, "slot_timing")
        params = engine.CobParams(inst, config.m, entropy, net.registry, config.committee)
        res = netsim.InstanceRunner(net, params, observations).run(config.horizon)
        results.append(res)
        if res.certified:
            entropy = crypto.digest(entropy, res.theta_digest)
    return SimulateResult(config, seed, net, results, net.trace)


def run_chain_scenario(config: ScenarioConfig, seed: int | None = None) -> chain_mod.ChainResult:
    seed = config.seed if seed is None else seed
    if config.mode != "chain":
        raise ConfigError("mode", "chain scenario required")
    net = build_network(config, seed)
    entropy = crypto.digest(b"genesis-cfg", config.chain_id.encode(), seed.to_bytes(8, "big"))
    cfg0 = chain_mod.genesis_config(
        entropy, config.n, config.num_shards, config.num_slots, config.slot_duration,
        config.alpha, config.extra_shard_params,
    )
    return chain_mod.run_chain(
        net, config.chain_id.encode(), config.epochs, cfg0,
        committee=config.chain_committee,
        block_size=config.block_size,
        rng=_substream(seed, b"clocks"),
        setup_skew=config.initial_skew,
        horizon=config.horizon,
    )
