"""Spans around the public calls into each cobsim layer.

The tracer replaces module functions and class methods of ``cobsim`` with
wrappers for the duration of a traced run and restores them afterwards;
nothing inside ``src/cobsim`` changes.  Each span records its name, start,
end, the span that caused it and the operation it belongs to.  A span's
self time is its duration minus the time its child spans cover.  Counts
(accepted pool rows, selected draws, adopted outputs, sends) are taken at
the same boundaries.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from cobsim import _kernels, chain, crypto, engine, mbba, mgc, netsim, scenario, sortition, values

# (owner, attribute, span name).  Owners are modules or classes; the program
# looks every one of these up at call time, so replacing the attribute
# routes its calls through the wrapper.  Span names become metric names,
# which start with a letter: ``cobsim._kernels`` spans are ``kernels.*``.
SPANNED = [
    (netsim, "build_topology", "netsim.build_topology"),
    (netsim, "hop_matrix", "netsim.hop_matrix"),
    (scenario, "build_network", "scenario.build_network"),
    (netsim.Pool, "final_groups", "netsim.Pool.final_groups"),
    (netsim.Pool, "add", "netsim.Pool.add"),
    (netsim.Pool, "tally", "netsim.Pool.tally"),
    (netsim.Pool, "min_vrf", "netsim.Pool.min_vrf"),
    (netsim.Network, "deliver", "netsim.Network.deliver"),
    (netsim, "synchronize", "netsim.synchronize"),
    (netsim.InstanceRunner, "run", "netsim.InstanceRunner.run"),
    (netsim.Trace, "add", "netsim.Trace.add"),
    (_kernels, "delivery_times", "kernels.delivery_times"),
    (_kernels, "tally_votes", "kernels.tally_votes"),
    (engine, "adopt_certificate", "engine.adopt_certificate"),
    (engine, "on_step_deadline", "engine.on_step_deadline"),
    (engine, "encode_mgc_message", "engine.encode_mgc_message"),
    (engine, "encode_mbba_message", "engine.encode_mbba_message"),
    (engine, "encode_final_body", "engine.encode_final_body"),
    (mgc, "echo_filter", "mgc.echo_filter"),
    (mgc, "finalize", "mgc.finalize"),
    (mbba, "phase_transition", "mbba.phase_transition"),
    (sortition, "draw", "sortition.draw"),
    (values, "encode_vector", "values.encode_vector"),
    (crypto.KeyRegistry, "sign", "crypto.KeyRegistry.sign"),
    (chain, "slot_observation", "chain.slot_observation"),
    (chain, "epoch_observation", "chain.epoch_observation"),
    (chain, "apply_epoch_output", "chain.apply_epoch_output"),
    (chain, "dump_chain", "chain.dump_chain"),
    (chain, "verify_chain_dump", "chain.verify_chain_dump"),
]

OP_SPAN = "bench.op"
SPAN_CAP = 200_000  # spans kept for the spans file; aggregates count every span


class Tracer:
    """Spans kept in memory, aggregated per name, written out at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.mbba_iterations: list[int] = []
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple] = []

    # -- spans ----------------------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = perf_counter()
        self._stack.pop()
        name, start, child, sid = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[3] if parent else 0, self._op, name, start, end))
        else:
            self.dropped += 1

    def op(self, index: int, fn, *args):
        """Run one benchmark operation as the root span of its own tree."""
        self._op = index
        frame = self._enter(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn):
        enter, exit_, stack = self._enter, self._exit, self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def spanned(*args, **kwargs):
            if not stack:  # outside an operation, e.g. in the benchmark's checks
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- counts at the boundaries ---------------------------------------------
    def _after_netsim_Pool_add(self, args, accepted):
        self.counts["pool_offered"] += 1
        self.counts["pool_accepted"] += bool(accepted)

    def _after_sortition_draw(self, args, proof):
        self.counts["draws_selected"] += proof is not None

    def _after_netsim_Trace_add(self, args, _):
        if args[4] == "send":
            self.counts["sends"] += 1
            self.counts["send_bytes"] += args[7]

    def _after_engine_adopt_certificate(self, args, ok):
        # adopt_certificate returns True for a node that already holds an
        # output too; count the calls that produced a new one.
        if ok and args[0].output is not None and args[0].output.certificate is args[3]:
            self.counts["outputs_adopted"] += 1

    def _after_netsim_InstanceRunner_run(self, args, result):
        runner = args[0]
        honest = [v for v in range(runner.net.n) if runner.net.honest_mask[v]]
        last = max((s.decision_log[-1][0] for v in honest
                    if (s := result.states[v]).decision_log), default=0)
        self.mbba_iterations.append(last + 1)

    def _count_certificate(self, init):
        def counted(obj, *args, **kwargs):
            if self._stack:
                self.counts["certificate_builds"] += 1
            return init(obj, *args, **kwargs)

        counted.__wrapped__ = init
        return counted

    # -- install / restore ----------------------------------------------------
    def install(self):
        for owner, attr, name in SPANNED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        init = engine.Certificate.__dict__["__init__"]
        self._saved.append((engine.Certificate, "__init__", init))
        engine.Certificate.__init__ = self._count_certificate(init)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, each per operation except the ratios."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name in SPANNED:
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0) / ops, "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0) / ops, "count")
        out[f"{OP_SPAN}.self_s"] = (self.self_s.get(OP_SPAN, 0.0) / ops, "s")
        # The bootstrap instance runs inside synchronize, so its cost shows
        # in the span's whole duration, not in its self time.
        out["netsim.synchronize.total_s"] = (
            self.total_s.get("netsim.synchronize", 0.0) / ops, "s")
        c = self.counts
        out["engine.Certificate.builds"] = (c["certificate_builds"] / ops, "count")
        out["engine.certificates_per_output"] = (
            c["certificate_builds"] / max(1, c["outputs_adopted"]), "ratio")
        out["netsim.Pool.add.accept_ratio"] = (
            c["pool_accepted"] / max(1, c["pool_offered"]), "ratio")
        out["sortition.selected_ratio"] = (
            c["draws_selected"] / max(1, self.calls.get("sortition.draw", 0)), "ratio")
        out["netsim.sends"] = (c["sends"] / ops, "count")
        out["netsim.send_bytes"] = (c["send_bytes"] / ops, "B")
        its = self.mbba_iterations
        out["engine.mbba_iterations"] = (sum(its) / max(1, len(its)), "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["id", "parent", "op", "name", "start", "end"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
