"""Tests of the benchmark itself: smoke runs and tampered outputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from cobsim import engine, netsim  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_op(workload, seed=3):
    return workloads.make_inputs(workload, seed, tiny=True)[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_untraced(workload):
    ops = workloads.make_inputs(workload, 5, tiny=True)[:2]
    rec = run.run_loop(ops, 0.0)
    assert rec["fails"] == []
    assert rec["failed"] == 0 and rec["attempted"] == len(ops) + 1
    metrics = run.end_to_end(rec, 0.5)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(workload):
    ops = workloads.make_inputs(workload, 5, tiny=True)[:1]
    original = netsim.Network.deliver
    with tracer_mod.Tracer() as tr:
        rec = run.run_loop(ops, 0.0, tr)
    assert netsim.Network.deliver is original
    assert rec["fails"] == []
    metrics = tr.layer_metrics(len(rec["times"]))
    metrics["bench.traced_run_s"] = (0.0, "s")
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["netsim.InstanceRunner.run.calls"][0] >= 2
    assert tr.spans and all(span[2] >= 1 for span in tr.spans)


def test_inputs_depend_only_on_seed():
    a = workloads.make_inputs("consensus-n100", 7)
    b = workloads.make_inputs("consensus-n100", 7)
    c = workloads.make_inputs("consensus-n100", 8)
    assert [(o.seed, o.config) for o in a] == [(o.seed, o.config) for o in b]
    assert [o.seed for o in a] != [o.seed for o in c]


def test_reconfig_m_matches_paper_formula():
    cfg = workloads.make_inputs("chain-100x10", 1)[0].config
    assert workloads.expected_reconfig_m(cfg) == 20 + 11 * 10 + 10


# -- tampered outputs: each check must report the failure ----------------------


@pytest.fixture(scope="module")
def simulate_run():
    op = tiny_op("consensus-n100")
    return op, workloads.run_op(op)


@pytest.fixture(scope="module")
def chain_run():
    op = tiny_op("chain-100x10")
    return op, workloads.run_op(op)


def test_untampered_outputs_pass(simulate_run, chain_run):
    assert workloads.check(*simulate_run) == []
    assert workloads.check(*chain_run) == []


def test_changed_honest_output_value_is_reported(simulate_run):
    op, out = simulate_run
    res = out.results[0]
    node = workloads._honest(op)[0]
    j = next(i for i, e in enumerate(op.config.observation_plan) if e["kind"] == "unanimous")
    saved = res.outputs[node]
    vals = list(saved.values)
    vals[j] = b"tampered"
    res.outputs[node] = engine.CobOutput(saved.instance, vals, saved.bits,
                                         saved.theta_digest, saved.certificate)
    try:
        fails = workloads.check(op, out)
    finally:
        res.outputs[node] = saved
    assert any("distinct honest outputs" in f for f in fails)
    assert any(f"node {node} component {j} lost its unanimous value" in f for f in fails)


def test_certificate_below_quorum_is_reported(simulate_run):
    op, out = simulate_run
    cert = out.results[0].certificate
    saved = cert.supporters
    cert.supporters = saved[: 2 * op.config.n // 3]
    try:
        fails = workloads.check(op, out)
    finally:
        cert.supporters = saved
    assert any("supporters, quorum is" in f for f in fails)
    assert any("certificate rejected" in f for f in fails)


def test_corrupted_dump_signature_is_reported(chain_run):
    op, (result, dump, count) = chain_run
    bad = json.loads(json.dumps(dump))
    sig = bad["blocks"][1]["certificate"]["supporters"][0]["sig"]
    bad["blocks"][1]["certificate"]["supporters"][0]["sig"] = \
        ("0" if sig[0] != "0" else "1") + sig[1:]
    fails = workloads.check(op, (result, bad, count))
    assert any("dump rejected: block 1: certificate invalid" in f for f in fails)


def test_blanked_honest_shard_is_reported(chain_run):
    op, (result, dump, count) = chain_run
    byz = workloads.scenario.byzantine_set(op.config, op.seed)
    creators = result.configs[0].creators(1)
    i, shard = next((i, s) for i, (s, c) in enumerate(sorted(creators.items()))
                    if c not in byz)
    bad = json.loads(json.dumps(dump))
    bad["blocks"][0]["shard_digests"][i] = None
    fails = workloads.check(op, (result, bad, count))
    assert any(f"shard {shard} blank=True" in f for f in fails)


def test_missing_program_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "consensus-n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
