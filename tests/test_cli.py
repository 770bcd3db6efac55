import json

import pytest

from cobsim import cli, scenario


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SIM = {
    "mode": "simulate", "n": 24, "byzantine_fraction": 0.2, "adversary": "crash",
    "committee": 24, "m": 3, "observation_plan": "unanimous", "seed": 4,
}
CHAIN = {
    "mode": "chain", "n": 33, "byzantine_fraction": 0.27, "adversary": "mixed",
    "epochs": 2, "num_shards": 4, "num_slots": 5, "slot_duration": 40.0, "seed": 5,
}


def test_config_unknown_field_rejected():
    with pytest.raises(scenario.ConfigError):
        scenario.ScenarioConfig.from_dict({"mode": "simulate", "bogus": 1})


def test_config_byzantine_guard():
    with pytest.raises(scenario.ConfigError) as err:
        scenario.ScenarioConfig.from_dict({**SIM, "byzantine_fraction": 0.4})
    assert "unsafe_byzantine" in str(err.value)
    cfg = scenario.ScenarioConfig.from_dict(
        {**SIM, "byzantine_fraction": 0.4, "unsafe_byzantine": True}
    )
    assert cfg.byzantine_fraction == 0.4


def test_simulate_exit_codes(tmp_path):
    good = write_config(tmp_path, "good.json", SIM)
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["simulate", "--config", good, "--out", out]) == cli.EXIT_OK
    assert (tmp_path / "trace.jsonl").exists()

    malformed = tmp_path / "bad.json"
    malformed.write_text("{not json")
    assert cli.main(["simulate", "--config", str(malformed)]) == cli.EXIT_CONFIG

    bad_field = write_config(tmp_path, "bad2.json", {**SIM, "committee": 0})
    assert cli.main(["simulate", "--config", bad_field]) == cli.EXIT_CONFIG

    unsafe = write_config(tmp_path, "unsafe.json", {**SIM, "byzantine_fraction": 0.4})
    assert cli.main(["simulate", "--config", unsafe]) == cli.EXIT_CONFIG
    # the override flag permits the violation experiment; with 40% of nodes
    # crashed the quorum is unreachable, which is a liveness failure, not a
    # config failure
    assert cli.main(["simulate", "--config", unsafe, "--unsafe-byzantine"]) == cli.EXIT_LIVENESS


def test_chain_verify_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "chain.json", CHAIN)
    dump = str(tmp_path / "dump.json")
    reg = str(tmp_path / "reg.json")
    assert cli.main(["chain", "--config", cfg, "--out", dump, "--registry-out", reg]) == cli.EXIT_OK

    data = json.loads((tmp_path / "dump.json").read_text())
    assert len(data["blocks"]) == 10
    last_slots = [b for b in data["blocks"] if b["slot"] == 5]
    assert all(b["epoch_data"] is not None for b in last_slots)

    assert cli.main(["verify", "--chain", dump, "--registry", reg]) == cli.EXIT_OK

    # single byte corruption -> exit 1
    data["blocks"][4]["shard_digests"][1] = bytes(32).hex()
    corrupted = tmp_path / "bad_dump.json"
    corrupted.write_text(json.dumps(data))
    assert cli.main(["verify", "--chain", str(corrupted), "--registry", reg]) == cli.EXIT_VERIFY

    # supporter removal below quorum -> exit 1
    data2 = json.loads((tmp_path / "dump.json").read_text())
    data2["blocks"][0]["certificate"]["supporters"] = \
        data2["blocks"][0]["certificate"]["supporters"][:5]
    thinned = tmp_path / "thin_dump.json"
    thinned.write_text(json.dumps(data2))
    assert cli.main(["verify", "--chain", str(thinned), "--registry", reg]) == cli.EXIT_VERIFY


def test_chain_crash_creator_continues(tmp_path):
    cfg = write_config(tmp_path, "chain2.json",
                       {**CHAIN, "adversary": "crash", "epochs": 1, "seed": 6})
    dump = str(tmp_path / "dump2.json")
    assert cli.main(["chain", "--config", cfg, "--out", dump]) == cli.EXIT_OK
    data = json.loads((tmp_path / "dump2.json").read_text())
    assert len(data["blocks"]) == 5
    blanks = sum(1 for b in data["blocks"] for d in b["shard_digests"] if d is None)
    assert blanks > 0  # crashed creators show up as blanked shard digests


def test_bench_cli(tmp_path):
    out = str(tmp_path / "costs.csv")
    jout = str(tmp_path / "costs.json")
    assert cli.main(["bench", "--shards", "1:100", "--out", out, "--json-out", jout]) == cli.EXIT_OK
    lines = (tmp_path / "costs.csv").read_text().strip().splitlines()
    assert len(lines) == 201  # header + 2 rows per shard count

    assert cli.main(["bench", "--shards", ""]) == cli.EXIT_CONFIG
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps({"sig_bytes": -5}))
    assert cli.main(["bench", "--model", str(bad_model), "--shards", "1:4"]) == cli.EXIT_CONFIG


def test_identical_invocations_identical_outputs(tmp_path):
    cfg = write_config(tmp_path, "det.json", SIM)
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert cli.main(["simulate", "--config", cfg, "--out", a]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--out", b]) == cli.EXIT_OK
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_seed_override_changes_runs(tmp_path):
    cfg = write_config(tmp_path, "seed.json", SIM)
    a, b = str(tmp_path / "sa.jsonl"), str(tmp_path / "sb.jsonl")
    assert cli.main(["simulate", "--config", cfg, "--seed", "100", "--out", a]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--seed", "101", "--out", b]) == cli.EXIT_OK
    assert (tmp_path / "sa.jsonl").read_bytes() != (tmp_path / "sb.jsonl").read_bytes()


@pytest.fixture(scope="module")
def chain_dump(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    cfg = write_config(tmp, "chain.json", {**CHAIN, "epochs": 1, "num_slots": 2})
    dump, reg = tmp / "dump.json", tmp / "reg.json"
    assert cli.main(["chain", "--config", cfg, "--out", str(dump),
                     "--registry-out", str(reg)]) == cli.EXIT_OK
    return json.loads(dump.read_text()), json.loads(reg.read_text())


def verify(tmp_path, dump, registry):
    dump_path, reg_path = tmp_path / "dump.json", tmp_path / "reg.json"
    dump_path.write_text(json.dumps(dump))
    reg_path.write_text(json.dumps(registry))
    return cli.main(["verify", "--chain", str(dump_path), "--registry", str(reg_path)])


def test_verify_non_hex_master_is_unreadable_input(tmp_path, chain_dump, capsys):
    dump, registry = chain_dump
    assert verify(tmp_path, dump, {**registry, "master": "not hex"}) == cli.EXIT_CONFIG
    assert "cannot read inputs" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -3, True, 17, 34, "33", None])
def test_verify_checks_the_registry_size_first(tmp_path, chain_dump, capsys, n):
    # The dump is over 33 nodes; a registry of any other size is unreadable
    # input, refused before a key is derived.
    dump, registry = chain_dump
    assert verify(tmp_path, dump, {**registry, "n": n}) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot read inputs: registry n ") and "Traceback" not in err


@pytest.mark.parametrize("damage", ["missing values", "bad hex"])
def test_verify_malformed_block_names_reason(tmp_path, chain_dump, capsys, damage):
    dump, registry = chain_dump
    assert verify(tmp_path, dump, registry) == cli.EXIT_OK
    bad = json.loads(json.dumps(dump))
    if damage == "missing values":
        del bad["blocks"][1]["values"]
    else:
        bad["blocks"][1]["certificate"]["theta_digest"] = "zz"
    assert verify(tmp_path, bad, registry) == cli.EXIT_VERIFY
    assert "verification failed at block 1: malformed block" in capsys.readouterr().err


def test_bench_json_out_without_csv(tmp_path):
    jout = tmp_path / "costs.json"
    assert cli.main(["bench", "--shards", "1:3", "--json-out", str(jout)]) == cli.EXIT_OK
    assert len(json.loads(jout.read_text())["rows"]) == 6


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_bench_negative_component_count_is_a_config_error(capsys, flag):
    assert cli.main(["bench", "--shards", "1:3", flag, "-1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"invalid model or range: {flag} must be >= 0, got -1\n"


def test_bench_without_crossover_writes_tables_and_says_so(tmp_path, capsys):
    model = write_config(tmp_path, "model.json", {"final_participants": 100_000_000})
    out = tmp_path / "costs.csv"
    code = cli.main(["bench", "--model", model, "--shards", "1:3", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 7  # header + 2 rows per shard count
    assert capsys.readouterr().out == "bench: 6 rows, no crossover up to m=200\n"


@pytest.mark.parametrize("over, field", [
    ({"n": 2, "committee": 2}, "'topology'"),  # the default watts_strogatz
    ({"topology_params": {"k": 1}}, "'topology_params.k'"),
    ({"topology_params": {"k": 0}}, "'topology_params.k'"),
    ({"topology_params": {"k": "x"}}, "'topology_params.k'"),
    ({"topology_params": {"p": 1.5}}, "'topology_params.p'"),
    ({"topology_params": {"q": 1}}, "'topology_params.q'"),
    ({"topology": "ring", "topology_params": {"k": 4}}, "'topology_params.k'"),
    ({"topology": "geometric", "topology_params": {"radius": -1}}, "'topology_params.radius'"),
    ({"topology_params": [4]}, "'topology_params'"),
    ({"n": 3, "committee": 3}, None),
    ({"n": 2, "committee": 2, "topology": "ring"}, None),
    ({"topology_params": {"k": 2, "p": 1}}, None),
])
def test_unbuildable_topology_is_a_config_error(tmp_path, capsys, over, field):
    path = write_config(tmp_path, "topo.json", {**SIM, "n": 10, "committee": 10, **over})
    code = cli.main(["simulate", "--config", path])
    err = capsys.readouterr().err
    if field is None:
        assert code == cli.EXIT_OK and err == ""
    else:
        assert code == cli.EXIT_CONFIG and err.startswith(f"invalid config: config field {field}")


def test_certified_instance_without_honest_outputs_says_so(tmp_path, capsys):
    # A two-seat expected committee certifies, but five honest nodes' theta
    # does not reproduce the certified digest, so they hold no output.
    path = write_config(tmp_path, "tiny.json", {
        "mode": "simulate", "n": 26, "committee": 2.68, "byzantine_fraction": 0.2,
        "adversary": "equivocate", "topology": "ring", "m": 5,
        "observation_plan": "unanimous", "seed": 167,
    })
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_LIVENESS
    err = capsys.readouterr().err
    assert err == ("run seed=167: instance 0: certified, but honest node(s) "
                   "0, 6, 12, 21, 23 hold no output\n")


@pytest.mark.parametrize("field, value", [
    ("instances", 1.5),
    ("m", 2.5),
    ("seed", -1),
    ("horizon", "inf"),
    ("n", "x"),
    ("committee", "5"),
    ("unsafe_byzantine", "no"),
    ("adversary", "late_block"),  # acts on shard blocks, so chain mode only
])
def test_mistyped_or_misplaced_field_is_a_config_error(tmp_path, capsys, field, value):
    path = write_config(tmp_path, "typed.json", {**SIM, "n": 10, "committee": 10, field: value})
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: config field '{field}': ") and "Traceback" not in err


@pytest.mark.parametrize("command, field", [
    ("simulate", "lam_base"),
    ("simulate", "lam_per_byte"),
    ("simulate", "d_min"),
    ("simulate", "d_max"),
    ("simulate", "initial_skew"),
    ("chain", "slot_duration"),
])
def test_infinite_setting_is_a_config_error(tmp_path, capsys, command, field):
    base = {**SIM, "n": 10, "committee": 10} if command == "simulate" else CHAIN
    path = write_config(tmp_path, "inf.json", {**base, field: float("inf")})
    assert "Infinity" in (tmp_path / "inf.json").read_text()
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"invalid config: config field '{field}': must be finite\n"


@pytest.mark.parametrize("command, over, field", [
    ("simulate", {"lam_base": 1e308}, "lam_base"),
    ("simulate", {"lam_per_byte": 1e305}, "lam_per_byte"),
    ("chain", {"lam_base": 1e306, "slot_duration": 1e307}, "lam_base"),
])
def test_overflowing_step_deadline_is_a_config_error(tmp_path, capsys, command, over, field):
    # Finite settings whose last step deadline, 99 step lengths after the
    # start, overflows to infinity.
    base = {**SIM, "n": 10, "committee": 10, "m": 2} if command == "simulate" else CHAIN
    path = write_config(tmp_path, "lam.json", {**base, **over})
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: config field '{field}': too large: the last step "
                          "deadline of a ")
    assert err.endswith("is not finite\n")


WIRE_SIM = {"mode": "simulate", "n": 4, "committee": 4, "topology": "complete",
            "observation_plan": "bot"}
WIRE_CHAIN = {"mode": "chain", "n": 4, "topology": "complete", "num_shards": 1, "num_slots": 1}


@pytest.mark.parametrize("command, config, field, detail", [
    ("simulate", {**WIRE_SIM, "m": 65536}, "m", "at most 65535"),
    ("simulate", {**WIRE_SIM, "m": 10**400}, "m", "at most 65535"),
    ("chain", {**WIRE_CHAIN, "alpha": 65533}, "num_shards", "= 65536 components"),  # Nc
    ("chain", {"mode": "chain", "n": 16, "num_shards": 10**400}, "num_shards", "at most 65535"),
    ("chain", {"mode": "chain", "n": 16, "block_size": 10**400}, "block_size",
     "at most 4294967295"),
    ("simulate", {"mode": "simulate", "n": 10, "committee": 10, "m": 2, "horizon": -1},
     "horizon", "must be non-negative"),
])
def test_out_of_range_count_or_horizon_is_a_config_error(tmp_path, capsys, command, config,
                                                          field, detail):
    # Component counts travel in 2 bytes and a block's payload length in 4;
    # a wider value, or a negative horizon, is refused before anything runs.
    path = write_config(tmp_path, "wide.json", config)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: config field '{field}': ") and "Traceback" not in err
    assert detail in err


def test_the_widest_counts_fit_their_wire_fields():
    # Validation only: a run at these sizes would ask for a 64 GiB tally.
    assert scenario.ScenarioConfig.from_dict({**WIRE_SIM, "m": 65535}).m == 65535
    assert scenario.ScenarioConfig.from_dict({**WIRE_CHAIN, "alpha": 65532}).alpha == 65532


PLAN_DEFAULT = {"kind": "unanimous"}


@pytest.mark.parametrize("plan, component", [
    ([1, 2], 0),
    ("bogus", None),
    ([{"kind": "bogus"}, PLAN_DEFAULT], 0),
    ([{"kind": ["split"]}, PLAN_DEFAULT], 0),
    ([PLAN_DEFAULT], None),  # m=2 needs two entries
    ([PLAN_DEFAULT, {"kind": "unanimous", "value": "zz"}], 1),
    ([PLAN_DEFAULT, {"kind": "unanimous", "value": "ab" * 65}], 1),
    ([PLAN_DEFAULT, {"kind": "random", "alphabet": 0}], 1),
    ([PLAN_DEFAULT, {"kind": "split", "values": ["zz"]}], 1),
    ([PLAN_DEFAULT, {"kind": "bot", "value": "ab"}], 1),
])
def test_bad_observation_plan_is_a_config_error(tmp_path, capsys, plan, component):
    path = write_config(tmp_path, "plan.json",
                        {**SIM, "n": 10, "committee": 10, "m": 2, "observation_plan": plan})
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: config field 'observation_plan': ")
    assert "Traceback" not in err
    if component is not None:
        assert f"component {component}:" in err


def test_explicit_observation_plan_runs(tmp_path, capsys):
    plan = [{"kind": "unanimous", "value": "ab" * 64}, {"kind": "split", "values": ["01", None]}]
    path = write_config(tmp_path, "plan.json",
                        {**SIM, "n": 10, "committee": 10, "m": 2, "observation_plan": plan})
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK


@pytest.mark.parametrize("seed, runs, code", [
    (4, 0, cli.EXIT_CONFIG),
    (4, -1, cli.EXIT_CONFIG),
    (2**64 - 1, 2, cli.EXIT_CONFIG),
    (2**64 - 2, 2, cli.EXIT_OK),  # the last two seeds
])
def test_runs_are_bounded(tmp_path, capsys, seed, runs, code):
    path = write_config(tmp_path, "runs.json", {**SIM, "n": 10, "committee": 10, "seed": seed})
    assert cli.main(["simulate", "--config", path, "--runs", str(runs)]) == code
    out = capsys.readouterr()
    if code == cli.EXIT_CONFIG:
        assert out.err.startswith(f"invalid --runs {runs}: ") and "Traceback" not in out.err
    else:
        assert out.out.count("certified") == runs


@pytest.mark.parametrize("config, code, reason", [
    ({"mode": "chain", "n": 12, "topology": "complete", "num_shards": 2, "num_slots": 2,
      "seed": 1, "initial_skew": 100},
     cli.EXIT_LIVENESS, "chain halted: bootstrap: synchronization setup failed to certify"),
    ({"mode": "chain", "n": 3, "seed": 125, "topology": "watts_strogatz",
      "byzantine_fraction": 0.45, "adversary": "equivocate", "initial_skew": 2.0,
      "num_shards": 4, "num_slots": 3, "epochs": 2, "block_size": 1, "alpha": 5,
      "extra_shard_params": 2},
     cli.EXIT_LIVENESS,
     "chain halted: slot 1 of epoch 1 certified, but no honest node holds its output"),
    ({"mode": "chain", "n": 12, "topology": "complete", "num_shards": 1, "num_slots": 2,
      "seed": 1, "slot_duration": 1.0},
     cli.EXIT_CONFIG, "invalid config: config field 'slot_duration': must exceed "
                      "4*lambda(block) = 4.2092 at block_size 256"),
])
def test_chain_failures_end_in_a_named_exit_code(tmp_path, capsys, config, code, reason):
    path = write_config(tmp_path, "chain.json", config)
    assert cli.main(["chain", "--config", path, "--unsafe-byzantine"]) == code
    err = capsys.readouterr().err
    assert err == reason + "\n" and "Traceback" not in err


@pytest.mark.parametrize("command, config, reason", [
    ("simulate", {"mode": "simulate", "n": 16, "committee": 16, "topology": "complete", "m": 2,
                  "seed": 1, "horizon": 3.0},
     "run seed=1: instance 0: the horizon cut the run at t=3, no certified output"),
    ("chain", {"mode": "chain", "n": 16, "topology": "complete", "num_shards": 1,
               "num_slots": 3, "seed": 1, "horizon": 60.0},
     "chain halted: slot 2 of epoch 0 failed to certify: the horizon cut it at t=60"),
])
def test_a_horizon_cut_is_named(tmp_path, capsys, command, config, reason):
    path = write_config(tmp_path, "cut.json", config)
    assert cli.main([command, "--config", path]) == cli.EXIT_LIVENESS
    assert capsys.readouterr().err == reason + "\n"
