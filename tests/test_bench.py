import pytest

from cobsim import bench
from cobsim.bench import CostModel


def test_account_single_send():
    records = [(0.0, 0.0, 1, "send", "inst", "mgc-1", 100, "aa", "")]
    total, per_step = bench.account_trace(records, "inst")
    assert total == 100
    assert per_step == {"mgc-1": 100}


def test_account_two_steps_arithmetic():
    records = []
    for _ in range(10):
        records.append((0.0, 0.0, 0, "send", "inst", "s1", 200, "", ""))
    for _ in range(12):
        records.append((0.0, 0.0, 0, "send", "inst", "s2", 200, "", ""))
    total, per_step = bench.account_trace(records, "inst")
    assert total == 4400
    assert per_step == {"s1": 2000, "s2": 2400}


def test_account_missing_instance_errors():
    with pytest.raises(KeyError):
        bench.account_trace([], "nope")


def test_cob_cost_affine_in_m():
    model = CostModel()
    for m in (1, 3, 10, 50):
        d1 = bench.cob_cost(2 * m, model) - bench.cob_cost(m, model)
        d2 = bench.cob_cost(3 * m, model) - bench.cob_cost(2 * m, model)
        assert d1 == d2


def test_baseline_exactly_linear():
    model = CostModel()
    one = bench.algorand_baseline(1, model)
    for m in (2, 10, 140):
        assert bench.algorand_baseline(m, model) == m * one


def test_m1_structural_degeneracy():
    # at m=1 both sides count the same per-message shape up to payload width
    model = CostModel()
    per_msg = model.envelope + model.component_value_bytes
    assert bench.algorand_baseline(1, model) == model.baseline_steps_per_instance * \
        model.baseline_committee * per_msg


def test_crossover_pinned():
    # regression constant under the default model, computed once and frozen
    assert bench.crossover(CostModel()) == 1


def test_m140_cost_pinned():
    # Ns=10 last slot: m = 20 + 12*10 = 140; frozen regression constant
    model = CostModel()
    assert bench.components_for(10, "last") == 140
    assert bench.cob_cost(140, model) == 736_560.0
    assert bench.algorand_baseline(140, model) == 12_936_000.0


def test_per_component_increment_below_baseline():
    model = CostModel()
    cob_slope = bench.cob_cost(2, model) - bench.cob_cost(1, model)
    base_slope = bench.algorand_baseline(2, model) - bench.algorand_baseline(1, model)
    assert cob_slope < base_slope


def test_sweep_rows_and_monotonicity():
    model = CostModel()
    rows = bench.sweep(range(1, 21), model)
    assert len(rows) == 40
    ns1_regular = [r for r in rows if r["num_shards"] == 1 and r["slot_kind"] == "regular"][0]
    assert bench.components_for(1, "regular") == 1
    assert ns1_regular["cob_mb"] == bench.cob_cost(1, model) / 1e6
    for kind in ("regular", "last"):
        series = [r for r in rows if r["slot_kind"] == kind]
        for a, b in zip(series, series[1:]):
            assert b["cob_mb"] >= a["cob_mb"]
            assert b["baseline_mb"] >= a["baseline_mb"]


def test_sweep_empty_range_rejected():
    with pytest.raises(ValueError):
        bench.sweep([], CostModel())


def test_like_for_like_shared_constants():
    # both sides move when a shared constant moves
    a, b = CostModel(), CostModel(proof_bytes=200)
    assert bench.cob_cost(5, b) > bench.cob_cost(5, a)
    assert bench.algorand_baseline(5, b) > bench.algorand_baseline(5, a)


def test_model_validation():
    bad = CostModel(sig_bytes=0)
    with pytest.raises(ValueError):
        bad.validate()


def test_csv_and_json_outputs(tmp_path):
    model = CostModel()
    rows = bench.sweep(range(1, 4), model)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    bench.write_csv(rows, csv_path)
    bench.write_json(rows, model, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "num_shards,slot_kind,cob_mb,baseline_mb"
    assert len(lines) == 7
    import json

    data = json.loads(json_path.read_text())
    assert len(data["rows"]) == 6
    assert "breakdown" in data["rows"][0]


def test_json_breakdown_sums_to_cost(tmp_path):
    model = CostModel()
    json_path = tmp_path / "out.json"
    bench.write_json(bench.sweep([1, 7], model), model, json_path)
    import json

    for row in json.loads(json_path.read_text())["rows"]:
        m = row["components"]
        assert row["breakdown"] == bench.cob_breakdown(m, model)
        assert sum(row["breakdown"].values()) == bench.cob_cost(m, model)
