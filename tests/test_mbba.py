"""Binary-agreement phase rules against an independent enumeration oracle."""

import numpy as np
import pytest

from cobsim import crypto, mbba, netsim

from conftest import make_network


def oracle_transition(bit, decided, phase, z, o, fz, fo, t_high, coin):
    """Single-component restatement of the phase rules, written separately."""
    if decided:
        return bit, True
    if fz >= t_high:
        return 0, True
    if fo >= t_high:
        return 1, True
    if phase == 0:
        if z >= t_high:
            return 0, True
        if o >= t_high:
            return 1, False
        return bit, False
    if phase == 1:
        if o >= t_high:
            return 1, True
        if z >= t_high:
            return 0, False
        return bit, False
    if z >= t_high:
        return 0, False
    if o >= t_high:
        return 1, False
    if coin == 1:
        return 1, False
    return bit, False


def run_transition(bit, decided, phase, z, o, fz, fo, t_high, coin):
    bits = np.array([bit], dtype=np.int8)
    dec = np.array([decided])
    out_bits, out_dec, newly = mbba.phase_transition(
        bits, dec, phase,
        np.array([z]), np.array([o]), np.array([fz]), np.array([fo]),
        t_high, coin,
    )
    return int(out_bits[0]), bool(out_dec[0]), bool(newly[0])


def test_init_bits_rule():
    assert mbba.init_bits(np.array([2, 2, 2])).tolist() == [0, 0, 0]
    assert mbba.init_bits(np.array([0, 1, 2])).tolist() == [1, 1, 0]


def test_init_bits_rejects_empty():
    with pytest.raises(ValueError):
        mbba.init_bits(np.zeros(0, dtype=np.int32))


def test_unanimous_zero_decides_in_fix0():
    bit, dec, newly = run_transition(0, False, 0, 12, 0, 0, 0, 9, None)
    assert (bit, dec, newly) == (0, True, True)


def test_coin_adoption_when_no_quorum():
    bit, dec, _ = run_transition(0, False, 2, 5, 4, 0, 0, 9, 1)
    assert (bit, dec) == (1, False)
    bit, dec, _ = run_transition(0, False, 2, 5, 4, 0, 0, 9, 0)
    assert (bit, dec) == (0, False)  # the coin only herds toward blank


def test_coin_required_in_coin_phase():
    with pytest.raises(ValueError):
        run_transition(0, False, 2, 1, 1, 0, 0, 9, None)
    with pytest.raises(ValueError):
        run_transition(0, False, 0, 1, 1, 0, 0, 9, 1)


def test_decided_components_frozen():
    bit, dec, newly = run_transition(0, True, 1, 0, 12, 0, 0, 9, None)
    assert (bit, dec, newly) == (0, True, False)


def test_flag_quorum_adopts_any_phase():
    for phase, coin in ((0, None), (1, None), (2, 0)):
        bit, dec, newly = run_transition(1, False, phase, 0, 0, 9, 0, 9, coin)
        assert (bit, dec, newly) == (0, True, True)
        bit, dec, newly = run_transition(0, False, phase, 0, 0, 0, 9, 9, coin)
        assert (bit, dec, newly) == (1, True, True)


def test_transition_matches_oracle_exhaustively():
    # all tallies of at most 10 messages, all phases, both coin values
    # (criterion: small-instance oracle equivalence, exact)
    t_high = 7
    checked = 0
    for z in range(11):
        for o in range(11 - z):
            for fz in range(z + 1):
                for fo in range(o + 1):
                    for phase in (0, 1, 2):
                        coins = (0, 1) if phase == 2 else (None,)
                        for coin in coins:
                            for bit in (0, 1):
                                got = run_transition(bit, False, phase, z, o, fz, fo, t_high, coin)
                                want = oracle_transition(bit, False, phase, z, o, fz, fo, t_high, coin)
                                assert got[:2] == want, (bit, phase, z, o, fz, fo, coin)
                                checked += 1
    assert checked == 8008


def test_common_coin_from_minimum_output():
    assert mbba.coin_bit(0b10110) == 0
    assert mbba.coin_bit(0b10111) == 1
    # The minimum is taken per node over the coin-phase votes it holds.
    # Origin 0 sends 7 and 3 at t=1, which reach node 1 a hop later, after
    # its deadline at t=1; origin 1 sends 12 and 98 at t=0.
    net = make_network(n=2, topology="complete", seed=1)
    pool = netsim.Pool(net, m=1, deadlines=np.array([2.0, 1.0]))
    sent = []
    for k, vrf in enumerate([7, 12, 3, 98]):
        origin = 0 if vrf in (3, 7) else 1
        digest = crypto.digest(bytes([k]))
        sent.append(net.send(origin, 1.0 - origin, 100, digest))
        vrf_out = vrf.to_bytes(8, "big") + bytes(24)  # the coin reads the leading 64 bits
        pool.add(k, np.zeros(1, dtype=np.int32), sent[-1], vrf_out)
    assert all(d.row is None for d in sent)  # queued until a read needs the rows
    mins, present = pool.min_vrf()
    assert [d.row[1] > 1.0 for d in sent] == [True, False, True, False]
    assert present.all()
    assert mins.tolist() == [3, 12]
    assert [mbba.coin_bit(int(v)) for v in mins] == [1, 0]
    assert mbba.coin_bit(mins, present).tolist() == [1, 0]
    assert mbba.coin_bit(mins, np.array([False, True])).tolist() == [0, 0]


@pytest.mark.parametrize("phase", [mbba.PHASE_FIX0, mbba.PHASE_FIX1, mbba.PHASE_COIN])
def test_one_call_over_nodes_equals_single_rows(phase):
    # The runner applies one phase to every node of a step in one call, each
    # node with its own coin: row i must be node i's single-row result.
    rng = np.random.default_rng(11 + phase)
    k, m, t_high = 40, 6, 3
    bits = rng.integers(0, 2, (k, m)).astype(np.int8)
    decided = rng.random((k, m)) < 0.3
    counts = rng.integers(0, 5, (k, m, 4))
    fz, fo = counts[..., 2], counts[..., 3]
    zeros, ones = counts[..., 0] + fz, counts[..., 1] + fo
    coins = rng.integers(0, 2, k) if phase == mbba.PHASE_COIN else None
    batch = mbba.phase_transition(bits, decided, phase, zeros, ones, fz, fo, t_high, coins)
    herded = 0
    for i in range(k):
        coin = None if coins is None else int(coins[i])
        single = mbba.phase_transition(bits[i], decided[i], phase, zeros[i], ones[i],
                                       fz[i], fo[i], t_high, coin)
        for got, want in zip(batch, single):
            assert np.array_equal(got[i], want), i
        if coin is not None:
            other = mbba.phase_transition(bits[i], decided[i], phase, zeros[i], ones[i],
                                          fz[i], fo[i], t_high, 1 - coin)
            herded += not np.array_equal(other[0], single[0])
    if phase == mbba.PHASE_COIN:
        assert herded > 5  # the per-node coin decides some rows


def test_coin_distribution_balanced():
    rng = np.random.default_rng(5)
    bits = []
    for _ in range(1000):
        outs = rng.integers(0, 2**62, size=rng.integers(1, 30))
        bits.append(mbba.coin_bit(int(outs.min())))
    freq = sum(bits) / len(bits)
    assert 0.45 <= freq <= 0.55

