"""Auction tests: hand-worked outcomes, oracle/circuit agreement, formats."""

import math
import random
from fractions import Fraction

import pytest

from dualgc.auction import (AuctionConfig, AuctionResult, build_auction_circuit,
                            circuit_run, decode_bidder_bits, decode_cloud_bits,
                            encode_bid_bits, gate_count, load_bids_file,
                            oracle_run)
from dualgc.errors import InputShapeError, WidthError

ONE_TYPE = AuctionConfig(vm_types=1, capacities=(1,), weights=(1,), width=8)
TWO_TYPE = AuctionConfig(vm_types=2, capacities=(4, 6), weights=(1, 2), width=8)


# [DERIVED] worked by hand: ranks 100 vs 36, winner pays the displaced
# bidder's value scaled by sqrt(T_p/T_c) = 6 * sqrt(1/1) = 6.0 -> 1536/2^8.
def test_hand_instance_single_type():
    bids = [((1, 10),), ((1, 6),)]
    result = oracle_run(ONE_TYPE, bids)
    assert result.allocations == (1, 0)
    assert result.payments_fp == (1536, 0)
    assert result.payments(ONE_TYPE) == (6.0, 0.0)
    assert circuit_run(ONE_TYPE, bids) == result


# [DERIVED] worked by hand: rank order B(2500) > A(400) > C(100); C displaces
# A only when A is removed, so A pays 30 * isqrt((4 << 16) // 9) = 30 * 170.
def test_hand_instance_two_types():
    bids = [
        ((2, 10), (1, 20)),   # A: S=40, T=4
        ((1, 50), (0, 0)),    # B: S=50, T=1
        ((3, 5), (3, 5)),     # C: S=30, T=9
    ]
    result = oracle_run(TWO_TYPE, bids)
    assert result.allocations == (1, 1, 0)
    assert result.payments_fp == (5100, 0, 0)
    assert math.isclose(result.payments(TWO_TYPE)[0], 5100 / 256)
    assert circuit_run(TWO_TYPE, bids) == result


def test_identical_bidders_tie_break_by_index():
    bids = [((1, 10),), ((1, 10),)]
    result = oracle_run(ONE_TYPE, bids)
    assert result.allocations == (1, 0)
    # Critical bidder is the identical loser: pay 10 * isqrt(2^16) = 2560.
    assert result.payments_fp == (2560, 0)
    assert circuit_run(ONE_TYPE, bids) == result


def test_values_above_declared_maxima_are_clamped():
    wild = [((200, 250), (250, 200)), ((1, 50), (0, 0))]
    tame = [((3, 100), (3, 100)), ((1, 50), (0, 0))]
    assert oracle_run(TWO_TYPE, wild) == oracle_run(TWO_TYPE, tame)
    assert circuit_run(TWO_TYPE, wild) == oracle_run(TWO_TYPE, tame)


def test_maximum_as_wide_as_the_value_width_is_clamped():
    # max_bid 176 needs all 8 bits of the value width, yet bids 177..255
    # still lie above it.
    config = AuctionConfig(vm_types=1, capacities=(4,), weights=(1,), width=8,
                           max_bid=176)
    wild = [((2, 255),), ((2, 177),), ((3, 150),)]
    tame = [((2, 176),), ((2, 176),), ((3, 150),)]
    assert oracle_run(config, wild) == oracle_run(config, tame)
    assert circuit_run(config, wild) == oracle_run(config, tame)


def test_zero_load_bidders_lose_and_pay_nothing():
    bids = [((0, 99),), ((1, 1),), ((0, 0),)]
    result = oracle_run(ONE_TYPE, bids)
    assert result.allocations == (0, 1, 0)
    assert result.payments_fp == (0, 0, 0)
    assert circuit_run(ONE_TYPE, bids) == result


def test_single_bidder_wins_free():
    result = oracle_run(ONE_TYPE, [((1, 42),)])
    assert result == AuctionResult((1,), (0,))
    assert circuit_run(ONE_TYPE, [((1, 42),)]) == result


def test_everyone_fits_no_payments():
    config = AuctionConfig(vm_types=1, capacities=(9,), weights=(1,), width=8)
    bids = [((1, 5),), ((2, 7),), ((3, 2),)]
    result = oracle_run(config, bids)
    assert result.allocations == (1, 1, 1)
    assert result.payments_fp == (0, 0, 0)
    assert circuit_run(config, bids) == result


def test_oracle_rank_matches_exact_fractions():
    # Cross-multiplied comparisons in the circuit must equal exact S^2/T.
    rng = random.Random(400)
    for _ in range(200):
        s1, t1 = rng.randrange(1, 600), rng.randrange(1, 10)
        s2, t2 = rng.randrange(1, 600), rng.randrange(1, 10)
        assert (s1 * s1 * t2 > s2 * s2 * t1) == \
            (Fraction(s1 * s1, t1) > Fraction(s2 * s2, t2))


def test_random_instances_oracle_equals_circuit():
    rng = random.Random(77)
    for trial in range(60):
        m = rng.randrange(1, 3)
        config = AuctionConfig(
            vm_types=m,
            capacities=tuple(rng.randrange(0, 7) for _ in range(m)),
            weights=tuple(rng.randrange(1, 4) for _ in range(m)),
            width=8, fraction_bits=rng.choice((4, 8)))
        n = rng.randrange(1, 6)
        bids = [tuple((rng.randrange(0, 5), rng.randrange(0, 130))
                      for _ in range(m)) for _ in range(n)]
        assert circuit_run(config, bids) == oracle_run(config, bids), \
            f"trial {trial}: {config} {bids}"


def test_config_validation():
    with pytest.raises(ValueError):
        AuctionConfig(vm_types=0, capacities=(), weights=())
    with pytest.raises(ValueError):
        AuctionConfig(vm_types=2, capacities=(1,), weights=(1, 1))
    with pytest.raises(ValueError):
        AuctionConfig(vm_types=1, capacities=(1,), weights=(0,))
    with pytest.raises(ValueError):
        AuctionConfig(vm_types=1, capacities=(-1,), weights=(1,))
    with pytest.raises(WidthError):
        AuctionConfig(vm_types=1, capacities=(1,), weights=(1,), width=65)
    with pytest.raises(WidthError):
        AuctionConfig(vm_types=1, capacities=(1,), weights=(1,), width=0)
    with pytest.raises(WidthError):
        AuctionConfig(vm_types=3, capacities=(1, 1, 1), weights=(1, 1, 1),
                      max_quantity=1000, max_bid=10**6)
    with pytest.raises(WidthError):
        AuctionConfig(vm_types=1, capacities=(1,), weights=(1,),
                      fraction_bits=32)


def test_bid_shape_validation():
    with pytest.raises(InputShapeError):
        oracle_run(TWO_TYPE, [((1, 1),)])
    with pytest.raises(InputShapeError):
        oracle_run(ONE_TYPE, [((1, 256),)])  # exceeds the 8-bit input width
    with pytest.raises(InputShapeError):
        oracle_run(ONE_TYPE, [((-1, 0),)])
    with pytest.raises(InputShapeError):
        encode_bid_bits(ONE_TYPE, ((1, 1), (2, 2)))


def test_encode_decode_layout():
    bits = encode_bid_bits(TWO_TYPE, ((2, 10), (1, 20)))
    assert len(bits) == 2 * 2 * 8
    assert bits[:8] == [0, 0, 0, 0, 0, 0, 1, 0]
    circuit = build_auction_circuit(TWO_TYPE, 3)
    assert len(circuit.input_map) == 3
    assert all(len(g) == 32 for g in circuit.input_map)
    assert len(circuit.output_map) == 4
    stride = 1 + TWO_TYPE.payment_width
    assert all(len(circuit.output_map[j]) == stride for j in range(3))
    assert circuit.output_map[3] == tuple(w for j in range(3)
                                          for w in circuit.output_map[j])
    x, fp = decode_bidder_bits(TWO_TYPE, [1] + [0] * (stride - 2) + [1])
    assert (x, fp) == (1, 1)
    with pytest.raises(InputShapeError):
        decode_bidder_bits(TWO_TYPE, [0] * (stride + 1))
    with pytest.raises(InputShapeError):
        decode_cloud_bits(TWO_TYPE, 3, [0] * (stride * 3 + 1))


def test_circuit_build_is_cached():
    a = build_auction_circuit(ONE_TYPE, 2)
    b = build_auction_circuit(ONE_TYPE, 2)
    assert a is b
    assert gate_count(ONE_TYPE, 2) == len(a.gates)


def test_gate_counts_grow_with_bidders():
    counts = [gate_count(ONE_TYPE, n) for n in (2, 4, 8)]
    assert counts[0] < counts[1] < counts[2]


def test_load_bids_file(tmp_path):
    path = tmp_path / "bids.csv"
    path.write_text("# id, k1, b1, k2, b2\n"
                    "0, 2, 10, 1, 20\n"
                    "\n"
                    "1, 1, 50, 0, 0\n")
    assert load_bids_file(path) == [((2, 10), (1, 20)), ((1, 50), (0, 0))]
    bad = tmp_path / "bad.csv"
    bad.write_text("0, 1, 2, 3\n")
    with pytest.raises(InputShapeError):
        load_bids_file(bad)
    bad.write_text("0, 1, two\n")
    with pytest.raises(InputShapeError):
        load_bids_file(bad)
    bad.write_text("0, 1, 2\n1, 1, 2, 3, 4\n")
    with pytest.raises(InputShapeError):
        load_bids_file(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(InputShapeError):
        load_bids_file(bad)
