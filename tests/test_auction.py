"""Auction tests: hand-worked outcomes, oracle/circuit agreement, formats."""

import math
import random

import pytest

from dualgc.auction import (AuctionConfig, AuctionResult, _clamp,
                            build_auction_circuit, circuit_run,
                            decode_bidder_bits, decode_cloud_bits,
                            density_rank, encode_bid_bits, gate_count,
                            load_bids_file, oracle_run)
from dualgc.circuits import AND, OR, bits_to_int, eval_plain, int_to_bits
from dualgc.errors import InputShapeError, WidthError
from dualgc.gadgets import Builder

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


def test_clamp_exhaustive():
    # min(x, bound) for every bus of 1-6 bits and every bound below its
    # all-ones value, above which _clamp only narrows the bus.
    for w in range(1, 7):
        for bound in range(1, 1 << w):
            bld = Builder()
            bus = bld.inputs(w)
            circuit = bld.finish([_clamp(bld, bus, bound)])
            for x in range(1 << w):
                out = eval_plain(circuit, [int_to_bits(x, w)])[0]
                assert len(out) == bound.bit_length()
                assert bits_to_int(out) == min(x, bound), (w, bound, x)


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


def test_rank_key_orders_as_the_oracle_exhaustive():
    # The circuit ranks a bidder by (has_T, key, index) with
    # key = floor(S^2 * 2^(2 t_w) / T), all ones when T = 0 (0 / 0 in
    # divide). Over every (S, T) of the n6m2 config, in shuffled index
    # order, that must be the oracle's order, ties included.
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    s_max, t_max = 600, 9
    assert config.value_width == s_max.bit_length()
    assert config.load_width == t_max.bit_length()
    t_w = config.load_width
    all_ones = (1 << 2 * config.value_width + 2 * t_w) - 1
    records = [(s, t) for s in range(s_max + 1) for t in range(t_max + 1)]
    assert len(records) == 6010
    random.Random("rank-key").shuffle(records)

    def circuit_rank(j):
        s, t = records[j]
        key = (s * s << 2 * t_w) // t if t else all_ones
        return (-int(t > 0), -key, j)

    indices = range(len(records))
    assert sorted(indices, key=circuit_rank) == sorted(
        indices, key=lambda j: density_rank(*records[j], j))


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


def test_random_instances_with_ties_and_zero_loads_oracle_equals_circuit():
    # 400 instances of 1-7 bidders over four configs. A bidder repeats an
    # earlier bidder's bids (a density tie) or requests nothing (zero load)
    # often, and values go past the declared maxima.
    configs = [
        AuctionConfig(2, (3, 3), (1, 2), width=16),
        AuctionConfig(1, (2,), (1,), width=8, fraction_bits=4),
        AuctionConfig(2, (4, 6), (1, 2), width=8),
        AuctionConfig(3, (2, 1, 3), (1, 2, 3), width=8, fraction_bits=0,
                      max_quantity=2, max_bid=20),
    ]
    rng = random.Random("ties-and-zero-loads")
    ties = zero_loads = 0
    for trial in range(400):
        config = configs[trial % len(configs)]
        m = config.vm_types

        def request(quantity):
            return tuple((quantity(), rng.randrange(config.max_bid + 21))
                         for _ in range(m))

        bids = []
        for _ in range(rng.randrange(1, 8)):
            r = rng.random()
            if r < 0.25 and bids:
                bids.append(rng.choice(bids))
            elif r < 0.4:
                bids.append(request(lambda: 0))
            else:
                bids.append(request(
                    lambda: rng.randrange(config.max_quantity + 3)))
        ties += len(set(bids)) < len(bids)
        zero_loads += any(all(k == 0 for k, _ in bid) for bid in bids)
        assert circuit_run(config, bids) == oracle_run(config, bids), \
            f"trial {trial}: {config} {bids}"
    assert ties >= 50 and zero_loads >= 100


def test_every_small_auction_oracle_equals_circuit():
    # Every bid vector of 3 bidders for 1 VM type, quantities 0-2 and bids
    # 0-3, at capacities 1 and 2: 3,456 auctions. The circuit leaves a
    # zero-load bidder's 0 / 0 rank key, a loser's payment and a winner's
    # payment without a critical bidder to arithmetic alone, so the
    # enumeration must hold each of these cases.
    offers = [((k, b),) for k in range(3) for b in range(4)]
    cases = set()
    runs = 0
    for capacity in (1, 2):
        config = AuctionConfig(1, (capacity,), (1,), width=4,
                               fraction_bits=4, max_quantity=2, max_bid=3)
        for a in offers:
            for b in offers:
                for c in offers:
                    bids = [a, b, c]
                    want = oracle_run(config, bids)
                    assert circuit_run(config, bids) == want, (config, bids)
                    runs += 1
                    x = want.allocations
                    for j, ((k, _),) in enumerate(bids):
                        if k == 0:
                            cases.add("zero load")
                        elif not x[j]:
                            cases.add("loser")
                        else:
                            # Skipping j changes no one ranked before it,
                            # so a critical bidder is any loser that wins
                            # once j requests nothing.
                            without = oracle_run(
                                config, bids[:j] + [((0, 0),)] + bids[j + 1:])
                            if not any(without.allocations[q] > x[q]
                                       for q in range(3)):
                                cases.add("winner without a critical bidder")
    assert runs == 3456
    assert cases == {"zero load", "loser", "winner without a critical bidder"}


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


# Compiled circuits, pinned at the first 16 hex digits of Circuit.hash() and
# the AND/OR count. A refactor of the gadgets or of the auction compiler
# must leave every row as it is: the hash binds each gate and wire number,
# so the blob, every frame and every transcript stay byte-identical. The
# rows span 1-3 VM types, widths 4-16, fraction bits 0 and 8, maxima on
# both sides of _clamp's no-compare shortcut, and 1-8 bidders. A change
# that compiles other circuits re-records the hash and count and says why;
# the last field, the hash and count the row was first pinned at, only
# names the row, so that its test keeps its name.
# (vm_types, capacities, weights, width, fraction_bits, max_quantity,
#  max_bid, bidders, hash prefix, AND/OR gates, first pinned at)
PINNED_CIRCUITS = [
    (1, (1,), (1,), 4, 0, 3, 15, 1, "ef938cbf6ffdeacf", 5,
     "c1b43bfb5853cf1e-6"),
    (1, (1,), (1,), 4, 0, 3, 15, 2, "16e141947ce57568", 251,
     "ea040b40e109c84a-306"),
    (1, (2,), (1,), 4, 8, 15, 100, 2, "f967a38543401b42", 854,
     "7f18aa6fd1d30fe2-1136"),
    (1, (3,), (2,), 4, 8, 1, 7, 3, "26d996f48729c44e", 451,
     "8b6b3b21d6d753a9-827"),
    (1, (1,), (1,), 8, 8, 3, 100, 2, "280df67b847d02ce", 708,
     "aea361e001801e63-985"),
    (1, (5,), (3,), 8, 0, 255, 255, 2, "9fd7b5c0706f8d9c", 2466,
     "24054e8b267921a1-3061"),
    (1, (4,), (1,), 8, 8, 3, 100, 4, "d0f77d12ff397973", 2035,
     "690676113f85ffd5-3129"),
    (1, (7,), (1,), 16, 8, 3, 100, 5, "6adbb4319a641abb", 2965,
     "d009cec8a60b1c47-4816"),
    (1, (2,), (1,), 6, 8, 2, 63, 8, "4682413f3e24ccb5", 4617,
     "005d0f320f838ffd-7656"),
    (1, (3,), (1,), 5, 0, 31, 9, 7, "305d74891ef59df9", 4858,
     "a897e8a02393516d-10010"),
    (2, (4, 6), (1, 2), 8, 8, 3, 100, 1, "bf0c745ba2ebeaa8", 19,
     "44d4a54811033a89-29"),
    (2, (4, 6), (1, 2), 8, 8, 3, 100, 3, "b3caf16b6f33661c", 2094,
     "db6a641186d7aaa5-3296"),
    (2, (2, 3), (1, 1), 4, 0, 3, 15, 2, "08d8abe8a88918cc", 437,
     "026a3dc3b09cc4d0-530"),
    (2, (9, 9), (2, 3), 4, 8, 15, 15, 2, "d46a74cf8aab8ed2", 1398,
     "0ecb5dc52dd94072-1887"),
    (2, (1, 2), (1, 1), 16, 0, 3, 100, 4, "3aa37e3c9e71bd33", 2169,
     "91bac762a8c52067-3389"),
    (2, (6, 4), (1, 2), 16, 8, 3, 100, 6, "a9fadac65d824134", 5844,
     "629450429865f3f4-10569"),
    (2, (3, 3), (1, 1), 12, 8, 5, 4095, 3, "9911bba456dfd5b3", 3502,
     "f13c4af7bc6e4f06-5323"),
    (2, (5, 1), (4, 1), 10, 0, 1023, 2, 2, "dea7ff7c2c604568", 2515,
     "d7e8df780d6cdff1-2892"),
    (3, (2, 2, 2), (1, 1, 1), 4, 0, 3, 15, 2, "f0d9f892767a5f6d", 646,
     "4d0a3025b5241aa3-778"),
    (3, (3, 1, 2), (1, 2, 3), 8, 8, 3, 100, 3, "1105ce7d16af75e1", 2555,
     "3b5ddaa7030fd5f7-4026"),
    (3, (9, 9, 9), (1, 1, 1), 4, 8, 15, 15, 1, "bba72eb98c45cf5a", 23,
     "408873abdaa8937a-26"),
    (3, (4, 5, 6), (2, 1, 1), 16, 0, 2, 200, 4, "aca6550735f6501e", 3022,
     "e94563836b98451a-4790"),
    (3, (1, 1, 1), (1, 1, 1), 6, 8, 63, 3, 2, "fb3964fbcf6389d2", 1756,
     "02315471e1a1e680-2349"),
    (3, (2, 4, 8), (3, 2, 1), 16, 8, 3, 100, 8, "39d9366a46a2a1bd", 10818,
     "184b61e4675e4899-20222"),
]


@pytest.mark.parametrize(
    "m, caps, weights, width, frac, max_q, max_b, bidders, digest, and_or",
    [row[:-1] for row in PINNED_CIRCUITS],
    ids=[f"{m}-caps{i}-weights{i}-{width}-{frac}-{max_q}-{max_b}-{n}-{first}"
         for i, (m, _, _, width, frac, max_q, max_b, n, _, _, first)
         in enumerate(PINNED_CIRCUITS)])
def test_compiled_circuits_are_pinned(m, caps, weights, width, frac, max_q,
                                      max_b, bidders, digest, and_or):
    config = AuctionConfig(m, caps, weights, width=width, fraction_bits=frac,
                           max_quantity=max_q, max_bid=max_b)
    circuit = build_auction_circuit(config, bidders)
    assert circuit.hash().hex()[:16] == digest
    assert sum(kind in (AND, OR) for kind, *_ in circuit.gates) == and_or
