"""Circuit IR, plaintext evaluation, netlist format, and gadget library."""

import math
import random

import pytest

from dualgc.circuits import (
    AND,
    NOT,
    OR,
    XOR,
    Circuit,
    bits_to_int,
    eval_plain,
    from_netlist,
    int_to_bits,
    to_netlist,
    validate,
)
from dualgc.auction import AuctionConfig, build_auction_circuit
from dualgc.errors import GadgetWidthError, InputShapeError
from dualgc.gadgets import (Builder, add, cond_swap, const_bus, divide, eq,
                            ge, gt, isqrt, mul, mux, odd_even_merge_sort, sub)

from oracles import random_circuit, random_inputs, recursive_eval


def single_gate(kind):
    if kind == NOT:
        return Circuit(2, [(NOT, 0, -1, 1)], ((0,),), ((1,),))
    return Circuit(3, [(kind, 0, 1, 2)], ((0,), (1,)), ((2,),))


def test_or_truth_table():
    c = single_gate(OR)
    assert [eval_plain(c, [[a], [b]])[0][0] for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 1]


def test_and_xor_not_truth_tables():
    for kind, table in ((AND, [0, 0, 0, 1]), (XOR, [0, 1, 1, 0])):
        c = single_gate(kind)
        got = [eval_plain(c, [[a], [b]])[0][0] for a in (0, 1) for b in (0, 1)]
        assert got == table
    c = single_gate(NOT)
    assert [eval_plain(c, [[v]])[0][0] for v in (0, 1)] == [1, 0]


def test_input_shape_errors():
    c = single_gate(AND)
    with pytest.raises(InputShapeError):
        eval_plain(c, [[0]])
    with pytest.raises(InputShapeError):
        eval_plain(c, [[0, 1], [1]])
    with pytest.raises(InputShapeError):
        eval_plain(c, [[2], [0]])


def test_validate_rejects_double_assignment_and_forward_reads():
    bad = Circuit(3, [(AND, 0, 1, 0)], ((0,), (1,)), ((0,),))
    with pytest.raises(ValueError):
        validate(bad)
    bad = Circuit(4, [(AND, 0, 3, 2)], ((0,), (1,)), ((2,),))
    with pytest.raises(ValueError):
        validate(bad)


def test_random_circuits_match_recursive_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        c = random_circuit(rng)
        validate(c)
        bits = random_inputs(rng, c)
        assert eval_plain(c, bits) == recursive_eval(c, bits)


def test_netlist_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        c = random_circuit(rng)
        c2 = from_netlist(to_netlist(c))
        assert c2.gates == c.gates
        assert c2.input_map == c.input_map
        assert c2.output_map == c.output_map
        assert c2.hash() == c.hash()
        bits = random_inputs(rng, c)
        assert eval_plain(c2, bits) == eval_plain(c, bits)


def test_netlist_parse_rejects_garbage():
    with pytest.raises(ValueError):
        from_netlist("not a netlist\n")
    with pytest.raises(ValueError):
        from_netlist("circuit 2 1 1 1\ninput 0 0\noutput 0 1\nNAND 0 0 1\n")


def test_identity_circuit():
    c = Circuit(1, [], ((0,),), ((0,),))
    validate(c)
    assert eval_plain(c, [[1]]) == [[1]]


# --- gadget fragments ----------------------------------------------------

GADGET_KINDS = (
    "adder", "multiplier", "comparator", "mux",
    "subtractor", "isqrt", "divider", "swap",
)


def build_gadget(kind: str, w: int = 16) -> Circuit:
    """Standalone circuit fragment for one named gadget over w-bit operands.

    Output widths: adder and subtractor return w bits (mod 2^w), multiplier
    returns the full 2w-bit product, comparator returns a single bit
    (1 iff first >= second), divider returns the w-bit quotient, isqrt
    returns ceil(w/2) bits, mux returns w bits, swap returns two w-bit
    groups. Select-bit convention for mux/swap: 0 keeps the operand order.
    """
    if not isinstance(w, int) or not 1 <= w <= 64:
        raise GadgetWidthError(f"unsupported gadget width {w!r}")
    if kind not in GADGET_KINDS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    bld = Builder()
    if kind == "adder":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([add(bld, a, b)[1:]])
    if kind == "subtractor":
        a, b = bld.inputs(w), bld.inputs(w)
        diff, _ = sub(bld, a, b)
        return bld.finish([diff])
    if kind == "multiplier":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([mul(bld, a, b)])
    if kind == "comparator":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([[ge(bld, a, b)]])
    if kind == "mux":
        sel, a, b = bld.inputs(1), bld.inputs(w), bld.inputs(w)
        return bld.finish([mux(bld, sel[0], a, b)])
    if kind == "swap":
        sel, a, b = bld.inputs(1), bld.inputs(w), bld.inputs(w)
        x, y = cond_swap(bld, sel[0], a, b)
        return bld.finish([x, y])
    if kind == "isqrt":
        a = bld.inputs(w)
        return bld.finish([isqrt(bld, a)])
    a, d = bld.inputs(w), bld.inputs(w)
    return bld.finish([divide(bld, a, d)])


def run1(circuit, *operands):
    groups = [int_to_bits(v, len(g)) for v, g in zip(operands, circuit.input_map)]
    return [bits_to_int(g) for g in eval_plain(circuit, groups)]


def test_gadget_handworked_values():
    assert run1(build_gadget("comparator", 16), 5, 3) == [1]
    assert run1(build_gadget("isqrt", 16), 170) == [13]
    assert run1(build_gadget("divider", 16), 100, 7) == [14]
    # 2-bit adder on (1, 1): output bits (1, 0), i.e. 2.
    adder2 = build_gadget("adder", 2)
    assert eval_plain(adder2, [[0, 1], [0, 1]]) == [[1, 0]]


def test_mux_and_swap_select_conventions():
    m = build_gadget("mux", 4)
    assert run1(m, 0, 9, 5) == [9]
    assert run1(m, 1, 9, 5) == [5]
    s = build_gadget("swap", 4)
    assert run1(s, 0, 9, 5) == [9, 5]
    assert run1(s, 1, 9, 5) == [5, 9]


def test_gadget_width_errors():
    for w in (0, -1, 65, "16"):
        with pytest.raises(GadgetWidthError):
            build_gadget("adder", w)
    with pytest.raises(ValueError):
        build_gadget("barrel-shifter", 8)


GADGET_ORACLES = {
    "adder": lambda a, b, w: (a + b) % (1 << w),
    "subtractor": lambda a, b, w: (a - b) % (1 << w),
    "multiplier": lambda a, b, w: a * b,
    "comparator": lambda a, b, w: int(a >= b),
    "divider": lambda a, b, w: a // b if b else (1 << w) - 1,
}


def test_two_operand_gadgets_exhaustive_small_width():
    w = 3
    for kind, oracle in GADGET_ORACLES.items():
        g = build_gadget(kind, w)
        for a in range(8):
            for b in range(8):
                assert run1(g, a, b) == [oracle(a, b, w)], (kind, a, b)


def sub_groups(bld, a, b):
    diff, borrow = sub(bld, a, b)
    return [diff, [borrow]]


# gadget -> (output groups from two buses, expected groups from their
# values x, y and the width w)
ARITHMETIC = {
    "add": (lambda bld, a, b: [add(bld, a, b)],
            lambda x, y, w: [int_to_bits(x + y, w + 1)]),
    "sub": (sub_groups,
            lambda x, y, w: [int_to_bits((x - y) % (1 << w), w), [int(x < y)]]),
    "ge": (lambda bld, a, b: [[ge(bld, a, b)]], lambda x, y, w: [[int(x >= y)]]),
    "gt": (lambda bld, a, b: [[gt(bld, a, b)]], lambda x, y, w: [[int(x > y)]]),
}


def test_arithmetic_on_mixed_constant_and_input_bits_exhaustive():
    # Each operand bit is an input ("x") or a builder constant, so both the
    # one-AND carry/borrow and the constant-folded form are exercised, and
    # every assignment of the input bits is checked against integers.
    rng = random.Random("mixed-operands")
    for w in range(1, 5):
        patterns = [("x" * w, "x" * w), ("x" * w, "1" * w), ("0" * w, "x" * w)]
        patterns += [("".join(rng.choice("xx01") for _ in range(w)),
                      "".join(rng.choice("xx01") for _ in range(w)))
                     for _ in range(12)]
        for pa, pb in patterns:
            n_in = (pa + pb).count("x")
            if not n_in:
                continue
            for kind, (gadget, oracle) in ARITHMETIC.items():
                bld = Builder()
                inputs = iter(bld.inputs(n_in))
                a, b = ([next(inputs) if p == "x" else bld.const(int(p))
                         for p in pattern] for pattern in (pa, pb))
                circuit = bld.finish(gadget(bld, a, b))
                for value in range(1 << n_in):
                    bits = iter(int_to_bits(value, n_in))
                    x, y = (bits_to_int([next(bits) if p == "x" else int(p)
                                         for p in pattern])
                            for pattern in (pa, pb))
                    assert eval_plain(circuit, [int_to_bits(value, n_in)]) \
                        == oracle(x, y, w), (kind, pa, pb, x, y)


def test_two_operand_gadgets_random_w16():
    rng = random.Random(77)
    gadgets = {kind: build_gadget(kind, 16) for kind in GADGET_ORACLES}
    for _ in range(1000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        for kind, oracle in GADGET_ORACLES.items():
            assert run1(gadgets[kind], a, b) == [oracle(a, b, 16)], (kind, a, b)


def test_isqrt_exhaustive_w8_and_random_w16():
    g8 = build_gadget("isqrt", 8)
    for v in range(256):
        assert run1(g8, v) == [math.isqrt(v)], v
    g16 = build_gadget("isqrt", 16)
    rng = random.Random(3)
    for _ in range(500):
        v = rng.randrange(1 << 16)
        assert run1(g16, v) == [math.isqrt(v)], v
    g5 = build_gadget("isqrt", 5)
    for v in range(32):
        assert run1(g5, v) == [math.isqrt(v)], v


def test_mux_random_and_exhaustive_masks():
    rng = random.Random(4)
    g = build_gadget("mux", 16)
    for _ in range(500):
        s, a, b = rng.randrange(2), rng.randrange(1 << 16), rng.randrange(1 << 16)
        assert run1(g, s, a, b) == [a if s == 0 else b]


# --- sorting network ------------------------------------------------------

def build_sorting_network(n: int, key_width: int, payload_width: int = 0) -> Circuit:
    """Stable descending sort of n records by key, payloads carried along.

    Ties break toward the earlier input position: internally each record is
    extended with its original index and the comparison key is
    (key descending, index ascending), which makes the network's order total
    and the result identical to a stable descending comparison sort.
    """
    if n < 1:
        raise GadgetWidthError("sorting network needs n >= 1")
    if key_width < 1 or payload_width < 0:
        raise GadgetWidthError("bad key or payload width")
    bld = Builder()
    groups = [bld.inputs(key_width + payload_width) for _ in range(n)]
    idx_w = max(1, (n - 1).bit_length())
    records = [bits[:key_width] + const_bus(bld, i, idx_w) + bits[key_width:]
               for i, bits in enumerate(groups)]

    def rank_before(b, x, y):
        kx, ix = x[:key_width], x[key_width:key_width + idx_w]
        ky, iy = y[:key_width], y[key_width:key_width + idx_w]
        key_gt = gt(b, kx, ky)
        key_eq = eq(b, kx, ky)
        idx_lt = gt(b, iy, ix)
        return b.OR(key_gt, b.AND(key_eq, idx_lt))

    ranked = odd_even_merge_sort(bld, records, rank_before)
    return bld.finish([r[:key_width] + r[key_width + idx_w:] for r in ranked])


def sort_oracle(keys):
    """Stable descending sort; returns the permuted original indices."""
    return sorted(range(len(keys)), key=lambda i: (-keys[i], i))


def run_network(n, key_w, payload_w, keys, payloads):
    c = build_sorting_network(n, key_w, payload_w)
    ins = [int_to_bits(k, key_w) + int_to_bits(p, payload_w)
           for k, p in zip(keys, payloads)]
    outs = eval_plain(c, ins)
    return [(bits_to_int(o[:key_w]), bits_to_int(o[key_w:])) for o in outs]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
def test_sorting_network_matches_stable_descending_sort(n):
    rng = random.Random(100 + n)
    for _ in range(60):
        keys = [rng.randrange(1 << 16) for _ in range(n)]
        payloads = list(range(n))
        got = run_network(n, 16, 8, keys, payloads)
        want = [(keys[i], i) for i in sort_oracle(keys)]
        assert got == want


def test_sorting_network_handles_heavy_ties():
    rng = random.Random(9)
    for _ in range(40):
        n = 8
        keys = [rng.randrange(3) for _ in range(n)]
        got = run_network(n, 4, 8, keys, list(range(n)))
        want = [(keys[i], i) for i in sort_oracle(keys)]
        assert got == want


def test_sorting_network_is_a_permutation():
    rng = random.Random(10)
    n = 6
    keys = [rng.randrange(1 << 8) for _ in range(n)]
    got = run_network(n, 8, 8, keys, list(range(n)))
    assert sorted(p for _, p in got) == list(range(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_odd_even_network_sorts_every_zero_one_input(n):
    # 1-bit keys with index tie-breaks: each key vector is one threshold of
    # a permutation, so sorting all 2^n of them sorts every input (0-1
    # principle).
    for value in range(1 << n):
        keys = int_to_bits(value, n)
        got = run_network(n, 1, 3, keys, list(range(n)))
        assert got == [(keys[i], i) for i in sort_oracle(keys)], keys


@pytest.mark.parametrize("n,comparators", [(6, 12), (8, 19), (16, 63)])
def test_odd_even_network_comparator_count(n, comparators):
    calls = []

    def rank_before(bld, x, y):
        calls.append((x, y))
        return x[0]

    bld = Builder()
    odd_even_merge_sort(bld, [bld.inputs(1) for _ in range(n)], rank_before)
    assert len(calls) == comparators


# --- division and the dead-gate sweep --------------------------------------

def test_divide_by_a_narrower_divisor_exhaustive():
    for wd in range(1, 4):
        bld = Builder()
        a, d = bld.inputs(6), bld.inputs(wd)
        circuit = bld.finish([divide(bld, a, d)])
        for x in range(1 << 6):
            for y in range(1 << wd):
                want = x // y if y else (1 << 6) - 1
                assert run1(circuit, x, y) == [want], (wd, x, y)


def test_finish_drops_dead_gates_and_numbers_inputs_first():
    bld = Builder()
    a = bld.inputs(2)
    bld.AND(a[0], a[1])  # read by nothing
    live = bld.XOR(a[0], a[1])
    b = bld.inputs(1)  # declared after a gate
    circuit = bld.finish([[bld.OR(live, b[0])]])
    validate(circuit)
    assert circuit.input_map == ((0, 1), (2,))
    assert [g[0] for g in circuit.gates] == [XOR, OR]
    for x in range(4):
        for y in range(2):
            bits = int_to_bits(x, 2)
            assert eval_plain(circuit, [bits, [y]]) == [[(bits[0] ^ bits[1]) | y]]


@pytest.mark.parametrize("bidders", [2, 6])
def test_auction_circuit_has_no_dead_gates(bidders):
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    circuit = build_auction_circuit(config, bidders)
    validate(circuit)
    group = 2 * config.vm_types * config.width
    assert circuit.input_map == tuple(
        tuple(range(j * group, (j + 1) * group)) for j in range(bidders))
    reaches_output = set(circuit.output_wires)
    for kind, a, b, out in reversed(circuit.gates):
        assert out in reaches_output
        reaches_output.add(a)
        if kind != NOT:
            reaches_output.add(b)
