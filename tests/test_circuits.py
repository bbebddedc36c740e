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
from dualgc.errors import GadgetWidthError, InputShapeError
from dualgc.gadgets import (Builder, add, build_gadget, build_sorting_network,
                            ge, gt, sub)

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
