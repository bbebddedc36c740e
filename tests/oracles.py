"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain Python semantics
(recursion, ints, sorted) rather than reusing package internals, so a bug in
the package cannot hide inside its own oracle.
"""

from __future__ import annotations

import hashlib
import sys

from dualgc.circuits import AND, NOT, OR, XOR, Circuit


def recursive_eval(circuit: Circuit, inputs) -> list[list[int]]:
    """Naive memoized recursion from the output wires."""
    value: dict[int, int] = {}
    for group, bits in zip(circuit.input_map, inputs):
        for w, b in zip(group, bits):
            value[w] = b
    producer = {out: (kind, a, b) for kind, a, b, out in circuit.gates}
    sys.setrecursionlimit(max(10_000, len(circuit.gates) * 4))

    def val(w: int) -> int:
        if w in value:
            return value[w]
        kind, a, b = producer[w]
        if kind == NOT:
            r = 1 - val(a)
        elif kind == AND:
            r = val(a) & val(b)
        elif kind == OR:
            r = val(a) | val(b)
        else:
            r = val(a) ^ val(b)
        value[w] = r
        return r

    return [[val(w) for w in group] for group in circuit.output_map]


def random_circuit(rng, max_gates: int = 64) -> Circuit:
    """Random topologically valid circuit with 1-2 input/output groups."""
    n_groups = rng.randrange(1, 3)
    wire = 0
    input_map = []
    for _ in range(n_groups):
        size = rng.randrange(1, 7)
        input_map.append(tuple(range(wire, wire + size)))
        wire += size
    gates = []
    for _ in range(rng.randrange(1, max_gates + 1)):
        kind = rng.choice((AND, OR, XOR, NOT))
        a = rng.randrange(wire)
        b = -1 if kind == NOT else rng.randrange(wire)
        gates.append((kind, a, b, wire))
        wire += 1
    out_groups = []
    for _ in range(rng.randrange(1, 3)):
        size = rng.randrange(1, min(7, wire + 1))
        out_groups.append(tuple(rng.sample(range(wire), size)))
    return Circuit(wire, gates, tuple(input_map), tuple(out_groups))


def random_inputs(rng, circuit: Circuit) -> list[list[int]]:
    return [[rng.randrange(2) for _ in group] for group in circuit.input_map]


# --- cut-and-choose wire harness --------------------------------------------

def _aggregate(labels) -> bytes:
    """XOR of the labels' SHA-256 hashes, as integers."""
    acc = 0
    for label in labels:
        acc ^= int.from_bytes(hashlib.sha256(label).digest(), "big")
    return acc.to_bytes(32, "big")


def wire_outcome(material, rho):
    """Drive one wire's consistency protocol between two honest parties.

    Returns "construction" (a check copy is not its seed's), "label_p1"/"label_p2"
    (that party's triples failed the provider's label sets), "pass" (labels
    agree on the provider's bit) or "divergent" (checks passed but the two
    circuits received different bits). The provider attests, per circuit,
    the unordered pair of aggregates over the evaluation copies; a party's
    own encoding must give its circuit's pair and its cross labels one
    member of the other circuit's pair.
    """
    from dualgc.consistency import (check_pair_construction,
                                    evaluate_final_labels, open_eval_triple,
                                    open_position)

    bad = False
    for j, bit in enumerate(rho):
        if bit and not check_pair_construction(material.copies[j].pair,
                                               material.copies[j].seed):
            bad = True  # honest parties aggregate before aborting
    if bad:
        return "construction"
    p1_triples = []
    p2_triples = []
    for j, bit in enumerate(rho):
        if bit:
            continue
        pair = material.copies[j].pair
        pos_op, first, second = material.eval_openings(j)
        p = open_position(pair, pos_op)
        assert p is not None
        t1 = open_eval_triple(pair, p, 0, first)
        t2 = open_eval_triple(pair, p, 1, second)
        assert t1 is not None and t2 is not None
        p1_triples.append(t1)
        p2_triples.append(t2)
    # An honest provider's sets: what it opened is what the parties hold.
    sets = [{_aggregate(t[0] for t in triples),
             _aggregate(t[1] for t in triples)}
            for triples in (p1_triples, p2_triples)]
    for name, own, triples in (("label_p1", 0, p1_triples),
                               ("label_p2", 1, p2_triples)):
        if _aggregate(t[2] for t in triples) not in sets[1 - own]:
            return name
    enc1, cross2 = evaluate_final_labels(p1_triples)
    enc2, cross1 = evaluate_final_labels(p2_triples)
    bit1 = 0 if cross1 == enc1.zero else 1 if cross1 == enc1.one else None
    bit2 = 0 if cross2 == enc2.zero else 1 if cross2 == enc2.one else None
    assert bit1 is not None and bit2 is not None
    if bit1 == material.x and bit2 == material.x:
        return "pass"
    return "divergent"


def expected_wire_outcome(pattern, rho):
    """Combinatorial prediction of wire_outcome for a tampered wire."""
    if any(bit and not ok for bit, ok in zip(rho, pattern)):
        return "construction"
    eval_flags = {ok for bit, ok in zip(rho, pattern) if not bit}
    if eval_flags == {True, False}:
        return "label_p1"
    if eval_flags == {False}:
        return "divergent"
    return "pass"
