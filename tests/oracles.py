"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain Python semantics
(recursion, ints, sorted) rather than reusing package internals, so a bug in
the package cannot hide inside its own oracle.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass

from dualgc.circuits import AND, NOT, OR, XOR, Circuit
from dualgc.errors import EncodingCoverageError, EvaluationError, ProtocolError
from dualgc.garbling import Encoding


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
    """Random topologically valid circuit with 1-2 input/output groups.

    Unary and self gates read internal wires only: input labels are fixed
    by the caller, and a row-tail collision on such a gate would make the
    circuit ungarbleable (garble refuses it).
    """
    n_groups = rng.randrange(1, 3)
    wire = 0
    input_map = []
    for _ in range(n_groups):
        size = rng.randrange(1, 7)
        input_map.append(tuple(range(wire, wire + size)))
        wire += size
    if wire < 2:
        input_map[0] = (0, 1)
        wire = 2
    n_inputs = wire
    gates = []
    for _ in range(rng.randrange(1, max_gates + 1)):
        kind = rng.choice((AND, OR, XOR, NOT))
        if kind == NOT and wire == n_inputs:
            kind = rng.choice((AND, OR, XOR))
        if kind == NOT:
            a, b = rng.randrange(n_inputs, wire), -1
        else:
            a = rng.randrange(wire)
            b = rng.randrange(wire)
            if a == b and a < n_inputs:
                b = (rng.randrange(n_inputs, wire) if wire > n_inputs
                     else (a + 1) % n_inputs)
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

def wire_outcome(material, rho, rng):
    """Drive one wire's consistency protocol between two honest parties.

    Returns "construction" (a check copy failed), "label_p1"/"label_p2"
    (hash comparison failed on that side), "pass" (labels agree on the
    provider's bit) or "divergent" (checks passed but the two circuits
    received different bits).
    """
    from dualgc.consistency import (check_pair_construction,
                                    cross_hash_aggregate,
                                    evaluate_final_labels, label_check_passes,
                                    make_hash_tuple, open_eval_triple,
                                    open_position)

    bad = False
    for j, bit in enumerate(rho):
        if bit and check_pair_construction(
                material.copies[j].pair, material.check_openings(j)):
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
    tup1, _sec1 = make_hash_tuple(rng, p1_triples)
    tup2, _sec2 = make_hash_tuple(rng, p2_triples)
    if not label_check_passes(cross_hash_aggregate(p1_triples), tup2):
        return "label_p1"
    if not label_check_passes(cross_hash_aggregate(p2_triples), tup1):
        return "label_p2"
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


# --- reference garbling -------------------------------------------------------
#
# The list-of-rows garbling scheme that ``dualgc.garbling`` rewrote for speed,
# kept verbatim (renamed, with its own result class) as the byte-exact
# reference: the rewrite must produce the same tables blob and encodings for
# the same inputs, and evaluate to the same labels or the same exception type.

LABEL_BYTES = 16
ROW_BYTES = LABEL_BYTES + 2
AUTH_ZERO = b"\x00\x00"
MAX_GARBLE_ATTEMPTS = 64

_sha256 = hashlib.sha256
_ROW_TAG = [bytes([r]) for r in range(4)]


@dataclass
class ReferenceGarbledCircuit:
    circuit_hash: bytes
    tables: list[list[bytes]]
    input_encodings: dict[int, Encoding]
    output_encodings: dict[int, Encoding]
    wire_encodings: dict[int, Encoding] | None = None

    def tables_blob(self) -> bytes:
        """Wire format: circuit hash (32) || gate count (4 BE) || rows in gate order."""
        parts = [self.circuit_hash, len(self.tables).to_bytes(4, "big")]
        for rows in self.tables:
            parts.extend(rows)
        return b"".join(parts)


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def reference_parse_tables_blob(circuit: Circuit, blob: bytes) -> list[list[bytes]]:
    """Split a received blob back into per-gate tables; checks the header."""
    if len(blob) < 36:
        raise ProtocolError("garbled circuit blob too short")
    if blob[:32] != circuit.hash():
        raise ProtocolError("garbled circuit hash does not match the agreed circuit")
    count = int.from_bytes(blob[32:36], "big")
    if count != len(circuit.gates):
        raise ProtocolError("garbled circuit gate count mismatch")
    tables = []
    off = 36
    for kind, _a, _b, _out in circuit.gates:
        n_rows = 2 if kind == NOT else 4
        rows = [blob[off + i * ROW_BYTES: off + (i + 1) * ROW_BYTES] for i in range(n_rows)]
        off += n_rows * ROW_BYTES
        tables.append(rows)
    if off != len(blob):
        raise ProtocolError("garbled circuit blob has trailing bytes")
    return tables


def _fresh_pair(rng: random.Random) -> Encoding:
    # Complementary LSBs so internal point-and-permute rows never collide.
    zero = rng.randbytes(LABEL_BYTES)
    one = rng.randbytes(LABEL_BYTES)
    one = one[:-1] + bytes([(one[-1] & 0xFE) | ((zero[-1] & 1) ^ 1)])
    return Encoding(zero, one)


def _row2(ka: bytes, kb: bytes, gate_tag: bytes, row: int) -> bytes:
    return _sha256(ka + kb + gate_tag + _ROW_TAG[row]).digest()[:ROW_BYTES]


def _row1(ka: bytes, gate_tag: bytes, row: int) -> bytes:
    return _sha256(ka + gate_tag + _ROW_TAG[row]).digest()[:ROW_BYTES]


def reference_garble(circuit: Circuit, input_encodings: dict[int, Encoding], rng_seed,
           *, keep_wire_encodings: bool = False) -> ReferenceGarbledCircuit:
    """Garble ``circuit`` under externally supplied input-wire encodings.

    Internal wires receive fresh labels derived from ``rng_seed``. The
    returned object keeps the input and output encodings; they are never
    serialized into the tables blob.
    """
    input_wires = circuit.input_wires
    input_set = frozenset(input_wires)
    for w in input_wires:
        e = input_encodings.get(w)
        if e is None:
            raise EncodingCoverageError(f"input wire {w} lacks an encoding")
        if e.zero == e.one:
            raise ValueError(f"degenerate encoding on input wire {w}")
        if len(e.zero) != LABEL_BYTES or len(e.one) != LABEL_BYTES:
            raise ValueError("labels must be 16 bytes")

    # A unary or self gate on an input wire derives both of its true rows
    # from the wire's fixed labels at fixed row positions, so a 16-bit
    # auth-tail collision there survives every redraw.  Refuse up front
    # instead of burning all attempts.
    for gi, (kind, a, b, _out) in enumerate(circuit.gates):
        if a not in input_set or (kind != NOT and a != b):
            continue
        gate_tag = gi.to_bytes(4, "big")
        e = input_encodings[a]
        for r in (0, 1) if kind == NOT else (0, 3):
            if kind == NOT:
                t0, t1 = _row1(e.zero, gate_tag, r), _row1(e.one, gate_tag, r)
            else:
                t0 = _row2(e.zero, e.zero, gate_tag, r)
                t1 = _row2(e.one, e.one, gate_tag, r)
            if t0[LABEL_BYTES:] == t1[LABEL_BYTES:]:
                raise ValueError(
                    f"gate {gi} reads input wire {a} as a unary or self "
                    f"gate and the wire's labels collide under the row "
                    f"hash; no unambiguous table exists - route the wire "
                    f"through an internal gate first")

    for attempt in range(MAX_GARBLE_ATTEMPTS):
        rng = random.Random(f"garble:{rng_seed}:{attempt}")
        enc: dict[int, Encoding] = dict(input_encodings)
        pointer_bit = {w: rng.getrandbits(1) for w in input_wires}
        tables: list[list[bytes]] = []
        ambiguous = False

        for gi, (kind, a, b, out) in enumerate(circuit.gates):
            out_enc = _fresh_pair(rng)
            enc[out] = out_enc
            gate_tag = gi.to_bytes(4, "big")
            ea = enc[a]
            a_is_input = a in input_set

            if kind == NOT:
                rows: list[bytes | None] = [None, None]
                for bit in (0, 1):
                    la = ea.label(bit)
                    r = (bit ^ pointer_bit[a]) if a_is_input else (la[-1] & 1)
                    msg = out_enc.label(1 - bit) + AUTH_ZERO
                    rows[r] = _xor_bytes(_row1(la, gate_tag, r), msg)
                if a_is_input:
                    for bit in (0, 1):
                        la = ea.label(bit)
                        true_r = bit ^ pointer_bit[a]
                        other = 1 - true_r
                        if _xor_bytes(_row1(la, gate_tag, other), rows[other])[-2:] == AUTH_ZERO:
                            ambiguous = True
                tables.append(rows)  # type: ignore[arg-type]
                if ambiguous:
                    break
                continue

            eb = enc[b]
            b_is_input = b in input_set
            rows = [None, None, None, None]
            combos = [(x, x) for x in (0, 1)] if a == b else \
                     [(x, y) for x in (0, 1) for y in (0, 1)]
            for bit_a, bit_b in combos:
                la, lb = ea.label(bit_a), eb.label(bit_b)
                pa = (bit_a ^ pointer_bit[a]) if a_is_input else (la[-1] & 1)
                pb = (bit_b ^ pointer_bit[b]) if b_is_input else (lb[-1] & 1)
                r = pa * 2 + pb
                if kind == AND:
                    out_bit = bit_a & bit_b
                elif kind == OR:
                    out_bit = bit_a | bit_b
                else:
                    out_bit = bit_a ^ bit_b
                rows[r] = _xor_bytes(_row2(la, lb, gate_tag, r),
                                    out_enc.label(out_bit) + AUTH_ZERO)
            for r in range(4):
                if rows[r] is None:
                    rows[r] = rng.randbytes(ROW_BYTES)

            if a_is_input or b_is_input:
                for bit_a, bit_b in combos:
                    la, lb = ea.label(bit_a), eb.label(bit_b)
                    pa = (bit_a ^ pointer_bit[a]) if a_is_input else (la[-1] & 1)
                    pb = (bit_b ^ pointer_bit[b]) if b_is_input else (lb[-1] & 1)
                    true_r = pa * 2 + pb
                    cand_a = (0, 1) if a_is_input else (pa,)
                    cand_b = (0, 1) if b_is_input else (pb,)
                    if a == b:
                        candidates = [(p, p) for p in cand_a]
                    else:
                        candidates = [(x, y) for x in cand_a for y in cand_b]
                    for ca, cb in candidates:
                        r = ca * 2 + cb
                        if r == true_r:
                            continue
                        if _xor_bytes(_row2(la, lb, gate_tag, r), rows[r])[-2:] == AUTH_ZERO:
                            ambiguous = True
                            break
                    if ambiguous:
                        break
            tables.append(rows)  # type: ignore[arg-type]
            if ambiguous:
                break

        if not ambiguous:
            out_enc_map = {w: enc[w] for w in circuit.output_wires}
            return ReferenceGarbledCircuit(
                circuit.hash(), tables, dict(input_encodings), out_enc_map,
                wire_encodings=enc if keep_wire_encodings else None)

    raise RuntimeError("garbling kept producing ambiguous tables")  # pragma: no cover


def reference_evaluate(circuit: Circuit, tables: list[list[bytes]],
             input_labels: dict[int, bytes]) -> list[list[bytes]]:
    """Evaluate garbled tables on one label per input wire.

    Returns labels grouped like the circuit's output map. Raises
    EvaluationError when no candidate row (or more than one) authenticates.
    """
    input_set = frozenset(circuit.input_wires)
    vals: dict[int, bytes] = {}
    for w in input_set:
        lab = input_labels.get(w)
        if lab is None:
            raise EncodingCoverageError(f"input wire {w} lacks a label")
        vals[w] = lab
    for gi, (kind, a, b, out) in enumerate(circuit.gates):
        gate_tag = gi.to_bytes(4, "big")
        la = vals[a]
        rows = tables[gi]
        if kind == NOT:
            cands = (0, 1) if a in input_set else ((la[-1] & 1),)
            found = None
            for r in cands:
                dec = _xor_bytes(_row1(la, gate_tag, r), rows[r])
                if dec[-2:] == AUTH_ZERO:
                    if found is not None:
                        raise EvaluationError(f"gate {gi}: ambiguous rows")
                    found = dec[:LABEL_BYTES]
            if found is None:
                raise EvaluationError(f"gate {gi}: no row authenticates")
            vals[out] = found
            continue
        lb = vals[b]
        cand_a = (0, 1) if a in input_set else ((la[-1] & 1),)
        cand_b = (0, 1) if b in input_set else ((lb[-1] & 1),)
        if a == b:
            pairs = [(p, p) for p in cand_a]
        else:
            pairs = [(x, y) for x in cand_a for y in cand_b]
        found = None
        for pa, pb in pairs:
            r = pa * 2 + pb
            dec = _xor_bytes(_row2(la, lb, gate_tag, r), rows[r])
            if dec[-2:] == AUTH_ZERO:
                if found is not None:
                    raise EvaluationError(f"gate {gi}: ambiguous rows")
                found = dec[:LABEL_BYTES]
        if found is None:
            raise EvaluationError(f"gate {gi}: no row authenticates")
        vals[out] = found
    return [[vals[w] for w in group] for group in circuit.output_map]
