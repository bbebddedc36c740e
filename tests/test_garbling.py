"""Garbling scheme tests: row format, correctness, authenticity, obliviousness."""

import hashlib
import random

import pytest

from dualgc.circuits import AND, NOT, OR, XOR, Circuit, eval_plain, int_to_bits
from dualgc.errors import (DecodeError, EncodingCoverageError, EvaluationError,
                           ProtocolError)
from dualgc.garbling import (AUTH_ZERO, LABEL_BYTES, ROW_BYTES, Encoding,
                             GarbledCircuit, decode, evaluate, garble,
                             gate_rows, parse_tables_blob,
                             random_input_encodings, select_labels, xor_bytes)

from oracles import random_circuit, random_inputs


def two_in_circuit(kind):
    return Circuit(wire_count=3, gates=[(kind, 0, 1, 2)],
                   input_map=[[0], [1]], output_map=[[2]])


def rows_of(circuit, tables, gi):
    """Gate ``gi``'s rows, read at the offsets ``evaluate`` reads."""
    return [tables[o:o + ROW_BYTES] for o in gate_rows(circuit, gi)]


def run_garbled(circuit, inputs, seed=0):
    """Garble, evaluate and decode; returns output bit groups."""
    rng = random.Random(seed)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, seed)
    bits = {}
    for group, vals in zip(circuit.input_map, inputs):
        for w, v in zip(group, vals):
            bits[w] = v
    out_labels = evaluate(circuit, gc.tables, select_labels(enc, bits))
    return [decode(group, [gc.output_encodings[w] for w in wires])
            for group, wires in zip(out_labels, circuit.output_map)]


# [DERIVED] row format pinned against an independent hashlib recomputation:
# pad = SHA-256(K_a || K_b || gate_index_be4 || row_byte)[:18],
# row XOR pad = output_label || 0x0000 for exactly one candidate row.
def test_row_format_matches_hash_recomputation():
    circuit = two_in_circuit(OR)
    rng = random.Random(7)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 7, keep_wire_encodings=True)
    out_enc = gc.wire_encodings[2]
    rows = rows_of(circuit, gc.tables, 0)
    assert len(rows) == 4 and all(len(r) == ROW_BYTES for r in rows)
    for ba in (0, 1):
        for bb in (0, 1):
            la, lb = enc[0].label(ba), enc[1].label(bb)
            hits = []
            for r in range(4):
                pad = hashlib.sha256(
                    la + lb + (0).to_bytes(4, "big") + bytes([r])).digest()[:18]
                dec = bytes(x ^ y for x, y in zip(pad, rows[r]))
                if dec[16:] == b"\x00\x00":
                    hits.append(dec[:16])
            assert len(hits) == 1
            assert hits[0] == out_enc.label(ba | bb)


def test_not_gate_rows_and_format():
    circuit = Circuit(wire_count=2, gates=[(NOT, 0, -1, 1)],
                      input_map=[[0]], output_map=[[1]])
    rng = random.Random(3)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 3, keep_wire_encodings=True)
    rows = rows_of(circuit, gc.tables, 0)
    assert len(rows) == 2
    for bit in (0, 1):
        la = enc[0].label(bit)
        hits = []
        for r in range(2):
            pad = hashlib.sha256(la + (0).to_bytes(4, "big") + bytes([r])).digest()[:18]
            dec = bytes(x ^ y for x, y in zip(pad, rows[r]))
            if dec[16:] == b"\x00\x00":
                hits.append(dec[:16])
        assert hits == [gc.wire_encodings[1].label(1 - bit)]


@pytest.mark.parametrize("kind,table", [
    (AND, [0, 0, 0, 1]), (OR, [0, 1, 1, 1]), (XOR, [0, 1, 1, 0]),
])
def test_single_gate_truth_tables(kind, table):
    circuit = two_in_circuit(kind)
    for idx, (ba, bb) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert run_garbled(circuit, [[ba], [bb]], seed=idx) == [[table[idx]]]


def test_not_truth_table():
    circuit = Circuit(wire_count=2, gates=[(NOT, 0, -1, 1)],
                      input_map=[[0]], output_map=[[1]])
    assert run_garbled(circuit, [[0]]) == [[1]]
    assert run_garbled(circuit, [[1]]) == [[0]]


def test_identity_circuit_passes_input_labels_through():
    circuit = Circuit(wire_count=2, gates=[], input_map=[[0, 1]], output_map=[[1, 0]])
    rng = random.Random(1)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 1)
    labels = evaluate(circuit, gc.tables, select_labels(enc, {0: 1, 1: 0}))
    assert labels == [[enc[1].zero, enc[0].one]]
    assert decode(labels[0], [gc.output_encodings[1], gc.output_encodings[0]]) == [0, 1]


def test_colliding_pointer_bits_still_evaluate():
    # Both input encodings share the same LSB pattern on purpose; only the
    # trial-evaluation path can disambiguate the first-layer rows.
    circuit = two_in_circuit(AND)
    rng = random.Random(11)
    enc = {}
    for w in (0, 1):
        zero = rng.randbytes(15) + b"\x00"
        one = rng.randbytes(15) + b"\x00"
        enc[w] = Encoding(zero, one)
    gc = garble(circuit, enc, 11, keep_wire_encodings=True)
    for ba in (0, 1):
        for bb in (0, 1):
            labels = evaluate(circuit, gc.tables,
                              {0: enc[0].label(ba), 1: enc[1].label(bb)})
            assert decode(labels[0], [gc.wire_encodings[2]]) == [ba & bb]


def test_gate_with_repeated_operand():
    circuit = Circuit(wire_count=2, gates=[(XOR, 0, 0, 1)],
                      input_map=[[0]], output_map=[[1]])
    for bit in (0, 1):
        assert run_garbled(circuit, [[bit]], seed=bit) == [[0]]
    circuit = Circuit(wire_count=2, gates=[(OR, 0, 0, 1)],
                      input_map=[[0]], output_map=[[1]])
    for bit in (0, 1):
        assert run_garbled(circuit, [[bit]], seed=bit) == [[bit]]


def test_random_circuits_match_plain_evaluation():
    rng = random.Random(2024)
    for _ in range(150):
        circuit = random_circuit(rng)
        inputs = random_inputs(rng, circuit)
        assert run_garbled(circuit, inputs, seed=rng.random()) == \
            eval_plain(circuit, inputs)


def test_garbling_is_deterministic_per_seed():
    circuit = two_in_circuit(XOR)
    rng = random.Random(5)
    enc = random_input_encodings(circuit, rng)
    blob_a = garble(circuit, enc, "s1").tables_blob()
    blob_b = garble(circuit, enc, "s1").tables_blob()
    blob_c = garble(circuit, enc, "s2").tables_blob()
    assert blob_a == blob_b
    assert blob_a != blob_c


def test_tables_blob_round_trip_and_header_checks():
    rng = random.Random(6)
    circuit = random_circuit(rng, max_gates=20)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 6)
    blob = gc.tables_blob()
    assert blob[:32] == circuit.hash()
    assert parse_tables_blob(circuit, blob) == gc.tables
    with pytest.raises(ProtocolError):
        parse_tables_blob(circuit, b"\x00" * 35)
    with pytest.raises(ProtocolError):
        parse_tables_blob(circuit, b"\x00" + blob[1:])
    with pytest.raises(ProtocolError):
        parse_tables_blob(circuit, blob[:32] + (len(circuit.gates) + 1).to_bytes(4, "big")
                          + blob[36:])
    with pytest.raises(ProtocolError):
        parse_tables_blob(circuit, blob + b"\x00")


def test_missing_input_encoding_or_label():
    circuit = two_in_circuit(AND)
    rng = random.Random(8)
    enc = random_input_encodings(circuit, rng)
    with pytest.raises(EncodingCoverageError):
        garble(circuit, {0: enc[0]}, 8)
    gc = garble(circuit, enc, 8)
    with pytest.raises(EncodingCoverageError):
        evaluate(circuit, gc.tables, {0: enc[0].zero})


def test_degenerate_and_malformed_encodings_rejected():
    circuit = two_in_circuit(AND)
    lab = bytes(16)
    with pytest.raises(ValueError):
        garble(circuit, {0: Encoding(lab, lab), 1: Encoding(lab, b"\x01" * 16)}, 0)
    with pytest.raises(ValueError):
        garble(circuit, {0: Encoding(b"\x00" * 4, b"\x01" * 4),
                         1: Encoding(lab, b"\x01" * 16)}, 0)


def test_decode_rejects_foreign_labels():
    rng = random.Random(9)
    enc = Encoding(rng.randbytes(16), rng.randbytes(16))
    assert decode([enc.zero, enc.one], [enc, enc]) == [0, 1]
    for _ in range(10_000):
        lab = rng.randbytes(16)
        if lab in (enc.zero, enc.one):  # pragma: no cover
            continue
        with pytest.raises(DecodeError):
            decode([lab], [enc])


def test_row_tampering_never_yields_silent_wrong_output():
    rng = random.Random(31337)
    flagged = 0
    for trial in range(100):
        circuit = random_circuit(rng, max_gates=24)
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, trial)
        inputs = random_inputs(rng, circuit)
        expected = eval_plain(circuit, inputs)
        bits = {w: v for group, vals in zip(circuit.input_map, inputs)
                for w, v in zip(group, vals)}
        gi = rng.randrange(len(circuit.gates))
        ri = rng.randrange(len(gate_rows(circuit, gi)))
        flip = 1 << rng.randrange(ROW_BYTES * 8)
        tampered = bytearray(gc.tables)
        off = gate_rows(circuit, gi)[ri]
        row_int = int.from_bytes(tampered[off:off + ROW_BYTES], "big") ^ flip
        tampered[off:off + ROW_BYTES] = row_int.to_bytes(ROW_BYTES, "big")
        try:
            out_labels = evaluate(circuit, bytes(tampered),
                                  select_labels(enc, bits))
            got = [decode(group, [gc.output_encodings[w] for w in wires])
                   for group, wires in zip(out_labels, circuit.output_map)]
        except (EvaluationError, DecodeError):
            flagged += 1
            continue
        assert got == expected  # tamper hit an unselected row
    assert flagged > 0


def test_wrong_input_label_is_detected_not_misdecoded():
    # A label outside the wire's encoding must never land inside a
    # downstream encoding: evaluation or decoding fails instead.
    circuit = Circuit(wire_count=4, gates=[(AND, 0, 1, 2), (NOT, 2, -1, 3)],
                      input_map=[[0], [1]], output_map=[[3]])
    rng = random.Random(12)
    for trial in range(200):
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, trial)
        forged = {0: rng.randbytes(16), 1: enc[1].label(rng.getrandbits(1))}
        try:
            out = evaluate(circuit, gc.tables, forged)
        except EvaluationError:
            continue
        with pytest.raises(DecodeError):
            decode(out[0], [gc.output_encodings[3]])


def test_tables_look_uniform():
    # Obliviousness smoke test: row bits carry no obvious bias.
    circuit = two_in_circuit(AND)
    ones = 0
    total = 0
    rng = random.Random(77)
    for seed in range(200):
        enc = random_input_encodings(circuit, rng)
        blob = garble(circuit, enc, seed).tables_blob()[36:]
        ones += sum(bin(byte).count("1") for byte in blob)
        total += len(blob) * 8
    assert abs(ones / total - 0.5) < 0.02


def test_output_encodings_cover_exactly_output_wires():
    rng = random.Random(13)
    circuit = random_circuit(rng, max_gates=12)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 13)
    assert set(gc.output_encodings) == set(circuit.output_wires)
    assert gc.wire_encodings is None
    assert isinstance(gc, GarbledCircuit)


def test_xor_bytes_helper():
    assert xor_bytes(b"\x0f\xf0", b"\xff\x00") == b"\xf0\xf0"
    assert int_to_bits(5, 4) == [0, 1, 0, 1]
    assert LABEL_BYTES == 16 and ROW_BYTES == 18 and AUTH_ZERO == b"\x00\x00"


# [DERIVED] a unary gate on an input wire pins both row pads to the wire's
# two fixed labels; if the pads' 16-bit auth tails collide at the same row
# index no redraw can produce an unambiguous table, so garble must refuse.
# The colliding pair is searched with an independent hashlib recomputation.
def test_garble_refuses_unfixable_not_gate_collision():
    circuit = Circuit(2, [(NOT, 0, -1, 1)], [[0]], [[1]])
    tag = (0).to_bytes(4, "big")
    rng = random.Random("collide-not")
    zero = rng.randbytes(LABEL_BYTES)
    t0 = [hashlib.sha256(zero + tag + bytes([r])).digest()[16:18]
          for r in (0, 1)]
    while True:
        one = rng.randbytes(LABEL_BYTES)
        t1 = [hashlib.sha256(one + tag + bytes([r])).digest()[16:18]
              for r in (0, 1)]
        if one != zero and (t0[0] == t1[0] or t0[1] == t1[1]):
            break
    with pytest.raises(ValueError, match="collide"):
        garble(circuit, {0: Encoding(zero, one)}, 99)


def test_garble_refuses_unfixable_self_gate_collision():
    # Same trap for a self gate: its true rows sit at rows 0 and 3 under
    # pads hashed from the doubled input labels.
    circuit = Circuit(2, [(XOR, 0, 0, 1)], [[0]], [[1]])
    tag = (0).to_bytes(4, "big")
    rng = random.Random("collide-self")
    zero = rng.randbytes(LABEL_BYTES)
    t0 = [hashlib.sha256(zero + zero + tag + bytes([r])).digest()[16:18]
          for r in (0, 3)]
    while True:
        one = rng.randbytes(LABEL_BYTES)
        t1 = [hashlib.sha256(one + one + tag + bytes([r])).digest()[16:18]
              for r in (0, 3)]
        if one != zero and (t0[0] == t1[0] or t0[1] == t1[1]):
            break
    with pytest.raises(ValueError, match="collide"):
        garble(circuit, {0: Encoding(zero, one)}, 99)


def test_unary_and_self_gates_on_inputs_evaluate_when_tails_differ():
    not_circuit = Circuit(2, [(NOT, 0, -1, 1)], [[0]], [[1]])
    self_circuit = Circuit(2, [(XOR, 0, 0, 1)], [[0]], [[1]])
    for bit in (0, 1):
        assert run_garbled(not_circuit, [[bit]], seed=3) == [[1 - bit]]
        assert run_garbled(self_circuit, [[bit]], seed=3) == [[0]]
