"""Garbling scheme tests: row and ciphertext format, correctness,
authenticity, obliviousness."""

import hashlib
import random

import pytest

from dualgc.circuits import AND, NOT, OR, XOR, Circuit, eval_plain, int_to_bits
from dualgc.errors import (DecodeError, EncodingCoverageError, EvaluationError,
                           ProtocolError)
from dualgc.garbling import (AUTH_ZERO, GATE_BYTES, HEADER_BYTES, LABEL_BYTES,
                             ROW_BYTES, Encoding, GarbledCircuit, decode,
                             evaluate, garble, gate_rows, parse_tables_blob,
                             random_input_encodings, select_labels,
                             tabled_gates, xor_bytes)

from oracles import random_circuit, random_inputs


def two_in_circuit(kind):
    return Circuit(wire_count=3, gates=[(kind, 0, 1, 2)],
                   input_map=[[0], [1]], output_map=[[2]])


def rows_of(circuit, tables, gi):
    """Gate ``gi``'s ciphertexts, read at the offsets ``evaluate`` reads."""
    return [tables[o:o + LABEL_BYTES] for o in gate_rows(circuit, gi)]


def half(label, tables, gi, tag):
    """SHA-256(label || salt || gi_be4 || tag)[:16]: tag 0 hashes for the
    garbler half, tag 1 for the evaluator half."""
    return pad_of(label, tables, gi, tag)[:LABEL_BYTES]


def rotl(x):
    """A 128-bit delta rotated left by one bit. For a one-bit ``x``,
    rotl(x) != x, so a tamper of TG by x and of TE by rotl(x) cannot
    cancel."""
    return (x << 1 | x >> 127) & (1 << 128) - 1


def pad_of(key, tables, index, tag):
    """SHA-256(key || salt || index_be4 || tag)[:18], the salt the 16 bytes
    after the header."""
    salt = tables[36:52]
    return hashlib.sha256(key + salt + index.to_bytes(4, "big")
                          + bytes([tag])).digest()[:ROW_BYTES]


def open_row(key, tables, index, tag, row):
    """Independent hashlib decryption of one row: the label, or None when
    the authenticator is wrong. The authenticator is zero, or
    SHA-256(label)[:2] in an output projection (tags 6, 7)."""
    pad = pad_of(key, tables, index, tag)
    dec = bytes(x ^ y for x, y in zip(pad, row))
    auth = hashlib.sha256(dec[:16]).digest()[:2] if tag >= 6 else AUTH_ZERO
    return dec[:16] if dec[16:] == auth else None


def project_input(tables, w, i, label):
    """Open the 2-row projection of input wire ``w`` (the ``i``-th input):
    exactly one row must authenticate."""
    off = HEADER_BYTES + 2 * ROW_BYTES * i
    hits = [lab for r in (0, 1)
            if (lab := open_row(label, tables, w, 4 + r,
                                tables[off + r * ROW_BYTES:
                                       off + (r + 1) * ROW_BYTES])) is not None]
    assert len(hits) == 1
    return hits[0]


def project_output(tables, w, j, n_outputs, label):
    """Open the output projection of the ``j``-th distinct output wire at
    the row the label's pointer bit (its LSB) selects."""
    r = label[-1] & 1
    off = len(tables) - 2 * ROW_BYTES * (n_outputs - j) + r * ROW_BYTES
    return open_row(label, tables, w, 6 + r, tables[off:off + ROW_BYTES])


def half_gate(tables, gi, tg, te, wa, wb):
    """The half-gate equation an evaluator holding ``wa``, ``wb`` applies:
    H_0(wa) ^ H_1(wb) ^ sa * TG ^ sb * (TE ^ wa), with sa, sb the labels'
    pointer bits (their LSBs)."""
    out = xor_bytes(half(wa, tables, gi, 0), half(wb, tables, gi, 1))
    if wa[-1] & 1:
        out = xor_bytes(out, tg)
    if wb[-1] & 1:
        out = xor_bytes(out, xor_bytes(te, wa))
    return out


def held_labels(circuit, tables, input_labels):
    """The label the evaluator holds on every wire, replayed with the
    helpers above: XOR gates XOR their operand labels, NOT gates keep
    theirs, AND/OR gates apply the half-gate equation to their ciphertexts."""
    held = {w: project_input(tables, w, i, input_labels[w])
            for i, w in enumerate(circuit.input_wires)}
    for gi, (kind, a, b, out) in enumerate(circuit.gates):
        if kind == XOR:
            held[out] = xor_bytes(held[a], held[b])
        elif kind == NOT:
            held[out] = held[a]
        else:
            held[out] = half_gate(tables, gi, *rows_of(circuit, tables, gi),
                                  held[a], held[b])
    return held


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


# [DERIVED] format pinned against an independent hashlib recomputation:
# each projection pad is SHA-256(key || salt || index_be4 || tag)[:18], and
# row XOR pad = label || authenticator. Input projections (tags 4, 5) map
# the supplied labels to internal ones. An OR gate is an AND gate on the
# flipped 0-labels A = K_a ^ R, B = K_b ^ R: it sends
# TG = H_0(A) ^ H_0(A ^ R) ^ pb * R and TE = H_1(B) ^ H_1(B ^ R) ^ A, and its
# output 0-label is H_0(A) ^ H_1(B) ^ pa * TG ^ pb * (TE ^ A), flipped by R.
# The output projection (tags 6, 7, whose authenticator is
# SHA-256(label)[:2]) maps the result to the output encoding.
def test_row_format_matches_hash_recomputation():
    circuit = two_in_circuit(OR)
    rng = random.Random(7)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 7)
    tables = gc.tables
    rows = rows_of(circuit, tables, 0)
    assert len(rows) == 2 and all(len(r) == LABEL_BYTES for r in rows)
    assert len(tables) == HEADER_BYTES + ROW_BYTES * (2 + 2 + 2) + GATE_BYTES
    offset = xor_bytes(project_input(tables, 0, 0, enc[0].zero),
                       project_input(tables, 0, 0, enc[0].one))
    a = xor_bytes(project_input(tables, 0, 0, enc[0].zero), offset)
    b = xor_bytes(project_input(tables, 1, 1, enc[1].zero), offset)
    no = bytes(LABEL_BYTES)
    tg, te = rows
    assert tg == xor_bytes(xor_bytes(half(a, tables, 0, 0),
                                     half(xor_bytes(a, offset), tables, 0, 0)),
                           offset if b[-1] & 1 else no)
    assert te == xor_bytes(xor_bytes(half(b, tables, 0, 1),
                                     half(xor_bytes(b, offset), tables, 0, 1)),
                           a)
    zero = xor_bytes(half_gate(tables, 0, tg, te, a, b), offset)
    for ba in (0, 1):
        for bb in (0, 1):
            ka = project_input(tables, 0, 0, enc[0].label(ba))
            kb = project_input(tables, 1, 1, enc[1].label(bb))
            lab = half_gate(tables, 0, tg, te, ka, kb)
            assert lab == (xor_bytes(zero, offset) if ba | bb else zero)
            out = project_output(tables, 2, 0, 1, lab)
            assert out == gc.output_encodings[2].label(ba | bb)


def test_not_gate_rows_and_format():
    # A NOT gate carries no rows: the evaluator keeps its operand's label,
    # which the output projection maps to the flipped bit.
    circuit = Circuit(wire_count=2, gates=[(NOT, 0, -1, 1)],
                      input_map=[[0]], output_map=[[1]])
    rng = random.Random(3)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 3)
    assert rows_of(circuit, gc.tables, 0) == []
    assert len(gc.tables) == HEADER_BYTES + 4 * ROW_BYTES
    for bit in (0, 1):
        k = project_input(gc.tables, 0, 0, enc[0].label(bit))
        assert project_output(gc.tables, 1, 0, 1, k) == \
            gc.output_encodings[1].label(1 - bit)


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
    # No gates: each output projection maps its wire's projected input label
    # onto a fresh encoding, never back onto the supplied one.
    circuit = Circuit(wire_count=2, gates=[], input_map=[[0, 1]], output_map=[[1, 0]])
    rng = random.Random(1)
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 1)
    labels = evaluate(circuit, gc.tables, select_labels(enc, {0: 1, 1: 0}))
    outs = [gc.output_encodings[1], gc.output_encodings[0]]
    assert labels == [[outs[0].zero, outs[1].one]]
    assert decode(labels[0], outs) == [0, 1]
    assert not {enc[0].one, enc[1].zero} & set(labels[0])


def test_colliding_pointer_bits_still_evaluate():
    # Both input encodings share the same LSB pattern on purpose; only the
    # trial decryption of the input projections can tell their rows apart.
    circuit = two_in_circuit(AND)
    rng = random.Random(11)
    enc = {}
    for w in (0, 1):
        zero = rng.randbytes(15) + b"\x00"
        one = rng.randbytes(15) + b"\x00"
        enc[w] = Encoding(zero, one)
    gc = garble(circuit, enc, 11)
    for ba in (0, 1):
        for bb in (0, 1):
            labels = evaluate(circuit, gc.tables,
                              {0: enc[0].label(ba), 1: enc[1].label(bb)})
            assert decode(labels[0], [gc.output_encodings[2]]) == [ba & bb]


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
        rows = (len(gc.tables) - HEADER_BYTES) // ROW_BYTES
        off = HEADER_BYTES + ROW_BYTES * rng.randrange(rows)
        flip = 1 << rng.randrange(ROW_BYTES * 8)
        tampered = bytearray(gc.tables)
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
    assert isinstance(gc, GarbledCircuit)


def test_xor_bytes_helper():
    assert xor_bytes(b"\x0f\xf0", b"\xff\x00") == b"\xf0\xf0"
    assert int_to_bits(5, 4) == [0, 1, 0, 1]
    assert LABEL_BYTES == 16 and ROW_BYTES == 18 and AUTH_ZERO == b"\x00\x00"


def tail(label, salt, w, tag):
    return hashlib.sha256(label + salt + w.to_bytes(4, "big")
                          + bytes([tag])).digest()[16:18]


# [DERIVED] an input projection is ambiguous when the two supplied labels'
# pad tails collide at a row position: the wrong row then authenticates too.
# Encodings with that collision under attempt 0's salt are searched with an
# independent hashlib recomputation; garble must move on to a later salt
# and still evaluate correctly, also with a NOT or self gate on the wire.
@pytest.mark.parametrize("gate", [(NOT, 0, -1, 1), (XOR, 0, 0, 1)],
                         ids=["not", "self"])
def test_ambiguous_input_projection_is_garbled_under_a_later_salt(gate):
    circuit = Circuit(2, [gate], [[0]], [[1]])
    seed = 99
    salt = random.Random(f"garble:{seed}:0").randbytes(16)
    rng = random.Random(f"collide:{gate[0]}")
    zero = rng.randbytes(LABEL_BYTES)
    tails = [tail(zero, salt, 0, tag) for tag in (4, 5)]
    while True:
        one = rng.randbytes(LABEL_BYTES)
        if one != zero and any(tail(one, salt, 0, tag) == t
                               for tag, t in zip((4, 5), tails)):
            break
    enc = {0: Encoding(zero, one)}
    gc = garble(circuit, enc, seed)
    assert gc.tables[36:52] != salt
    for bit in (0, 1):
        labels = evaluate(circuit, gc.tables, {0: enc[0].label(bit)})
        want = eval_plain(circuit, [[bit]])[0]
        assert decode(labels[0], [gc.output_encodings[1]]) == want


def test_unary_and_self_gates_on_inputs_evaluate_when_tails_differ():
    not_circuit = Circuit(2, [(NOT, 0, -1, 1)], [[0]], [[1]])
    self_circuit = Circuit(2, [(XOR, 0, 0, 1)], [[0]], [[1]])
    for bit in (0, 1):
        assert run_garbled(not_circuit, [[bit]], seed=3) == [[1 - bit]]
        assert run_garbled(self_circuit, [[bit]], seed=3) == [[0]]


def all_wires_out(circuit):
    """The same gates with every wire an output, so a wrong label on any
    wire meets an authenticated row (its output projection)."""
    return Circuit(circuit.wire_count, circuit.gates, circuit.input_map,
                   (tuple(range(circuit.wire_count)),))


def unit_rows(circuit, blob, region, rng):
    """The row offsets of one random unit of ``region``: an input
    projection, an AND/OR gate or an output projection."""
    if region == "input":
        start = HEADER_BYTES + 2 * ROW_BYTES * rng.randrange(
            len(circuit.input_wires))
        return range(start, start + 2 * ROW_BYTES, ROW_BYTES)
    if region == "gate":
        return gate_rows(circuit, rng.choice(tabled_gates(circuit)))
    start = len(blob) - 2 * ROW_BYTES * rng.randrange(
        1, len(set(circuit.output_wires)) + 1)
    return range(start, start + 2 * ROW_BYTES, ROW_BYTES)


def test_output_encodings_do_not_expose_the_offset():
    # Every internal wire's labels differ by the one offset R; the output
    # encodings recipients open must not: zero ^ one differs across them.
    rng = random.Random("offset")
    for trial in range(20):
        circuit = all_wires_out(random_circuit(rng))
        gc = garble(circuit, random_input_encodings(circuit, rng), trial)
        deltas = {xor_bytes(e.zero, e.one)
                  for e in gc.output_encodings.values()}
        assert len(deltas) == len(gc.output_encodings) == circuit.wire_count


# A bit flipped in every row or ciphertext of one unit hits what the
# evaluator reads, and evaluation raises EvaluationError whatever the bit:
# an authenticator bit fails that row, a label bit of an input projection
# or a bit of a gate ciphertext yields a wrong label that fails its wire's
# output projection (every wire is an output here), and a label bit of an
# output projection fails that row's label checksum. TE's delta is TG's
# rotated by one bit, so the two never cancel at pointer bits (1, 1). The
# one exception is an AND/OR gate where the evaluator holds pointer bits
# (0, 0): it reads neither ciphertext there, so the outputs stay the
# plaintext ones.
@pytest.mark.parametrize("region", ["input", "gate", "output"])
def test_flipped_row_bit_raises_evaluation_error(region):
    rng = random.Random(f"flip:{region}")
    width = LABEL_BYTES if region == "gate" else ROW_BYTES
    checked = raised = 0
    for trial in range(150):
        circuit = all_wires_out(random_circuit(rng, max_gates=24))
        if not tabled_gates(circuit):
            continue
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, trial)
        bits = {w: rng.getrandbits(1) for w in circuit.input_wires}
        labels = select_labels(enc, bits)
        flip = 1 << rng.randrange(width * 8)
        flips = (flip, rotl(flip)) if region == "gate" else (flip, flip)
        flipped = unit_rows(circuit, gc.tables, region, rng)
        tampered = bytearray(gc.tables)
        for off, delta in zip(flipped, flips):
            row = int.from_bytes(tampered[off:off + width], "big") ^ delta
            tampered[off:off + width] = row.to_bytes(width, "big")
        gi = next((g for g in tabled_gates(circuit)
                   if gate_rows(circuit, g) == flipped), None)
        checked += 1
        if gi is not None:
            held = held_labels(circuit, gc.tables, labels)
            _kind, a, b, _out = circuit.gates[gi]
            if not held[a][-1] & 1 and not held[b][-1] & 1:
                out = evaluate(circuit, bytes(tampered), labels)
                inputs = [[bits[w] for w in group]
                          for group in circuit.input_map]
                assert [decode(out[0], [gc.output_encodings[w]
                                        for w in circuit.output_map[0]])] \
                    == eval_plain(circuit, inputs)
                continue
        with pytest.raises(EvaluationError):
            evaluate(circuit, bytes(tampered), labels)
        raised += 1
    assert checked > 100
    if region == "gate":
        assert raised > 90  # 108 of 147: the others hold pointer bits (0, 0)
    else:
        assert raised == checked


# [DERIVED] the half-gate read set: the evaluator XORs in TG exactly when
# its label on operand a has pointer bit 1, and TE exactly when its label
# on operand b has. So a flipped TG raises exactly at pa = 1 and a flipped
# TE exactly at pb = 1, at the output projection; otherwise the tamper is
# never read and the outputs decode to the plaintext ones.
@pytest.mark.parametrize("kind", [AND, OR])
def test_each_ciphertext_is_read_exactly_at_its_pointer_bit(kind):
    circuit = two_in_circuit(kind)
    rng = random.Random(f"read-set:{kind}")
    seen = set()
    for seed in range(8):
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, seed)
        for ba in (0, 1):
            for bb in (0, 1):
                labels = {0: enc[0].label(ba), 1: enc[1].label(bb)}
                held = held_labels(circuit, gc.tables, labels)
                pa, pb = held[0][-1] & 1, held[1][-1] & 1
                seen.add((pa, pb))
                for which, read in ((0, pa), (1, pb)):
                    off = gate_rows(circuit, 0)[which]
                    tampered = bytearray(gc.tables)
                    tampered[off + rng.randrange(LABEL_BYTES)] ^= \
                        1 << rng.randrange(8)
                    if read:
                        with pytest.raises(EvaluationError,
                                           match="output wire 2"):
                            evaluate(circuit, bytes(tampered), labels)
                    else:
                        out = evaluate(circuit, bytes(tampered), labels)
                        assert [decode(out[0], [gc.output_encodings[2]])] \
                            == eval_plain(circuit, [[ba], [bb]])
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}
