"""The garbling kernel against the plaintext oracle in ``oracles``.

For honest labels, ``parse_tables_blob`` plus ``evaluate`` must decode to
the oracle's outputs. A forged label must be refused by its input
projection, a missing one reported as such, a truncated or extended blob
refused before any row is read, and a corrupted blob must raise or still
decode to the oracle's outputs, never to anything else.
"""

import hashlib
import random

import pytest

from dualgc.auction import AuctionConfig, build_auction_circuit
from dualgc.circuits import AND, NOT, OR, XOR, Circuit, eval_plain
from dualgc.errors import (DecodeError, DualGCError, EncodingCoverageError,
                           EvaluationError, ProtocolError)
from dualgc.garbling import (GATE_BYTES, HEADER_BYTES, LABEL_BYTES, ROW_BYTES,
                             Encoding, decode, evaluate, garble,
                             parse_tables_blob, random_input_encodings,
                             select_labels, tabled_gates)

from oracles import random_circuit, recursive_eval

# sha256 of garble(...).tables_blob() for the 6-bidder, 2-VM-type auction
# circuit under the encodings and seed of test_n6m2_blob_is_pinned.
N6M2_BLOB_SHA256 = \
    "595ed89ecf8688f3ccd6caff9a0d11b9108e8f9f30d5195dccd0660383d3049f"


def outcome(circuit, gc, blob, labels):
    """The decoded outputs, or the type of the package error raised."""
    try:
        groups = evaluate(circuit, parse_tables_blob(circuit, blob), labels)
        return [decode(group, [gc.output_encodings[w] for w in wires])
                for group, wires in zip(groups, circuit.output_map)]
    except DualGCError as exc:
        return type(exc)


def assert_evaluation_matches_the_oracle(circuit, enc, gc, rng, flips=12,
                                         oracle=recursive_eval):
    """Oracle outputs on honest labels; the right refusal on forged,
    missing and truncated input; never a wrong output on corrupted rows."""
    blob = gc.tables_blob()
    wires = circuit.input_wires
    inputs = [[rng.getrandbits(1) for _ in group] for group in circuit.input_map]
    bits = {w: v for group, vals in zip(circuit.input_map, inputs)
            for w, v in zip(group, vals)}
    honest = select_labels(enc, bits)
    expected = oracle(circuit, inputs)
    assert outcome(circuit, gc, blob, honest) == expected
    forged = dict(honest)
    forged[rng.choice(wires)] = rng.randbytes(LABEL_BYTES)
    assert outcome(circuit, gc, blob, forged) is EvaluationError
    missing = dict(honest)
    del missing[rng.choice(wires)]
    assert outcome(circuit, gc, blob, missing) is EncodingCoverageError
    for _ in range(flips):
        bad = bytearray(blob)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert outcome(circuit, gc, bytes(bad), honest) in (
            expected, ProtocolError, EvaluationError, DecodeError)
    for bad in (blob[:-1], blob[:-ROW_BYTES], blob + b"\x00",
                blob[:HEADER_BYTES]):
        assert outcome(circuit, gc, bad, honest) is ProtocolError


def test_random_circuits_match_the_reference():
    rng = random.Random("reference")
    for trial in range(120):
        circuit = random_circuit(rng, max_gates=40)
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, trial)
        assert_evaluation_matches_the_oracle(circuit, enc, gc, rng)


def mixed_circuit():
    """NOT and self gates on input and internal wires, beside plain gates."""
    gates = [
        (NOT, 0, -1, 3),   # NOT on an input wire
        (AND, 1, 1, 4),    # self gate on an input wire
        (OR, 3, 2, 5),
        (XOR, 5, 5, 6),    # self gate on an internal wire
        (NOT, 5, -1, 7),   # NOT on an internal wire
        (AND, 6, 7, 8),
        (OR, 4, 8, 9),
        (XOR, 9, 0, 10),
    ]
    return Circuit(11, gates, ((0, 1), (2,)), ((10, 9, 6), (3, 4)))


def test_unary_and_self_gates_match_the_reference():
    circuit = mixed_circuit()
    rng = random.Random("mixed")
    for seed in range(40):
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, seed)
        assert_evaluation_matches_the_oracle(circuit, enc, gc, rng)


def test_colliding_input_pointer_bits_match_the_reference():
    circuit = mixed_circuit()
    rng = random.Random("colliding")
    for seed in range(20):
        # Every input label has LSB 0, so only the garbler's pointer bits
        # separate the rows of the input projections.
        enc = {w: Encoding(rng.randbytes(15) + b"\x00",
                           rng.randbytes(15) + b"\x00")
               for w in circuit.input_wires}
        gc = garble(circuit, enc, seed)
        assert_evaluation_matches_the_oracle(circuit, enc, gc, rng)


def pair_circuit():
    """200 binary gates on pairs of 16 input wires."""
    rng = random.Random("ambiguity")
    gates = []
    for i in range(200):
        a, b = rng.sample(range(16), 2)
        gates.append((rng.choice((AND, OR, XOR)), a, b, 16 + i))
    return Circuit(216, gates, (tuple(range(8)), tuple(range(8, 16))),
                   (tuple(range(16, 216)),))


def colliding_one(zero, salt, wire, rng):
    """A one-label whose projection pad tails collide with ``zero``'s at a
    row position under ``salt``, so that the projection is ambiguous."""
    def tails(label):
        return [hashlib.sha256(label + salt + wire.to_bytes(4, "big")
                               + bytes([tag])).digest()[16:18]
                for tag in (4, 5)]

    zero_tails = tails(zero)
    while True:
        one = rng.randbytes(LABEL_BYTES)
        if any(a == b for a, b in zip(tails(one), zero_tails)):
            return one


def test_ambiguity_regarble_matches_the_reference():
    # Wire 5's labels are searched so that their pad tails collide at a
    # row position under attempt 0's salt: the projection would be
    # ambiguous, so garble must use a later attempt's salt.
    circuit = pair_circuit()
    enc = random_input_encodings(circuit, random.Random("ambiguity:91"))
    salt = random.Random("garble:0:0").randbytes(16)
    one = colliding_one(enc[5].zero, salt, 5,
                        random.Random("ambiguity:search"))
    enc[5] = Encoding(enc[5].zero, one)
    gc = garble(circuit, enc, 0)
    assert gc.tables[36:HEADER_BYTES] != salt
    assert_evaluation_matches_the_oracle(
        circuit, enc, gc, random.Random("ambiguity"), flips=40)


def test_ambiguous_unary_input_matches_the_reference():
    # A NOT gate on input wire 0, whose projection is ambiguous under
    # attempt 0's salt: once refused, it now garbles under a later salt
    # and decodes to the oracle's outputs.
    circuit = mixed_circuit()
    rng = random.Random("ambiguous-unary")
    for seed in range(4):
        enc = random_input_encodings(circuit, rng)
        salt = random.Random(f"garble:{seed}:0").randbytes(16)
        enc[0] = Encoding(enc[0].zero,
                          colliding_one(enc[0].zero, salt, 0, rng))
        gc = garble(circuit, enc, seed)
        assert gc.tables[36:HEADER_BYTES] != salt
        assert_evaluation_matches_the_oracle(circuit, enc, gc, rng)


@pytest.mark.parametrize("gate", [(NOT, 0, -1, 2), (AND, 0, 0, 2),
                                  (XOR, 0, 1, 2)])
def test_second_authenticating_row_is_ambiguous_like_the_reference(gate):
    # Overwrite both rows of input wire 0's projection so that each
    # decrypts validly under the evaluator's label: it must refuse.
    circuit = Circuit(3, [gate], ((0, 1),), ((2,),))
    rng = random.Random("two-valid-rows")
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, 5)
    blob = gc.tables_blob()
    labels = select_labels(enc, {0: 1, 1: 0})
    salt = blob[36:HEADER_BYTES]
    bad = bytearray(blob)
    for r in (0, 1):
        off = HEADER_BYTES + r * ROW_BYTES
        pad = hashlib.sha256(labels[0] + salt + bytes(4)
                             + bytes([4 + r])).digest()[:ROW_BYTES]
        forged = rng.randbytes(LABEL_BYTES) + b"\x00\x00"
        bad[off:off + ROW_BYTES] = bytes(x ^ y for x, y in zip(pad, forged))
    assert outcome(circuit, gc, bytes(bad), labels) is EvaluationError
    with pytest.raises(EvaluationError, match="input wire 0: ambiguous"):
        evaluate(circuit, bytes(bad), labels)


@pytest.fixture(scope="module")
def n6m2():
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    circuit = build_auction_circuit(config, 6)
    enc = random_input_encodings(circuit, random.Random("pin-n6m2"))
    return circuit, enc, garble(circuit, enc, "pin-n6m2")


def test_n6m2_blob_is_pinned(n6m2):
    circuit, _enc, gc = n6m2
    assert len(circuit.gates) == 21_347
    # 384 input projections, 5,768 AND/OR gates, 126 output projections.
    assert len(gc.tables_blob()) == (HEADER_BYTES + ROW_BYTES * (768 + 252)
                                     + GATE_BYTES * 5_768)
    assert len(gc.tables_blob()) == 202_988
    assert hashlib.sha256(gc.tables_blob()).hexdigest() == N6M2_BLOB_SHA256


def test_n6m2_circuit_size_is_pinned(n6m2):
    # Two projection rows per input wire and per distinct output wire, two
    # ciphertexts per AND or OR gate. Both sorts are odd-even merge
    # networks, the payment divides at the divisor's own width and no dead
    # gate is kept.
    circuit, _enc, _gc = n6m2
    assert len(tabled_gates(circuit)) == 5_768
    rows = 2 * len(circuit.input_wires) + 2 * len(set(circuit.output_wires))
    assert rows == 768 + 252


def test_n6m2_evaluation_matches_the_reference(n6m2):
    circuit, enc, gc = n6m2
    assert_evaluation_matches_the_oracle(circuit, enc, gc,
                                         random.Random("pin-n6m2"), flips=2,
                                         oracle=eval_plain)
