"""The garbling kernel against its list-of-rows reference in ``oracles``.

For the same circuit, input encodings and seed, ``garble`` must produce the
reference's tables blob and encodings byte for byte, and ``parse_tables_blob``
plus ``evaluate`` must return the reference's labels or raise the same
exception type, on honest and on corrupted blobs.
"""

import hashlib
import random

import pytest

from dualgc.auction import AuctionConfig, build_auction_circuit
from dualgc.circuits import AND, NOT, OR, XOR, Circuit
from dualgc.errors import DualGCError, EvaluationError
from dualgc.garbling import (LABEL_BYTES, ROW_BYTES, Encoding, evaluate,
                             garble, gate_rows, parse_tables_blob,
                             random_input_encodings, select_labels)

import oracles
from oracles import random_circuit

# sha256 of garble(...).tables_blob() for the 6-bidder, 2-VM-type auction
# circuit under the encodings and seed of test_n6m2_blob_is_pinned, recorded
# with the reference implementation.
N6M2_BLOB_SHA256 = \
    "b81f39b01b9e06d6dfe04bd021698c62b6735463ef34610db5fcacfd800e7011"


def outcome(fn):
    """A call's result, or the type of the package error it raised."""
    try:
        return fn()
    except (DualGCError, ValueError) as exc:
        return type(exc)


def evaluated(circuit, blob, labels):
    return outcome(lambda: evaluate(
        circuit, parse_tables_blob(circuit, blob), labels))


def reference_evaluated(circuit, blob, labels):
    return outcome(lambda: oracles.reference_evaluate(
        circuit, oracles.reference_parse_tables_blob(circuit, blob), labels))


def assert_same_garbling(circuit, enc, seed):
    """Garble both ways; returns the new GarbledCircuit (None if refused)."""
    got = outcome(lambda: garble(circuit, enc, seed, keep_wire_encodings=True))
    want = outcome(lambda: oracles.reference_garble(
        circuit, enc, seed, keep_wire_encodings=True))
    if isinstance(want, type):
        assert got is want
        return None
    assert got.tables_blob() == want.tables_blob()
    assert got.output_encodings == want.output_encodings
    assert got.wire_encodings == want.wire_encodings
    plain = garble(circuit, enc, seed)
    assert plain.tables_blob() == want.tables_blob()
    assert plain.wire_encodings is None
    return got


def assert_same_evaluation(circuit, enc, blob, rng, flips=12):
    """Same labels or same error type on honest, forged and corrupted input."""
    wires = circuit.input_wires
    honest = select_labels(enc, {w: rng.getrandbits(1) for w in wires})
    assert evaluated(circuit, blob, honest) == \
        reference_evaluated(circuit, blob, honest)
    assert not isinstance(evaluated(circuit, blob, honest), type)
    forged = dict(honest)
    forged[rng.choice(wires)] = rng.randbytes(LABEL_BYTES)
    assert evaluated(circuit, blob, forged) == \
        reference_evaluated(circuit, blob, forged)
    missing = dict(honest)
    del missing[rng.choice(wires)]
    assert evaluated(circuit, blob, missing) == \
        reference_evaluated(circuit, blob, missing)
    for _ in range(flips):
        bad = bytearray(blob)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert evaluated(circuit, bytes(bad), honest) == \
            reference_evaluated(circuit, bytes(bad), honest)
    for bad in (blob[:-1], blob[:-18], blob + b"\x00", blob[:36]):
        assert evaluated(circuit, bad, honest) == \
            reference_evaluated(circuit, bad, honest)


def test_random_circuits_match_the_reference():
    rng = random.Random("reference")
    for trial in range(120):
        circuit = random_circuit(rng, max_gates=40)
        enc = random_input_encodings(circuit, rng)
        gc = assert_same_garbling(circuit, enc, trial)
        assert_same_evaluation(circuit, enc, gc.tables_blob(), rng)


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
    garbled = 0
    for seed in range(40):
        enc = random_input_encodings(circuit, rng)
        gc = assert_same_garbling(circuit, enc, seed)
        if gc is not None:
            garbled += 1
            assert_same_evaluation(circuit, enc, gc.tables_blob(), rng)
    assert garbled == 40


def test_colliding_input_pointer_bits_match_the_reference():
    circuit = mixed_circuit()
    rng = random.Random("colliding")
    for seed in range(20):
        # Every input label has LSB 0, so only the garbler's pointer bits
        # separate the rows of the gates reading them.
        enc = {w: Encoding(rng.randbytes(15) + b"\x00",
                           rng.randbytes(15) + b"\x00")
               for w in circuit.input_wires}
        gc = assert_same_garbling(circuit, enc, seed)
        assert_same_evaluation(circuit, enc, gc.tables_blob(), rng)


def pair_circuit():
    """200 binary gates on pairs of 16 input wires: many trial-decrypted
    gates, so some pointer-bit draws leave a wrong row authenticating."""
    rng = random.Random("ambiguity")
    gates = []
    for i in range(200):
        a, b = rng.sample(range(16), 2)
        gates.append((rng.choice((AND, OR, XOR)), a, b, 16 + i))
    return Circuit(216, gates, (tuple(range(8)), tuple(range(8, 16))),
                   (tuple(range(16, 216)),))


def test_ambiguity_regarble_matches_the_reference():
    circuit = pair_circuit()
    enc = random_input_encodings(circuit, random.Random("ambiguity:91"))
    gc = assert_same_garbling(circuit, enc, 0)
    # Attempt 0 would have given gate 0 this output 0-label; a different
    # one proves the garbler re-garbled under attempt 1 or later.
    attempt0 = random.Random("garble:0:0")
    for _ in circuit.input_wires:
        attempt0.getrandbits(1)
    assert gc.wire_encodings[16].zero != attempt0.randbytes(LABEL_BYTES)
    assert_same_evaluation(circuit, enc, gc.tables_blob(),
                           random.Random("ambiguity"), flips=40)


@pytest.mark.parametrize("gate", [(NOT, 0, -1, 2), (AND, 0, 0, 2),
                                  (XOR, 0, 1, 2)])
def test_second_authenticating_row_is_ambiguous_like_the_reference(gate):
    # Overwrite every row of a trial-decrypted gate so that each decrypts
    # validly under the evaluator's labels: both evaluators must refuse.
    circuit = Circuit(3, [gate], ((0, 1),), ((2,),))
    rng = random.Random("two-valid-rows")
    enc = random_input_encodings(circuit, rng)
    blob = garble(circuit, enc, 5).tables_blob()
    labels = select_labels(enc, {0: 1, 1: 0})
    key = labels[0] if gate[0] == NOT else labels[gate[1]] + labels[gate[2]]
    bad = bytearray(blob)
    for r, off in enumerate(gate_rows(circuit, 0)):
        pad = hashlib.sha256(key + bytes(4) + bytes([r])).digest()[:ROW_BYTES]
        forged = rng.randbytes(LABEL_BYTES) + b"\x00\x00"
        bad[off:off + ROW_BYTES] = bytes(x ^ y for x, y in zip(pad, forged))
    want = reference_evaluated(circuit, bytes(bad), labels)
    assert want is EvaluationError
    assert evaluated(circuit, bytes(bad), labels) is want


def test_unfixable_collision_is_refused_like_the_reference():
    circuit = Circuit(2, [(NOT, 0, -1, 1)], [[0]], [[1]])
    tag = (0).to_bytes(4, "big")
    rng = random.Random("collide-not")
    zero = rng.randbytes(LABEL_BYTES)
    tails = [hashlib.sha256(zero + tag + bytes([r])).digest()[16:18]
             for r in (0, 1)]
    while True:
        one = rng.randbytes(LABEL_BYTES)
        if one != zero and any(
                hashlib.sha256(one + tag + bytes([r])).digest()[16:18] == t
                for r, t in zip((0, 1), tails)):
            break
    assert assert_same_garbling(circuit, {0: Encoding(zero, one)}, 1) is None


@pytest.fixture(scope="module")
def n6m2():
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    circuit = build_auction_circuit(config, 6)
    enc = random_input_encodings(circuit, random.Random("pin-n6m2"))
    return circuit, enc, garble(circuit, enc, "pin-n6m2")


def test_n6m2_blob_is_pinned(n6m2):
    circuit, _enc, gc = n6m2
    assert len(circuit.gates) == 66_905
    assert hashlib.sha256(gc.tables_blob()).hexdigest() == N6M2_BLOB_SHA256


def test_n6m2_evaluation_matches_the_reference(n6m2):
    circuit, enc, gc = n6m2
    assert_same_evaluation(circuit, enc, gc.tables_blob(),
                           random.Random("pin-n6m2"), flips=2)
