"""Output verification tests: dual decode, rejection, failure arbitration."""

import random

from dualgc.commitments import Opening
from dualgc.outputs import (ACCEPT, BLAME, CONFIRMED, REJECT, SPURIOUS,
                            OutputCommitments, OutputDecision, OutputOpenings,
                            bundle_digest, commit_output_labels, parse_output,
                            verify_failure_proof, verify_output)
from dualgc.garbling import Encoding


def fresh_encodings(rng, wires):
    return [Encoding(rng.randbytes(16), rng.randbytes(16)) for _ in range(wires)]


def build_reveal(rng, bits, enc1=None, enc2=None, labels1=None, labels2=None):
    """Honest two-circuit output material for one recipient: ``enc1`` and
    ``labels1`` are circuit 1's encodings and evaluated labels, so the
    first party commits to ``enc1`` and ``labels2``, the second to ``enc2``
    and ``labels1``."""
    wires = len(bits)
    enc1 = enc1 or fresh_encodings(rng, wires)
    enc2 = enc2 or fresh_encodings(rng, wires)
    labels1 = labels1 or [enc1[i].label(bits[i]) for i in range(wires)]
    labels2 = labels2 or [enc2[i].label(bits[i]) for i in range(wires)]
    c1, o1 = commit_output_labels(rng, enc1, labels2)
    c2, o2 = commit_output_labels(rng, enc2, labels1)
    return OutputCommitments(c1, c2), OutputOpenings(o1, o2)


def test_honest_reveal_accepts_with_decoded_bits():
    rng = random.Random(1)
    for bits in ([0], [1, 0, 1], [1] * 8):
        coms, ops = build_reveal(rng, bits)
        decision = verify_output(coms, ops, len(bits))
        assert decision == OutputDecision(ACCEPT, value=tuple(bits))


def test_disagreeing_circuits_reject():
    rng = random.Random(2)
    enc2 = fresh_encodings(rng, 3)
    labels2 = [enc2[0].label(1), enc2[1].label(0), enc2[2].label(1)]
    coms, ops = build_reveal(rng, [0, 0, 1], enc2=enc2, labels2=labels2)
    decision = verify_output(coms, ops, 3)
    assert decision.status == REJECT and decision.value is None


def test_foreign_label_rejects():
    rng = random.Random(3)
    coms, ops = build_reveal(rng, [1, 1], labels1=[rng.randbytes(16)] * 2)
    assert verify_output(coms, ops, 2).status == REJECT


def test_degenerate_encoding_blames_its_garbler():
    rng = random.Random(4)
    lab = rng.randbytes(16)
    coms, ops = build_reveal(rng, [0, 1],
                             enc1=[Encoding(lab, lab),
                                   Encoding(rng.randbytes(16), rng.randbytes(16))],
                             labels1=[lab, bytes(16)])
    decision = verify_output(coms, ops, 2)
    assert decision.status == BLAME and decision.blamed == "P1"
    coms, ops = build_reveal(rng, [0], enc2=[Encoding(lab, lab)], labels2=[lab])
    decision = verify_output(coms, ops, 1)
    assert decision.status == BLAME and decision.blamed == "P2"


def test_unbound_opening_blames_its_sender():
    rng = random.Random(5)
    coms, ops = build_reveal(rng, [1, 0])
    _, other = build_reveal(rng, [1, 0])
    forged = OutputOpenings(p1=other.p1, p2=ops.p2)
    decision = verify_output(coms, forged, 2)
    assert decision.status == BLAME and decision.blamed == "P1"
    forged = OutputOpenings(p1=ops.p1, p2=other.p2)
    decision = verify_output(coms, forged, 2)
    assert decision.status == BLAME and decision.blamed == "P2"


def test_wrong_width_blames():
    rng = random.Random(6)
    coms, ops = build_reveal(rng, [1, 0, 1])
    assert verify_output(coms, ops, 2).status == BLAME


def test_parse_helpers():
    rng = random.Random(7)
    enc = fresh_encodings(rng, 2)
    labels = [rng.randbytes(16) for _ in enc]
    _, opening = commit_output_labels(rng, enc, labels)
    assert parse_output(opening, 2) == (enc, labels)
    assert parse_output(opening, 3) is None
    assert parse_output(opening, 1) is None
    bad = Opening(message=b"\x07" + opening.message[1:], randomness=bytes(16))
    assert parse_output(bad, 2) is None
    lab = rng.randbytes(16)
    _, degenerate = commit_output_labels(rng, [enc[0], Encoding(lab, lab)],
                                         labels)
    assert parse_output(degenerate, 2) is None


def test_failure_proof_confirmed_on_real_mismatch():
    rng = random.Random(8)
    enc2 = fresh_encodings(rng, 2)
    coms, ops = build_reveal(rng, [1, 1], enc2=enc2,
                             labels2=[enc2[0].label(0), enc2[1].label(1)])
    assert verify_output(coms, ops, 2).status == REJECT
    assert verify_failure_proof(coms, ops, 2) == CONFIRMED


def test_failure_proof_spurious_when_decodes_agree():
    rng = random.Random(9)
    coms, ops = build_reveal(rng, [0, 1])
    assert verify_failure_proof(coms, ops, 2) == SPURIOUS


def test_failure_proof_with_tampered_openings_is_spurious():
    rng = random.Random(10)
    coms, ops = build_reveal(rng, [0, 1])
    _, other = build_reveal(rng, [1, 0])
    assert verify_failure_proof(coms, other, 2) == SPURIOUS


def test_failure_proof_confirmed_on_degenerate_material():
    # A party that published a degenerate encoding is a genuine protocol
    # failure, so forwarding those openings must confirm.
    rng = random.Random(11)
    lab = rng.randbytes(16)
    coms, ops = build_reveal(rng, [0], enc1=[Encoding(lab, lab)], labels1=[lab])
    assert verify_failure_proof(coms, ops, 1) == CONFIRMED


def test_bundle_digest_depends_on_every_commitment():
    rng = random.Random(12)
    bundles = [build_reveal(rng, [0, 1])[0] for _ in range(3)]
    base = bundle_digest(bundles)
    assert base == bundle_digest(list(bundles))
    assert bundle_digest(bundles[::-1]) != base
    swapped = [bundles[1], bundles[0], bundles[2]]
    assert bundle_digest(swapped) != base
    crossed = [OutputCommitments(bundles[0].p2, bundles[0].p1)] + bundles[1:]
    assert bundle_digest(crossed) != base
