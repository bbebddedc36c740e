"""Input-consistency tests: commitment sets, coin toss, checks, proofs."""

import hashlib
import itertools
import random

import pytest

from dualgc.commitments import (NONCE_BYTES, TAG_COIN, TAG_LABEL_HASH,
                                TAG_POSITION, open_commitment, tagged_commit)
from dualgc.consistency import (COMMITMENTS_PER_COPY, VERDICT_CHEATING_PARTY,
                                VERDICT_CHEATING_PROVIDER,
                                VERDICT_PROOF_INVALID, CommitmentSetPair,
                                HashTuple,
                                check_pair_construction, coin_toss_commit,
                                coin_toss_open, combine_challenge,
                                cross_hash_aggregate, evaluate_final_labels,
                                generate_cheating_material,
                                generate_input_material, hash_label,
                                label_check_passes,
                                make_hash_tuple, open_eval_triple,
                                open_position, unpack_bits,
                                verify_check_failure_claim,
                                verify_consistency_proof)
from dualgc.errors import CoinTossCheatError, OpeningError

from oracles import expected_wire_outcome, wire_outcome


def all_valid_challenges(s):
    for bits in itertools.product((0, 1), repeat=s):
        if any(bits) and not all(bits):
            yield list(bits)


def eval_triples(material, rho):
    p1, p2 = [], []
    for j, bit in enumerate(rho):
        if bit:
            continue
        pair = material.copies[j].pair
        pos_op, first, second = material.eval_openings(j)
        p = open_position(pair, pos_op)
        p1.append(open_eval_triple(pair, p, 0, first))
        p2.append(open_eval_triple(pair, p, 1, second))
    return p1, p2


def test_material_shape_and_commitment_count():
    rng = random.Random(1)
    material = generate_input_material(rng, x=1, s=10)
    assert material.s == 10
    digests = set()
    for copy in material.copies:
        pair = copy.pair
        digests.update(c.digest for c in
                       pair.w + pair.w_prime + (pair.position,))
    # 5 distinct commitments per copy; 16 wires at s=10 give 800 total.
    assert len(digests) == 10 * COMMITMENTS_PER_COPY
    assert 16 * 10 * COMMITMENTS_PER_COPY == 800


def test_generate_rejects_bad_arguments():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        generate_input_material(rng, x=2, s=4)
    with pytest.raises(ValueError):
        generate_input_material(rng, x=0, s=1)
    with pytest.raises(ValueError):
        generate_cheating_material(rng, 0, 4, [True] * 3)


def test_honest_check_copies_pass_construction():
    rng = random.Random(3)
    for x in (0, 1):
        material = generate_input_material(rng, x=x, s=6)
        for j in range(6):
            assert check_pair_construction(
                material.copies[j].pair, material.check_openings(j)) is None


def test_position_opens_to_b_xor_x():
    rng = random.Random(4)
    for x in (0, 1):
        material = generate_input_material(rng, x=x, s=8)
        for copy in material.copies:
            p = open_position(copy.pair, copy.position_opening)
            assert p == copy.b ^ x


def test_position_rejects_forged_openings():
    rng = random.Random(5)
    material = generate_input_material(rng, 0, 4)
    a, b = material.copies[0], material.copies[1]
    assert open_position(a.pair, b.position_opening) is None
    assert open_eval_triple(a.pair, 0, 0, a.w_openings[1]) is None


def test_final_labels_encode_the_input_bit():
    # The cross label each party receives must be the other party's final
    # encoding evaluated at the provider's bit: that is what lets each
    # garbler hand the evaluator a valid input label without learning x.
    rng = random.Random(6)
    for x in (0, 1):
        material = generate_input_material(rng, x=x, s=8)
        for rho in ([1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0, 0, 0]):
            p1, p2 = eval_triples(material, rho)
            enc1, cross2 = evaluate_final_labels(p1)
            enc2, cross1 = evaluate_final_labels(p2)
            assert cross1 == enc1.label(x)
            assert cross2 == enc2.label(x)
            assert enc1.zero != enc1.one and enc2.zero != enc2.one


def test_honest_wire_passes_for_every_challenge():
    rng = random.Random(7)
    for x in (0, 1):
        material = generate_input_material(rng, x=x, s=4)
        for rho in all_valid_challenges(4):
            assert wire_outcome(material, rho, rng) == "pass"


def test_tampered_copy_fails_construction_check():
    rng = random.Random(8)
    for x in (0, 1):
        material = generate_cheating_material(
            rng, x, 4, [False, True, True, True])
        assert check_pair_construction(
            material.copies[0].pair, material.check_openings(0)) is not None
        for j in (1, 2, 3):
            assert check_pair_construction(
                material.copies[j].pair, material.check_openings(j)) is None


def test_mixed_evaluation_set_detected_by_first_party_only():
    rng = random.Random(9)
    material = generate_cheating_material(
        rng, 0, 4, [False, True, True, True])
    p1, p2 = eval_triples(material, [0, 0, 1, 1])
    tup1, _ = make_hash_tuple(rng, p1)
    tup2, _ = make_hash_tuple(rng, p2)
    assert not label_check_passes(cross_hash_aggregate(p1), tup2)
    assert label_check_passes(cross_hash_aggregate(p2), tup1)


def test_uniformly_tampered_evaluation_set_diverges_silently():
    # All evaluation copies inconsistent: the hash comparison passes, but
    # the two circuits receive different bits (caught later at output).
    rng = random.Random(10)
    material = generate_cheating_material(
        rng, 1, 4, [False, False, True, True])
    assert wire_outcome(material, [0, 0, 1, 1], rng) == "divergent"
    p1, p2 = eval_triples(material, [0, 0, 1, 1])
    enc1, cross2 = evaluate_final_labels(p1)
    enc2, cross1 = evaluate_final_labels(p2)
    assert cross1 == enc1.label(1)       # first circuit still sees x
    assert cross2 == enc2.label(0)       # second circuit sees 1-x


def test_detection_combinatorics_exhaustive_s3():
    # Every tamper pattern against every valid challenge behaves exactly as
    # the counting argument predicts; an undetected divergence requires the
    # challenge to equal the pattern, so at most one challenge per pattern.
    rng = random.Random(11)
    for pattern in itertools.product((True, False), repeat=3):
        material = generate_cheating_material(rng, 0, 3, list(pattern))
        divergent = 0
        for rho in all_valid_challenges(3):
            got = wire_outcome(material, rho, rng)
            assert got == expected_wire_outcome(pattern, rho), \
                f"pattern {pattern} rho {rho}"
            divergent += got == "divergent"
        assert divergent == (1 if 1 <= sum(pattern) <= 2 else 0)


def raw_challenge(share1, share2, wire, ctr, s):
    digest = hashlib.shake_256(share1 + share2 + wire.to_bytes(4, "big")
                               + ctr.to_bytes(4, "big")).digest(8)
    return unpack_bits(digest, s)


def test_coin_toss_round_trip_and_cheating():
    rng = random.Random(12)
    share, com, opening = coin_toss_commit(rng)
    assert len(share) == 32
    assert coin_toss_open(com, opening, "P1") == share
    _, foreign_com, _ = coin_toss_commit(rng)
    with pytest.raises(CoinTossCheatError) as err:
        coin_toss_open(foreign_com, opening, "P2")
    assert err.value.party == "P2"
    assert "commitment" in str(err.value)
    nonce = rng.randbytes(NONCE_BYTES)
    short_com, short_op = tagged_commit(TAG_COIN, share[:31], nonce)
    with pytest.raises(CoinTossCheatError) as err:
        coin_toss_open(short_com, short_op, "P1")
    assert err.value.party == "P1"
    assert "length" in str(err.value)
    long_com, long_op = tagged_commit(TAG_COIN, share + b"\x00", nonce)
    with pytest.raises(CoinTossCheatError):
        coin_toss_open(long_com, long_op, "P1")
    tagged_com, tagged_op = tagged_commit(TAG_POSITION, share, nonce)
    with pytest.raises(CoinTossCheatError) as err:
        coin_toss_open(tagged_com, tagged_op, "P2")
    assert err.value.party == "P2"
    assert "malformed" in str(err.value)


def test_combine_challenge_is_deterministic_and_never_degenerate():
    rng = random.Random(14)
    for s in range(2, 11):
        for wire in range(20):
            share1, share2 = rng.randbytes(32), rng.randbytes(32)
            rho = combine_challenge(share1, share2, wire, s)
            assert len(rho) == s
            assert 0 < sum(rho) < s
            assert combine_challenge(share1, share2, wire, s) == rho
    with pytest.raises(ValueError):
        combine_challenge(share1, share2, 0, 1)


def test_combine_challenge_degenerate_cases():
    # At s=2 half of the raw strings are degenerate, so some share pair
    # needs the counter bumped; the result is the first valid raw string.
    rng = random.Random(15)
    bumped = 0
    for wire in range(40):
        share1, share2 = rng.randbytes(32), rng.randbytes(32)
        ctr = 0
        while sum(raw_challenge(share1, share2, wire, ctr, 2)) in (0, 2):
            ctr += 1
        assert combine_challenge(share1, share2, wire, 2) == \
            raw_challenge(share1, share2, wire, ctr, 2)
        bumped += ctr > 0
    assert bumped > 0


def test_combine_challenge_reaches_every_valid_challenge():
    rng = random.Random(16)
    share1, share2 = rng.randbytes(32), rng.randbytes(32)
    reached = {tuple(combine_challenge(share1, share2, wire, 3))
               for wire in range(200)}
    assert reached == {tuple(rho) for rho in all_valid_challenges(3)}


def test_unpack_bits_reads_msb_first():
    assert unpack_bits(b"\x80\x01", 16) == [1] + [0] * 14 + [1]
    assert unpack_bits(b"\xa0", 3) == [1, 0, 1]
    assert unpack_bits(b"\xff\x00", 9) == [1] * 8 + [0]


def test_hash_tuple_structure_and_permutation():
    rng = random.Random(14)
    material = generate_input_material(rng, 0, 6)
    p1, _ = eval_triples(material, [0, 0, 0, 1, 1, 1])
    orders = set()
    plain = [cross_hash_aggregate([(t[0],) * 3 for t in p1]),
             cross_hash_aggregate([(t[1],) * 3 for t in p1])]
    lists = {agg: b"".join(hash_label(t[k]) for t in p1)
             for k, agg in enumerate(plain)}
    cross = b"".join(hash_label(t[2]) for t in p1)
    for _ in range(40):
        tup, secret = make_hash_tuple(rng, p1)
        assert set(tup.h_pair) == set(plain)
        orders.add(tup.h_pair)
        for com, opening, body in zip(
                tup.c_pair + (tup.c_cross,), secret.openings,
                (lists[tup.h_pair[0]], lists[tup.h_pair[1]], cross)):
            assert open_commitment(com, opening)
            assert opening.message[1:] == body
    assert len(orders) == 2  # both permutations occur


def _cheating_wire(seed):
    """Both parties' hash tuples and secrets for a wire whose first copy,
    evaluated alongside an honest one, fed the circuits different bits."""
    rng = random.Random(seed)
    material = generate_cheating_material(rng, 0, 4, [False, True, True, True])
    p1, p2 = eval_triples(material, [0, 0, 1, 1])
    tup1, sec1 = make_hash_tuple(rng, p1)
    tup2, sec2 = make_hash_tuple(rng, p2)
    assert not label_check_passes(cross_hash_aggregate(p1), tup2)
    return rng, tup1, sec1, tup2, sec2


def test_consistency_proof_confirms_real_cheat():
    _rng, tup1, sec1, tup2, sec2 = _cheating_wire(15)
    verdict = verify_consistency_proof(
        complainer="P1", garbler="P2", provider="provider:3",
        complainer_tuple=tup1, garbler_tuple=tup2,
        pair_openings=sec2.openings[:2], cross_opening=sec1.openings[2],
        copies=2)
    assert verdict.kind == VERDICT_CHEATING_PROVIDER
    assert verdict.blamed == "provider:3"


def test_consistency_proof_false_alarm_blames_complainer():
    rng = random.Random(16)
    material = generate_input_material(rng, 1, 4)
    p1, p2 = eval_triples(material, [0, 1, 0, 1])
    tup1, sec1 = make_hash_tuple(rng, p1)
    tup2, _ = make_hash_tuple(rng, p2)
    verdict = verify_consistency_proof(
        "P1", "P2", "provider:0", tup1, tup2, (None, None), sec1.openings[2],
        copies=2)
    assert (verdict.kind, verdict.blamed) == (VERDICT_PROOF_INVALID, "P1")


def _lengthened(rng, tup, secret, index):
    """``tup`` and its openings with hash list ``index`` (pair 0, pair 1,
    cross) committed one hash longer."""
    opening = secret.openings[index]
    com, longer = tagged_commit(TAG_LABEL_HASH,
                                opening.message[1:] + bytes(32),
                                rng.randbytes(NONCE_BYTES))
    coms = list(tup.c_pair + (tup.c_cross,))
    coms[index] = com
    openings = list(secret.openings)
    openings[index] = longer
    return HashTuple(tup.h_pair, tuple(coms[:2]), coms[2]), openings


def test_consistency_proof_forged_contents_blame_complainer():
    rng, tup1, sec1, tup2, sec2 = _cheating_wire(17)
    # A cross list longer than the wire's evaluation copies is the
    # complainer's fault, though the garbler's lists are checked after it.
    long1, ops1 = _lengthened(rng, tup1, sec1, 2)
    with pytest.raises(OpeningError) as err:
        verify_consistency_proof("P1", "P2", "provider:0", long1, tup2,
                                 sec2.openings[:2], ops1[2], copies=2)
    assert err.value.party == "P1"
    # So is a cross opening of another wire's commitment.
    _rng, other1, other_sec1, _tup2, _sec2 = _cheating_wire(20)
    with pytest.raises(OpeningError) as err:
        verify_consistency_proof("P1", "P2", "provider:0", tup1, tup2,
                                 sec2.openings[:2], other_sec1.openings[2],
                                 copies=2)
    assert err.value.party == "P1"


def test_consistency_proof_lying_garbler_caught_by_recompute():
    rng, tup1, sec1, tup2, sec2 = _cheating_wire(18)
    lying = HashTuple(h_pair=(bytes(32), tup2.h_pair[1]),
                      c_pair=tup2.c_pair, c_cross=tup2.c_cross)
    verdict = verify_consistency_proof(
        "P1", "P2", "provider:0", tup1, lying, sec2.openings[:2],
        sec1.openings[2], copies=2)
    assert verdict.kind == VERDICT_CHEATING_PARTY and verdict.blamed == "P2"
    long2, ops2 = _lengthened(rng, tup2, sec2, 1)
    with pytest.raises(OpeningError) as err:
        verify_consistency_proof("P1", "P2", "provider:0", tup1, long2,
                                 ops2[:2], sec1.openings[2], copies=2)
    assert err.value.party == "P2"


def test_consistency_proof_bad_opening_names_its_party():
    _rng, tup1, sec1, tup2, sec2 = _cheating_wire(19)
    with pytest.raises(OpeningError) as err:
        verify_consistency_proof("P1", "P2", "provider:0", tup1,
                                 tup2, (sec2.openings[1], sec2.openings[0]),
                                 sec1.openings[2], copies=2)
    assert err.value.party == "P2"
    with pytest.raises(OpeningError) as err:
        verify_consistency_proof("P1", "P2", "provider:0", tup1,
                                 tup2, sec2.openings[:2], sec2.openings[2],
                                 copies=2)
    assert err.value.party == "P1"


def test_check_failure_claim_arbitration():
    rng = random.Random(20)
    bad = generate_cheating_material(rng, 0, 4, [False, True, True, True])
    fault = verify_check_failure_claim(bad.copies[0].pair,
                                       bad.check_openings(0))
    assert fault == check_pair_construction(bad.copies[0].pair,
                                            bad.check_openings(0))
    assert fault is not None
    good = generate_input_material(rng, 0, 4)
    assert verify_check_failure_claim(good.copies[0].pair,
                                      good.check_openings(0)) is None
    # Fabricated openings do not match the broadcast commitments.
    assert verify_check_failure_claim(good.copies[0].pair,
                                      good.check_openings(1)) is None


def test_check_detects_specific_malformations():
    rng = random.Random(21)
    material = generate_input_material(rng, 0, 2)
    copy = material.copies[0]
    pair = copy.pair
    good = material.check_openings(0)
    assert check_pair_construction(pair, good[:3]) is not None
    swapped = (good[1], good[0], good[2], good[3])
    assert check_pair_construction(pair, swapped) is not None


def test_hash_label_is_sha256():
    import hashlib
    assert hash_label(b"x" * 16) == hashlib.sha256(b"x" * 16).digest()


def test_cheating_material_keeps_public_shape():
    rng = random.Random(22)
    honest = generate_input_material(rng, 0, 5)
    cheat = generate_cheating_material(rng, 0, 5, [False] * 5)
    assert isinstance(cheat.copies[0].pair, CommitmentSetPair)
    assert len(cheat.copies) == len(honest.copies)
    assert cheat.copies[0].b in (0, 1)
