"""Input-consistency tests: commitment sets, coin toss, checks, proofs."""

import hashlib
import itertools
import random

import pytest

from dualgc.commitments import (NONCE_BYTES, TAG_COIN, TAG_POSITION, Opening,
                                open_commitment, tagged_commit)
from dualgc.consistency import (COMMITMENTS_PER_COPY, CommitmentSetPair,
                                check_pair_construction, coin_toss_commit,
                                coin_toss_open, combine_challenge,
                                evaluate_final_labels, expand_seed,
                                generate_cheating_material,
                                generate_input_material, hash_label,
                                label_set, labels_consistent,
                                open_eval_triple, open_evidence,
                                open_position, seed_digest, unpack_bits,
                                verify_check_failure_claim)
from dualgc.errors import CoinTossCheatError

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
        for copy in material.copies:
            assert check_pair_construction(copy.pair, copy.seed)


def test_check_seeds_reveal_no_input_bit():
    """The same seeds give the same four input-set commitments whatever
    the bit, and nothing a seed expands to opens the position commitment
    under either bit: a check seed tells its holder nothing about ``x``."""
    for trial in range(20):
        built = [generate_input_material(random.Random(f"privacy:{trial}"),
                                         x=x, s=6) for x in (0, 1)]
        for zero, one in zip(built[0].copies, built[1].copies):
            assert zero.seed == one.seed
            assert (zero.pair.w + zero.pair.w_prime
                    == one.pair.w + one.pair.w_prime)
            assert zero.pair.position != one.pair.position
            enc1, enc2, _b, nonces = expand_seed(zero.seed)
            derived = [*enc1, *enc2, *nonces]
            for copy in (zero, one):
                assert copy.position_opening.randomness not in derived
                for nonce in derived:
                    for p in (0, 1):
                        assert not open_commitment(copy.pair.position, Opening(
                            TAG_POSITION + bytes([p]), nonce))


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
            assert wire_outcome(material, rho) == "pass"


def test_tampered_copy_fails_construction_check():
    rng = random.Random(8)
    for x in (0, 1):
        material = generate_cheating_material(
            rng, x, 4, [False, True, True, True])
        checks = [check_pair_construction(c.pair, c.seed)
                  for c in material.copies]
        assert checks == [False, True, True, True]


def test_mixed_evaluation_set_detected_by_first_party_only():
    rng = random.Random(9)
    material = generate_cheating_material(
        rng, 0, 4, [False, True, True, True])
    p1, p2 = eval_triples(material, [0, 0, 1, 1])
    sets = material.label_sets([0, 0, 1, 1])
    assert not labels_consistent(p1, sets, 0)
    assert labels_consistent(p2, sets, 1)


def test_uniformly_tampered_evaluation_set_diverges_silently():
    # All evaluation copies inconsistent: the label-set check passes, but
    # the two circuits receive different bits (caught later at output).
    rng = random.Random(10)
    material = generate_cheating_material(
        rng, 1, 4, [False, False, True, True])
    assert wire_outcome(material, [0, 0, 1, 1]) == "divergent"
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
            got = wire_outcome(material, rho)
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


def _aggregate(labels) -> bytes:
    acc = bytes(32)
    for label in labels:
        acc = bytes(a ^ b for a, b in zip(acc, hashlib.sha256(label).digest()))
    return acc


def test_hash_tuple_structure_and_permutation():
    """A wire's HASH_TUPLE entry is each circuit's two aggregates over the
    evaluation copies, sorted: which of them is the 0 label's varies."""
    rng = random.Random(14)
    rho = [0, 0, 0, 1, 1, 1]
    zero_first = set()
    for _ in range(40):
        material = generate_input_material(rng, rng.getrandbits(1), 6)
        sets = material.label_sets(rho)
        for triples, got in zip(eval_triples(material, rho), sets):
            zero = _aggregate(t[0] for t in triples)
            one = _aggregate(t[1] for t in triples)
            assert got == label_set(triples) == tuple(sorted((zero, one)))
            zero_first.add(got[0] == zero)
    assert zero_first == {True, False}


def _evidence(material, rho, slot):
    """Party ``slot``'s (position, input-set) openings of the evaluation
    copies, and those copies."""
    copies = [j for j, bit in enumerate(rho) if not bit]
    return [material.eval_openings(j)[:2] if slot == 0
            else material.eval_openings(j)[::2] for j in copies], copies


def _cheating_wire(seed):
    """A wire whose first copy, evaluated alongside an honest one, fed the
    circuits different bits: its material, challenge and label sets."""
    rng = random.Random(seed)
    material = generate_cheating_material(rng, 0, 4, [False, True, True, True])
    rho = [0, 0, 1, 1]
    return material, rho, material.label_sets(rho)


def test_consistency_proof_confirms_real_cheat():
    material, rho, sets = _cheating_wire(15)
    openings, copies = _evidence(material, rho, 0)
    triples = open_evidence(material.pairs(), copies, 0, openings)
    assert triples == eval_triples(material, rho)[0]
    assert not labels_consistent(triples, sets, 0)


def test_consistency_proof_false_alarm_blames_complainer():
    """Honest evidence agrees with the label sets, so the complaint is
    false."""
    rng = random.Random(16)
    material = generate_input_material(rng, 1, 4)
    rho = [0, 1, 0, 1]
    for slot in (0, 1):
        openings, copies = _evidence(material, rho, slot)
        triples = open_evidence(material.pairs(), copies, slot, openings)
        assert labels_consistent(triples, material.label_sets(rho), slot)


def test_consistency_proof_forged_contents_blame_complainer():
    """Openings of another wire, or the other party's, open nothing."""
    material, rho, _sets = _cheating_wire(17)
    other, _rho, _sets = _cheating_wire(20)
    openings, copies = _evidence(other, rho, 0)
    assert open_evidence(material.pairs(), copies, 0, openings) is None
    openings, copies = _evidence(material, rho, 1)
    assert open_evidence(material.pairs(), copies, 0, openings) is None


def test_consistency_proof_lying_provider_caught_by_recompute():
    """A provider whose circuit-2 set is not its copies' fails both honest
    parties' evidence: the first party's cross labels and the second
    party's own encoding."""
    rng = random.Random(18)
    material = generate_input_material(rng, 0, 4)
    rho = [0, 0, 1, 1]
    sets = material.label_sets(rho)
    lying = (sets[0], (bytes(32), b"\xff" * 32))
    for slot in (0, 1):
        openings, copies = _evidence(material, rho, slot)
        triples = open_evidence(material.pairs(), copies, slot, openings)
        assert labels_consistent(triples, sets, slot)
        assert not labels_consistent(triples, lying, slot)


def test_consistency_proof_bad_opening_names_its_party():
    """Evidence with one opening that fails is no evidence: the
    complainer that sent it is blamed."""
    material, rho, _sets = _cheating_wire(19)
    openings, copies = _evidence(material, rho, 0)
    pos_op, set_op = openings[0]
    for bad in ((set_op, pos_op),
                (pos_op, Opening(set_op.message, bytes(NONCE_BYTES)))):
        forged = [bad] + openings[1:]
        assert open_evidence(material.pairs(), copies, 0, forged) is None


def test_check_failure_claim_arbitration():
    """A claim proves a fault only when its seeds hash to the seed digest
    and the seed at the claimed place does not regenerate the pair."""
    rng = random.Random(20)
    bad = generate_cheating_material(rng, 0, 4, [False, True, True, True])
    seeds = [c.seed for c in bad.copies]
    digest = seed_digest(b"".join(seeds))
    assert verify_check_failure_claim(bad.copies[0].pair, seeds, 0, digest)
    assert not verify_check_failure_claim(bad.copies[1].pair, seeds, 1,
                                          digest)
    # Seeds that miss the digest prove nothing: one short, one byte
    # flipped, or a digest of other seeds.
    flipped = [bytes([seeds[0][0] ^ 1]) + seeds[0][1:]] + seeds[1:]
    for forged, held in ((seeds[:-1], digest), (flipped, digest),
                         (seeds, seed_digest(b"".join(seeds[::-1])))):
        assert not verify_check_failure_claim(bad.copies[0].pair, forged, 0,
                                              held)
    good = generate_input_material(rng, 0, 4)
    seeds = [c.seed for c in good.copies]
    digest = seed_digest(b"".join(seeds))
    assert not any(verify_check_failure_claim(c.pair, seeds, j, digest)
                   for j, c in enumerate(good.copies))


def test_check_detects_specific_malformations():
    rng = random.Random(21)
    material = generate_input_material(rng, 0, 2)
    copy, other = material.copies
    pair = copy.pair
    assert check_pair_construction(pair, copy.seed)
    flipped = bytes([copy.seed[0] ^ 1]) + copy.seed[1:]
    for seed in (other.seed, flipped, copy.seed[:-1]):
        assert not check_pair_construction(pair, seed)
    swapped = CommitmentSetPair(w=pair.w_prime, w_prime=pair.w,
                                position=pair.position)
    assert not check_pair_construction(swapped, copy.seed)


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
