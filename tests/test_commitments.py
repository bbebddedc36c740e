"""Commitment scheme: round trip, binding, hiding, context tags."""

import hashlib
import random

import pytest

from dualgc.commitments import (
    NONCE_BYTES,
    Opening,
    TAG_INPUT_SET,
    TAG_POSITION,
    commit,
    open_commitment,
    opened_body,
    tagged_commit,
)


# Frozen against a standalone SHA-256(randomness || message) computation.
FROZEN_DIGESTS = [
    (bytes(range(16)), b"\x01" + b"hello world",
     "673794c2aa83d8538184465d5302e507c4403f09f7cab8701ac6a881c368b0b9"),
    (b"\xaa" * 16, b"",
     "bc1443a0d17aab2db1ea0302ef280717ac9a2f23355c5b649ea87d605430458d"),
]


def test_digest_matches_standalone_sha256():
    for randomness, message, expected in FROZEN_DIGESTS:
        assert commit(message, randomness).hex() == expected


def test_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        message = rng.randbytes(rng.randrange(0, 100))
        randomness = rng.randbytes(NONCE_BYTES)
        c = commit(message, randomness)
        assert open_commitment(c, Opening(message, randomness))


def test_wrong_message_or_nonce_rejected():
    randomness = bytes(16)
    c = commit(b"m", randomness)
    assert not open_commitment(c, Opening(b"n", randomness))
    assert not open_commitment(c, Opening(b"m", b"\x01" + bytes(15)))


def test_nonce_length_enforced():
    with pytest.raises(ValueError):
        commit(b"m", bytes(15))
    with pytest.raises(ValueError):
        Opening(b"m", bytes(17))


def test_binding_no_collisions_over_random_pairs():
    # 10^5 random (message, randomness) pairs: all digests distinct.
    rng = random.Random(1234)
    seen = set()
    for _ in range(100_000):
        d = commit(rng.randbytes(24), rng.randbytes(16))
        assert d not in seen
        seen.add(d)


def test_hiding_bit_frequency():
    # Digests of commitments to all-zeros and all-ones messages under fresh
    # randomness: every digest bit frequency is ~0.5 within 0.05 over 10^4
    # samples each.
    rng = random.Random(99)
    for message in (bytes(32), b"\xff" * 32):
        counts = [0] * 256
        n = 10_000
        for _ in range(n):
            x = int.from_bytes(commit(message, rng.randbytes(16)), "big")
            for pos in range(256):
                counts[pos] += (x >> pos) & 1
        for pos in range(256):
            assert abs(counts[pos] / n - 0.5) < 0.05


def test_context_tags_separate_domains():
    rng = random.Random(5)
    nonce = rng.randbytes(16)
    body = b"\x00"
    c_pos, o_pos = tagged_commit(TAG_POSITION, body, nonce)
    c_inp, _ = tagged_commit(TAG_INPUT_SET, body, nonce)
    # Same body and randomness, different context: different digests, and an
    # opening from one context does not verify in the other.
    assert c_pos != c_inp
    assert not open_commitment(c_inp, o_pos)
    assert opened_body(TAG_POSITION, o_pos) == body
    with pytest.raises(ValueError):
        opened_body(TAG_INPUT_SET, o_pos)


def test_digest_is_plain_sha256_of_concatenation():
    # Cross-check the construction shape itself, not just frozen values.
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randbytes(33)
        r = rng.randbytes(16)
        assert commit(m, r) == hashlib.sha256(r + m).digest()
