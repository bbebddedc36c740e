"""Hash-based commitments: digest = SHA-256(randomness || message).

A commitment is the 32-byte digest; the opening is the (message, randomness)
pair. Randomness is exactly 16 bytes and must never be reused across two
distinct commitments in one protocol session. Callers draw it from a seeded
session RNG, or, for the four input sets of a cut-and-choose copy, from
that copy's seed stream (``consistency.expand_seed``), so that the seed
alone regenerates them; the test harness audits uniqueness.

Every committed message is prefixed with a 1-byte context tag so an opening
for one context can never be replayed as an opening for another. The tags
cover the four places commitments appear in the protocol. Tag 3, once the
parties' label-hash lists, and tag 5, once the output labels committed apart
from the output encodings, are retired.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

NONCE_BYTES = 16
DIGEST_BYTES = 32

# Context tags, prepended to the committed message.
TAG_INPUT_SET = b"\x01"
TAG_POSITION = b"\x02"
TAG_OUTPUT = b"\x04"
TAG_COIN = b"\x06"


@dataclass(frozen=True)
class Opening:
    message: bytes
    randomness: bytes

    def __post_init__(self):
        if len(self.randomness) != NONCE_BYTES:
            raise ValueError("commitment randomness must be 16 bytes")


def commit(message: bytes, randomness: bytes) -> bytes:
    """The digest committing to ``message`` under a fresh 16-byte
    ``randomness``."""
    if len(randomness) != NONCE_BYTES:
        raise ValueError("commitment randomness must be 16 bytes")
    return hashlib.sha256(randomness + message).digest()


def open_commitment(commitment: bytes, opening: Opening) -> bool:
    """Recompute the digest from the opening and compare."""
    return commit(opening.message, opening.randomness) == commitment


def tagged_commit(tag: bytes, body: bytes,
                  randomness: bytes) -> tuple[bytes, Opening]:
    """Commit to ``tag || body`` and return both halves."""
    opening = Opening(tag + body, randomness)
    return commit(opening.message, opening.randomness), opening


def opened_body(tag: bytes, opening: Opening) -> bytes:
    """Strip and check the context tag of an opened message."""
    if not opening.message.startswith(tag):
        raise ValueError("opening carries the wrong context tag")
    return opening.message[len(tag):]
