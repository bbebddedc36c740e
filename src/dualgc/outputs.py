"""Publicly verifiable output delivery.

After both garbled circuits are evaluated, each party holds, for every
output recipient: the output-wire *encodings* of the circuit it garbled and
the output-wire *labels* it obtained evaluating the other circuit. Each
party commits to both, in one commitment per recipient (its encodings, then
its labels), and sends the commitments to every provider. The providers
cross-check that they saw the same bundle, and then each party privately
opens its commitment to each recipient. A recipient decodes its result
twice, once per circuit (the first party's labels under the second party's
encodings, and the reverse), and accepts only if the two agree.

Because the commitments were public, a recipient that sees a disagreement
can prove it: its failure proof simply forwards the two openings, and any
verifier replays the decoding against the broadcast bundle. A fabricated
proof (openings that do not match the bundle, or decodings that actually
agree) is attributed to the complainer; a genuine disagreement tells every
recipient to discard the result.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from .commitments import (NONCE_BYTES, TAG_OUTPUT, Opening, open_commitment,
                          opened_body, tagged_commit)
from .errors import DecodeError
from .garbling import LABEL_BYTES, Encoding, decode

ACCEPT = "accept"
REJECT = "reject"
BLAME = "blame"

CONFIRMED = "confirmed"
SPURIOUS = "spurious"


class OutputCommitments(NamedTuple):
    """The broadcast commitments concerning one recipient, one per party."""

    p1: bytes
    p2: bytes


class OutputOpenings(NamedTuple):
    p1: Opening
    p2: Opening


@dataclass(frozen=True)
class OutputDecision:
    status: str
    value: tuple[int, ...] | None = None
    blamed: object = None  # party1 or party2 of verify_output


def commit_output_labels(rng: random.Random, encodings,
                         labels) -> tuple[bytes, Opening]:
    """Commit to a party's own circuit's output encodings for one
    recipient, followed by the labels it evaluated on the other circuit."""
    body = b"".join(e.zero + e.one for e in encodings) + b"".join(labels)
    return tagged_commit(TAG_OUTPUT, body, rng.randbytes(NONCE_BYTES))


def parse_output(opening: Opening, wires: int):
    """(encodings, labels) of ``wires`` output wires; None if malformed or
    an encoding is degenerate."""
    try:
        body = opened_body(TAG_OUTPUT, opening)
    except ValueError:
        return None
    if len(body) != wires * 3 * LABEL_BYTES:
        return None
    chunks = [body[i:i + LABEL_BYTES] for i in range(0, len(body), LABEL_BYTES)]
    encodings = [Encoding(*chunks[i:i + 2]) for i in range(0, 2 * wires, 2)]
    if any(enc.zero == enc.one for enc in encodings):
        return None
    return encodings, chunks[2 * wires:]


def bundle_digest(bundles) -> bytes:
    """Fingerprint of the broadcast commitment bundle, in recipient order."""
    h = hashlib.sha256()
    for b in bundles:
        h.update(b.p1 + b.p2)
    return h.digest()


def verify_output(coms: OutputCommitments, ops: OutputOpenings, wires: int,
                  party1="P1", party2="P2") -> OutputDecision:
    """A recipient's view: open both commitments, decode twice, compare.

    An opening that fails to verify or parses to invalid material blames the
    party that produced it; decodings that disagree (or labels outside their
    encodings) yield a rejection that the recipient can later prove.
    """
    parsed = []
    for com, op, party in ((coms.p1, ops.p1, party1),
                           (coms.p2, ops.p2, party2)):
        got = parse_output(op, wires) if open_commitment(com, op) else None
        if got is None:
            return OutputDecision(BLAME, blamed=party)
        parsed.append(got)
    (enc1, labels2), (enc2, labels1) = parsed
    try:
        y1 = decode(labels1, enc1)
        y2 = decode(labels2, enc2)
    except DecodeError:
        return OutputDecision(REJECT)
    if y1 != y2:
        return OutputDecision(REJECT)
    return OutputDecision(ACCEPT, value=tuple(y1))


def verify_failure_proof(coms: OutputCommitments, ops: OutputOpenings,
                         wires: int) -> str:
    """Arbitrate a rejection, proven by the complainer's two openings of
    its bundle ``coms``: CONFIRMED discards the result everywhere, SPURIOUS
    flags the complainer and lets everyone else accept."""
    if not (open_commitment(coms.p1, ops.p1)
            and open_commitment(coms.p2, ops.p2)):
        return SPURIOUS
    decision = verify_output(coms, ops, wires)
    return SPURIOUS if decision.status == ACCEPT else CONFIRMED
