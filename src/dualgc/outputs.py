"""Publicly verifiable output delivery.

After both garbled circuits are evaluated, each party holds, for every
output recipient: the output-wire *encodings* of the circuit it garbled and
the output-wire *labels* it obtained evaluating the other circuit. Both
parties broadcast commitments to all of it (four per recipient: encodings
and labels for each circuit), every recipient cross-checks it saw the same
bundle, and then each party privately opens the relevant commitments to
each recipient. A recipient decodes its result twice, once per circuit, and
accepts only if the two agree.

Because the commitments were public, a recipient that sees a disagreement
can prove it: its failure proof simply forwards the four openings, and any
verifier replays the decoding against the broadcast bundle. A fabricated
proof (openings that do not match the bundle, or decodings that actually
agree) is attributed to the complainer; a genuine disagreement tells every
recipient to discard the result.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .commitments import (NONCE_BYTES, TAG_OUTPUT_ENCODING, TAG_OUTPUT_LABEL,
                          Commitment, Opening, open_commitment, opened_body,
                          tagged_commit)
from .errors import DecodeError
from .garbling import LABEL_BYTES, Encoding, decode

ACCEPT = "accept"
REJECT = "reject"
BLAME = "blame"

CONFIRMED = "confirmed"
SPURIOUS = "spurious"

COMMITMENTS_PER_RECIPIENT = 4


@dataclass(frozen=True)
class OutputCommitments:
    """The four broadcast commitments concerning one recipient.

    ``e1``/``o2`` come from the first party (garbler of circuit 1,
    evaluator of circuit 2); ``e2``/``o1`` from the second party.
    """

    e1: Commitment
    o1: Commitment
    e2: Commitment
    o2: Commitment


@dataclass(frozen=True)
class OutputOpenings:
    e1: Opening
    o1: Opening
    e2: Opening
    o2: Opening


@dataclass(frozen=True)
class OutputDecision:
    status: str
    value: tuple[int, ...] | None = None
    blamed: object = None  # party1 or party2 of verify_output


def commit_output_encodings(rng: random.Random, encodings) -> tuple[Commitment, Opening]:
    body = b"".join(e.zero + e.one for e in encodings)
    return tagged_commit(TAG_OUTPUT_ENCODING, body, rng.randbytes(NONCE_BYTES))


def commit_output_labels(rng: random.Random, labels) -> tuple[Commitment, Opening]:
    return tagged_commit(TAG_OUTPUT_LABEL, b"".join(labels),
                         rng.randbytes(NONCE_BYTES))


def parse_output_encodings(opening: Opening, wires: int) -> list[Encoding] | None:
    """Recover per-wire encodings; None if malformed or degenerate."""
    try:
        body = opened_body(TAG_OUTPUT_ENCODING, opening)
    except ValueError:
        return None
    if len(body) != wires * 2 * LABEL_BYTES:
        return None
    out = []
    for i in range(wires):
        chunk = body[i * 2 * LABEL_BYTES:(i + 1) * 2 * LABEL_BYTES]
        enc = Encoding(chunk[:LABEL_BYTES], chunk[LABEL_BYTES:])
        if enc.zero == enc.one:
            return None
        out.append(enc)
    return out


def parse_output_labels(opening: Opening, wires: int) -> list[bytes] | None:
    try:
        body = opened_body(TAG_OUTPUT_LABEL, opening)
    except ValueError:
        return None
    if len(body) != wires * LABEL_BYTES:
        return None
    return [body[i * LABEL_BYTES:(i + 1) * LABEL_BYTES] for i in range(wires)]


def bundle_digest(bundles) -> bytes:
    """Fingerprint of the broadcast commitment bundle, in recipient order."""
    h = hashlib.sha256()
    for b in bundles:
        for com in (b.e1, b.o1, b.e2, b.o2):
            h.update(com.digest)
    return h.digest()


def verify_output(coms: OutputCommitments, ops: OutputOpenings, wires: int,
                  party1="P1", party2="P2") -> OutputDecision:
    """A recipient's view: open everything, decode twice, compare.

    An opening that fails to verify or parses to invalid material blames the
    party that produced it; decodings that disagree (or labels outside their
    encodings) yield a rejection that the recipient can later prove.
    """
    for com, op, party in ((coms.e1, ops.e1, party1), (coms.o2, ops.o2, party1),
                           (coms.e2, ops.e2, party2), (coms.o1, ops.o1, party2)):
        if not open_commitment(com, op):
            return OutputDecision(BLAME, blamed=party)
    enc1 = parse_output_encodings(ops.e1, wires)
    labels2 = parse_output_labels(ops.o2, wires)
    if enc1 is None or labels2 is None:
        return OutputDecision(BLAME, blamed=party1)
    enc2 = parse_output_encodings(ops.e2, wires)
    labels1 = parse_output_labels(ops.o1, wires)
    if enc2 is None or labels1 is None:
        return OutputDecision(BLAME, blamed=party2)
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
    """Arbitrate a rejection, proven by the complainer's four openings of
    its bundle ``coms``: CONFIRMED discards the result everywhere, SPURIOUS
    flags the complainer and lets everyone else accept."""
    for com, op in ((coms.e1, ops.e1), (coms.o1, ops.o1),
                    (coms.e2, ops.e2), (coms.o2, ops.o2)):
        if not open_commitment(com, op):
            return SPURIOUS
    decision = verify_output(coms, ops, wires)
    return SPURIOUS if decision.status == ACCEPT else CONFIRMED
