"""Cut-and-choose input consistency for the two role-swapped garbled circuits.

For every input wire, its data provider prepares ``s`` independent copies of
the wire's label material. Copy ``j`` holds fresh encodings for both
circuits plus an orientation bit ``b``; it is published as a pair of
commitment sets:

* ``W``  = ( com(K1_0 || K1_1 || K2_b),     com(K2_0 || K2_1 || K1_b) )
* ``W'`` = ( com(K1_0 || K1_1 || K2_{1-b}), com(K2_0 || K2_1 || K1_{1-b}) )

plus one position commitment to ``p = b XOR x`` (``p = 0`` selects ``W`` as
the copy's input set), five commitments per copy in total. A jointly tossed
challenge string marks each copy as a *check* copy (all four input-set
commitments opened, construction verified) or an *evaluation* copy (the
position is opened, then the selected set's first commitment goes to the
first party and its second commitment to the second party). Each party XORs
its evaluation triples into final labels.

The provider then attests each wire's two *label sets*, one per circuit:
the sorted pair ``{XOR_j H(K_0,j), XOR_j H(K_1,j)}`` over the evaluation
copies. A party checks that its own encoding gives its circuit's set and
that its cross labels give one value of the other circuit's set, so a
mixed evaluation set is caught without the party learning the input bit.
This deviates from the paper, where the two parties compare label hashes
with each other.

Only the two parties receive a wire's commitment pairs. Every other provider
receives one ``wire_digest`` per wire instead: a SHA-256 over the wire's
``s`` pairs in copy order, under a domain tag. This deviates from the
paper, where every provider receives the full lists; the other providers
need them only to arbitrate.

Failures are publicly arbitrated: a party that claims a bad check copy or a
failed label-set check presents the wire's pairs, which count only if they
hash to the digest the arbitrating provider holds, and openings that only
the provider could have made. A false accusation is attributed to the
accuser and a real inconsistency to the provider. A check opening that does
not open its commitment needs no arbitration: the party that received it
aborts against the provider at once, as for an evaluation opening.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .commitments import (NONCE_BYTES, TAG_COIN, TAG_INPUT_SET,
                          TAG_POSITION, Commitment, Opening, open_commitment,
                          opened_body, tagged_commit)
from .errors import CoinTossCheatError
from .garbling import LABEL_BYTES, Encoding, xor_bytes

COMMITMENTS_PER_COPY = 5


@dataclass(frozen=True)
class CommitmentSetPair:
    """Public view of one copy: the W / W' sets and the position commitment."""

    w: tuple[Commitment, Commitment]
    w_prime: tuple[Commitment, Commitment]
    position: Commitment


WIRE_DIGEST_TAG = b"dualgc/wire-commitments/v1"


def wire_digest(pairs) -> bytes:
    """The 32-byte digest binding one wire's committed copies: SHA-256
    under a domain tag over each pair's five commitments (``W``, ``W'``,
    position) in copy order, the order they take on the wire."""
    h = hashlib.sha256(WIRE_DIGEST_TAG)
    for pair in pairs:
        for com in pair.w + pair.w_prime + (pair.position,):
            h.update(com.digest)
    return h.digest()


@dataclass(frozen=True)
class CopyMaterial:
    """Provider-side secrets behind one copy's five commitments."""

    b: int
    w_openings: tuple[Opening, Opening]
    w_prime_openings: tuple[Opening, Opening]
    position_opening: Opening
    pair: CommitmentSetPair


@dataclass
class WireMaterial:
    """All copies a provider prepared for one input wire."""

    x: int
    copies: list[CopyMaterial]

    @property
    def s(self) -> int:
        return len(self.copies)

    def pairs(self) -> list[CommitmentSetPair]:
        return [c.pair for c in self.copies]

    def check_openings(self, j: int):
        c = self.copies[j]
        return c.w_openings + c.w_prime_openings

    def eval_openings(self, j: int):
        """(position, first->P1, second->P2) openings of the input set."""
        c = self.copies[j]
        chosen = c.w_openings if (c.b ^ self.x) == 0 else c.w_prime_openings
        return c.position_opening, chosen[0], chosen[1]

    def label_sets(self, rho) -> tuple:
        """Circuit 1's and circuit 2's label sets over the evaluation
        copies, those with ``rho[j] == 0``."""
        triples = [[_parse_triple(o) for o in self.eval_openings(j)[1:]]
                   for j in range(self.s) if not rho[j]]
        return tuple(label_set([t[slot] for t in triples]) for slot in (0, 1))


def _fresh_encoding(rng: random.Random) -> Encoding:
    zero = rng.randbytes(LABEL_BYTES)
    one = rng.randbytes(LABEL_BYTES)
    while one == zero:  # pragma: no cover
        one = rng.randbytes(LABEL_BYTES)
    return Encoding(zero, one)


def _commit_copy(rng: random.Random, enc1: Encoding, enc2: Encoding, b: int,
                 p: int, cross1, cross2) -> CopyMaterial:
    """cross1/cross2 give the (W cross, W' cross) label per circuit."""
    def com(tag, body):
        return tagged_commit(tag, body, rng.randbytes(NONCE_BYTES))

    w_first = com(TAG_INPUT_SET, enc1.zero + enc1.one + cross2[0])
    w_second = com(TAG_INPUT_SET, enc2.zero + enc2.one + cross1[0])
    wp_first = com(TAG_INPUT_SET, enc1.zero + enc1.one + cross2[1])
    wp_second = com(TAG_INPUT_SET, enc2.zero + enc2.one + cross1[1])
    pos = com(TAG_POSITION, bytes([p]))
    pair = CommitmentSetPair(
        w=(w_first[0], w_second[0]),
        w_prime=(wp_first[0], wp_second[0]),
        position=pos[0])
    return CopyMaterial(
        b=b, w_openings=(w_first[1], w_second[1]),
        w_prime_openings=(wp_first[1], wp_second[1]),
        position_opening=pos[1], pair=pair)


def generate_input_material(rng: random.Random, x: int, s: int) -> WireMaterial:
    """Honest provider material for one wire carrying plaintext bit ``x``."""
    return generate_cheating_material(rng, x, s, [True] * s)


def generate_cheating_material(rng: random.Random, x: int, s: int,
                               consistent: list[bool]) -> WireMaterial:
    """Material where copies with ``consistent[j] == False`` feed bit ``1-x``
    to the first party's circuit-2 cross while keeping everything else
    honest: the classic input-inconsistency attack. A tampered copy fails
    the construction check if opened, and mixing tampered with honest
    copies in the evaluation set fails the label-set check.
    """
    if x not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    if s < 2:
        raise ValueError("need at least two copies")
    if len(consistent) != s:
        raise ValueError("need one consistency flag per copy")
    copies = []
    for j in range(s):
        enc1 = _fresh_encoding(rng)
        enc2 = _fresh_encoding(rng)
        b = rng.getrandbits(1)
        p = b ^ x
        cross1 = [enc1.label(b), enc1.label(1 - b)]
        cross2 = [enc2.label(b), enc2.label(1 - b)]
        if not consistent[j]:
            # Flip only the circuit-2 cross inside the selected input set.
            cross2[p] = enc2.label(1 - x)
            cross1[p] = enc1.label(x)
        copies.append(_commit_copy(rng, enc1, enc2, b, p,
                                   tuple(cross1), tuple(cross2)))
    return WireMaterial(x=x, copies=copies)


# --- challenge coin toss -----------------------------------------------------

SEED_SHARE_BYTES = 32


def unpack_bits(data: bytes, count: int) -> list[int]:
    return [(data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(count)]


def coin_toss_commit(rng: random.Random):
    """Draw a 32-byte seed share and commit to it; returns (share,
    commitment, opening)."""
    share = rng.randbytes(SEED_SHARE_BYTES)
    commitment, opening = tagged_commit(TAG_COIN, share,
                                        rng.randbytes(NONCE_BYTES))
    return share, commitment, opening


def coin_toss_open(commitment: Commitment, opening: Opening,
                   party: str) -> bytes:
    """Verify a counterpart's seed-share reveal against its commitment."""
    if not open_commitment(commitment, opening):
        raise CoinTossCheatError("challenge share reveal does not match its "
                                 "commitment", party=party)
    try:
        body = opened_body(TAG_COIN, opening)
    except ValueError:
        raise CoinTossCheatError("malformed challenge share reveal",
                                 party=party)
    if len(body) != SEED_SHARE_BYTES:
        raise CoinTossCheatError("challenge share has the wrong length",
                                 party=party)
    return body


def combine_challenge(share_p1: bytes, share_p2: bytes, wire: int,
                      s: int) -> list[int]:
    """Wire ``wire``'s challenge: the first ``s`` bits of
    SHAKE-256(share_p1 || share_p2 || wire || ctr), bumping ``ctr`` past
    degenerate (all-check or all-evaluate) strings, so the challenge is
    uniform over the 2^s - 2 valid ones."""
    if s < 2:
        raise ValueError("need at least two copies")
    prefix = share_p1 + share_p2 + wire.to_bytes(4, "big")
    ctr = 0
    while True:
        digest = hashlib.shake_256(prefix + ctr.to_bytes(4, "big")).digest(
            (s + 7) // 8)
        rho = unpack_bits(digest, s)
        if 0 < sum(rho) < s:
            return rho
        ctr += 1


# --- construction check (check copies) --------------------------------------

def _parse_triple(opening: Opening):
    body = opened_body(TAG_INPUT_SET, opening)
    if len(body) != 3 * LABEL_BYTES:
        raise ValueError("input-set opening must hold three labels")
    return (body[:LABEL_BYTES], body[LABEL_BYTES:2 * LABEL_BYTES],
            body[2 * LABEL_BYTES:])


def _set_orientation(first, second) -> int | None:
    """The bit both crosses point at, or None if the set is malformed."""
    k11, k12, k13 = first
    k21, k22, k23 = second
    if k11 == k12 or k21 == k22:
        return None
    if k23 == k11 and k13 == k21:
        return 0
    if k23 == k12 and k13 == k22:
        return 1
    return None


def _opens_pair(pair: CommitmentSetPair, openings) -> bool:
    """Whether the openings open the pair's four input-set commitments."""
    return len(openings) == 4 and all(
        open_commitment(c, o) for c, o in zip(pair.w + pair.w_prime, openings))


# The fault of check openings that do not open their commitments: only the
# provider can be at fault, so a party aborts against it instead of claiming.
UNOPENED = "opening does not match the broadcast commitment"


def check_pair_construction(pair: CommitmentSetPair, openings) -> str | None:
    """Verify a check copy's four openings; None when well constructed,
    ``UNOPENED`` when they do not open the pair, else the construction
    fault."""
    if not _opens_pair(pair, openings):
        return UNOPENED
    return _construction_fault(openings)


def _construction_fault(openings) -> str | None:
    """What is wrong with a copy built from four opened input sets."""
    try:
        triples = [_parse_triple(op) for op in openings]
    except ValueError:
        return "malformed input-set opening"
    b_w = _set_orientation(triples[0], triples[1])
    b_wp = _set_orientation(triples[2], triples[3])
    if b_w is None or b_wp is None:
        return "cross labels do not agree on a bit value"
    if b_wp != 1 - b_w:
        return "the two sets of a pair must commit to opposite bit values"
    if triples[0][:2] != triples[2][:2] or triples[1][:2] != triples[3][:2]:
        return "the two sets of a pair must share their encodings"
    return None


def verify_check_failure_claim(pair: CommitmentSetPair, openings) -> str | None:
    """Arbitrate a party's claim that a check copy was badly constructed:
    the construction fault the claim proves, or None when it proves none.

    The openings must match the provider's broadcast commitments (otherwise
    the claim is fabricated) and must actually fail the construction check.
    """
    if not _opens_pair(pair, openings):
        return None
    return _construction_fault(openings)


# --- evaluation copies -------------------------------------------------------

def open_position(pair: CommitmentSetPair, opening: Opening) -> int | None:
    if not open_commitment(pair.position, opening):
        return None
    try:
        body = opened_body(TAG_POSITION, opening)
    except ValueError:
        return None
    if len(body) != 1 or body[0] not in (0, 1):
        return None
    return body[0]


def open_eval_triple(pair: CommitmentSetPair, position: int, slot: int,
                     opening: Opening):
    """Open one commitment of the copy's input set.

    ``slot`` 0 is the first commitment (first party), 1 the second. Returns
    the (label0, label1, cross) triple, or None when the opening fails.
    """
    chosen = pair.w if position == 0 else pair.w_prime
    if not open_commitment(chosen[slot], opening):
        return None
    try:
        return _parse_triple(opening)
    except ValueError:
        return None


def evaluate_final_labels(triples):
    """XOR per-copy triples into (own-circuit encoding, other-circuit label)."""
    zero = bytes(LABEL_BYTES)
    k1 = k2 = k3 = zero
    for a, b, c in triples:
        k1 = xor_bytes(k1, a)
        k2 = xor_bytes(k2, b)
        k3 = xor_bytes(k3, c)
    return Encoding(k1, k2), k3


# --- label-set check ---------------------------------------------------------

def hash_label(label: bytes) -> bytes:
    return hashlib.sha256(label).digest()


def _xor_hashes(labels) -> bytes:
    acc = bytes(32)
    for label in labels:
        acc = xor_bytes(acc, hash_label(label))
    return acc


def label_set(triples) -> tuple[bytes, bytes]:
    """One circuit's label set: its two aggregates ``XOR_j H(K_0,j)`` and
    ``XOR_j H(K_1,j)`` over the triples, sorted so they hide which is 0."""
    return tuple(sorted((_xor_hashes(t[0] for t in triples),
                         _xor_hashes(t[1] for t in triples))))


def labels_consistent(triples, sets, slot: int) -> bool:
    """Whether the triples of party ``slot`` (0 for the first) agree with a
    wire's label sets: its own encoding gives its circuit's set, and its
    cross labels one value of the other circuit's set."""
    return (label_set(triples) == tuple(sets[slot])
            and _xor_hashes(t[2] for t in triples) in sets[1 - slot])


def open_evidence(pairs, copies, slot: int, openings) -> list | None:
    """The triples that party ``slot``'s (position, input-set) openings of
    the evaluation copies ``copies`` reveal, or None when one fails."""
    triples = []
    for j, (pos_op, set_op) in zip(copies, openings):
        pair = pairs[j]
        pos = open_position(pair, pos_op)
        triple = None if pos is None else open_eval_triple(pair, pos, slot,
                                                           set_op)
        if triple is None:
            return None
        triples.append(triple)
    return triples
