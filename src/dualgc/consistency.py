"""Cut-and-choose input consistency for the two role-swapped garbled circuits.

For every input wire, its data provider prepares ``s`` independent copies of
the wire's label material. Copy ``j`` holds fresh encodings for both
circuits plus an orientation bit ``b``; it is published as a pair of
commitment sets:

* ``W``  = ( com(K1_0 || K1_1 || K2_b),     com(K2_0 || K2_1 || K1_b) )
* ``W'`` = ( com(K1_0 || K1_1 || K2_{1-b}), com(K2_0 || K2_1 || K1_{1-b}) )

plus one position commitment to ``p = b XOR x`` (``p = 0`` selects ``W`` as
the copy's input set), five commitments per copy in total. Each copy comes
from a 16-byte seed the provider draws: SHAKE-256 over a domain tag and
the seed gives both encodings, ``b`` and the four input-set nonces. The
position nonce is drawn apart, from the provider's own stream: were it in
the seed, a party holding the seed could test ``com(p)`` for both ``p``
and learn ``x = p XOR b``. A jointly tossed challenge string marks each
copy as a *check* copy (opened by its seed: the party regenerates the four
input-set commitments and compares) or an *evaluation* copy (the position
is opened, then the selected set's first commitment goes to the first
party and its second commitment to the second party). Each party XORs its
evaluation triples into final labels. This is the seed-opened check of
Goyal-Mohassel-Smith (EUROCRYPT 2008); check copies are discarded, so their
seeds reveal nothing that is used later.

A commitment is its 32-byte digest, and a copy's public *pair* is its five
commitments laid end to end, ``W_0 || W_1 || W'_0 || W'_1 || position``:
160 bytes, as on the wire.

The provider then attests each wire's two *label sets*, one per circuit:
the sorted pair ``{XOR_j H(K_0,j), XOR_j H(K_1,j)}`` over the evaluation
copies. A party checks that its own encoding gives its circuit's set and
that its cross labels give one value of the other circuit's set, so a
mixed evaluation set is caught without the party learning the input bit.
This deviates from the paper, where the two parties compare label hashes
with each other.

Only the two parties receive a provider's commitment pairs, check seeds
and label sets. Each party echoes to every other role one record per
provider: a SHA-256 over its ``wire_digest`` of each wire (a SHA-256 over
the wire's ``s`` pairs in copy order under a domain tag), the
``seed_digest`` of its check seeds, and a SHA-256 over its label sets.
This deviates from the paper, where every provider receives the full
lists; the other providers need them only to arbitrate.

Failures are publicly arbitrated: a party that claims a check copy is not
its seed's presents the owner's wire digests and check seeds and the
wire's pairs, and a party whose label-set check failed presents the
owner's wire digests and label sets, the wire's pairs and openings that
only the provider could have made. Each counts only if it hashes to the
record the arbitrating provider holds. A false accusation is
attributed to the accuser and a real inconsistency to the provider.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .commitments import (DIGEST_BYTES, NONCE_BYTES, TAG_COIN, TAG_INPUT_SET,
                          TAG_POSITION, Opening, commit, open_commitment,
                          opened_body, tagged_commit)
from .errors import CoinTossCheatError
from .garbling import LABEL_BYTES, Encoding, xor_bytes

COMMITMENTS_PER_COPY = 5
PAIR_BYTES = COMMITMENTS_PER_COPY * DIGEST_BYTES
_POSITION_AT = 4 * DIGEST_BYTES  # after W and W'

WIRE_DIGEST_TAG = b"dualgc/wire-commitments/v1"


def wire_digest(pairs: bytes) -> bytes:
    """The 32-byte digest binding one wire's committed copies: SHA-256
    under a domain tag over its ``s`` pairs laid end to end in copy order,
    as they lie on the wire."""
    return hashlib.sha256(WIRE_DIGEST_TAG + pairs).digest()


@dataclass(frozen=True)
class CopyMaterial:
    """Provider-side secrets behind one copy's five commitments, and its
    public 160-byte pair."""

    seed: bytes
    b: int
    w_openings: tuple[Opening, Opening]
    w_prime_openings: tuple[Opening, Opening]
    position_opening: Opening
    pair: bytes


@dataclass
class WireMaterial:
    """All copies a provider prepared for one input wire."""

    x: int
    copies: list[CopyMaterial]

    @property
    def s(self) -> int:
        return len(self.copies)

    def pairs(self) -> list[bytes]:
        return [c.pair for c in self.copies]

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


SEED_BYTES = 16
COPY_SEED_TAG = b"dualgc/copy-seed/v1"
_NONCES_AT = 4 * LABEL_BYTES + 1  # after the four labels and the bit


def expand_seed(seed: bytes):
    """What a copy seed gives: circuit 1's and circuit 2's encodings, the
    orientation bit ``b`` and the four input-set nonces, read from
    SHAKE-256 over a domain tag and the seed. Not the position nonce."""
    stream = hashlib.shake_256(COPY_SEED_TAG + seed).digest(
        _NONCES_AT + 4 * NONCE_BYTES)
    k1, k2 = stream[:2 * LABEL_BYTES], stream[2 * LABEL_BYTES:4 * LABEL_BYTES]
    return (Encoding(k1[:LABEL_BYTES], k1[LABEL_BYTES:]),
            Encoding(k2[:LABEL_BYTES], k2[LABEL_BYTES:]),
            stream[_NONCES_AT - 1] & 1,
            [stream[k:k + NONCE_BYTES]
             for k in range(_NONCES_AT, len(stream), NONCE_BYTES)])


def _input_sets(seed: bytes, flip_for: int | None = None):
    """The bit ``b`` of the copy ``seed`` expands to, and its four
    input-set (body, nonce) pairs, ``W`` then ``W'``. With ``flip_for`` a
    bit ``x``, the set selected for ``x`` carries circuit-2 cross label
    ``1 - x``."""
    enc1, enc2, b, nonces = expand_seed(seed)
    k1, k2 = enc1.zero + enc1.one, enc2.zero + enc2.one
    cross2 = [enc2[b], enc2[1 - b]]
    if flip_for is not None:
        cross2[b ^ flip_for] = enc2[1 - flip_for]
    bodies = (k1 + cross2[0], k2 + enc1[b], k1 + cross2[1], k2 + enc1[1 - b])
    return b, zip(bodies, nonces)


def _build_copy(seed: bytes, position_nonce: bytes, x: int,
                consistent: bool) -> CopyMaterial:
    b, sets = _input_sets(seed, None if consistent else x)
    coms = [tagged_commit(TAG_INPUT_SET, body, nonce) for body, nonce in sets]
    coms.append(tagged_commit(TAG_POSITION, bytes([b ^ x]), position_nonce))
    digests, openings = zip(*coms)
    return CopyMaterial(seed=seed, b=b, w_openings=openings[:2],
                        w_prime_openings=openings[2:4],
                        position_opening=openings[4], pair=b"".join(digests))


def generate_input_material(rng: random.Random, x: int, s: int) -> WireMaterial:
    """Honest provider material for one wire carrying plaintext bit ``x``."""
    return generate_cheating_material(rng, x, s, [True] * s)


def generate_cheating_material(rng: random.Random, x: int, s: int,
                               consistent: list[bool]) -> WireMaterial:
    """Material where copies with ``consistent[j] == False`` feed bit ``1-x``
    to the first party's circuit-2 cross while keeping everything else
    honest: the classic input-inconsistency attack. Every copy's seed and
    position nonce are drawn from ``rng``. A tampered copy is no longer its
    seed's, so it fails the check if opened, and mixing tampered with
    honest copies in the evaluation set fails the label-set check.
    """
    if x not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    if s < 2:
        raise ValueError("need at least two copies")
    if len(consistent) != s:
        raise ValueError("need one consistency flag per copy")
    return WireMaterial(x=x, copies=[
        _build_copy(rng.randbytes(SEED_BYTES), rng.randbytes(NONCE_BYTES), x,
                    ok) for ok in consistent])


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


def coin_toss_open(commitment: bytes, opening: Opening,
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


# --- seed check (check copies) ----------------------------------------------

def seed_digest(seeds: bytes) -> bytes:
    """SHA-256 over a provider's check seeds, laid end to end in their
    list order."""
    return hashlib.sha256(seeds).digest()


def check_pair_construction(pair: bytes, seed: bytes) -> bool:
    """Whether check copy ``pair`` is its seed's: the four input-set
    commitments the seed regenerates are its ``W`` and ``W'``."""
    return b"".join(commit(TAG_INPUT_SET + body, nonce) for body, nonce
                    in _input_sets(seed)[1]) == pair[:_POSITION_AT]


def verify_check_failure_claim(pair: bytes, seeds, at: int,
                               digest: bytes) -> bool:
    """Arbitrate a party's claim that check copy ``pair`` is not its
    seed's: whether the owner's check ``seeds`` hash to the seed
    ``digest`` the arbitrator holds and the seed at ``at`` does not
    regenerate the pair. A claim that proves no fault is fabricated."""
    return (seed_digest(b"".join(seeds)) == digest
            and not check_pair_construction(pair, seeds[at]))


# --- evaluation copies -------------------------------------------------------

def _parse_triple(opening: Opening):
    body = opened_body(TAG_INPUT_SET, opening)
    if len(body) != 3 * LABEL_BYTES:
        raise ValueError("input-set opening must hold three labels")
    return (body[:LABEL_BYTES], body[LABEL_BYTES:2 * LABEL_BYTES],
            body[2 * LABEL_BYTES:])


def open_position(pair: bytes, opening: Opening) -> int | None:
    if not open_commitment(pair[_POSITION_AT:], opening):
        return None
    try:
        body = opened_body(TAG_POSITION, opening)
    except ValueError:
        return None
    if len(body) != 1 or body[0] not in (0, 1):
        return None
    return body[0]


def open_eval_triple(pair: bytes, position: int, slot: int,
                     opening: Opening):
    """Open one commitment of the copy's input set.

    ``slot`` 0 is the first commitment (first party), 1 the second. Returns
    the (label0, label1, cross) triple, or None when the opening fails.
    """
    at = (2 * position + slot) * DIGEST_BYTES
    if not open_commitment(pair[at:at + DIGEST_BYTES], opening):
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
