"""Cut-and-choose input consistency for the two role-swapped garbled circuits.

For every input wire, its data provider prepares ``s`` independent copies of
the wire's label material. Copy ``j`` holds fresh encodings for both
circuits plus an orientation bit ``b``; it is committed as a pair of
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
copy as a *check* copy (opened by its seed) or an *evaluation* copy (the
position is opened, then the selected set's first commitment goes to the
first party and its second commitment to the second party). Each party
XORs its evaluation triples into final labels. This is the seed-opened
check of Goyal-Mohassel-Smith (EUROCRYPT 2008); check copies are
discarded, so their seeds reveal nothing that is used later.

A commitment is its 32-byte digest. The parties do not receive a copy's
five commitments but one 32-byte *leaf* over them, a small hash tree
(Merkle, CRYPTO 1987): ``leaf = H(H(W_0 || W_1) || H(W'_0 || W'_1) ||
position)``, ``H`` being SHA-256. A check copy's seed travels with its
position commitment, and the party rebuilds the leaf from the four
input-set commitments the seed regenerates. An evaluation copy's openings
travel with two *siblings*, the other party's commitment of the selected
set and ``H`` of the set not selected, and the party rebuilds the leaf
from its own two openings and them. A leaf is a hash of commitments the
party could be sent, so it learns nothing from it, and a leaf that does
not rebuild names its copy.

The provider then attests each wire's two *label sets*, one per circuit:
the sorted pair ``{XOR_j H(K_0,j), XOR_j H(K_1,j)}`` over the evaluation
copies. A party checks that its own encoding gives its circuit's set and
that its cross labels give one value of the other circuit's set, so a
mixed evaluation set is caught without the party learning the input bit.
This deviates from the paper, where the two parties compare label hashes
with each other.

Only the two parties receive a provider's leaves, check seeds and label
sets. Each party echoes to every other role one record per provider: a
SHA-256 over its ``wire_digest`` of each wire (a SHA-256 over the wire's
``s`` leaves in copy order under a domain tag), the ``seed_digest`` of its
check seeds and their position commitments, and a SHA-256 over its label
sets. This deviates from the paper, where every provider receives the
full lists; the other providers need them only to arbitrate.

Failures are publicly arbitrated: a party that claims a check copy is not
its seed's presents the owner's wire digests and check seeds and the
wire's leaves, and a party whose label-set check failed presents the
owner's wire digests and label sets, the wire's leaves and openings that
only the provider could have made. Each counts only if it hashes to the
record the arbitrating provider holds. A false accusation is
attributed to the accuser and a real inconsistency to the provider.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

# ``commitments.commit`` is looked up at each call, so that whatever wraps
# it (a counter, a tracer) sees every digest this module computes.
from . import commitments
from .commitments import (DIGEST_BYTES, NONCE_BYTES, TAG_COIN, TAG_INPUT_SET,
                          TAG_POSITION, Opening, open_commitment, opened_body,
                          tagged_commit)
from .errors import CoinTossCheatError
from .garbling import LABEL_BYTES, Encoding, xor_bytes

COMMITMENTS_PER_COPY = 5
LEAF_BYTES = DIGEST_BYTES
_SET_BYTES = 2 * DIGEST_BYTES  # one input set: its two commitments

WIRE_DIGEST_TAG = b"dualgc/wire-leaves/v2"


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def wire_digest(leaves: bytes) -> bytes:
    """The 32-byte digest binding one wire's committed copies: SHA-256
    under a domain tag over its ``s`` leaves laid end to end in copy order,
    as they lie on the wire."""
    return _h(WIRE_DIGEST_TAG + leaves)


def copy_leaf(coms: bytes) -> bytes:
    """The leaf of a copy's five commitments ``W_0 || W_1 || W'_0 || W'_1
    || position``: ``H(H(W_0 || W_1) || H(W'_0 || W'_1) || position)``."""
    return _h(_h(coms[:_SET_BYTES]) + _h(coms[_SET_BYTES:2 * _SET_BYTES])
              + coms[2 * _SET_BYTES:])


class CopyMaterial(NamedTuple):
    """Provider-side secrets of one copy: its seed, its bit ``b``, the
    (body, nonce) of its four input sets' commitments, ``W`` then ``W'``,
    and its position nonce; then its five commitments end to end (160
    bytes) and its public leaf."""

    seed: bytes
    b: int
    sets: tuple
    position_nonce: bytes
    coms: bytes
    leaf: bytes


@dataclass
class WireMaterial:
    """All copies a provider prepared for one input wire."""

    x: int
    copies: list[CopyMaterial]

    @property
    def s(self) -> int:
        return len(self.copies)

    def leaves(self) -> list[bytes]:
        return [c.leaf for c in self.copies]

    def check_seed(self, j: int) -> tuple[bytes, bytes]:
        """Check copy ``j``'s seed and its position commitment, as sent."""
        c = self.copies[j]
        return c.seed, c.coms[2 * _SET_BYTES:]

    def _selected(self, j: int) -> int:
        """The index, 0 for ``W`` or 2 for ``W'``, of copy ``j``'s input
        set among its four commitments."""
        return 2 * (self.copies[j].b ^ self.x)

    def eval_openings(self, j: int, slot: int) -> tuple:
        """Party ``slot``'s (0 for the first) entry for evaluation copy
        ``j``: the position byte and nonce, the body and nonce of its
        commitment of the selected input set, and the siblings that rebuild
        the copy's leaf: the other party's commitment of that set and ``H``
        of the set not selected."""
        c, at = self.copies[j], self._selected(j)
        other = (at + 1 - slot) * DIGEST_BYTES
        unselected = (2 - at) * DIGEST_BYTES
        return (bytes([at // 2]), c.position_nonce, *c.sets[at + slot],
                c.coms[other:other + DIGEST_BYTES],
                _h(c.coms[unselected:unselected + _SET_BYTES]))

    def label_sets(self, rho) -> tuple:
        """Circuit 1's and circuit 2's label sets over the evaluation
        copies, those with ``rho[j] == 0``."""
        return tuple(label_set([
            _triple(self.copies[j].sets[self._selected(j) + slot][0])
            for j in range(self.s) if not rho[j]]) for slot in (0, 1))


SEED_BYTES = 16
COPY_SEED_TAG = b"dualgc/copy-seed/v1"
_NONCES_AT = 4 * LABEL_BYTES + 1  # after the four labels and the bit


def expand_seed(seed: bytes, flip_for: int | None = None):
    """What a copy seed gives: the orientation bit ``b`` and its four
    input-set (body, nonce) pairs, ``W`` then ``W'``, read from SHAKE-256
    over a domain tag and the seed: circuit 1's two labels, circuit 2's,
    ``b``, then the four nonces. Not the position nonce. With ``flip_for``
    a bit ``x``, the set selected for ``x`` carries circuit-2 cross label
    ``1 - x``."""
    s = hashlib.shake_256(COPY_SEED_TAG + seed).digest(
        _NONCES_AT + 4 * NONCE_BYTES)
    L, N, at = LABEL_BYTES, NONCE_BYTES, _NONCES_AT
    k1, k2, b = s[:2 * L], s[2 * L:4 * L], s[at - 1] & 1
    enc1, enc2 = (k1[:L], k1[L:]), (k2[:L], k2[L:])
    cross2 = [enc2[b], enc2[1 - b]]
    if flip_for is not None:
        cross2[b ^ flip_for] = enc2[1 - flip_for]
    return b, ((k1 + cross2[0], s[at:at + N]),
               (k2 + enc1[b], s[at + N:at + 2 * N]),
               (k1 + cross2[1], s[at + 2 * N:at + 3 * N]),
               (k2 + enc1[1 - b], s[at + 3 * N:]))


def _set_commitments(sets) -> bytes:
    """The four input-set commitments of (body, nonce) pairs, end to
    end."""
    return b"".join(commitments.commit(TAG_INPUT_SET + body, nonce)
                    for body, nonce in sets)


def _build_copy(seed: bytes, position_nonce: bytes, x: int,
                consistent: bool) -> CopyMaterial:
    b, sets = expand_seed(seed, None if consistent else x)
    coms = _set_commitments(sets) + commitments.commit(
        TAG_POSITION + bytes([b ^ x]), position_nonce)
    return CopyMaterial(seed=seed, b=b, sets=sets,
                        position_nonce=position_nonce, coms=coms,
                        leaf=copy_leaf(coms))


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

# A check copy's seed and its position commitment, as sent
CHECK_BYTES = SEED_BYTES + DIGEST_BYTES


def seed_digest(seeds: bytes) -> bytes:
    """SHA-256 over a provider's check seeds, each with its position
    commitment, laid end to end in their list order."""
    return _h(seeds)


def check_pair_construction(leaf: bytes, seed: bytes,
                            position: bytes) -> bool:
    """Whether check copy ``leaf`` is its seed's: the four input-set
    commitments the seed regenerates and the ``position`` commitment sent
    with it rebuild the leaf."""
    return copy_leaf(_set_commitments(expand_seed(seed)[1])
                     + position) == leaf


def verify_check_failure_claim(leaf: bytes, seeds: bytes, at: int,
                               digest: bytes) -> bool:
    """Arbitrate a party's claim that check copy ``leaf`` is not its
    seed's: whether the owner's check ``seeds``, each with its position
    commitment, as they lie on the wire, hash to the seed ``digest`` the
    arbitrator holds and the check at ``at`` does not rebuild the leaf. A
    claim that proves no fault is fabricated."""
    check = seeds[at * CHECK_BYTES:(at + 1) * CHECK_BYTES]
    return (seed_digest(seeds) == digest and not check_pair_construction(
        leaf, check[:SEED_BYTES], check[SEED_BYTES:]))


# --- evaluation copies -------------------------------------------------------

def _triple(body: bytes):
    return (body[:LABEL_BYTES], body[LABEL_BYTES:2 * LABEL_BYTES],
            body[2 * LABEL_BYTES:])


def open_position(entry) -> int | None:
    """The position an evaluation entry opens, or None when its position
    byte is neither 0 nor 1."""
    return entry[0][0] if entry[0] in (b"\x00", b"\x01") else None


def entry_leaf(entry, slot: int) -> bytes:
    """The leaf that party ``slot``'s evaluation entry rebuilds: its
    commitment and the other party's make the selected set, which the
    position puts before or after the set not selected. The position byte
    must be 0 or 1."""
    position, position_nonce, body, nonce, other, unselected = entry
    own = commitments.commit(TAG_INPUT_SET + body, nonce)
    selected = _h(own + other if slot == 0 else other + own)
    sets = (selected + unselected if position == b"\x00"
            else unselected + selected)
    return _h(sets + commitments.commit(TAG_POSITION + position,
                                        position_nonce))


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


def open_evidence(leaves, copies, slot: int, entries) -> list | None:
    """The triples that party ``slot``'s entries for the evaluation copies
    ``copies`` reveal, or None when one does not rebuild its copy's leaf
    in ``leaves``."""
    triples = []
    for j, entry in zip(copies, entries):
        if (open_position(entry) is None
                or entry_leaf(entry, slot) != leaves[j]):
            return None
        triples.append(_triple(entry[2]))
    return triples
