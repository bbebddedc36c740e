"""Wire format for every protocol message.

Frame layout: ``length (4 BE) || type (1) || session_id (8 BE) || payload``,
where ``length`` counts everything after itself (9 + payload bytes) and the
payload starts with the sender's role tag (kind byte + 2-byte index). All
multi-byte integers are big-endian; commitments travel as their 32-byte
digests and openings as a length-prefixed message plus 16-byte randomness.

``FLOW`` declares, for each message type, which role kinds may send it, who
receives it, and the protocol phase it belongs to. The table is the basis
of the static privacy audit: in the output phase no message flows from a
data provider to a computation party, so the parties cannot learn anything
about the decoded results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .commitments import DIGEST_BYTES, NONCE_BYTES, Commitment, Opening
from .consistency import CommitmentSetPair, ConsistencyProof, HashTuple
from .errors import FramingError, ProtocolError
from .outputs import FailureProof, OutputOpenings

HEADER_BYTES = 13  # length + type + session id
ROLE_PREFIX_BYTES = 3

P1 = 1
P2 = 2
PROVIDER = 3
CLOUD = 4

_KIND_NAMES = {P1: "P1", P2: "P2", PROVIDER: "provider", CLOUD: "cloud"}


@dataclass(frozen=True, order=True)
class Role:
    kind: int
    index: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ProtocolError(f"unknown role kind {self.kind}")
        if not 0 <= self.index < 0x10000:
            raise ProtocolError("role index out of range")

    @property
    def name(self) -> str:
        if self.kind == PROVIDER:
            return f"provider:{self.index}"
        return _KIND_NAMES[self.kind]

    def tag(self) -> bytes:
        return bytes([self.kind]) + self.index.to_bytes(2, "big")


def role_from_tag(tag: bytes) -> Role:
    if len(tag) != ROLE_PREFIX_BYTES:
        raise FramingError("role tag must be three bytes")
    return Role(tag[0], int.from_bytes(tag[1:], "big"))


class MessageType(enum.IntEnum):
    INPUT_COMMITMENTS = 1
    COIN_COMMIT = 2
    COIN_REVEAL = 3
    CHECKSET_OPENINGS = 4
    EVALSET_OPENINGS = 5
    HASH_TUPLE = 6
    CONSISTENCY_PROOF = 7
    PROOF_OPENING_REQUEST = 8
    PROOF_OPENING_RESPONSE = 9
    GARBLED_CIRCUIT = 10
    OUTPUT_COMMITMENTS = 11
    OUTPUT_OPENINGS = 12
    BUNDLE_HASH = 13
    FAILURE_PROOF = 14
    ABORT = 15
    CHECK_FAILURE_CLAIM = 16


PHASE_INPUT = "input"
PHASE_COMPUTE = "compute"
PHASE_OUTPUT = "output"

PHASES = (PHASE_INPUT, PHASE_COMPUTE, PHASE_OUTPUT)

_PARTIES = frozenset({P1, P2})
_PROVIDERS = frozenset({PROVIDER, CLOUD})
_EVERYONE = _PARTIES | _PROVIDERS

# type -> (allowed sender kinds, allowed receiver kinds, phase)
FLOW: dict[MessageType, tuple[frozenset, frozenset, str]] = {
    MessageType.INPUT_COMMITMENTS: (_PROVIDERS, _EVERYONE, PHASE_INPUT),
    MessageType.COIN_COMMIT: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.COIN_REVEAL: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.CHECKSET_OPENINGS: (_PROVIDERS, _PARTIES, PHASE_INPUT),
    MessageType.EVALSET_OPENINGS: (_PROVIDERS, _PARTIES, PHASE_INPUT),
    MessageType.HASH_TUPLE: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.CONSISTENCY_PROOF: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.PROOF_OPENING_REQUEST: (_PROVIDERS, _PARTIES, PHASE_INPUT),
    MessageType.PROOF_OPENING_RESPONSE: (_PARTIES, _PROVIDERS, PHASE_INPUT),
    MessageType.CHECK_FAILURE_CLAIM: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.GARBLED_CIRCUIT: (_PARTIES, _PARTIES, PHASE_COMPUTE),
    MessageType.OUTPUT_COMMITMENTS: (_PARTIES, _EVERYONE, PHASE_OUTPUT),
    MessageType.BUNDLE_HASH: (_PROVIDERS, _PROVIDERS, PHASE_OUTPUT),
    MessageType.OUTPUT_OPENINGS: (_PARTIES, _PROVIDERS, PHASE_OUTPUT),
    MessageType.FAILURE_PROOF: (_PROVIDERS, _PROVIDERS, PHASE_OUTPUT),
    MessageType.ABORT: (_EVERYONE, _EVERYONE, PHASE_OUTPUT),
}


def audit_flow_table() -> None:
    """Static privacy invariant: once outputs are in play, nothing flows
    from a provider to a computation party."""
    for mtype, (senders, receivers, phase) in FLOW.items():
        if phase == PHASE_OUTPUT and mtype is not MessageType.ABORT:
            if senders & _PROVIDERS and receivers & _PARTIES:
                raise ProtocolError(
                    f"{mtype.name} would leak output-phase data to a party")


def check_flow(mtype: MessageType, sender: Role, receiver: Role) -> None:
    senders, receivers, _phase = FLOW[mtype]
    if sender.kind not in senders or receiver.kind not in receivers:
        raise ProtocolError(
            f"{mtype.name} not allowed from {sender.name} to {receiver.name}")


# --- primitive readers/writers ----------------------------------------------

class Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v: int):
        self.parts.append(bytes([v]))

    def u16(self, v: int):
        self.parts.append(v.to_bytes(2, "big"))

    def u32(self, v: int):
        self.parts.append(v.to_bytes(4, "big"))

    def raw(self, b: bytes):
        self.parts.append(b)

    def var(self, b: bytes):
        self.u32(len(b))
        self.parts.append(b)

    def commitment(self, c: Commitment):
        self.parts.append(c.digest)

    def opening(self, o: Opening):
        self.var(o.message)
        self.parts.append(o.randomness)

    def done(self) -> bytes:
        return b"".join(self.parts)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def raw(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FramingError("message payload truncated")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self.raw(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.raw(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.raw(4), "big")

    def var(self) -> bytes:
        return self.raw(self.u32())

    def commitment(self) -> Commitment:
        return Commitment(self.raw(DIGEST_BYTES))

    def opening(self) -> Opening:
        message = self.var()
        return Opening(message, self.raw(NONCE_BYTES))

    def end(self):
        if self.off != len(self.data):
            raise FramingError("message payload has trailing bytes")


# --- frame -------------------------------------------------------------------

def encode_frame(mtype: MessageType, session_id: int, sender: Role,
                 body: bytes) -> bytes:
    payload = sender.tag() + body
    length = 9 + len(payload)
    return (length.to_bytes(4, "big") + bytes([mtype])
            + session_id.to_bytes(8, "big") + payload)


def decode_frame(frame: bytes):
    """-> (type, session_id, sender, body); raises FramingError/ProtocolError."""
    if len(frame) < HEADER_BYTES + ROLE_PREFIX_BYTES:
        raise FramingError("frame shorter than its fixed header")
    length = int.from_bytes(frame[:4], "big")
    if length != len(frame) - 4:
        raise FramingError("frame length field disagrees with frame size")
    try:
        mtype = MessageType(frame[4])
    except ValueError:
        raise ProtocolError(f"unknown message type {frame[4]}")
    session_id = int.from_bytes(frame[5:13], "big")
    sender = role_from_tag(frame[13:16])
    return mtype, session_id, sender, frame[16:]


# --- payload codecs ----------------------------------------------------------

def encode_input_commitments(wires: dict[int, list[CommitmentSetPair]]) -> bytes:
    w = Writer()
    w.u32(len(wires))
    for wire_id in sorted(wires):
        pairs = wires[wire_id]
        w.u32(wire_id)
        w.u16(len(pairs))
        for pair in pairs:
            for com in (pair.w[0], pair.w[1], pair.w_prime[0],
                        pair.w_prime[1], pair.position):
                w.commitment(com)
    return w.done()


def decode_input_commitments(body: bytes) -> dict[int, list[CommitmentSetPair]]:
    r = Reader(body)
    out: dict[int, list[CommitmentSetPair]] = {}
    for _ in range(r.u32()):
        wire_id = r.u32()
        pairs = []
        for _ in range(r.u16()):
            coms = [r.commitment() for _ in range(5)]
            pairs.append(CommitmentSetPair(
                w=(coms[0], coms[1]), w_prime=(coms[2], coms[3]),
                position=coms[4]))
        out[wire_id] = pairs
    r.end()
    return out


def encode_coin_commit(com: Commitment) -> bytes:
    return com.digest


def decode_coin_commit(body: bytes) -> Commitment:
    r = Reader(body)
    com = r.commitment()
    r.end()
    return com


def encode_coin_reveal(opening: Opening) -> bytes:
    w = Writer()
    w.opening(opening)
    return w.done()


def decode_coin_reveal(body: bytes) -> Opening:
    r = Reader(body)
    opening = r.opening()
    r.end()
    return opening


def encode_checkset_openings(wires: dict[int, list[tuple[int, tuple]]]) -> bytes:
    w = Writer()
    w.u32(len(wires))
    for wire_id in sorted(wires):
        entries = wires[wire_id]
        w.u32(wire_id)
        w.u16(len(entries))
        for copy_j, openings in entries:
            w.u16(copy_j)
            for opening in openings:
                w.opening(opening)
    return w.done()


def decode_checkset_openings(body: bytes) -> dict[int, list[tuple[int, tuple]]]:
    r = Reader(body)
    out: dict[int, list[tuple[int, tuple]]] = {}
    for _ in range(r.u32()):
        wire_id = r.u32()
        entries = []
        for _ in range(r.u16()):
            copy_j = r.u16()
            entries.append((copy_j, tuple(r.opening() for _ in range(4))))
        out[wire_id] = entries
    r.end()
    return out


def encode_evalset_openings(wires: dict[int, list[tuple[int, Opening, Opening]]]) -> bytes:
    w = Writer()
    w.u32(len(wires))
    for wire_id in sorted(wires):
        entries = wires[wire_id]
        w.u32(wire_id)
        w.u16(len(entries))
        for copy_j, pos_opening, set_opening in entries:
            w.u16(copy_j)
            w.opening(pos_opening)
            w.opening(set_opening)
    return w.done()


def decode_evalset_openings(body: bytes) -> dict[int, list[tuple[int, Opening, Opening]]]:
    r = Reader(body)
    out: dict[int, list[tuple[int, Opening, Opening]]] = {}
    for _ in range(r.u32()):
        wire_id = r.u32()
        entries = []
        for _ in range(r.u16()):
            entries.append((r.u16(), r.opening(), r.opening()))
        out[wire_id] = entries
    r.end()
    return out


def encode_hash_tuples(wires: dict[int, HashTuple]) -> bytes:
    w = Writer()
    w.u32(len(wires))
    for wire_id in sorted(wires):
        tup = wires[wire_id]
        w.u32(wire_id)
        w.raw(tup.h_pair[0])
        w.raw(tup.h_pair[1])
        w.commitment(tup.c_pair[0])
        w.commitment(tup.c_pair[1])
        w.commitment(tup.c_cross)
    return w.done()


def decode_hash_tuples(body: bytes) -> dict[int, HashTuple]:
    r = Reader(body)
    out = {}
    for _ in range(r.u32()):
        wire_id = r.u32()
        out[wire_id] = HashTuple(
            h_pair=(r.raw(32), r.raw(32)),
            c_pair=(r.commitment(), r.commitment()),
            c_cross=r.commitment())
    r.end()
    return out


def encode_consistency_proof(proof: ConsistencyProof) -> bytes:
    w = Writer()
    w.u16(proof.provider)
    w.u32(proof.wire)
    for h in proof.h_triple:
        w.raw(h)
    for c in proof.c_triple:
        w.commitment(c)
    return w.done()


def decode_consistency_proof(body: bytes) -> ConsistencyProof:
    r = Reader(body)
    provider = r.u16()
    wire = r.u32()
    h = tuple(r.raw(32) for _ in range(3))
    c = tuple(r.commitment() for _ in range(3))
    r.end()
    return ConsistencyProof(provider=provider, wire=wire, h_triple=h, c_triple=c)


OPEN_PAIR = 0
OPEN_CROSS = 1


def encode_proof_opening_request(wire: int, which: int) -> bytes:
    w = Writer()
    w.u32(wire)
    w.u8(which)
    return w.done()


def decode_proof_opening_request(body: bytes) -> tuple[int, int]:
    r = Reader(body)
    wire, which = r.u32(), r.u8()
    r.end()
    if which not in (OPEN_PAIR, OPEN_CROSS):
        raise ProtocolError("unknown proof opening request")
    return wire, which


def encode_proof_opening_response(wire: int, which: int, openings) -> bytes:
    w = Writer()
    w.u32(wire)
    w.u8(which)
    w.u8(len(openings))
    for opening in openings:
        w.opening(opening)
    return w.done()


def decode_proof_opening_response(body: bytes):
    r = Reader(body)
    wire, which = r.u32(), r.u8()
    openings = tuple(r.opening() for _ in range(r.u8()))
    r.end()
    return wire, which, openings


def encode_output_commitments(entries: list[tuple[int, Commitment, Commitment]]) -> bytes:
    w = Writer()
    w.u16(len(entries))
    for recipient, enc_com, label_com in entries:
        w.u16(recipient)
        w.commitment(enc_com)
        w.commitment(label_com)
    return w.done()


def decode_output_commitments(body: bytes) -> list[tuple[int, Commitment, Commitment]]:
    r = Reader(body)
    out = [(r.u16(), r.commitment(), r.commitment()) for _ in range(r.u16())]
    r.end()
    return out


def encode_output_openings(recipient: int, enc_opening: Opening,
                           label_opening: Opening) -> bytes:
    w = Writer()
    w.u16(recipient)
    w.opening(enc_opening)
    w.opening(label_opening)
    return w.done()


def decode_output_openings(body: bytes):
    r = Reader(body)
    out = (r.u16(), r.opening(), r.opening())
    r.end()
    return out


def encode_bundle_hash(digest: bytes) -> bytes:
    return digest


def decode_bundle_hash(body: bytes) -> bytes:
    if len(body) != 32:
        raise FramingError("bundle hash must be 32 bytes")
    return body


def encode_failure_proof(proof: FailureProof) -> bytes:
    w = Writer()
    w.u16(proof.recipient)
    for opening in (proof.openings.e1, proof.openings.o1,
                    proof.openings.e2, proof.openings.o2):
        w.opening(opening)
    return w.done()


def decode_failure_proof(body: bytes) -> FailureProof:
    r = Reader(body)
    recipient = r.u16()
    ops = [r.opening() for _ in range(4)]
    r.end()
    return FailureProof(recipient=recipient, openings=OutputOpenings(
        e1=ops[0], o1=ops[1], e2=ops[2], o2=ops[3]))


def encode_check_failure_claim(provider: int, wire: int, copy_j: int,
                               openings) -> bytes:
    w = Writer()
    w.u16(provider)
    w.u32(wire)
    w.u16(copy_j)
    for opening in openings:
        w.opening(opening)
    return w.done()


def decode_check_failure_claim(body: bytes):
    r = Reader(body)
    provider, wire, copy_j = r.u16(), r.u32(), r.u16()
    openings = tuple(r.opening() for _ in range(4))
    r.end()
    return provider, wire, copy_j, openings


def encode_abort(reason: str, blamed: Role | None) -> bytes:
    w = Writer()
    if blamed is None:
        w.u8(0)
        w.u16(0)
    else:
        w.raw(blamed.tag())
    w.var(reason.encode("utf-8"))
    return w.done()


def decode_abort(body: bytes) -> tuple[str, Role | None]:
    r = Reader(body)
    kind = r.u8()
    index = r.u16()
    reason = r.var().decode("utf-8")
    r.end()
    blamed = None if kind == 0 else Role(kind, index)
    return reason, blamed
