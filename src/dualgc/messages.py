"""Wire format for every protocol message.

Frame layout: ``length (4 BE) || type (1) || session_id (8 BE) || payload``,
where ``length`` counts everything after itself (9 + payload bytes) and the
payload is the sender's role tag (kind byte + 2-byte index) followed by the
message body. ``encode_frame``/``decode_frame`` are this raw frame layer.

``SCHEMAS`` is the wire specification of every body: one codec per message
type, composed from field codecs. Integers are big-endian ``u16``/``u32``;
``raw(n)`` is n bytes; a commitment and a copy's leaf are 32-byte digests,
``raw(32)``; ``text`` is a u32 length and UTF-8 bytes, an opening a u32
length, the message and 16 bytes of randomness; ``listof`` is a u32 count
and the items.
``encode_body``/``decode_body`` run a schema; decoding refuses a truncated
body, trailing bytes, non-UTF-8 text or a non-zero "no one" role tag with
``FramingError``, alike for every type.

A codec whose read accepts any bytes of one width (an integer, ``raw(n)``,
or a ``seq`` or ``array`` of such fields) has that ``size``. Every list
has sized items (``listof`` refuses any other item when the schema is
built) and decodes to a ``Table``: its count is checked against the bytes
left, and an item is sliced and decoded only when it is read, which cannot
fail. The leaves, check seeds, evaluation entries, label sets, wire
digests, echo records and output commitments are such lists. An evaluation
entry is a fixed 145 bytes: its two openings' context tags and lengths are
derived, not sent, and its receiver puts the tags back when it recomputes
the commitments.

A body carries only what its receiver cannot derive. Lists are positional
in an order fixed by the public parameters (the input and output maps,
the copy count ``s`` and the challenge), behind one u32 count, so a body
decodes without context and the receiver checks the count against what
it expects. Only a claim's wire and copy and a proof's wire are named.
In the input phase a bidder sends to the two parties only: one 32-byte
leaf per copy, then (``CHECKSET_OPENINGS`` keeps its name but carries
seeds) its view of the coin toss and the 16-byte seed and 32-byte position
commitment of each check copy, then to each party its own evaluation
entries, each with the two siblings that rebuild its copy's leaf, and the
label sets.
``HASH_TUPLE`` keeps its name but is the parties' echo to every other
role: the coin-toss view and one record per bidder of digests of what
the party received from it. A check-failure claim carries the owner's
wire digests and check seeds and the wire's leaves, a consistency proof
the owner's wire digests and label sets and the wire's leaves, so that
every provider can arbitrate against the echoed records. Output
commitments go to the providers only, one per recipient from each party,
and each recipient gets one opening from each party.
``PROOF_OPENING_REQUEST`` and ``PROOF_OPENING_RESPONSE`` have no schema and
no flow: they are never sent, and a frame of either type is refused like
any unexpected type. They stay members so that no type is renumbered and
per-type metrics keep their names.

``FLOW`` declares, for each message type, which role kinds may send it, who
receives it, and the protocol phase it belongs to. It routes every frame:
a session round sends each sender's frames of a type to every other role
of a kind listed as its receivers, all before any role receives; and
``POINT_TO_POINT`` names the types that carry one value per receiver
rather than one broadcast body. The table is also the basis of the static
privacy audit: in the output phase no message flows from a data provider
to a computation party, so the parties cannot learn anything about the
decoded results.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import methodcaller

from .commitments import DIGEST_BYTES, NONCE_BYTES, Opening
from .consistency import LEAF_BYTES, SEED_BYTES
from .errors import FramingError, ProtocolError
from .garbling import LABEL_BYTES

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
    PROOF_OPENING_REQUEST = 8  # retired: never sent
    PROOF_OPENING_RESPONSE = 9  # retired: never sent
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
_BIDDERS = frozenset({PROVIDER})
_PROVIDERS = _BIDDERS | {CLOUD}
_EVERYONE = _PARTIES | _PROVIDERS

# type -> (allowed sender kinds, allowed receiver kinds, phase)
FLOW: dict[MessageType, tuple[frozenset, frozenset, str]] = {
    MessageType.INPUT_COMMITMENTS: (_BIDDERS, _PARTIES, PHASE_INPUT),
    MessageType.COIN_COMMIT: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.COIN_REVEAL: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.CHECKSET_OPENINGS: (_BIDDERS, _PARTIES, PHASE_INPUT),
    MessageType.EVALSET_OPENINGS: (_BIDDERS, _PARTIES, PHASE_INPUT),
    MessageType.HASH_TUPLE: (_PARTIES, _EVERYONE, PHASE_INPUT),
    MessageType.CONSISTENCY_PROOF: (_PARTIES, _PROVIDERS, PHASE_INPUT),
    MessageType.CHECK_FAILURE_CLAIM: (_PARTIES, _PROVIDERS, PHASE_INPUT),
    MessageType.GARBLED_CIRCUIT: (_PARTIES, _PARTIES, PHASE_COMPUTE),
    MessageType.OUTPUT_COMMITMENTS: (_PARTIES, _PROVIDERS, PHASE_OUTPUT),
    MessageType.BUNDLE_HASH: (_PROVIDERS, _PROVIDERS, PHASE_OUTPUT),
    MessageType.OUTPUT_OPENINGS: (_PARTIES, _PROVIDERS, PHASE_OUTPUT),
    MessageType.FAILURE_PROOF: (_PROVIDERS, _PROVIDERS, PHASE_OUTPUT),
    MessageType.ABORT: (_EVERYONE, _EVERYONE, PHASE_OUTPUT),
}

# Types whose sender gives each receiver its own value; every other type is
# one body broadcast to all of its receivers.
POINT_TO_POINT = frozenset({MessageType.EVALSET_OPENINGS,
                            MessageType.OUTPUT_OPENINGS})


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


# --- field codecs ------------------------------------------------------------

# ``write(out, value)`` appends the value's bytes to the list ``out``;
# ``read(data, off)`` returns ``(value, offset after it)`` and raises
# ``FramingError`` if ``data`` ends first. ``size`` is the field's width in
# bytes when it has one and its read cannot fail on any bytes of that
# width, else None. A sized field's value is ``convert`` applied to its
# bytes, or the bytes themselves where ``convert`` is None.
Codec = namedtuple("Codec", "write read size convert", defaults=(None, None))


_TRUNCATED = "message payload truncated"


def _sized_read(n: int, convert):
    """The read of an ``n``-byte field: one bounds check, then ``convert``
    (if any) on its bytes."""
    def read(data, off):
        end = off + n
        if end > len(data):
            raise FramingError(_TRUNCATED)
        if convert is None:
            return data[off:end], end
        return convert(data[off:end]), end

    return read


def _fixed(n: int, to_bytes, from_bytes=None) -> Codec:
    """An ``n``-byte field."""
    def write(out, value):
        out.append(to_bytes(value))

    return Codec(write, _sized_read(n, from_bytes), n, from_bytes)


def _uint(n: int) -> Codec:
    return _fixed(n, methodcaller("to_bytes", n, "big"),
                  partial(int.from_bytes, byteorder="big"))


u16, u32 = _uint(2), _uint(4)


def raw(n: int) -> Codec:
    """Exactly ``n`` bytes."""
    return _fixed(n, bytes)


commitment = raw(DIGEST_BYTES)
_NO_ROLE = bytes(ROLE_PREFIX_BYTES)


def _role_or_none(tag: bytes):
    if tag == _NO_ROLE:
        return None
    if tag[0] == 0:
        raise FramingError("no-role tag must be all zero")
    return role_from_tag(tag)


# A role tag, or three zero bytes for None; it can refuse its bytes, so it
# has no size.
role_or_none = _fixed(
    ROLE_PREFIX_BYTES, lambda r: _NO_ROLE if r is None else r.tag(),
    _role_or_none)._replace(size=None, convert=None)


def _write_var(out, value: bytes):
    out.append(len(value).to_bytes(4, "big"))
    out.append(value)


def _read_var(data, off):
    end = off + 4
    if end > len(data):
        raise FramingError(_TRUNCATED)
    off, end = end, end + int.from_bytes(data[off:end], "big")
    if end > len(data):
        raise FramingError(_TRUNCATED)
    return data[off:end], end


def _write_opening(out, opening: Opening):
    _write_var(out, opening.message)
    out.append(opening.randomness)


def _read_opening(data, off):
    message, off = _read_var(data, off)
    end = off + NONCE_BYTES
    if end > len(data):
        raise FramingError(_TRUNCATED)
    return Opening(message, data[off:end]), end


def _read_text(data, off):
    value, off = _read_var(data, off)
    try:
        return value.decode("utf-8"), off
    except UnicodeDecodeError:
        raise FramingError("text field is not valid UTF-8")


opening = Codec(_write_opening, _read_opening)
text = Codec(lambda out, s: _write_var(out, s.encode("utf-8")), _read_text)
# Everything left in the body, unchecked (the garbled-tables blob).
rest = Codec(lambda out, b: out.append(b),
             lambda data, off: (data[off:], len(data)))


def seq(*fields: Codec) -> Codec:
    """The fields one after another, as a tuple. When every field is
    sized, the tuple is sized too: one bounds check, then each field is
    sliced at an offset fixed in advance."""
    writers = tuple(f.write for f in fields)
    readers = tuple(f.read for f in fields)
    sizes = [f.size for f in fields]

    def write(out, values):
        if len(values) != len(writers):
            raise ProtocolError(f"expected {len(writers)} fields")
        for w, value in zip(writers, values):
            w(out, value)

    if None in sizes:
        def read(data, off):
            values = []
            for r in readers:
                value, off = r(data, off)
                values.append(value)
            return tuple(values), off

        return Codec(write, read)

    spans = tuple((f.convert, at, at + f.size) for f, at in
                  zip(fields, accumulate([0] + sizes[:-1])))

    def convert(item):
        return tuple([item[a:b] if c is None else c(item[a:b])
                      for c, a, b in spans])

    size = sum(sizes)
    return Codec(write, _sized_read(size, convert), size, convert)


def array(n: int, item: Codec) -> Codec:
    """``n`` items and no count, as a tuple."""
    return seq(*(item,) * n)


class Table(Sequence):
    """A read-only list of ``count`` fixed-width ``item``s laid out in
    ``data`` from ``off``. An item is decoded each time it is read, which
    cannot fail; a unit-step slice is a view over the same bytes."""

    __slots__ = ("data", "off", "count", "item")

    def __init__(self, data, off: int, count: int, item: Codec):
        self.data, self.off, self.count, self.item = data, off, count, item

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        at = range(self.count)[i]
        size = self.item.size
        if isinstance(at, int):
            start = self.off + at * size
            value = self.data[start:start + size]
            convert = self.item.convert
            return value if convert is None else convert(value)
        if at.step != 1:
            return [self[k] for k in at]
        return Table(self.data, self.off + at.start * size, len(at),
                     self.item)

    def __bytes__(self):
        """The items as they lie in the body, none of them decoded."""
        size = self.item.size
        return bytes(self.data[self.off:self.off + self.count * size])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"Table({list(self)!r})"


def listof(item: Codec) -> Codec:
    """A u32 count, then that many fixed-width items, decoded to a
    ``Table`` once the body is long enough for them."""
    size = item.size
    if size is None:
        raise ValueError("a list's items must have a fixed width")
    write_count, read_count, write_item = u32.write, u32.read, item.write

    def write(out, values):
        write_count(out, len(values))
        for value in values:
            write_item(out, value)

    def read(data, off):
        n, off = read_count(data, off)
        end = off + n * size
        if end > len(data):
            raise FramingError(_TRUNCATED)
        return Table(data, off, n, item), end

    return Codec(write, read)


# --- message schemas ---------------------------------------------------------

# One leaf per copy, s per wire: by wire, then by copy
leaves = listof(raw(LEAF_BYTES))
# (seed, position commitment) per check copy, by wire, then by copy
check_seeds = listof(seq(raw(SEED_BYTES), commitment))
# Circuit 1's and circuit 2's sorted label sets per wire, by input map
label_sets = listof(array(2, array(2, raw(32))))
# One 32-byte consistency.wire_digest per wire, by input map
wire_digests = listof(raw(32))
# One fixed-width entry per evaluation copy, by wire, then by copy: the
# position byte and nonce, the body and nonce of the receiving party's
# commitment of the selected input set, the other party's commitment of
# that set and SHA-256 of the set not selected
eval_openings = listof(seq(raw(1), raw(NONCE_BYTES), raw(3 * LABEL_BYTES),
                           raw(NONCE_BYTES), commitment, raw(DIGEST_BYTES)))

# The wire specification of every message body, and its decoded value.
SCHEMAS: dict[MessageType, Codec] = {
    # the sender's leaves
    MessageType.INPUT_COMMITMENTS: leaves,
    MessageType.COIN_COMMIT: commitment,
    MessageType.COIN_REVEAL: opening,
    # (SHA-256 of the two seed shares the sender holds, its check seeds)
    MessageType.CHECKSET_OPENINGS: seq(raw(32), check_seeds),
    # (the receiving party's entries, the sender's label sets)
    MessageType.EVALSET_OPENINGS: seq(eval_openings, label_sets),
    # (SHA-256 of the two seed shares the sender holds, one record per
    # bidder: SHA-256 of its wire digests, its seed digest, SHA-256 of its
    # label sets)
    MessageType.HASH_TUPLE: seq(raw(32), listof(array(3, raw(32)))),
    # (wire, the sender's entries of its evaluation copies, the owner's
    # wire digests and label sets, the wire's s leaves)
    MessageType.CONSISTENCY_PROOF: seq(u32, eval_openings, wire_digests,
                                       label_sets, leaves),
    # (wire, copy, the owner's wire digests and check seeds, the wire's s
    # leaves)
    MessageType.CHECK_FAILURE_CLAIM: seq(u32, u16, wire_digests, check_seeds,
                                         leaves),
    # the tables blob, checked by garbling.parse_tables_blob
    MessageType.GARBLED_CIRCUIT: rest,
    # one commitment per recipient, in recipient order
    MessageType.OUTPUT_COMMITMENTS: listof(commitment),
    # the opening of the sender's commitment for the receiver
    MessageType.OUTPUT_OPENINGS: opening,
    MessageType.BUNDLE_HASH: raw(32),
    # both parties' openings of the sender's own bundle
    MessageType.FAILURE_PROOF: seq(opening, opening),
    # (blamed role or None, reason)
    MessageType.ABORT: seq(role_or_none, text),
}


def encode_body(mtype: MessageType, value) -> bytes:
    out: list[bytes] = []
    SCHEMAS[mtype].write(out, value)
    return b"".join(out)


def decode_body(mtype: MessageType, body: bytes):
    """The value of a message body; FramingError/ProtocolError if malformed."""
    body = bytes(body)  # a raw field's value is a slice of it
    value, off = SCHEMAS[mtype].read(body, 0)
    if off != len(body):
        raise FramingError("message payload has trailing bytes")
    return value
