"""Frame codec, message schemas, flow table, and the two transports."""

import random
from collections import namedtuple

import pytest

from dualgc import messages as M
from dualgc.commitments import Commitment, Opening
from dualgc.consistency import CommitmentSetPair
from dualgc.errors import FramingError, ProtocolError, TransportError
from dualgc.outputs import OutputOpenings
from dualgc.transport import InProcessTransport, TcpTransport


def test_role_tags_round_trip():
    for role in (M.Role(M.P1), M.Role(M.P2), M.Role(M.PROVIDER, 7),
                 M.Role(M.CLOUD), M.Role(M.PROVIDER, 65535)):
        assert M.role_from_tag(role.tag()) == role
    assert M.Role(M.P1).name == "P1"
    assert M.Role(M.PROVIDER, 3).name == "provider:3"
    assert M.Role(M.CLOUD).name == "cloud"
    with pytest.raises(ProtocolError):
        M.Role(9)
    with pytest.raises(ProtocolError):
        M.Role(M.P1, 70000)


def test_frame_round_trip_every_type():
    rng = random.Random(11)
    for mtype in M.MessageType:
        body = rng.randbytes(rng.randrange(0, 64))
        sender = M.Role(M.PROVIDER, 4)
        frame = M.encode_frame(mtype, 0xDEADBEEF01, sender, body)
        got = M.decode_frame(frame)
        assert got == (mtype, 0xDEADBEEF01, sender, body)


def test_frame_rejects_malformed():
    frame = M.encode_frame(M.MessageType.ABORT, 1, M.Role(M.P1), b"xy")
    with pytest.raises(FramingError):
        M.decode_frame(frame[:10])
    with pytest.raises(FramingError):
        M.decode_frame(frame + b"\x00")
    bad_len = (99).to_bytes(4, "big") + frame[4:]
    with pytest.raises(FramingError):
        M.decode_frame(bad_len)
    bad_type = frame[:4] + b"\xfe" + frame[5:]
    with pytest.raises(ProtocolError):
        M.decode_frame(bad_type)
    bad_role = frame[:13] + b"\x09" + frame[14:]
    with pytest.raises(ProtocolError):
        M.decode_frame(bad_role)


def C(k):
    return Commitment(bytes([k]) * 32)


def O(message, k):
    return Opening(message, bytes([k]) * 16)


def set_pair(k):
    return CommitmentSetPair(w=(C(k), C(k + 1)), w_prime=(C(k + 2), C(k + 3)),
                             position=C(k + 4))


T = M.MessageType
RETIRED = {T.PROOF_OPENING_REQUEST, T.PROOF_OPENING_RESPONSE}

# One decoded value per message type with a schema.
SAMPLES = {
    T.INPUT_COMMITMENTS: ([b"\x21" * 32, b"\x22" * 32],
                          [set_pair(1), set_pair(6), set_pair(11)]),
    T.COIN_COMMIT: C(7),
    T.COIN_REVEAL: O(b"seed", 8),
    T.CHECKSET_OPENINGS: ([b"\x31" * 32], [b"\x41" * 16, b"\x42" * 16]),
    T.EVALSET_OPENINGS: [(O(b"p", 1), O(b"q", 2)), (O(b"r", 3), O(b"s", 4))],
    T.HASH_TUPLE: ([b"\x55" * 32], [((b"\x11" * 32, b"\x22" * 32),
                                     (b"\x33" * 32, b"\x44" * 32))]),
    T.CONSISTENCY_PROOF: (6, [(O(b"p", 1), O(b"q", 2))], [set_pair(1)]),
    T.CHECK_FAILURE_CLAIM: (14, 5, [b"\x61" * 16, b"\x62" * 16],
                            [set_pair(1)]),
    T.GARBLED_CIRCUIT: b"\x00\x01tables",
    T.OUTPUT_COMMITMENTS: [C(1), C(2)],
    T.OUTPUT_OPENINGS: O(b"out", 1),
    T.BUNDLE_HASH: bytes(range(32)),
    T.FAILURE_PROOF: OutputOpenings(p1=O(b"p1", 1), p2=O(b"p2", 2)),
    T.ABORT: (M.Role(M.PROVIDER, 2), "label mismatch"),
}

# Each sample's body, pinned byte for byte.
RECORDED_HEX = {
    "INPUT_COMMITMENTS": (
        "0000000221212121212121212121212121212121212121212121212121212121"
        "2121212122222222222222222222222222222222222222222222222222222222"
        "2222222200000003010101010101010101010101010101010101010101010101"
        "0101010101010101020202020202020202020202020202020202020202020202"
        "0202020202020202030303030303030303030303030303030303030303030303"
        "0303030303030303040404040404040404040404040404040404040404040404"
        "0404040404040404050505050505050505050505050505050505050505050505"
        "0505050505050505060606060606060606060606060606060606060606060606"
        "0606060606060606070707070707070707070707070707070707070707070707"
        "0707070707070707080808080808080808080808080808080808080808080808"
        "0808080808080808090909090909090909090909090909090909090909090909"
        "09090909090909090a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a"
        "0a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"
        "0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c"
        "0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d"
        "0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e"
        "0e0e0e0e0e0e0e0e0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f"
        "0f0f0f0f0f0f0f0f"),
    "COIN_COMMIT": (
        "0707070707070707070707070707070707070707070707070707070707070707"),
    "COIN_REVEAL": "000000047365656408080808080808080808080808080808",
    "CHECKSET_OPENINGS": (
        "0000000131313131313131313131313131313131313131313131313131313131"
        "3131313100000002414141414141414141414141414141414242424242424242"
        "4242424242424242"),
    "EVALSET_OPENINGS": (
        "0000000200000001700101010101010101010101010101010100000001710202"
        "0202020202020202020202020202000000017203030303030303030303030303"
        "030303000000017304040404040404040404040404040404"),
    "HASH_TUPLE": (
        "0000000155555555555555555555555555555555555555555555555555555555"
        "5555555500000001111111111111111111111111111111111111111111111111"
        "1111111111111111222222222222222222222222222222222222222222222222"
        "2222222222222222333333333333333333333333333333333333333333333333"
        "3333333333333333444444444444444444444444444444444444444444444444"
        "4444444444444444"),
    "CONSISTENCY_PROOF": (
        "0000000600000001000000017001010101010101010101010101010101000000"
        "0171020202020202020202020202020202020000000101010101010101010101"
        "0101010101010101010101010101010101010101010102020202020202020202"
        "0202020202020202020202020202020202020202020203030303030303030303"
        "0303030303030303030303030303030303030303030304040404040404040404"
        "0404040404040404040404040404040404040404040405050505050505050505"
        "05050505050505050505050505050505050505050505"),
    "CHECK_FAILURE_CLAIM": (
        "0000000e00050000000261616161616161616161616161616161626262626262"
        "6262626262626262626200000001010101010101010101010101010101010101"
        "0101010101010101010101010101020202020202020202020202020202020202"
        "0202020202020202020202020202030303030303030303030303030303030303"
        "0303030303030303030303030303040404040404040404040404040404040404"
        "0404040404040404040404040404050505050505050505050505050505050505"
        "0505050505050505050505050505"),
    "GARBLED_CIRCUIT": "00017461626c6573",
    "OUTPUT_COMMITMENTS": (
        "0000000201010101010101010101010101010101010101010101010101010101"
        "0101010102020202020202020202020202020202020202020202020202020202"
        "02020202"),
    "OUTPUT_OPENINGS": "000000036f757401010101010101010101010101010101",
    "BUNDLE_HASH": (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
    "FAILURE_PROOF": (
        "0000000270310101010101010101010101010101010100000002703202020202"
        "020202020202020202020202"),
    "ABORT": "0300020000000e6c6162656c206d69736d61746368",
}


def test_schema_table_covers_every_type():
    assert set(M.SCHEMAS) == set(SAMPLES) == set(T) - RETIRED
    assert set(RECORDED_HEX) == {t.name for t in SAMPLES}


@pytest.mark.parametrize("mtype", list(SAMPLES), ids=lambda t: t.name)
def test_schema_sample(mtype):
    value = SAMPLES[mtype]
    body = M.encode_body(mtype, value)
    assert body.hex() == "".join(RECORDED_HEX[mtype.name])
    assert M.decode_body(mtype, body) == value
    if mtype is T.GARBLED_CIRCUIT:
        return  # the blob's length is checked by garbling.parse_tables_blob
    for cut in range(len(body)):
        with pytest.raises(FramingError):
            M.decode_body(mtype, body[:cut])
    with pytest.raises(FramingError):
        M.decode_body(mtype, body + b"\x00")


# Extra inputs: (type, body, decoded value or the exception it must raise).
EXTRA_INPUTS = [
    (T.HASH_TUPLE, bytes.fromhex("00000001"), FramingError),
    (T.BUNDLE_HASH, bytes(32), bytes(32)),
    (T.BUNDLE_HASH, bytes(31), FramingError),
    (T.BUNDLE_HASH, bytes(33), FramingError),
    (T.ABORT, bytes(7), (None, "")),
    (T.ABORT, bytes(3) + bytes.fromhex("00000002ff41"), FramingError),
    (T.ABORT, bytes.fromhex("09000000000000"), ProtocolError),
    (T.COIN_COMMIT, bytes(31), FramingError),
    (T.COIN_COMMIT, bytes(33), FramingError),
    (T.COIN_REVEAL, bytes.fromhex("00000001ff") + bytes(15), FramingError),
    (T.COIN_REVEAL, bytes.fromhex("00000001ff") + bytes(17), FramingError),
    (T.CONSISTENCY_PROOF, bytes(12), (0, [], [])),
    (T.ABORT, bytes.fromhex("00abcd00000000"), FramingError),
]

# A list of fixed-width items in a body: the body's type, its bytes before
# the list, the item width, its bytes after the list, its value when the
# list is empty, and the list's field in that value (None: the whole body).
FixedList = namedtuple("FixedList", "mtype head width tail empty field")

_CLAIM_HEAD = M.encode_body(
    T.CHECK_FAILURE_CLAIM, SAMPLES[T.CHECK_FAILURE_CLAIM][:3] + ([],))[:-4]
_PROOF_HEAD = M.encode_body(
    T.CONSISTENCY_PROOF, SAMPLES[T.CONSISTENCY_PROOF][:2] + ([],))[:-4]
_CLAIM_PAIRS = M.encode_body(T.CHECK_FAILURE_CLAIM, (
    0, 0, [], SAMPLES[T.CHECK_FAILURE_CLAIM][3]))[10:]

# The lists of fixed-width items, by name: their count is checked against
# the bytes left before any item is read.
FIXED_LISTS = {
    "INPUT_COMMITMENTS": FixedList(T.INPUT_COMMITMENTS, bytes(4), 160, b"",
                                   ([], []), 1),
    "INPUT_COMMITMENTS digests": FixedList(T.INPUT_COMMITMENTS, b"", 32,
                                           bytes(4), ([], []), 0),
    "CHECKSET_OPENINGS": FixedList(T.CHECKSET_OPENINGS, bytes(4), 16, b"",
                                   ([], []), 1),
    "CHECKSET_OPENINGS digests": FixedList(T.CHECKSET_OPENINGS, b"", 32,
                                           bytes(4), ([], []), 0),
    "CHECK_FAILURE_CLAIM": FixedList(
        T.CHECK_FAILURE_CLAIM, _CLAIM_HEAD, 160, b"",
        SAMPLES[T.CHECK_FAILURE_CLAIM][:3] + ([],), 3),
    "CHECK_FAILURE_CLAIM seeds": FixedList(
        T.CHECK_FAILURE_CLAIM, _CLAIM_HEAD[:6], 16, _CLAIM_PAIRS,
        SAMPLES[T.CHECK_FAILURE_CLAIM][:2] + (
            [], SAMPLES[T.CHECK_FAILURE_CLAIM][3]), 2),
    "CONSISTENCY_PROOF": FixedList(
        T.CONSISTENCY_PROOF, _PROOF_HEAD, 160, b"",
        SAMPLES[T.CONSISTENCY_PROOF][:2] + ([],), 2),
    "HASH_TUPLE": FixedList(T.HASH_TUPLE, bytes(4), 128, b"", ([], []), 1),
    "HASH_TUPLE digests": FixedList(T.HASH_TUPLE, b"", 32, bytes(4),
                                    ([], []), 0),
    "OUTPUT_COMMITMENTS": FixedList(T.OUTPUT_COMMITMENTS, b"", 32, b"", [],
                                    None),
}


def _list_body(fixed, count, items):
    return (fixed.head + count.to_bytes(4, "big")
            + bytes(items * fixed.width) + fixed.tail)


EXTRA_INPUTS += [
    pytest.param(fixed.mtype, _list_body(fixed, count, items),
                 fixed.empty if expected is None else expected,
                 id=f"{name}-{case}")
    for name, fixed in FIXED_LISTS.items()
    for case, count, items, expected in (
        ("count_ffffffff", 0xFFFFFFFF, 1, FramingError),
        ("one_item_more", 2, 1, FramingError),
        ("one_item_fewer", 1, 2, FramingError),
        ("empty", 0, 0, None))]


@pytest.mark.parametrize("mtype,body,expected", EXTRA_INPUTS)
def test_schema_extra_inputs(mtype, body, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            M.decode_body(mtype, body)
    else:
        assert M.decode_body(mtype, body) == expected
        assert M.encode_body(mtype, expected) == body


def _table(fixed: FixedList) -> M.Table:
    """The fixed-width list of a body whose list is empty."""
    value = M.decode_body(fixed.mtype, _list_body(fixed, 0, 0))
    return value if fixed.field is None else value[fixed.field]


def test_only_the_commitment_lists_decode_to_tables():
    for mtype, value in SAMPLES.items():
        got = M.decode_body(mtype, M.encode_body(mtype, value))
        fields = got if isinstance(got, tuple) else (got,)
        tables = [f for f in fields if isinstance(f, M.Table)]
        assert len(tables) == sum(f.mtype is mtype
                                  for f in FIXED_LISTS.values())


def _encode(codec, value) -> bytes:
    out = []
    codec.write(out, value)
    return b"".join(out)


def test_a_table_reads_as_the_list_it_encodes():
    codec = M.set_pairs
    items = SAMPLES[T.INPUT_COMMITMENTS][1]
    body = _encode(codec, items)
    table, end = codec.read(body, 0)
    assert end == len(body)
    assert list(table) == items
    assert table == items and len(table) == len(items)
    assert list(iter(table)) == items
    for i in range(-len(items), len(items)):
        assert table[i] == items[i]
    for i in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            table[i]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(1, 2),
                slice(2, 1), slice(-2, None), slice(5, 9)):
        view = table[cut]
        assert isinstance(view, M.Table)
        assert view == items[cut] and list(view) == items[cut]
        assert _encode(codec, view) == _encode(codec, items[cut])
        assert bytes(view) == _encode(codec, items[cut])[4:]
    assert table[1:][1:] == items[2:]
    assert table[::2] == items[::2] and table[::-1] == items[::-1]
    assert table != items[:-1] and table != items[::-1]
    assert _encode(codec, table) == body


def _sized_codecs():
    """Every fixed-width codec: the field codecs, the fixed-width bodies
    and the items of the fixed-width lists."""
    codecs = {"u16": M.u16, "u32": M.u32, "raw(32)": M.raw(32),
              "commitment": M.commitment}
    for mtype, codec in M.SCHEMAS.items():
        if codec.size is not None:
            codecs[mtype.name] = codec
    for name, fixed in FIXED_LISTS.items():
        item = _table(fixed).item
        assert item.size == fixed.width
        codecs[f"{name} item"] = item
    return codecs


@pytest.mark.parametrize("name", sorted(_sized_codecs()))
def test_a_sized_codec_reads_any_bytes_of_its_width(name):
    """A table decodes an item only when it is read, so an item's read must
    not be able to fail once the list's length has been checked."""
    codec = _sized_codecs()[name]
    rng = random.Random(name)
    for _ in range(200):
        data = rng.randbytes(codec.size)
        value, end = codec.read(data, 0)
        assert end == codec.size
        out = []
        codec.write(out, value)
        assert b"".join(out) == data


def test_a_codec_that_can_refuse_its_bytes_has_no_size():
    assert M.role_or_none.size is None
    assert M.SCHEMAS[T.ABORT].size is None


def test_flow_table_covers_every_type_and_passes_audit():
    assert set(M.FLOW) == set(M.MessageType) - RETIRED
    M.audit_flow_table()
    for _mtype, (_senders, _receivers, phase) in M.FLOW.items():
        assert phase in M.PHASES


def test_check_flow_rejects_wrong_direction():
    M.check_flow(M.MessageType.GARBLED_CIRCUIT, M.Role(M.P1), M.Role(M.P2))
    with pytest.raises(ProtocolError):
        M.check_flow(M.MessageType.GARBLED_CIRCUIT,
                     M.Role(M.PROVIDER, 0), M.Role(M.P2))
    with pytest.raises(ProtocolError):
        M.check_flow(M.MessageType.FAILURE_PROOF,
                     M.Role(M.P1), M.Role(M.PROVIDER, 0))
    # A party receives no output commitments, no output openings and no
    # check-failure claims.
    for mtype in (M.MessageType.OUTPUT_COMMITMENTS,
                  M.MessageType.OUTPUT_OPENINGS,
                  M.MessageType.CHECK_FAILURE_CLAIM):
        with pytest.raises(ProtocolError):
            M.check_flow(mtype, M.Role(M.P1), M.Role(M.P2))


def test_in_process_fifo_and_per_sender_queues():
    t = InProcessTransport()
    a, b, c = M.Role(M.P1), M.Role(M.P2), M.Role(M.PROVIDER, 0)
    t.send(a, c, b"a1")
    t.send(b, c, b"b1")
    t.send(a, c, b"a2")
    assert t.recv(c, b) == b"b1"
    assert t.recv(c, a) == b"a1"
    assert t.recv(c, a) == b"a2"
    with pytest.raises(TransportError):
        t.recv(c, a)
    with pytest.raises(TransportError):
        t.recv(a, c)


def test_tcp_round_trip_and_per_sender_selection():
    roles = [M.Role(M.P1), M.Role(M.P2), M.Role(M.PROVIDER, 0),
             M.Role(M.PROVIDER, 1)]
    t = TcpTransport(roles, timeout=10.0)
    try:
        a, b, p0, p1 = roles
        frame1 = M.encode_frame(M.MessageType.COIN_COMMIT, 7, a, b"hello")
        frame2 = M.encode_frame(M.MessageType.COIN_COMMIT, 7, b, b"world")
        t.send(a, p0, frame1)
        t.send(b, p0, frame2)
        t.send(p1, p0, frame1)
        assert t.recv(p0, p1) == frame1
        assert t.recv(p0, b) == frame2
        assert t.recv(p0, a) == frame1
    finally:
        t.close()


def test_tcp_large_frames_cross_before_reading():
    # Both parties push multi-megabyte frames before either one reads; the
    # router must buffer so that neither send blocks forever.
    roles = [M.Role(M.P1), M.Role(M.P2)]
    t = TcpTransport(roles, timeout=20.0)
    try:
        a, b = roles
        blob_a = bytes(random.Random(1).randbytes(2_500_000))
        blob_b = bytes(random.Random(2).randbytes(2_500_000))
        frame_a = M.encode_frame(M.MessageType.GARBLED_CIRCUIT, 1, a, blob_a)
        frame_b = M.encode_frame(M.MessageType.GARBLED_CIRCUIT, 1, b, blob_b)
        t.send(a, b, frame_a)
        t.send(b, a, frame_b)
        assert t.recv(b, a) == frame_a
        assert t.recv(a, b) == frame_b
    finally:
        t.close()


def test_tcp_recv_times_out():
    roles = [M.Role(M.P1), M.Role(M.P2)]
    t = TcpTransport(roles, timeout=0.4)
    try:
        with pytest.raises(TransportError):
            t.recv(roles[0], roles[1])
    finally:
        t.close()


def test_tcp_ordering_per_sender_preserved():
    roles = [M.Role(M.P1), M.Role(M.PROVIDER, 0)]
    t = TcpTransport(roles, timeout=10.0)
    try:
        a, p = roles
        frames = [M.encode_frame(M.MessageType.HASH_TUPLE, i, a, bytes([i]) * i)
                  for i in range(1, 30)]
        for frame in frames:
            t.send(a, p, frame)
        for frame in frames:
            assert t.recv(p, a) == frame
    finally:
        t.close()
