"""Frame codec, message schemas, flow table, and the two transports."""

import random
from collections import namedtuple

import pytest

from dualgc import messages as M
from dualgc.commitments import Opening
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
    return bytes([k]) * 32


def O(message, k):
    return Opening(message, bytes([k]) * 16)


def entry(k):
    """An evaluation entry: position byte and nonce, input-set body and
    nonce, and the two siblings."""
    return (bytes([k & 1]), bytes([k]) * 16, bytes([k + 1]) * 48,
            bytes([k + 2]) * 16, C(k + 3), C(k + 4))


T = M.MessageType
RETIRED = {T.PROOF_OPENING_REQUEST, T.PROOF_OPENING_RESPONSE}

# One decoded value per message type with a schema.
SETS = [((b"\x11" * 32, b"\x22" * 32), (b"\x33" * 32, b"\x44" * 32))]
SAMPLES = {
    T.INPUT_COMMITMENTS: [C(1), C(2), C(3)],
    T.COIN_COMMIT: C(7),
    T.COIN_REVEAL: O(b"seed", 8),
    T.CHECKSET_OPENINGS: (b"\x31" * 32, [(b"\x41" * 16, C(0x51)),
                                         (b"\x42" * 16, C(0x52))]),
    T.EVALSET_OPENINGS: ([entry(0x10), entry(0x21)], SETS),
    T.HASH_TUPLE: (b"\x55" * 32, [(b"\x66" * 32, b"\x77" * 32,
                                    b"\x88" * 32)]),
    T.CONSISTENCY_PROOF: (6, [entry(0x10)], [b"\x21" * 32], SETS, [C(1)]),
    T.CHECK_FAILURE_CLAIM: (14, 5, [b"\x21" * 32, b"\x22" * 32],
                            [(b"\x61" * 16, C(0x71)), (b"\x62" * 16, C(0x72))],
                            [C(1), C(2)]),
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
        "0000000301010101010101010101010101010101010101010101010101010101"
        "0101010102020202020202020202020202020202020202020202020202020202"
        "0202020203030303030303030303030303030303030303030303030303030303"
        "03030303"),
    "COIN_COMMIT": (
        "0707070707070707070707070707070707070707070707070707070707070707"),
    "COIN_REVEAL": "000000047365656408080808080808080808080808080808",
    "CHECKSET_OPENINGS": (
        "3131313131313131313131313131313131313131313131313131313131313131"
        "0000000241414141414141414141414141414141515151515151515151515151"
        "5151515151515151515151515151515151515151424242424242424242424242"
        "4242424252525252525252525252525252525252525252525252525252525252"
        "52525252"),
    "EVALSET_OPENINGS": (
        "0000000200101010101010101010101010101010101111111111111111111111"
        "1111111111111111111111111111111111111111111111111111111111111111"
        "1111111111121212121212121212121212121212121313131313131313131313"
        "1313131313131313131313131313131313131313131414141414141414141414"
        "1414141414141414141414141414141414141414140121212121212121212121"
        "2121212121212222222222222222222222222222222222222222222222222222"
        "2222222222222222222222222222222222222222222223232323232323232323"
        "2323232323232424242424242424242424242424242424242424242424242424"
        "2424242424242525252525252525252525252525252525252525252525252525"
        "2525252525250000000111111111111111111111111111111111111111111111"
        "1111111111111111111122222222222222222222222222222222222222222222"
        "2222222222222222222233333333333333333333333333333333333333333333"
        "3333333333333333333344444444444444444444444444444444444444444444"
        "44444444444444444444"),
    "HASH_TUPLE": (
        "5555555555555555555555555555555555555555555555555555555555555555"
        "0000000166666666666666666666666666666666666666666666666666666666"
        "6666666677777777777777777777777777777777777777777777777777777777"
        "7777777788888888888888888888888888888888888888888888888888888888"
        "88888888"),
    "CONSISTENCY_PROOF": (
        "0000000600000001001010101010101010101010101010101011111111111111"
        "1111111111111111111111111111111111111111111111111111111111111111"
        "1111111111111111111212121212121212121212121212121213131313131313"
        "1313131313131313131313131313131313131313131313131314141414141414"
        "1414141414141414141414141414141414141414141414141400000001212121"
        "2121212121212121212121212121212121212121212121212121212121000000"
        "0111111111111111111111111111111111111111111111111111111111111111"
        "1122222222222222222222222222222222222222222222222222222222222222"
        "2233333333333333333333333333333333333333333333333333333333333333"
        "3344444444444444444444444444444444444444444444444444444444444444"
        "4400000001010101010101010101010101010101010101010101010101010101"
        "0101010101"),
    "CHECK_FAILURE_CLAIM": (
        "0000000e00050000000221212121212121212121212121212121212121212121"
        "2121212121212121212122222222222222222222222222222222222222222222"
        "2222222222222222222200000002616161616161616161616161616161617171"
        "7171717171717171717171717171717171717171717171717171717171716262"
        "6262626262626262626262626262727272727272727272727272727272727272"
        "7272727272727272727272727272000000020101010101010101010101010101"
        "0101010101010101010101010101010101010202020202020202020202020202"
        "020202020202020202020202020202020202"),
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
    (T.CONSISTENCY_PROOF, bytes(20), (0, [], [], [], [])),
    (T.ABORT, bytes.fromhex("00abcd00000000"), FramingError),
]

# A list of fixed-width items in a body: the body's type, its bytes before
# the list, the item width, its bytes after the list, its value when the
# list is empty, and the list's field in that value (None: the whole body).
FixedList = namedtuple("FixedList", "mtype head width tail empty field")


def _field(mtype, field: int, width: int) -> FixedList:
    """The list at ``field`` of the type's sample, every other field kept;
    the fields after it are lists."""
    value = SAMPLES[mtype]
    empty = value[:field] + ([],) + value[field + 1:]
    after = len(value) - field
    head = M.encode_body(mtype, value[:field] + ([],) * after)[:-4 * after]
    tail = M.encode_body(mtype, empty)[len(head) + 4:]
    return FixedList(mtype, head, width, tail, empty, field)


# The lists of fixed-width items, by name: their count is checked against
# the bytes left before any item is read.
FIXED_LISTS = {
    "INPUT_COMMITMENTS": FixedList(T.INPUT_COMMITMENTS, b"", 32, b"", [],
                                   None),
    "CHECKSET_OPENINGS": _field(T.CHECKSET_OPENINGS, 1, 48),
    "EVALSET_OPENINGS": _field(T.EVALSET_OPENINGS, 0, 145),
    "EVALSET_OPENINGS sets": _field(T.EVALSET_OPENINGS, 1, 128),
    "CHECK_FAILURE_CLAIM": _field(T.CHECK_FAILURE_CLAIM, 4, 32),
    "CHECK_FAILURE_CLAIM digests": _field(T.CHECK_FAILURE_CLAIM, 2, 32),
    "CHECK_FAILURE_CLAIM seeds": _field(T.CHECK_FAILURE_CLAIM, 3, 48),
    "CONSISTENCY_PROOF": _field(T.CONSISTENCY_PROOF, 4, 32),
    "CONSISTENCY_PROOF openings": _field(T.CONSISTENCY_PROOF, 1, 145),
    "CONSISTENCY_PROOF digests": _field(T.CONSISTENCY_PROOF, 2, 32),
    "CONSISTENCY_PROOF sets": _field(T.CONSISTENCY_PROOF, 3, 128),
    "HASH_TUPLE digests": _field(T.HASH_TUPLE, 1, 96),
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


def _items(fixed: FixedList, value):
    """The list of a value of the body's type."""
    return value if fixed.field is None else value[fixed.field]


@pytest.mark.parametrize("name", sorted(FIXED_LISTS))
def test_a_list_packs_as_it_lies_in_the_body(name):
    """``packed`` gives a list's items as they lie in the body, without the
    count, both for the value sent and for the value decoded."""
    fixed = FIXED_LISTS[name]
    value = SAMPLES[fixed.mtype]
    body = M.encode_body(fixed.mtype, value)
    got = M.decode_body(fixed.mtype, body)
    items = _items(fixed, value)
    assert items and _items(fixed, got) == items
    packed = M.packed(items)
    assert M.packed(_items(fixed, got)) == packed
    assert len(packed) == len(items) * fixed.width
    assert body == (fixed.head + len(items).to_bytes(4, "big") + packed
                    + fixed.tail)


def _field_round_trip(codec):
    def round_trip(data):
        value, end = codec.read(data, 0)
        assert end == len(data)
        out = []
        codec.write(out, value)
        return b"".join(out)
    return round_trip


def _body_round_trip(mtype, head=b"", tail=b""):
    def round_trip(data):
        body = head + data + tail
        got = M.encode_body(mtype, M.decode_body(mtype, body))
        assert got[:len(head)] == head and got[len(head) + len(data):] == tail
        return got[len(head):len(head) + len(data)]
    return round_trip


# Every field of one fixed width, by name: its width, and what bytes of that
# width decode and encode back to, as a field codec, a whole body or one
# list item in a body.
FIXED_WIDTH = {
    "u16": (2, _field_round_trip(M.u16)),
    "u32": (4, _field_round_trip(M.u32)),
    "raw(32)": (32, _field_round_trip(M.raw(32))),
    "commitment": (32, _field_round_trip(M.commitment)),
    "BUNDLE_HASH": (32, _body_round_trip(T.BUNDLE_HASH)),
    "COIN_COMMIT": (32, _body_round_trip(T.COIN_COMMIT)),
} | {f"{name} item": (fixed.width, _body_round_trip(
        fixed.mtype, fixed.head + (1).to_bytes(4, "big"), fixed.tail))
     for name, fixed in FIXED_LISTS.items()}


@pytest.mark.parametrize("name", sorted(FIXED_WIDTH))
def test_a_sized_codec_reads_any_bytes_of_its_width(name):
    """A fixed-width field decodes any bytes of its width and encodes them
    back, so a list of such items can fail to decode only on its length."""
    width, round_trip = FIXED_WIDTH[name]
    rng = random.Random(name)
    for _ in range(200):
        data = rng.randbytes(width)
        assert round_trip(data) == data


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
