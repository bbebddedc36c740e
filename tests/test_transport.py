"""Frame codec, payload codecs, flow table, and the two transports."""

import random

import pytest

from dualgc import messages as M
from dualgc.commitments import (
    Opening,
    tagged_commit,
    TAG_COIN,
    TAG_OUTPUT_ENCODING,
    TAG_OUTPUT_LABEL,
)
from dualgc.consistency import (
    generate_input_material,
    make_hash_tuple,
)
from dualgc.errors import FramingError, ProtocolError, TransportError
from dualgc.outputs import FailureProof, OutputOpenings
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


def test_input_commitment_codec_round_trip():
    rng = random.Random(2)
    wires = {}
    for wire_id in (3, 17):
        material = generate_input_material(rng, x=wire_id & 1, s=3)
        wires[wire_id] = material.pairs()
    body = M.encode_input_commitments(wires)
    assert M.decode_input_commitments(body) == wires
    with pytest.raises(FramingError):
        M.decode_input_commitments(body + b"\x00")
    with pytest.raises(FramingError):
        M.decode_input_commitments(body[:-1])


def test_coin_codec_round_trip():
    rng = random.Random(3)
    com, opening = tagged_commit(TAG_COIN, rng.randbytes(32), rng.randbytes(16))
    commit_body = M.encode_coin_commit(com)
    reveal_body = M.encode_coin_reveal(opening)
    assert len(commit_body) == 32
    assert M.decode_coin_commit(commit_body) == com
    assert M.decode_coin_reveal(reveal_body) == opening
    for decode, body in ((M.decode_coin_commit, commit_body),
                         (M.decode_coin_reveal, reveal_body)):
        with pytest.raises(FramingError):
            decode(body[:-1])
        with pytest.raises(FramingError):
            decode(body + b"\x00")


def test_set_opening_codecs_round_trip():
    rng = random.Random(4)
    material = generate_input_material(rng, x=1, s=4)
    check = {5: [(j, material.check_openings(j)) for j in (0, 2)]}
    assert M.decode_checkset_openings(M.encode_checkset_openings(check)) == check
    evals = {}
    for wire_id in (5, 9):
        entries = []
        for j in (1, 3):
            pos, first, _second = material.eval_openings(j)
            entries.append((j, pos, first))
        evals[wire_id] = entries
    assert M.decode_evalset_openings(M.encode_evalset_openings(evals)) == evals


def test_hash_tuple_and_proof_codecs():
    rng = random.Random(5)
    material = generate_input_material(rng, x=0, s=3)
    triples = []
    for j in range(3):
        pos, first, second = material.eval_openings(j)
        triples.append(tuple(material.copies[j].enc1.label(b) for b in (0, 1))
                       + (material.copies[j].enc2.label(0),))
    tup, secret = make_hash_tuple(rng, [
        (material.copies[j].enc1.zero, material.copies[j].enc1.one,
         material.copies[j].enc2.zero) for j in range(3)])
    wires = {0: tup, 6: tup}
    assert M.decode_hash_tuples(M.encode_hash_tuples(wires)) == wires

    from dualgc.consistency import ConsistencyProof
    proof = ConsistencyProof(provider=2, wire=6,
                             h_triple=(tup.h_pair[0], tup.h_pair[1], rng.randbytes(32)),
                             c_triple=(tup.c_pair[0], tup.c_pair[1], tup.c_cross))
    assert M.decode_consistency_proof(M.encode_consistency_proof(proof)) == proof

    body = M.encode_proof_opening_request(6, M.OPEN_CROSS)
    assert M.decode_proof_opening_request(body) == (6, M.OPEN_CROSS)
    with pytest.raises(ProtocolError):
        M.decode_proof_opening_request(M.encode_proof_opening_request(6, 2))

    openings = tuple(secret.openings)
    body = M.encode_proof_opening_response(6, M.OPEN_PAIR, openings[:2])
    assert M.decode_proof_opening_response(body) == (6, M.OPEN_PAIR, openings[:2])


def test_output_codecs_round_trip():
    rng = random.Random(6)
    com1, op1 = tagged_commit(TAG_OUTPUT_ENCODING, rng.randbytes(64),
                              rng.randbytes(16))
    com2, op2 = tagged_commit(TAG_OUTPUT_LABEL, rng.randbytes(32),
                              rng.randbytes(16))
    entries = [(0, com1, com2), (3, com2, com1)]
    assert M.decode_output_commitments(M.encode_output_commitments(entries)) == entries

    body = M.encode_output_openings(3, op1, op2)
    assert M.decode_output_openings(body) == (3, op1, op2)

    digest = rng.randbytes(32)
    assert M.decode_bundle_hash(M.encode_bundle_hash(digest)) == digest
    with pytest.raises(FramingError):
        M.decode_bundle_hash(digest[:-1])

    proof = FailureProof(recipient=1, openings=OutputOpenings(
        e1=op1, o1=op2, e2=op1, o2=op2))
    assert M.decode_failure_proof(M.encode_failure_proof(proof)) == proof

    claim = (2, 14, 5, (op1, op2, op1, op2))
    body = M.encode_check_failure_claim(*claim)
    assert M.decode_check_failure_claim(body) == claim


def test_abort_codec_round_trip():
    body = M.encode_abort("label mismatch", M.Role(M.PROVIDER, 2))
    assert M.decode_abort(body) == ("label mismatch", M.Role(M.PROVIDER, 2))
    body = M.encode_abort("", None)
    assert M.decode_abort(body) == ("", None)


def test_flow_table_covers_every_type_and_passes_audit():
    assert set(M.FLOW) == set(M.MessageType)
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
    with pytest.raises(ProtocolError):
        M.check_flow(M.MessageType.OUTPUT_OPENINGS,
                     M.Role(M.P1), M.Role(M.P2))


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
