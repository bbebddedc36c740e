"""End-to-end session tests: honest agreement with the plaintext oracle,
transcript determinism and accounting, and the catch-the-cheater paths."""

import dataclasses
import hashlib
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from dualgc import consistency, outputs, session
from dualgc import messages as M
from dualgc.auction import AuctionConfig, build_auction_circuit, oracle_run
from dualgc.commitments import NONCE_BYTES, TAG_POSITION, Opening, commit
from dualgc.errors import (DecodeError, ProtocolError, TransportTimeout,
                           UsageError)
from dualgc.garbling import (HEADER_BYTES, LABEL_BYTES, ROW_BYTES, decode,
                             gate_rows, tabled_gates)
from dualgc.outputs import ACCEPT, REJECT
from dualgc.session import (BEHAVIORS, AdversaryScript, Session, Transcript,
                            make_adversary, run_session)
from dualgc.transport import InProcessTransport, TcpTransport

SMALL = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                      max_bid=15)
BIDS = [((2, 9),), ((1, 5),), ((3, 14),)]


class RecordingTransport(InProcessTransport):
    """Hashes every frame in send order so runs can be compared bytewise."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def send(self, sender, receiver, frame):
        self.digest.update(sender.tag() + receiver.tag() + frame)
        super().send(sender, receiver, frame)


def test_honest_session_accepts_the_oracle_result():
    sess = Session(SMALL, BIDS, s=4, seed=3)
    res = sess.run()
    assert res.status == "accept"
    assert res.blamed is None
    assert res.result == oracle_run(SMALL, BIDS)
    assert set(res.decisions) == {"provider:0", "provider:1", "provider:2",
                                  "cloud"}
    assert all(d.status == ACCEPT for d in res.decisions.values())
    res.transcript.audit_output_privacy()


def test_session_traffic_covers_all_phases():
    res = run_session(SMALL, BIDS, s=4, seed=3)
    by_phase = res.transcript.measure()["bytes_by_phase"]
    assert set(by_phase) == {"input", "compute", "output"}
    assert all(v > 0 for v in by_phase.values())


def test_input_phase_traffic_has_commitment_lower_bound():
    s = 4
    res = run_session(SMALL, BIDS, s=s, seed=3)
    wires = len(BIDS) * 2 * SMALL.vm_types * SMALL.width
    # Each party gets a 32-byte leaf per copy, and at least a 16-byte seed
    # and 32-byte position commitment to open it (an entry is larger).
    floor = wires * s * 2 * (32 + 16 + 32)
    assert res.transcript.measure()["bytes_by_phase"]["input"] >= floor


def test_transcripts_are_deterministic_for_a_seed():
    t1, t2, t3 = RecordingTransport(), RecordingTransport(), RecordingTransport()
    r1 = run_session(SMALL, BIDS, s=4, seed=9, transport=t1)
    r2 = run_session(SMALL, BIDS, s=4, seed=9, transport=t2)
    r3 = run_session(SMALL, BIDS, s=4, seed=10, transport=t3)
    assert t1.digest.digest() == t2.digest.digest()
    assert r1.transcript.signature() == r2.transcript.signature()
    assert r1.result == r2.result
    assert t1.digest.digest() != t3.digest.digest()


def _tcp_roles():
    return [M.Role(M.P1), M.Role(M.P2)] + \
        [M.Role(M.PROVIDER, i) for i in range(len(BIDS))] + [M.Role(M.CLOUD)]


def test_session_runs_over_tcp_with_identical_transcript():
    tcp = TcpTransport(_tcp_roles())
    try:
        over_tcp = run_session(SMALL, BIDS, s=4, seed=9, transport=tcp)
    finally:
        tcp.close()
    in_proc = run_session(SMALL, BIDS, s=4, seed=9)
    assert over_tcp.status == "accept"
    assert over_tcp.result == in_proc.result
    assert over_tcp.transcript.signature() == in_proc.transcript.signature()


@pytest.mark.parametrize("behavior", BEHAVIORS)
def test_scripted_behaviour_runs_the_same_over_tcp(behavior):
    tcp = TcpTransport(_tcp_roles())
    try:
        over_tcp = run_session(SMALL, BIDS, s=4, seed=3, adversary=behavior,
                               transport=tcp)
    finally:
        tcp.close()
    in_proc = run_session(SMALL, BIDS, s=4, seed=3, adversary=behavior)
    assert (over_tcp.status, over_tcp.blamed, over_tcp.reason) == (
        in_proc.status, in_proc.blamed, in_proc.reason)
    assert over_tcp.transcript.signature() == in_proc.transcript.signature()


@pytest.mark.parametrize("adversary", [None] + list(BEHAVIORS))
def test_every_frame_reaches_the_receivers_flow_lists(adversary):
    """Each sender's frames of one type go to exactly the roles whose kinds
    ``FLOW`` lists as receivers of that type, minus the sender."""
    sess = Session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
    res = sess.run()
    roles = {r.name: r for r in sess.all_roles}
    sent = {}
    for e in res.transcript.entries:
        sent.setdefault((e.sender, e.type), []).append(e.receiver)
    assert sent
    for (sender, type_name), receivers in sent.items():
        _senders, kinds, _phase = M.FLOW[M.MessageType[type_name]]
        assert sorted(receivers) == sorted(
            name for name, r in roles.items()
            if r.kind in kinds and name != sender), (sender, type_name)


def test_one_coin_toss_per_session():
    # Seed 0 needed a second toss round when each wire had its own toss.
    sess = Session(SMALL, BIDS, s=4, seed=0)
    res = sess.run()
    assert res.status == "accept"
    for party in ("P1", "P2"):
        for mtype in ("COIN_COMMIT", "COIN_REVEAL"):
            receivers = [e.receiver for e in res.transcript.entries
                         if e.type == mtype and e.sender == party]
            assert sorted(receivers) == sorted(
                r.name for r in sess.all_roles if r.name != party)
    wires = sess.circuit.input_wires
    for st in sess._all_states():
        assert sorted(st.rho) == sorted(wires)
        assert st.rho == sess.p1.rho
    assert all(0 < sum(rho) < sess.s for rho in sess.p1.rho.values())


def test_neither_party_can_decode_its_own_circuit():
    sess = Session(SMALL, BIDS, s=4, seed=3)
    sess.run()
    circuit = sess.circuit
    for party in (sess.p1, sess.p2):
        own = party.gc.output_encodings
        own_labels = {lab for enc in own.values() for lab in enc}
        for group, labels in zip(circuit.output_map, party.eval_labels):
            assert not own_labels & set(labels)
            with pytest.raises(DecodeError):
                decode(labels, [own[w] for w in group])
    own1 = {e.zero for e in sess.p1.final_enc.values()}
    own2 = {e.zero for e in sess.p2.final_enc.values()}
    assert not own1 & own2


def _copy_nonces(sess):
    """The nonces of the five commitments of every copy the bidders
    made: four from the copy's sub-seeds, and its position nonce."""
    return [nonce for bidder in sess.bidders
            for material in bidder.material.values()
            for c in material.copies
            for nonce in (*consistency.input_sets(c.b, c.subseeds)[1],
                          c.position_nonce)]


def test_commitment_nonces_are_never_reused(monkeypatch):
    """Every commitment a run creates has its own nonce: the five of each
    copy, read from the bidders' material, and those the consistency and
    output layers make through ``tagged_commit``. In the honest run and
    under each scripted behaviour."""
    nonces, plant = [], []
    for module in (consistency, outputs):
        def recording(tag, body, randomness, _commit=module.tagged_commit):
            if plant and len(nonces) == 1:  # the second reuses the first
                randomness = nonces[0]
            nonces.append(randomness)
            return _commit(tag, body, randomness)
        monkeypatch.setattr(module, "tagged_commit", recording)
    wires = len(BIDS) * 2 * SMALL.vm_types * SMALL.width
    floor = (wires * 4 * 5        # provider copies: five commitments each
             + 2 * (len(BIDS) + 1)  # output: one per party and recipient
             + 2)                 # one coin-toss commitment per party
    for adversary in [None] + list(BEHAVIORS):
        nonces.clear()
        sess = Session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
        res = sess.run()
        made = nonces + _copy_nonces(sess)
        if adversary is None:
            assert res.status == "accept"
            assert len(made) >= floor
        assert nonces and len(set(made)) == len(made), adversary
    plant.append(True)
    nonces.clear()
    run_session(SMALL, BIDS, s=4, seed=3)
    assert len(set(nonces)) == len(nonces) - 1


class SilentRole(InProcessTransport):
    """Drops every frame a given role sends, simulating a crashed peer."""

    def __init__(self, silent_name):
        super().__init__()
        self.silent_name = silent_name

    def send(self, sender, receiver, frame):
        if sender.name == self.silent_name:
            return
        super().send(sender, receiver, frame)


def test_silent_role_times_out_into_an_abort():
    res = run_session(SMALL, BIDS, s=4, seed=3,
                      transport=SilentRole("provider:1"))
    assert res.status == "abort"
    assert res.reason.startswith("timeout")
    assert res.phase == "input"
    assert res.result is None


class BodyFault(InProcessTransport):
    """Rewrites the body of every frame of one type (from one sender and to
    one receiver, if given), keeping the frame itself well formed."""

    def __init__(self, mtype, rewrite, sender=None, receiver=None):
        super().__init__()
        self.mtype = mtype
        self.rewrite = rewrite
        self.sender = sender
        self.receiver = receiver

    def send(self, sender, receiver, frame):
        mtype, sid, who, body = M.decode_frame(frame)
        if (mtype == self.mtype and self.sender in (None, sender.name)
                and self.receiver in (None, receiver.name)):
            frame = M.encode_frame(mtype, sid, who, self.rewrite(body))
        super().send(sender, receiver, frame)


def value_fault(mtype, rewrite, sender=None, receiver=None):
    """A ``BodyFault`` that re-encodes ``rewrite(decoded value)``."""
    return BodyFault(mtype, lambda body: M.encode_body(
        mtype, rewrite(M.decode_body(mtype, body))), sender, receiver)


# fault -> (blob rewrite, words of the header or length check that must
# catch it before any row is read)
BLOB_FAULTS = {
    "truncated_byte": (lambda blob: blob[:-1], "truncated"),
    "truncated_row": (lambda blob: blob[:-ROW_BYTES], "truncated"),
    "appended_byte": (lambda blob: blob + b"\x00", "trailing bytes"),
    "flipped_hash_byte": (
        lambda blob: blob[:5] + bytes([blob[5] ^ 0x80]) + blob[6:],
        "hash does not match"),
    "gate_count": (
        lambda blob: blob[:32] + (int.from_bytes(blob[32:36], "big") - 1)
        .to_bytes(4, "big") + blob[36:],
        "gate count mismatch"),
}


@pytest.mark.parametrize("fault", sorted(BLOB_FAULTS))
@pytest.mark.parametrize("producer", ["P1", "P2"])
def test_malformed_garbled_circuit_aborts_against_its_producer(producer,
                                                              fault):
    rewrite, check = BLOB_FAULTS[fault]
    res = run_session(SMALL, BIDS, s=4, seed=3, transport=BodyFault(
        M.MessageType.GARBLED_CIRCUIT, rewrite, producer))
    assert res.status == "abort"
    assert res.blamed == producer
    assert res.phase == "compute"
    assert res.reason.startswith("garbled circuit rejected")
    assert check in res.reason
    assert res.result is None


class FrameFault(InProcessTransport):
    """Applies ``mutation`` (a name in ``FRAME_MUTATIONS``) to one frame
    of type ``mtype``: the first that the type's first sender sends to the
    ``at``-th receiver of its frames of that type, in send order. Records
    that sender and those receivers.

    "reorder" holds the frame back until the sender's next frame on that
    channel and sends it after that one; with no next frame it is never
    sent."""

    def __init__(self, mtype, mutation, at):
        super().__init__()
        self.mtype, self.mutation, self.at = mtype, mutation, at
        self.sender = None
        self.receivers = []
        self.held = {}

    def send(self, sender, receiver, frame):
        frames = [frame] + self.held.pop((sender, receiver), [])
        if (frame[4] == self.mtype and self.sender in (None, sender.name)
                and receiver not in self.receivers):
            self.sender = sender.name
            self.receivers.append(receiver)
            if len(self.receivers) == self.at + 1:
                if self.mutation == "reorder":
                    self.held[sender, receiver] = frames
                    frames = []
                else:
                    frames = FRAME_MUTATIONS[self.mutation](frame)
        for f in frames:
            super().send(sender, receiver, f)


def reframed(edit):
    def mutate(frame):
        mtype, sid, who, body = M.decode_frame(frame)
        return M.encode_frame(mtype, sid, who, edit(body))
    return mutate


def retyped(frame):
    other = random.Random(frame[4]).choice(
        [t for t in M.MessageType if t != frame[4]])
    return frame[:4] + bytes([other]) + frame[5:]


def flipped(at):
    """Flips the low bit of body byte ``at(body length)``."""
    def edit(body):
        i = at(len(body))
        return body[:i] + bytes([body[i] ^ 1]) + body[i + 1:]
    return reframed(edit)


def rewritten(mutate):
    return lambda frame: [mutate(frame)]


# Each maps the one frame it mutates to the frames sent in its place.
FRAME_MUTATIONS = {
    "truncated": rewritten(reframed(lambda body: body[:-1])),
    "appended": rewritten(reframed(lambda body: body + b"\x00")),
    # A flipped check seed no longer regenerates its copy at the one
    # party that holds it, whose seed digest then misses the other party's
    # at the echo: the session ends blaming no one, not the provider.
    "flipped_last_byte": rewritten(flipped(lambda n: n - 1)),
    "flipped_middle_byte": rewritten(flipped(lambda n: n // 2)),
    "retyped": rewritten(retyped),
    # A type that has no schema and no flow is refused like any other
    # unexpected type.
    "retired_type": rewritten(lambda frame: (
        frame[:4] + bytes([M.MessageType.PROOF_OPENING_REQUEST])
        + frame[5:])),
    "drop": lambda frame: [],
    "duplicate": lambda frame: [frame, frame],
    "reorder": None,  # see FrameFault
}

# message type -> a scripted behaviour whose run sends it (None: honest)
SENT_BY = dict.fromkeys(M.FLOW)
SENT_BY.update({
    M.MessageType.CHECK_FAILURE_CLAIM: "falsify_check_failure",
    M.MessageType.CONSISTENCY_PROOF: "forge_consistency_proof",
    M.MessageType.FAILURE_PROOF: "false_output_complaint",
    M.MessageType.ABORT: "bias_coin_toss",
})


@pytest.mark.parametrize("mutation", sorted(FRAME_MUTATIONS))
@pytest.mark.parametrize("mtype", list(M.FLOW), ids=lambda t: t.name)
def test_mutated_frame_ends_in_a_verdict(mtype, mutation):
    """One run per receiver of the first sender's frames of the type, each
    mutating that receiver's frame only, then one clean run."""
    adversary = SENT_BY[mtype]
    runs = []
    while True:
        transport = FrameFault(mtype, mutation, len(runs))
        clean = run_session(SMALL, BIDS, s=4, seed=3, adversary=adversary,
                            transport=transport)
        if len(runs) == len(transport.receivers):
            break  # every receiver has had its frame mutated
        runs.append((transport.sender, clean))
    assert runs
    cheater = make_adversary(adversary).target if adversary else None
    for sender, res in runs:
        assert not (res.status == "accept"
                    and res.result != oracle_run(SMALL, BIDS))
        assert res.blamed in {sender, cheater, None}
        if mtype is M.MessageType.ABORT:
            assert (res.status, res.blamed, res.reason) == (
                clean.status, clean.blamed, clean.reason)


def _claim_at(wire=None, copy=None):
    def rewrite(claim):
        w, j, *rest = claim
        return (w if wire is None else wire, j if copy is None else copy,
                *rest)
    return rewrite


# case -> (behaviour, type, value rewrite, rewritten channel (sender,
# receiver), None for any, (status, blamed))
VALUE_FAULTS = {
    "claim_unknown_wire": ("falsify_check_failure",
                           M.MessageType.CHECK_FAILURE_CLAIM,
                           _claim_at(wire=9999), (None, None),
                           ("abort", "P1")),
    "claim_copy_out_of_range": ("falsify_check_failure",
                                M.MessageType.CHECK_FAILURE_CLAIM,
                                _claim_at(copy=99), (None, None),
                                ("abort", "P1")),
    # A failure proof that does not open the complainer's own bundle is
    # spurious, like a false complaint.
    "failure_proof_bad_opening": (
        "false_output_complaint", M.MessageType.FAILURE_PROOF,
        lambda p: (p[1], p[0]), (None, None),
        ("accept", "provider:0")),
    "output_openings_bad_opening": (
        None, M.MessageType.OUTPUT_OPENINGS,
        lambda o: Opening(o.message, bytes(NONCE_BYTES)),
        ("P2", None), ("abort", "P2")),
    # An echo holding every record twice
    "echo_with_two_digests": (
        None, M.MessageType.HASH_TUPLE, lambda got: (got[0], 2 * list(got[1])),
        ("P1", None), ("abort", "P1")),
    "check_seeds_one_short": (
        None, M.MessageType.CHECKSET_OPENINGS,
        lambda got: (got[0], list(got[1])[:-1]), ("provider:0", "P2"),
        ("abort", "provider:0")),
    "label_sets_one_short": (
        None, M.MessageType.EVALSET_OPENINGS,
        lambda got: (got[0], list(got[1])[:-1]), ("provider:1", "P1"),
        ("abort", "provider:1")),
    # A bidder whose coin-toss view is not the party's may have been sent
    # another seed share by the other party: no one is blamed.
    "coin_view_zeroed_to_a_party": (
        None, M.MessageType.CHECKSET_OPENINGS,
        lambda got: (bytes(32), got[1]), ("provider:1", "P2"),
        ("abort", None)),
    # A party that echoes other records to one role may be lying, or a
    # bidder may have sent the parties different values: no one is blamed.
    "echo_zeroed_to_the_cloud": (
        None, M.MessageType.HASH_TUPLE,
        lambda got: (got[0], [(bytes(32),) * 3] * len(got[1])),
        ("P2", "cloud"), ("abort", None)),
    # Both echoes agree, but not with what provider 0 sent.
    "own_record_zeroed_to_its_bidder": (
        None, M.MessageType.HASH_TUPLE,
        lambda got: (got[0], [(bytes(32),) * 3] + list(got[1][1:])),
        (None, "provider:0"), ("abort", None)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(VALUE_FAULTS))
def test_decoded_values_are_checked_before_use(case, seed):
    adversary, mtype, rewrite, channel, verdict = VALUE_FAULTS[case]
    res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=adversary,
                      transport=value_fault(mtype, rewrite, *channel))
    assert (res.status, res.blamed) == verdict


def _first_entry_repeated(entries):
    return [entries[0]] + list(entries)


def _last_entry_dropped(entries):
    return list(entries[:-1])


def _first_entry_after_head_repeated(got):
    """A ``(head, list)`` body with the list's first entry repeated."""
    head, entries = got
    return head, _first_entry_repeated(entries)


# counted body -> (behaviour, the sender that fills it, rewrite, reason)
COUNTED_BODIES = {
    M.MessageType.CHECKSET_OPENINGS: (
        None, "provider:0", _first_entry_after_head_repeated,
        "check seeds cover the wrong copies"),
    M.MessageType.EVALSET_OPENINGS: (
        None, "provider:0",
        lambda got: (_first_entry_repeated(got[0]), got[1]),
        "evaluation openings cover the wrong copies"),
    M.MessageType.INPUT_COMMITMENTS: (
        None, "provider:0", _last_entry_dropped,
        "input commitments hold the wrong number of copies"),
    M.MessageType.HASH_TUPLE: (
        None, "P2", _first_entry_after_head_repeated,
        "echo holds the wrong number of records"),
    M.MessageType.OUTPUT_COMMITMENTS: (
        None, "P2", _last_entry_dropped,
        "output commitments cover the wrong recipients"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mtype", list(COUNTED_BODIES), ids=lambda t: t.name)
def test_a_repeated_copy_is_refused(mtype, seed):
    """A positional body with its first entry repeated, or its last
    dropped, fails the count its receiver derives from the public
    parameters: a repeated copy covers the challenged copies as a set, but
    not as a list."""
    adversary, sender, rewrite, reason = COUNTED_BODIES[mtype]
    res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=adversary,
                      transport=value_fault(mtype, rewrite, sender=sender))
    assert (res.status, res.blamed, res.reason) == ("abort", sender, reason)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_abort_with_a_non_utf8_reason_keeps_the_verdict(seed):
    fault = BodyFault(M.MessageType.ABORT,
                      lambda body: body[:3] + bytes.fromhex("00000002ff41"))
    res = run_session(SMALL, BIDS, s=4, seed=seed, adversary="bias_coin_toss",
                      transport=fault)
    clean = run_session(SMALL, BIDS, s=4, seed=seed,
                        adversary="bias_coin_toss")
    assert (res.status, res.blamed, res.reason) == (
        clean.status, clean.blamed, clean.reason)
    assert (res.status, res.blamed) == ("abort", "P2")


def flip_a_row_bit(region):
    """A blob rewrite flipping one random bit in both rows of the first
    input projection or the first output projection, or in both
    ciphertexts of the first AND gate, so what the evaluator reads is
    corrupted. TE's bit is one above TG's (their 128-bit deltas differ by a
    rotation), so the two flips cannot cancel at pointer bits (1, 1)."""
    circuit = build_auction_circuit(SMALL, len(BIDS))
    width = LABEL_BYTES if region == "gate" else ROW_BYTES
    bit = random.Random(region).randrange(width * 8)

    def rewrite(blob):
        if region == "input":
            offsets = range(HEADER_BYTES, HEADER_BYTES + 2 * ROW_BYTES,
                            ROW_BYTES)
        elif region == "gate":
            offsets = gate_rows(circuit, tabled_gates(circuit)[0])
        else:
            start = len(blob) - 2 * ROW_BYTES * len(set(circuit.output_wires))
            offsets = range(start, start + 2 * ROW_BYTES, ROW_BYTES)
        bad = bytearray(blob)
        for i, off in enumerate(offsets):
            b = (bit + i) % (width * 8) if region == "gate" else bit
            bad[off + width - 1 - b // 8] ^= 1 << b % 8
        return bytes(bad)
    return rewrite


@pytest.mark.parametrize("region", ["input", "gate", "output"])
@pytest.mark.parametrize("producer", ["P1", "P2"])
def test_tampered_row_aborts_against_its_garbler(producer, region):
    res = run_session(SMALL, BIDS, s=4, seed=3, transport=BodyFault(
        M.MessageType.GARBLED_CIRCUIT, flip_a_row_bit(region), producer))
    assert (res.status, res.blamed, res.phase) == ("abort", producer,
                                                   "compute")
    assert res.reason.startswith("garbled circuit rejected")
    assert "no row authenticates" in res.reason


def test_adversary_validation():
    with pytest.raises(UsageError):
        make_adversary("replay_attack")
    with pytest.raises(UsageError):
        make_adversary(42)
    with pytest.raises(UsageError):
        Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
            "inconsistent_labels", target="provider:9"))
    with pytest.raises(UsageError):
        Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
            "inconsistent_labels", target="P1"))
    with pytest.raises(UsageError):
        Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
            "false_output_complaint", target="cloud"))
    with pytest.raises(UsageError):
        Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
            "inconsistent_labels", pattern=(True, False)))
    for gate in (0, 10 ** 6):  # a NOT gate, and no gate at all
        with pytest.raises(UsageError, match="no garbled table"):
            Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
                "tamper_garbled_gate", gate=gate))
    group = len(build_auction_circuit(SMALL, len(BIDS)).input_map[0])
    for wires in ((), (group,), (999,), (-1,), (0, group)):
        with pytest.raises(UsageError, match="wires"):
            Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
                "inconsistent_labels", wires=wires))
    for mask in (0, 0x100, -1):
        with pytest.raises(UsageError, match="mask"):
            Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
                "tamper_garbled_gate", mask=mask))
    for where in ({"recipient": len(BIDS) + 1}, {"recipient": 9},
                  {"recipient": -1}, {"wire": 99}, {"wire": -1}):
        with pytest.raises(UsageError, match="output wire"):
            Session(SMALL, BIDS, s=4, adversary=AdversaryScript(
                "substitute_output_label", **where))
    for script in (AdversaryScript("inconsistent_labels", wires=(group - 1,)),
                   AdversaryScript("tamper_garbled_gate", mask=1),
                   AdversaryScript("substitute_output_label",
                                   recipient=len(BIDS))):
        Session(SMALL, BIDS, s=4, adversary=script)
    script = make_adversary("bias_coin_toss")
    assert script.target == "P2"
    assert make_adversary(script) is script
    assert make_adversary(None) is None


@pytest.fixture(scope="module")
def inconsistent_labels_scan():
    """Seeds 0-59 of the default script, which tampers copy 0 of provider
    0's first wire, grouped by that wire's challenge: the copy is checked,
    mixed into the evaluation set, or is the whole evaluation set."""
    runs = {"checked": [], "mixed": [], "evaluated_alone": []}
    seeds = {kind: [] for kind in runs}
    for seed in range(60):
        sess = Session(SMALL, BIDS, s=4, seed=seed,
                       adversary="inconsistent_labels")
        res = sess.run()
        rho = sess.p1.rho[sess.circuit.input_map[0][0]]
        if rho[0]:
            kind = "checked"
        elif sum(rho) < sess.s - 1:
            kind = "mixed"
        else:
            kind = "evaluated_alone"
        runs[kind].append(res)
        seeds[kind].append(seed)
    runs["seeds"] = seeds
    return runs


def test_tampered_check_copy_is_blamed_on_the_provider(
        inconsistent_labels_scan):
    runs = inconsistent_labels_scan["checked"]
    assert runs
    for res in runs:
        assert res.status == "abort"
        assert res.blamed == "provider:0"
        assert res.phase == "input"
        assert "construction" in res.reason


def test_tampered_eval_copy_fails_the_hash_comparison(
        inconsistent_labels_scan):
    runs = inconsistent_labels_scan["mixed"]
    assert runs
    for res in runs:
        assert res.status == "abort"
        assert res.blamed == "provider:0"
        assert res.phase == "input"
        assert "inconsistent inputs" in res.reason


# rewrite of a broadcast CONSISTENCY_PROOF -> what it breaks
PROOF_REWRITES = {
    "no_input_wire": lambda proof: (9999,) + proof[1:],
}


@pytest.mark.parametrize("rewrite", sorted(PROOF_REWRITES))
def test_rewritten_consistency_proof_blames_its_sender(
        inconsistent_labels_scan, rewrite):
    """Every receiver judges the proof it received, so a proof naming no
    input wire convicts the complainer that sent it, never an honest
    provider."""
    seeds = inconsistent_labels_scan["seeds"]["mixed"]
    assert seeds
    for seed in seeds:
        fault = value_fault(M.MessageType.CONSISTENCY_PROOF,
                            PROOF_REWRITES[rewrite])
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels", transport=fault)
        senders = {e.sender for e in res.transcript.entries
                   if e.type == "CONSISTENCY_PROOF"}
        assert len(senders) == 1 and senders <= {"P1", "P2"}
        assert (res.status, res.blamed) == ("abort", senders.pop()), seed
        assert "consistency proof names no input wire" in res.reason


def _another_wire_of_its_provider(wire):
    group = next(g for g in build_auction_circuit(SMALL, len(BIDS)).input_map
                 if wire in g)
    return group[(group.index(wire) + 1) % len(group)]


@pytest.mark.parametrize("receiver", ["provider:0", "provider:1", "cloud"])
def test_consistency_proof_sent_differently_to_one_receiver(
        inconsistent_labels_scan, receiver):
    """A complainer that sends one provider its proof with another wire of
    the same owner named. Where that wire has another number of
    evaluation copies, that receiver blames the complainer at once.
    Otherwise the owner, provider 0, gives no ruling on either wire, so
    the others convict it; an odd copy at another provider misses its
    digest there, and the rulings differ, so no one is blamed: the
    rulings cannot tell which arbitrator was sent something else."""
    for seed, clean in zip(inconsistent_labels_scan["seeds"]["mixed"],
                           inconsistent_labels_scan["mixed"]):
        complainer = next(e.sender for e in clean.transcript.entries
                          if e.type == "CONSISTENCY_PROOF")
        sess = Session(SMALL, BIDS, s=4, seed=seed,
                       adversary="inconsistent_labels",
                       transport=value_fault(
                           M.MessageType.CONSISTENCY_PROOF,
                           lambda proof: (_another_wire_of_its_provider(
                               proof[0]),) + proof[1:], receiver=receiver))
        res = sess.run()
        wire = sess.circuit.input_map[0][0]
        rho = sess.p1.rho
        if sum(rho[wire]) != sum(rho[_another_wire_of_its_provider(wire)]):
            expect = complainer
        elif receiver == "provider:0":
            expect = "provider:0"
        else:
            expect = None
        assert (res.status, res.blamed) == ("abort", expect), seed


def test_fully_tampered_eval_set_diverges_and_is_rejected(
        inconsistent_labels_scan):
    runs = inconsistent_labels_scan["evaluated_alone"]
    assert runs
    for res in runs:
        assert res.status == "reject"
        assert res.blamed is None
        assert res.result is None
        assert any(d.status == REJECT for d in res.decisions.values())


def test_tampered_garbled_gate_aborts_against_the_garbler():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="tamper_garbled_gate")
    assert res.status == "abort"
    assert res.blamed == "P1"
    assert res.phase == "compute"
    # Gate 0 is a NOT gate, which has no ciphertexts; the AND/OR gates
    # have. Where P2 holds pointer bits (0, 0) it reads neither ciphertext,
    # so a tamper there leaves the right result: at seed 5 that holds for
    # the first AND/OR gate. Elsewhere it reads one or both, and the wrong
    # label fails an output projection. The gates are taken from the
    # circuit, so the scan holds whatever gate numbers the compiler gives.
    outcomes = []
    for gate in tabled_gates(build_auction_circuit(SMALL, len(BIDS)))[:8]:
        script = AdversaryScript("tamper_garbled_gate", gate=gate, mask=0x01)
        res = run_session(SMALL, BIDS, s=4, seed=5, adversary=script)
        if res.status == "accept":
            assert (res.blamed, res.result) == (None, oracle_run(SMALL, BIDS))
        else:
            assert (res.status, res.blamed, res.phase) == (
                "abort", "P1", "compute")
            assert res.reason.startswith(
                "garbled circuit rejected: output wire")
            assert res.reason.endswith("no row authenticates")
        outcomes.append(res.status)
    assert outcomes[0] == "accept"
    assert "abort" in outcomes
    on_p2 = AdversaryScript("tamper_garbled_gate", target="P2")
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=on_p2)
    assert res.blamed == "P2"


# The default script corrupts every AND/OR ciphertext, so the evaluator
# reads a corrupted one at the first gate where its pointer bits are not
# (0, 0), whatever the seed, and the wrong label fails an output
# projection. The benchmark's verdict check counts any other outcome as a
# failed session.
@pytest.mark.parametrize("target", ["P1", "P2"])
def test_default_garbled_gate_tamper_always_aborts_against_its_target(target):
    script = AdversaryScript("tamper_garbled_gate", target=target)
    for seed in range(20):
        res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=script)
        assert (res.status, res.blamed, res.phase) == (
            "abort", target, "compute"), seed


def test_substituted_output_label_is_rejected_with_proof():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="substitute_output_label")
    assert res.status == "reject"
    assert res.result is None
    assert res.decisions["provider:0"].status == REJECT
    assert res.decisions["cloud"].status == ACCEPT
    other = AdversaryScript("substitute_output_label", target="P2",
                            recipient=1)
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=other)
    assert res.status == "reject"
    assert res.decisions["provider:1"].status == REJECT


def test_biased_coin_reveal_aborts_against_the_party():
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary="bias_coin_toss")
    assert res.status == "abort"
    assert res.blamed == "P2"
    assert res.phase == "input"
    assert "commitment" in res.reason


def test_fabricated_check_failure_blames_the_claimant():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="falsify_check_failure")
    assert res.status == "abort"
    assert res.blamed == "P1"
    assert "fabricated" in res.reason
    on_p2 = AdversaryScript("falsify_check_failure", target="P2")
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=on_p2)
    assert res.blamed == "P2"


def test_input_commitments_go_in_full_to_the_parties_only():
    """Each bidder sends its s leaves per wire, 32 bytes each, to the two
    parties and to no other role. Each frame also carries the 16-byte
    header and a 4-byte count."""
    sess = Session(SMALL, BIDS, s=4, seed=3)
    res = sess.run()
    assert res.status == "accept"
    frames = [e for e in res.transcript.entries
              if e.type == "INPUT_COMMITMENTS"]
    assert len(frames) == len(BIDS) * 2
    for e in frames:
        w_p = len(sess.circuit.input_map[int(e.sender.split(":")[1])])
        assert e.receiver in ("P1", "P2")
        assert e.nbytes == 20 + consistency.LEAF_BYTES * w_p * sess.s
    assert res.transcript.measure()["bytes_by_type"]["INPUT_COMMITMENTS"] \
        == sum(e.nbytes for e in frames)


# The README's library example session in bytes, as README "Wire format"
# quotes it.
README_SESSION_BYTES = 1_409_706


def test_readme_session_bytes_by_type_are_pinned():
    """The README's library example, 6 bidders of 64 input wires at
    s = 10, by message type. A frame carries a 16-byte header. Each bidder
    sends each party a 4-byte count and 640 leaves of 32 bytes; its coin
    view, a count and a 48-byte seed and position commitment per check
    copy; and a count and a 113-byte entry per evaluation copy, then a
    count and the 128-byte label sets of each wire."""
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    rng = random.Random(0)
    bids = [tuple((rng.randint(0, 3), rng.randint(0, 100)) for _ in range(2))
            for _ in range(6)]
    sess = Session(config, bids, s=10, seed=0)
    res = sess.run()
    assert res.status == "accept"
    frames = 2 * len(bids)
    checked = sum(map(sum, sess.p1.rho.values()))
    evaluated = 6 * 64 * 10 - checked
    assert checked == 1934
    assert res.transcript.measure()["bytes_by_type"] == {
        "INPUT_COMMITMENTS": 12 * (20 + 640 * 32),
        "COIN_COMMIT": 768,
        "COIN_REVEAL": 1104,
        "CHECKSET_OPENINGS": frames * (16 + 32 + 4) + 2 * 48 * checked,
        "EVALSET_OPENINGS": (frames * (16 + 4 + 4 + 64 * 128)
                             + 2 * 113 * evaluated),
        "HASH_TUPLE": 10048,
        "GARBLED_CIRCUIT": 406008,
        "OUTPUT_COMMITMENTS": 3416,
        "BUNDLE_HASH": 2016,
        "OUTPUT_OPENINGS": 24710,
    }
    assert res.transcript.measure()["bytes_total"] == README_SESSION_BYTES


def test_readme_quotes_the_pinned_gate_count_and_session_bytes():
    """The README's n6m2 AND/OR count is the compiled circuit's, and its
    session size the one pinned above."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())

    def quoted(pattern):
        found = re.findall(pattern, text)
        assert len(found) == 1, pattern
        return int(found[0].replace(",", ""))

    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    assert quoted(r"this leaves ([\d,]+) AND/OR gates") == len(
        tabled_gates(build_auction_circuit(config, 6)))
    assert quoted(r"a session is ([\d,]+) bytes") == README_SESSION_BYTES


def _one_commitment_altered(claim):
    leaves = list(claim[4])
    leaves[-1] = leaves[-1][:-1] + bytes([leaves[-1][-1] ^ 1])
    return claim[:4] + (leaves,)


# rewrite of a genuine claim's leaves -> why they miss the wire's digest
CLAIM_PAIR_REWRITES = {
    "one_commitment_altered": _one_commitment_altered,
    "last_pair_dropped": lambda claim: claim[:4] + (list(claim[4])[:-1],),
    "first_pair_repeated": lambda claim: claim[:4] + (
        [claim[4][0]] + list(claim[4]),),
}


@pytest.mark.parametrize("rewrite", sorted(CLAIM_PAIR_REWRITES))
def test_claim_pairs_that_miss_the_digest_blame_the_claimant(
        inconsistent_labels_scan, rewrite):
    """A genuine claim convicts the provider. The same claim with its
    leaves changed no longer hashes to the wire's digest, which hashes to
    the echoed record every provider holds, so it proves nothing and
    convicts the claimant."""
    runs = inconsistent_labels_scan["checked"]
    seeds = inconsistent_labels_scan["seeds"]["checked"]
    assert seeds
    for seed, clean in zip(seeds, runs):
        claimant = next(e.sender for e in clean.transcript.entries
                        if e.type == "CHECK_FAILURE_CLAIM")
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels",
                          transport=value_fault(
                              M.MessageType.CHECK_FAILURE_CLAIM,
                              CLAIM_PAIR_REWRITES[rewrite]))
        assert (res.status, res.blamed) == ("abort", claimant), seed
        assert "the claim was fabricated" in res.reason


def _first_seed_flipped(checks):
    seed, position = checks[0]
    return [(bytes([seed[0] ^ 1]) + seed[1:], position)] + list(checks[1:])


# rewrite of a genuine claim's check seeds -> why they miss the seed digest
CLAIM_SEED_REWRITES = {
    "seed_list_one_short": lambda claim: claim[:3] + (list(claim[3])[:-1],
                                                      claim[4]),
    "seed_byte_flipped": lambda claim: claim[:3] + (
        _first_seed_flipped(claim[3]), claim[4]),
}


@pytest.mark.parametrize("rewrite", sorted(CLAIM_SEED_REWRITES))
def test_claim_seeds_that_miss_the_digest_blame_the_claimant(
        inconsistent_labels_scan, rewrite):
    """A genuine claim with its owner's check seeds changed no longer
    hashes to the seed digest of the echoed record every provider holds,
    so it proves nothing and convicts the claimant."""
    seeds = inconsistent_labels_scan["seeds"]["checked"]
    assert seeds
    for seed in seeds:
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels",
                          transport=value_fault(
                              M.MessageType.CHECK_FAILURE_CLAIM,
                              CLAIM_SEED_REWRITES[rewrite]))
        claimant = next(e.sender for e in res.transcript.entries
                        if e.type == "CHECK_FAILURE_CLAIM")
        assert (res.status, res.blamed) == ("abort", claimant), seed
        assert "the claim was fabricated" in res.reason


class _WrongSeed(session._InconsistentLabels):
    """An honest bidder but for the seed of its first check copy, which
    no longer regenerates the copy. It sends both parties alike, so the
    echo passes."""

    make_material = session.Provider.make_material

    def checkset_openings(self):
        w, j = self.copies(self.index, checked=True)[0]
        copies = self.material[w].copies
        copies[j] = copies[j]._replace(
            seed=self.adv_rng.randbytes(consistency.SEED_BYTES))
        return super().checkset_openings()


class _FlipsOwnAllocation(session._Scripted, session.Provider):
    """An honest bidder but for the allocation bit it decides, which it
    flips: its view of the result then differs from the cloud's."""

    def decide(self):
        decision = super().decide()
        self.decision = dataclasses.replace(
            decision, value=(1 - decision.value[0],) + decision.value[1:])
        return self.decision


def test_diverging_recipient_views_abort_blaming_no_one(monkeypatch):
    """Every opening verifies, but a bidder's decoded result disagrees with
    the cloud's: the cloud aborts, and cannot tell whom to blame."""
    monkeypatch.setitem(session._SCRIPTED, "false_output_complaint",
                        (_FlipsOwnAllocation, "provider:0"))
    res = run_session(SMALL, BIDS, s=4, seed=3,
                      adversary="false_output_complaint")
    assert (res.status, res.blamed, res.detector, res.phase) == (
        "abort", None, "cloud", "output")
    assert res.reason == "recipient views of the result diverged"


class _RejectsCorrectOutput(session._Scripted, session.Provider):
    """Decides REJECT on a correct output, so every arbitrator rules its
    failure proof spurious."""

    def decide(self):
        super().decide()
        self.decision = outputs.OutputDecision(REJECT)
        return self.decision


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_spurious_rejection_ends_as_a_false_output_complaint(monkeypatch,
                                                                seed):
    """A bidder that rejects a correct output has no result of its own;
    the run ends as a false output complaint does."""
    monkeypatch.setitem(session._SCRIPTED, "false_output_complaint",
                        (_RejectsCorrectOutput, "provider:0"))
    res = run_session(SMALL, BIDS, s=4, seed=seed,
                      adversary="false_output_complaint")
    assert (res.status, res.blamed, res.phase) == (
        "accept", "provider:0", "output")
    assert res.result == oracle_run(SMALL, BIDS)
    assert res.decisions["provider:0"].status == REJECT


class _RefusesHonestOpenings(session._Scripted, session.Party):
    """Takes honest evaluation openings, then aborts as if one failed."""

    def take_evalset_openings(self, sender, got):
        super().take_evalset_openings(sender, got)
        raise session._Abort(self.role, sender,
                             "evaluation opening failed on wire 0")


class _RejectsHonestCircuit(session._Scripted, session.Party):
    """Evaluates an honest garbled circuit, then aborts as if an output
    label failed its projection."""

    def take_garbled_circuit(self, sender, blob):
        super().take_garbled_circuit(sender, blob)
        raise session._Abort(self.role, sender, "garbled circuit rejected: "
                             "output wire 0: no row authenticates")


class _RefusesHonestCoinReveal(session._Scripted, session.Provider):
    """Takes P1's honest coin reveal, then aborts as if it did not open."""

    def take_coin_reveal(self, sender, opening):
        super().take_coin_reveal(sender, opening)
        if sender == session._P1:
            raise session._Abort(self.role, sender, "challenge share reveal "
                                 "does not match its commitment")


# An abort names its culprit on the detector's word alone, so a role that
# makes one up gets an honest role blamed (ROADMAP item 1). A lying party
# replaces P1, a lying bidder provider 0.
@pytest.mark.xfail(strict=True, reason="blame rests on the detector's word")
@pytest.mark.parametrize("liar", [_RefusesHonestOpenings,
                                  _RejectsHonestCircuit,
                                  _RefusesHonestCoinReveal],
                         ids=lambda cls: cls.__name__.strip("_"))
def test_a_made_up_abort_blames_no_honest_role(monkeypatch, liar):
    behavior = ("inconsistent_labels" if issubclass(liar, session.Provider)
                else "tamper_garbled_gate")
    liar_name = session._SCRIPTED[behavior][1]
    monkeypatch.setitem(session._SCRIPTED, behavior, (liar, liar_name))
    for seed in range(5):
        res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=behavior)
        assert (res.status, res.detector) == ("abort", liar_name), seed
        assert res.blamed in (None, liar_name), seed


def test_a_seed_that_does_not_regenerate_its_copy_blames_the_provider(
        monkeypatch):
    """Both parties find the copy is not its seed's, the echo passes, and
    the cloud's ruling on the first claim convicts the provider."""
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_WrongSeed, "provider:0"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels")
        assert (res.status, res.blamed, res.detector) == (
            "abort", "provider:0", "cloud"), seed
        assert "not its seed's" in res.reason
        types = [e.type for e in res.transcript.entries]
        assert types.index("CHECK_FAILURE_CLAIM") > max(
            k for k, e in enumerate(res.transcript.entries)
            if e.type == "HASH_TUPLE" and e.sender in ("P1", "P2"))


class _WrongPosition(session._InconsistentLabels):
    """An honest bidder but for the position commitment it sends with the
    seed of its first check copy, which then misses the copy's leaf. It
    sends both parties alike, so the echo passes."""

    make_material = session.Provider.make_material

    def checkset_openings(self):
        w, j = self.copies(self.index, checked=True)[0]
        copies = self.material[w].copies
        copies[j] = copies[j]._replace(
            coms=copies[j].coms[:128] + self.adv_rng.randbytes(32))
        return super().checkset_openings()


def test_a_position_commitment_that_misses_its_leaf_blames_the_provider(
        monkeypatch):
    """Both parties find the check copy's leaf is not rebuilt, the echo
    passes, and the cloud's ruling on the first claim convicts the
    provider."""
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_WrongPosition, "provider:0"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels")
        assert (res.status, res.blamed, res.detector) == (
            "abort", "provider:0", "cloud"), seed
        assert "not its seed's" in res.reason
        assert any(e.type == "CHECK_FAILURE_CLAIM"
                   for e in res.transcript.entries), seed


class _WrongSibling(session._InconsistentLabels):
    """An honest bidder but for one sibling of the first evaluation entry
    it sends P1, which then rebuilds another leaf."""

    make_material = session.Provider.make_material

    def evalset_openings(self):
        sent = super().evalset_openings()
        entries = sent[session._P1][0]
        *head, sibling = entries[0]
        entries[0] = (*head, bytes([sibling[0] ^ 1]) + sibling[1:])
        return sent


def test_a_wrong_sibling_aborts_against_its_provider(monkeypatch):
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_WrongSibling, "provider:0"))
    for seed in range(6):
        sess = Session(SMALL, BIDS, s=4, seed=seed,
                       adversary="inconsistent_labels")
        res = sess.run()
        w, _j = sess.p1.copies(0, checked=False)[0]
        assert (res.status, res.blamed, res.detector, res.reason) == (
            "abort", "provider:0", "P1",
            f"evaluation opening failed on wire {w}"), seed


def test_a_seed_flipped_to_one_party_aborts_at_the_echo_blaming_no_one():
    """A check seed that reaches P1 alone flipped makes P1 find a copy
    that is not its seed's, but P1's seed digest then misses P2's, so the
    session ends at the echo, before any claim is ruled."""
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed, transport=value_fault(
            M.MessageType.CHECKSET_OPENINGS,
            lambda got: (got[0], _first_seed_flipped(got[1])),
            "provider:0", "P1"))
        assert (res.status, res.blamed, res.reason) == (
            "abort", None, "input views diverged"), seed
        assert not any(e.type == "CHECK_FAILURE_CLAIM"
                       for e in res.transcript.entries), seed


class _OwnBadCopyClaim(session._FalsifyCheckFailure):
    """Puts a copy of its own that is not its seed's in place of the
    claimed leaf, and that copy's seed and position commitment in place of
    the claimed ones: they do not rebuild the leaf, but the claim's seeds
    and leaves no longer hash to the owner's echoed record."""

    def claim_of(self, w, j):
        w, j, digests, seeds, leaves = super().claim_of(w, j)
        bad = consistency.generate_cheating_material(
            self.adv_rng, 0, self.s, [False] * self.s)
        at = self.copies(self.wire_owner[w].index, checked=True).index(
            (w, j))
        seeds, leaves = list(seeds), list(leaves)
        seeds[at], leaves[j] = bad.check_seed(j), bad.copies[j].leaf
        assert not consistency.check_pair_construction(leaves[j], *seeds[at])
        return w, j, digests, seeds, leaves


def test_a_claim_about_a_copy_the_provider_never_sent_blames_the_claimant(
        monkeypatch):
    monkeypatch.setitem(session._SCRIPTED, "falsify_check_failure",
                        (_OwnBadCopyClaim, "P1"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="falsify_check_failure")
        assert (res.status, res.blamed) == ("abort", "P1"), seed
        assert "the claim was fabricated" in res.reason


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_digest_aborts_at_the_echo_blaming_no_one(seed):
    """A party that echoes to one provider a wrong digest of what provider
    0 sent it: that provider keeps the first echo it reads and finds the
    other party's differs. It cannot tell which party lies, or whether
    provider 0 sent the parties different pairs, so no one is blamed."""
    def rewrite(got):
        records = list(got[1])
        records[0] = (bytes(32),) + records[0][1:]
        return got[0], records
    fault = value_fault(M.MessageType.HASH_TUPLE, rewrite, "P1", "provider:1")
    res = run_session(SMALL, BIDS, s=4, seed=seed, transport=fault)
    assert (res.status, res.blamed, res.reason, res.detector) == (
        "abort", None, "input views diverged", "provider:1")
    assert not any(e.type == "GARBLED_CIRCUIT"
                   for e in res.transcript.entries)


class _OtherSeedShare(InProcessTransport):
    """Replaces P1's coin commit and reveal to one receiver by another
    valid pair, so that receiver derives other challenges."""

    def __init__(self, receiver):
        super().__init__()
        self.receiver = receiver
        _, commit, reveal = consistency.coin_toss_commit(
            random.Random(receiver))
        self.values = {M.MessageType.COIN_COMMIT: commit,
                       M.MessageType.COIN_REVEAL: reveal}

    def send(self, sender, receiver, frame):
        mtype, sid, who, _ = M.decode_frame(frame)
        if (sender.name, receiver.name) == ("P1", self.receiver) and \
                mtype in self.values:
            frame = M.encode_frame(mtype, sid, who, M.encode_body(
                mtype, self.values[mtype]))
        super().send(sender, receiver, frame)


@pytest.mark.parametrize("bidders", [1, 3])
@pytest.mark.parametrize("receiver,adversary", [
    ("provider:0", None), ("cloud", "falsify_check_failure")])
def test_a_seed_share_shown_to_one_role_blames_no_honest_role(
        receiver, adversary, bidders):
    """P1 shows one provider another seed share. A bidder's coin-toss view
    reaches the parties with its check seeds, the cloud's is compared at
    the echo, so the session ends blaming no one before any claim is
    ruled. Compared nowhere, provider 0 sent the seeds of other copies and
    was blamed, and the cloud, whose challenge put P1's falsely claimed
    copy at another seed index, convicted provider 0."""
    for seed in range(10):
        res = run_session(SMALL, BIDS[:bidders], s=4, seed=seed,
                          adversary=adversary,
                          transport=_OtherSeedShare(receiver))
        assert (res.status, res.blamed, res.reason) == (
            "abort", None, "coin-toss views diverged"), seed
        assert not any(e.type == "CHECK_FAILURE_CLAIM"
                       for e in res.transcript.entries), seed


def test_a_result_names_the_role_that_aborted():
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary="bias_coin_toss")
    assert (res.status, res.blamed, res.detector) == ("abort", "P2", "P1")
    assert run_session(SMALL, BIDS, s=4, seed=5).detector is None
    silent = run_session(SMALL, BIDS, s=4, seed=3,
                         transport=SilentRole("provider:1"))
    assert silent.status == "abort" and silent.detector is None


def test_forged_consistency_proof_blames_the_forger():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="forge_consistency_proof")
    assert res.status == "abort"
    assert res.blamed == "P1"
    assert res.phase == "input"
    assert "the complaint was false" in res.reason


class _ExtraEvidence(session._ForgeConsistencyProof):
    """Complains about provider 0's first wire with its first evaluation
    opening repeated."""

    def consistency_proof(self):
        wire, openings, *rest = super().consistency_proof()
        return (wire, [openings[0]] + openings, *rest)


def test_a_wrong_number_of_evidence_openings_blames_the_complainer(
        monkeypatch):
    monkeypatch.setitem(session._SCRIPTED, "forge_consistency_proof",
                        (_ExtraEvidence, "P1"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="forge_consistency_proof")
        assert (res.status, res.blamed, res.detector) == (
            "abort", "P1", "provider:0"), seed
        assert "wrong number of openings" in res.reason


def _nonce_changed(party, openings):
    position, nonce, *tail = openings[-1]
    nonce = bytes([nonce[0] ^ 1]) + nonce[1:]
    return openings[:-1] + [(position, nonce, *tail)]


def _sibling_changed(party, openings):
    *head, other, unselected = openings[-1]
    other = bytes([other[0] ^ 1]) + other[1:]
    return openings[:-1] + [(*head, other, unselected)]


def _another_wires_openings(party, openings):
    w0 = party.circuit.input_map[0][0]
    return party.evidence[_another_wire_of_its_provider(w0)]


@pytest.mark.parametrize("evidence", [_nonce_changed, _sibling_changed,
                                      _another_wires_openings],
                         ids=lambda f: f.__name__.strip("_"))
def test_evidence_that_does_not_open_blames_the_complainer(monkeypatch,
                                                           evidence):
    """A party that complains about provider 0's consistent first wire
    with openings or siblings that only it could have changed, or with
    another wire's, is blamed, never the provider."""
    class Forger(session._ForgeConsistencyProof):
        def consistency_proof(self):
            wire, openings, *rest = super().consistency_proof()
            return (wire, evidence(self, openings), *rest)

    monkeypatch.setitem(session._SCRIPTED, "forge_consistency_proof",
                        (Forger, "P1"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="forge_consistency_proof")
        assert (res.status, res.blamed) == ("abort", "P1"), seed


class _WrongCircuit2Set(session._InconsistentLabels):
    """An honest provider but for the circuit-2 label set it attests to
    both parties for its first wire."""

    make_material = session.Provider.make_material

    def evalset_openings(self):
        material = self.material[self.wires[0]]
        honest = material.label_sets
        wrong = tuple(sorted((self.adv_rng.randbytes(32),
                              self.adv_rng.randbytes(32))))
        material.label_sets = lambda rho: (honest(rho)[0], wrong)
        return super().evalset_openings()


def test_a_bidder_that_attests_a_wrong_label_set_is_blamed(monkeypatch):
    """The first party's cross labels miss the wrong set, and every
    provider but the owner, which gives no ruling on its own wire, finds
    the evidence consistent with the copies and blames the owner."""
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_WrongCircuit2Set, "provider:0"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels")
        assert (res.status, res.blamed) == ("abort", "provider:0"), seed
        assert "inconsistent inputs" in res.reason


def _circuit2_set_to_p1(sess, fake):
    """A transport that replaces, to P1 only, the circuit-2 set provider 0
    attests for its first wire by ``fake(sess, wire)``."""
    def rewrite(got):
        openings, sets = got
        sets = list(sets)
        sets[0] = (sets[0][0], fake(sess, sess.circuit.input_map[0][0]))
        return openings, sets
    return value_fault(M.MessageType.EVALSET_OPENINGS, rewrite, "provider:0",
                       "P1")


def _holding_p1s_cross_aggregate(sess, wire):
    """P1's cross labels of ``wire`` are the third labels of the input sets
    provider 0 opens to it."""
    material, rho = sess.bidders[0].material[wire], sess.p1.rho[wire]
    cross = consistency._xor_hashes(
        material.eval_openings(j, 0)[3] for j in range(sess.s) if not rho[j])
    return tuple(sorted((cross, bytes(32))))


def _junk_set(sess, wire):
    return bytes(32), b"\xff" * 32


@pytest.mark.parametrize("adversary,fake,seeds", [
    # An honest provider but for the set it shows P1; without the echo
    # P1's evidence matched the arbitrators' sets and P1 was blamed.
    (None, _junk_set, range(6)),
    # Provider 0 mixes a tampered copy into the evaluation set and shows
    # P1 a set holding P1's own cross aggregate, so that P1's check
    # passes; without the echo neither party complained and P1 blamed
    # P2 for the circuit it could not evaluate.
    ("inconsistent_labels", _holding_p1s_cross_aggregate, range(24)),
], ids=["honest", "inconsistent_labels"])
def test_label_sets_shown_to_one_party_only_abort_blaming_no_one(
        adversary, fake, seeds):
    """The parties' echo shows that the roles hold different label sets
    before any role checks them or any claim is ruled, so the session
    ends blaming no one."""
    for seed in seeds:
        sess = Session(SMALL, BIDS, s=4, seed=seed, adversary=adversary)
        sess.transport = _circuit2_set_to_p1(sess, fake)
        res = sess.run()
        assert (res.status, res.blamed, res.reason) == (
            "abort", None, "input views diverged"), seed
        assert not any(e.type in ("CHECK_FAILURE_CLAIM", "CONSISTENCY_PROOF")
                       for e in res.transcript.entries), seed


class _Equivocator(session._InconsistentLabels):
    """An honest bidder but for its first wire: it keeps for P2 the same
    input sets as P1's but position commitments to the opposite bit, and
    opens to each party the input set of its own view. Every check passes
    on its own, and P2 would evaluate the opposite bit."""

    make_material = session.Provider.make_material

    def input_commitments(self):
        leaves = super().input_commitments()
        honest = self.material[self.wires[0]]
        copies = []
        for c in honest.copies:
            nonce = self.adv_rng.randbytes(NONCE_BYTES)
            coms = c.coms[:128] + commit(
                TAG_POSITION + bytes([c.b ^ 1 ^ honest.x]), nonce)
            copies.append(c._replace(position_nonce=nonce, coms=coms,
                                     leaf=consistency.copy_leaf(coms)))
        self.p2_view = consistency.WireMaterial(1 - honest.x, copies)
        return leaves

    def evalset_openings(self):
        sent = super().evalset_openings()
        w0 = self.wires[0]
        copies = self.copies(self.index, checked=False)
        for k, (w, j) in enumerate(copies):
            if w == w0:
                sent[session._P2][0][k] = self.p2_view.eval_openings(j, 1)
        return sent


def test_position_commitments_equivocated_to_the_parties_abort_at_the_echo(
        monkeypatch):
    """The equivocator's leaves reach P2 with its view of the first wire.
    The parties' echo covers every bidder's wire digests, and P2's digest
    of the equivocated wire is not P1's, so every run ends before either
    circuit is garbled, blaming no one."""
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_Equivocator, "provider:0"))
    for seed in range(12):
        sess = Session(SMALL, BIDS, s=4, seed=seed,
                       adversary="inconsistent_labels")
        sess.transport = value_fault(
            M.MessageType.INPUT_COMMITMENTS,
            lambda leaves: (sess.bidders[0].p2_view.leaves()
                            + list(leaves[sess.s:])), "provider:0", "P2")
        res = sess.run()
        assert (res.status, res.blamed, res.reason, res.phase) == (
            "abort", None, "input views diverged", "input"), seed


@pytest.mark.parametrize("script", [
    AdversaryScript("inconsistent_labels"),
    AdversaryScript("falsify_check_failure"),
    AdversaryScript("falsify_check_failure", target="P2"),
], ids=lambda a: f"{a.behavior}:{a.target}")
def test_check_claims_never_blame_an_honest_role(script):
    """Seeds 0-39: a bad check copy convicts its provider, a false claim
    its claimant, and no other role is ever blamed."""
    for seed in range(40):
        res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=script)
        assert res.blamed in (script.target, None), seed
        if script.behavior == "falsify_check_failure":
            assert (res.status, res.blamed) == ("abort", script.target), seed


@pytest.mark.parametrize("receiver", ["provider:1", "cloud"])
def test_a_failure_proof_confirmed_by_one_provider_rejects(receiver):
    """A complainer's failure proof with one opening's nonce zeroed to one
    provider: that provider finds it spurious, the others confirm it. The
    bundles are pinned by BUNDLE_HASH, so one confirmation rejects."""
    def zeroed(proof):
        p1, p2 = proof
        return Opening(p1.message, bytes(NONCE_BYTES)), p2
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="substitute_output_label",
                          transport=value_fault(M.MessageType.FAILURE_PROOF,
                                                zeroed, "provider:0",
                                                receiver))
        assert (res.status, res.blamed) == ("reject", None), seed


def test_false_output_complaint_is_spurious_and_harmless():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="false_output_complaint")
    assert res.status == "accept"
    assert res.blamed == "provider:0"
    assert res.result == oracle_run(SMALL, BIDS)
    assert "complained" in res.reason


def test_no_adversary_run_is_silently_wrong():
    oracle = oracle_run(SMALL, BIDS)
    for seed in range(25):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels")
        assert not (res.status == "accept" and res.result != oracle)
        assert res.status in ("abort", "reject", "accept")


def test_empty_transcript_measures_zero():
    m = Transcript().measure()
    assert m["bytes_total"] == 0
    assert m["messages_total"] == 0
    assert m["bytes_by_phase"] == {}
    assert m["wall_time_by_phase"] == {}


def test_output_privacy_audit_catches_a_late_provider_message():
    t = Transcript()
    t.add("output", "P1", "provider:0", "OUTPUT_OPENINGS", 100)
    t.add("output", "provider:0", "provider:1", "FAILURE_PROOF", 50)
    t.audit_output_privacy()
    t.add("output", "cloud", "P1", "BUNDLE_HASH", 40)
    with pytest.raises(ProtocolError):
        t.audit_output_privacy()
    aborted = Transcript()
    aborted.add("output", "P1", "provider:0", "OUTPUT_OPENINGS", 100)
    aborted.add("output", "provider:0", "P1", "ABORT", 30)
    aborted.audit_output_privacy()


def test_aborted_session_announces_the_abort_to_every_role():
    sess = Session(SMALL, BIDS, s=4, seed=5, adversary="bias_coin_toss")
    res = sess.run()
    assert res.status == "abort"
    aborts = [e for e in res.transcript.entries if e.type == "ABORT"]
    assert len(aborts) == len(sess.all_roles) - 1
    assert all(e.sender == "P1" for e in aborts)  # first verifier broadcasts


class PendingTransport(InProcessTransport):
    """Counts the frames sent but not yet received, by channel."""

    def __init__(self):
        super().__init__()
        self.pending = Counter()

    def send(self, sender, receiver, frame):
        self.pending[sender.name, receiver.name] += 1
        super().send(sender, receiver, frame)

    def recv(self, receiver, sender):
        frame = super().recv(receiver, sender)
        self.pending[sender.name, receiver.name] -= 1
        return frame


@pytest.mark.parametrize("behavior", ["tamper_garbled_gate",
                                      "bias_coin_toss"])
def test_every_role_reads_the_abort(behavior):
    """A receiver of the detector's ABORT skips the frames the detector
    queued before it: under a tampered circuit, P2 detects while its own
    circuit still waits at P1. So no frame from the detector is left."""
    for seed in (0, 3, 5):
        transport = PendingTransport()
        res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=behavior,
                          transport=transport)
        assert res.status == "abort"
        assert not [channel for channel, n in transport.pending.items()
                    if n and channel[0] == res.detector], seed


def _held(value):
    """``value`` and everything inside its dicts, lists, tuples and sets."""
    yield value
    if isinstance(value, dict):
        for item in value.items():
            yield from _held(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _held(item)


@pytest.mark.parametrize("adversary", [None] + list(BEHAVIORS))
def test_roles_hold_no_session_and_no_other_role(adversary):
    sess = Session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
    sess.run()
    roles = sess._all_states()
    assert len(roles) == len(sess.all_roles)
    for role in roles:
        for held in _held(list(vars(role).values())):
            assert not isinstance(held, Session), role.role.name
            assert not any(held is other for other in roles
                           if other is not role), role.role.name
