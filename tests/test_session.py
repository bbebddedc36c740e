"""End-to-end session tests: honest agreement with the plaintext oracle,
transcript determinism and accounting, and the catch-the-cheater paths."""

import hashlib

import pytest

from dualgc import messages as M
from dualgc.auction import AuctionConfig, oracle_run
from dualgc.errors import (DecodeError, ProtocolError, TransportTimeout,
                           UsageError)
from dualgc.garbling import ROW_BYTES, decode
from dualgc.outputs import ACCEPT, REJECT
from dualgc.session import (AdversaryScript, Session, Transcript,
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
    sess.audit_nonces()
    assert all(st.phase == "done" for st in sess._all_states())


def test_session_traffic_covers_all_phases():
    res = run_session(SMALL, BIDS, s=4, seed=3)
    by_phase = res.transcript.measure()["bytes_by_phase"]
    assert set(by_phase) == {"input", "compute", "output"}
    assert all(v > 0 for v in by_phase.values())


def test_input_phase_traffic_has_commitment_lower_bound():
    s = 4
    res = run_session(SMALL, BIDS, s=s, seed=3)
    wires = len(BIDS) * 2 * SMALL.vm_types * SMALL.width
    floor = wires * 5 * s * 32  # five 32-byte commitments per copy, sent once
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


def test_session_runs_over_tcp_with_identical_transcript():
    roles = [M.Role(M.P1), M.Role(M.P2)] + \
        [M.Role(M.PROVIDER, i) for i in range(len(BIDS))] + [M.Role(M.CLOUD)]
    tcp = TcpTransport(roles)
    try:
        over_tcp = run_session(SMALL, BIDS, s=4, seed=9, transport=tcp)
    finally:
        tcp.close()
    in_proc = run_session(SMALL, BIDS, s=4, seed=9)
    assert over_tcp.status == "accept"
    assert over_tcp.result == in_proc.result
    assert over_tcp.transcript.signature() == in_proc.transcript.signature()


def test_challenge_degeneracy_forces_extra_toss_rounds():
    sess = Session(SMALL, BIDS, s=4, seed=0)
    res = sess.run()
    commits = sum(1 for e in res.transcript.entries
                  if e.type == "COIN_COMMIT" and e.sender == "P1")
    receivers = len(sess.all_roles) - 1
    assert commits % receivers == 0
    assert commits // receivers >= 2  # at least one wire demanded a re-toss
    assert res.status == "accept"


def test_neither_party_can_decode_its_own_circuit():
    sess = Session(SMALL, BIDS, s=4, seed=3)
    sess.run()
    sess.assert_role_secrecy()
    circuit = sess.circuit
    for party in (sess.p1, sess.p2):
        own_first_group = [party.gc.output_encodings[w]
                           for w in circuit.output_map[0]]
        with pytest.raises(DecodeError):
            decode(party.eval_labels[0], own_first_group)
    own1 = {e.zero for e in sess.p1.final_enc.values()}
    own2 = {e.zero for e in sess.p2.final_enc.values()}
    assert not own1 & own2


def test_commitment_nonces_are_never_reused():
    sess = Session(SMALL, BIDS, s=4, seed=3)
    sess.run()
    nonces = sess.collect_nonces()
    wires = len(BIDS) * 2 * SMALL.vm_types * SMALL.width
    floor = (wires * 4 * 5        # provider copies: five commitments each
             + 2 * 3 * wires      # both parties' hash-tuple commitments
             + 2 * 2 * (len(BIDS) + 1)  # output commitments per recipient
             + 2 * wires)         # at least one coin-toss round
    assert len(nonces) >= floor
    sess.audit_nonces()
    sess.p1.nonces.append(sess.p2.nonces[0])
    with pytest.raises(ProtocolError):
        sess.audit_nonces()


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


class GarbledBlobFault(InProcessTransport):
    """Rewrites the tables blob one party sends in its GARBLED_CIRCUIT frame,
    keeping the frame itself well formed."""

    def __init__(self, producer, rewrite):
        super().__init__()
        self.producer = producer
        self.rewrite = rewrite

    def send(self, sender, receiver, frame):
        mtype, sid, who, body = M.decode_frame(frame)
        if mtype == M.MessageType.GARBLED_CIRCUIT and \
                sender.name == self.producer:
            frame = M.encode_frame(mtype, sid, who, self.rewrite(body))
        super().send(sender, receiver, frame)


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
    res = run_session(SMALL, BIDS, s=4, seed=3,
                      transport=GarbledBlobFault(producer, rewrite))
    assert res.status == "abort"
    assert res.blamed == producer
    assert res.phase == "compute"
    assert res.reason.startswith("garbled circuit rejected")
    assert check in res.reason
    assert res.result is None


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
    script = make_adversary("bias_coin_toss")
    assert script.target == "P2"
    assert make_adversary(script) is script
    assert make_adversary(None) is None


def test_tampered_check_copy_is_blamed_on_the_provider():
    res = run_session(SMALL, BIDS, s=4, seed=0,
                      adversary="inconsistent_labels")
    assert res.status == "abort"
    assert res.blamed == "provider:0"
    assert res.phase == "input"
    assert "construction" in res.reason


def test_tampered_eval_copy_fails_the_hash_comparison():
    res = run_session(SMALL, BIDS, s=4, seed=1,
                      adversary="inconsistent_labels")
    assert res.status == "abort"
    assert res.blamed == "provider:0"
    assert res.phase == "input"
    assert "inconsistent inputs" in res.reason


def test_fully_tampered_eval_set_diverges_and_is_rejected():
    res = run_session(SMALL, BIDS, s=4, seed=18,
                      adversary="inconsistent_labels")
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
    first = AdversaryScript("tamper_garbled_gate", gate=0, mask=0x01)
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=first)
    assert res.status == "abort"
    assert res.blamed == "P1"
    on_p2 = AdversaryScript("tamper_garbled_gate", target="P2")
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=on_p2)
    assert res.blamed == "P2"


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


def test_forged_consistency_proof_blames_the_forger():
    res = run_session(SMALL, BIDS, s=4, seed=5,
                      adversary="forge_consistency_proof")
    assert res.status == "abort"
    assert res.blamed == "P1"
    assert res.phase == "input"
    assert "contradicts" in res.reason


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


def test_transcript_csv_layout():
    res = run_session(SMALL, BIDS, s=4, seed=3)
    csv = res.transcript.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "phase,sender,receiver,type,bytes,micros"
    assert len(lines) == len(res.transcript.entries) + 1
    for line in lines[1:]:
        phase, sender, receiver, mtype, nbytes, micros = line.split(",")
        assert phase in M.PHASES
        assert int(nbytes) > 0 and int(micros) >= 0
        M.MessageType[mtype]


def test_empty_transcript_measures_zero():
    m = Transcript().measure()
    assert m["bytes_total"] == 0
    assert m["messages_total"] == 0
    assert m["bytes_by_phase"] == {}
    assert m["wall_time_by_phase"] == {}


def test_output_privacy_audit_catches_a_late_provider_message():
    t = Transcript()
    t.add("output", "P1", "provider:0", "OUTPUT_OPENINGS", 100, 0)
    t.add("output", "provider:0", "provider:1", "FAILURE_PROOF", 50, 1)
    t.audit_output_privacy()
    t.add("output", "cloud", "P1", "BUNDLE_HASH", 40, 2)
    with pytest.raises(ProtocolError):
        t.audit_output_privacy()
    aborted = Transcript()
    aborted.add("output", "P1", "provider:0", "OUTPUT_OPENINGS", 100, 0)
    aborted.add("output", "provider:0", "P1", "ABORT", 30, 1)
    aborted.audit_output_privacy()


def test_aborted_session_marks_every_state():
    sess = Session(SMALL, BIDS, s=4, seed=5, adversary="bias_coin_toss")
    res = sess.run()
    assert res.status == "abort"
    assert all(st.phase == "aborted" for st in sess._all_states())
    aborts = [e for e in res.transcript.entries if e.type == "ABORT"]
    assert len(aborts) == len(sess.all_roles) - 1
    assert all(e.sender == "P1" for e in aborts)  # first verifier broadcasts
