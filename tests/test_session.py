"""End-to-end session tests: honest agreement with the plaintext oracle,
transcript determinism and accounting, and the catch-the-cheater paths."""

import dataclasses
import hashlib
import random

import pytest

from dualgc import consistency, outputs
from dualgc import messages as M
from dualgc.auction import AuctionConfig, build_auction_circuit, oracle_run
from dualgc.errors import (DecodeError, ProtocolError, TransportTimeout,
                           UsageError)
from dualgc.garbling import (HEADER_BYTES, ROW_BYTES, decode, gate_rows,
                             tabled_gates)
from dualgc.outputs import ACCEPT, REJECT, FailureProof
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


def test_commitment_nonces_are_never_reused(monkeypatch):
    """Every commitment a run creates, seen where the consistency and
    output layers call ``tagged_commit``, has its own nonce: in the honest
    run and under each scripted behaviour."""
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
             + 2 * 3 * wires      # both parties' hash-tuple commitments
             + 2 * 2 * (len(BIDS) + 1)  # output commitments per recipient
             + 2)                 # one coin-toss commitment per party
    for adversary in [None] + list(BEHAVIORS):
        nonces.clear()
        res = run_session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
        if adversary is None:
            assert res.status == "accept"
            assert len(nonces) >= floor
        assert nonces and len(set(nonces)) == len(nonces), adversary
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


class FirstFrameFault(InProcessTransport):
    """Applies ``mutate`` to the first frame of one type and records who
    sent it."""

    def __init__(self, mtype, mutate):
        super().__init__()
        self.mtype = mtype
        self.mutate = mutate
        self.sender = None

    def send(self, sender, receiver, frame):
        if self.sender is None and frame[4] == self.mtype:
            self.sender = sender.name
            frame = self.mutate(frame)
        super().send(sender, receiver, frame)


def reframed(edit):
    def mutate(frame):
        mtype, sid, who, body = M.decode_frame(frame)
        return M.encode_frame(mtype, sid, who, edit(body))
    return mutate


def retyped(frame):
    other = random.Random(frame[4]).choice(
        [t for t in M.MessageType if t != frame[4]])
    return frame[:4] + bytes([other]) + frame[5:]


FRAME_MUTATIONS = {
    "truncated": reframed(lambda body: body[:-1]),
    "appended": reframed(lambda body: body + b"\x00"),
    "retyped": retyped,
}

# message type -> a scripted behaviour whose run sends it (None: honest)
SENT_BY = dict.fromkeys(M.MessageType)
SENT_BY.update({
    M.MessageType.CHECK_FAILURE_CLAIM: "falsify_check_failure",
    M.MessageType.CONSISTENCY_PROOF: "forge_consistency_proof",
    M.MessageType.PROOF_OPENING_REQUEST: "forge_consistency_proof",
    M.MessageType.PROOF_OPENING_RESPONSE: "forge_consistency_proof",
    M.MessageType.FAILURE_PROOF: "false_output_complaint",
    M.MessageType.ABORT: "bias_coin_toss",
})


@pytest.mark.parametrize("mutation", sorted(FRAME_MUTATIONS))
@pytest.mark.parametrize("mtype", list(M.MessageType), ids=lambda t: t.name)
def test_mutated_frame_ends_in_a_verdict(mtype, mutation):
    adversary = SENT_BY[mtype]
    transport = FirstFrameFault(mtype, FRAME_MUTATIONS[mutation])
    res = run_session(SMALL, BIDS, s=4, seed=3, adversary=adversary,
                      transport=transport)
    assert transport.sender is not None
    assert not (res.status == "accept" and res.result != oracle_run(SMALL,
                                                                    BIDS))
    cheater = make_adversary(adversary).target if adversary else None
    assert res.blamed in {transport.sender, cheater, None}
    if mtype is M.MessageType.ABORT:
        clean = run_session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
        assert (res.status, res.blamed, res.reason) == (
            clean.status, clean.blamed, clean.reason)


def _claim_at(wire=None, copy=None):
    def rewrite(claim):
        prov, w, j, openings = claim
        return (prov, w if wire is None else wire,
                j if copy is None else copy, openings)
    return rewrite


# case -> (behaviour, type, value rewrite, rewritten channel (sender,
# receiver), None for any, blamed)
VALUE_FAULTS = {
    "claim_unknown_wire": ("falsify_check_failure",
                           M.MessageType.CHECK_FAILURE_CLAIM,
                           _claim_at(wire=9999), (None, None), "P1"),
    "claim_copy_out_of_range": ("falsify_check_failure",
                                M.MessageType.CHECK_FAILURE_CLAIM,
                                _claim_at(copy=99), (None, None), "P1"),
    "failure_proof_other_recipient": (
        "false_output_complaint", M.MessageType.FAILURE_PROOF,
        lambda p: FailureProof(recipient=99, openings=p.openings),
        (None, None), "provider:0"),
    "output_openings_other_recipient": (
        None, M.MessageType.OUTPUT_OPENINGS,
        lambda o: ((o[0] + 1) % len(BIDS),) + o[1:], ("P2", None), "P2"),
    "proof_request_other_wire": (
        "forge_consistency_proof", M.MessageType.PROOF_OPENING_REQUEST,
        lambda r: (r[0] + 1, r[1]), (None, None), "cloud"),
    # P1 complains and P2 garbles; each checks the request on its own
    # channel against the proof it holds.
    "proof_request_to_complainer_other_wire": (
        "forge_consistency_proof", M.MessageType.PROOF_OPENING_REQUEST,
        lambda r: (r[0] + 1, r[1]), ("cloud", "P1"), "cloud"),
    "proof_request_to_garbler_other_wire": (
        "forge_consistency_proof", M.MessageType.PROOF_OPENING_REQUEST,
        lambda r: (r[0] + 1, r[1]), ("cloud", "P2"), "cloud"),
    "proof_response_short": (
        "forge_consistency_proof", M.MessageType.PROOF_OPENING_RESPONSE,
        lambda r: (r[0], r[1], r[2][:1]), ("P2", None), "P2"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(VALUE_FAULTS))
def test_decoded_values_are_checked_before_use(case, seed):
    adversary, mtype, rewrite, channel, blamed = VALUE_FAULTS[case]
    res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=adversary,
                      transport=value_fault(mtype, rewrite, *channel))
    assert res.status == "abort"
    assert res.blamed == blamed


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
    """A blob rewrite flipping one random bit in every row of the first
    input projection, the first AND gate or the first output projection,
    so the row the evaluator reads is corrupted."""
    circuit = build_auction_circuit(SMALL, len(BIDS))
    bit = random.Random(region).randrange(ROW_BYTES * 8)

    def rewrite(blob):
        if region == "input":
            start, count = HEADER_BYTES, 2
        elif region == "gate":
            start = gate_rows(circuit, tabled_gates(circuit)[0]).start
            count = 4
        else:
            start = len(blob) - 2 * ROW_BYTES * len(set(circuit.output_wires))
            count = 2
        bad = bytearray(blob)
        for off in range(start, start + count * ROW_BYTES, ROW_BYTES):
            bad[off + ROW_BYTES - 1 - bit // 8] ^= 1 << bit % 8
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
    "other_provider": lambda p: dataclasses.replace(
        p, provider=(p.provider + 1) % len(BIDS)),
    "no_input_wire": lambda p: dataclasses.replace(p, wire=9999),
}


@pytest.mark.parametrize("rewrite", sorted(PROOF_REWRITES))
def test_rewritten_consistency_proof_blames_its_sender(
        inconsistent_labels_scan, rewrite):
    """Every receiver judges the proof it received, so a proof naming a
    wire its provider does not own convicts the complainer that sent it,
    never an honest provider."""
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


def _to_another_wire_of_its_provider(proof):
    group = Session(SMALL, BIDS, s=4).circuit.input_map[proof.provider]
    return dataclasses.replace(
        proof, wire=group[(group.index(proof.wire) + 1) % len(group)])


@pytest.mark.parametrize("receiver",
                         ["provider:0", "provider:1", "cloud", "garbler"])
def test_consistency_proof_sent_differently_to_one_receiver(
        inconsistent_labels_scan, receiver):
    """A complainer that sends one receiver a proof for another wire. A
    bidder that got the odd copy sees the complainer's own opening answer
    another wire and convicts the complainer. The cloud's and the
    garbler's copies are not compared with anyone's: the garbler finds the
    cloud's request off its copy and blames the cloud, an honest role.
    Pinned until proofs are echo-broadcast (ROADMAP item 5)."""
    for seed, clean in zip(inconsistent_labels_scan["seeds"]["mixed"],
                           inconsistent_labels_scan["mixed"]):
        complainer = next(e.sender for e in clean.transcript.entries
                          if e.type == "CONSISTENCY_PROOF")
        to = {"garbler": "P2" if complainer == "P1" else "P1"}.get(
            receiver, receiver)
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels",
                          transport=value_fault(
                              M.MessageType.CONSISTENCY_PROOF,
                              _to_another_wire_of_its_provider, receiver=to))
        expect = complainer if to.startswith("provider") else "cloud"
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
    # Gate 0 is a NOT gate, which has no table; the first AND gate has.
    first_and = tabled_gates(build_auction_circuit(SMALL, len(BIDS)))[0]
    first = AdversaryScript("tamper_garbled_gate", gate=first_and, mask=0x01)
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
