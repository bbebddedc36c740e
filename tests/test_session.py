"""End-to-end session tests: honest agreement with the plaintext oracle,
transcript determinism and accounting, and the catch-the-cheater paths."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from dualgc import consistency, outputs, session
from dualgc import messages as M
from dualgc.auction import AuctionConfig, build_auction_circuit, oracle_run
from dualgc.commitments import (NONCE_BYTES, TAG_POSITION, Commitment,
                               Opening, tagged_commit)
from dualgc.errors import (DecodeError, ProtocolError, TransportTimeout,
                           UsageError)
from dualgc.garbling import (HEADER_BYTES, ROW_BYTES, decode, gate_rows,
                             tabled_gates)
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
             + 2 * (len(BIDS) + 1)  # output: one per party and recipient
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


def flipped(at):
    """Flips the low bit of body byte ``at(body length)``."""
    def edit(body):
        i = at(len(body))
        return body[:i] + bytes([body[i] ^ 1]) + body[i + 1:]
    return reframed(edit)


# Each mutates the first frame of a type, which goes to one receiver only.
FRAME_MUTATIONS = {
    "truncated": reframed(lambda body: body[:-1]),
    "appended": reframed(lambda body: body + b"\x00"),
    # A flipped check seed no longer regenerates its copy at the one
    # receiver that holds it, whose seed digest then misses the others' at
    # the echo: the session ends blaming no one, not the provider.
    "flipped_last_byte": flipped(lambda n: n - 1),
    "flipped_middle_byte": flipped(lambda n: n // 2),
    "retyped": retyped,
    # A type that has no schema and no flow is refused like any other
    # unexpected type.
    "retired_type": lambda frame: (
        frame[:4] + bytes([M.MessageType.PROOF_OPENING_REQUEST]) + frame[5:]),
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
        w, j, seeds, pairs = claim
        return (w if wire is None else wire, j if copy is None else copy,
                seeds, pairs)
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
        lambda p: dataclasses.replace(p, p1=p.p2, p2=p.p1), (None, None),
        ("accept", "provider:0")),
    "output_openings_bad_opening": (
        None, M.MessageType.OUTPUT_OPENINGS,
        lambda o: Opening(o.message, bytes(NONCE_BYTES)),
        ("P2", None), ("abort", "P2")),
    "echo_with_two_digests": (
        None, M.MessageType.HASH_TUPLE, lambda got: (2 * list(got[0]), []),
        ("P1", None), ("abort", "P1")),
    "check_seeds_one_short": (
        None, M.MessageType.CHECKSET_OPENINGS,
        lambda got: (got[0], list(got[1])[:-1]), ("provider:0", "P2"),
        ("abort", "provider:0")),
    "two_seed_digests": (
        None, M.MessageType.CHECKSET_OPENINGS,
        lambda got: (2 * list(got[0]), got[1]), ("provider:1", "cloud"),
        ("abort", "provider:1")),
    # A party that echoes other sets to one role may be lying, or a
    # bidder may have sent that role other sets: no one is blamed.
    "echo_zeroed_to_the_cloud": (
        None, M.MessageType.HASH_TUPLE, lambda got: ([bytes(32)], []),
        ("P2", "cloud"), ("abort", None)),
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


def _last_pair_dropped(got):
    digests, pairs = got
    return digests, _last_entry_dropped(pairs)


def _first_set_repeated(got):
    digests, sets = got
    return digests, _first_entry_repeated(sets)


def _first_seed_repeated(got):
    digests, seeds = got
    return digests, list(seeds[:1]) + list(seeds)


# counted body -> (behaviour, the sender that fills it, rewrite, reason)
COUNTED_BODIES = {
    M.MessageType.CHECKSET_OPENINGS: (
        None, "provider:0", _first_seed_repeated,
        "check seeds cover the wrong copies"),
    M.MessageType.EVALSET_OPENINGS: (
        None, "provider:0", _first_entry_repeated,
        "evaluation openings cover the wrong copies"),
    M.MessageType.INPUT_COMMITMENTS: (
        None, "provider:0", _last_pair_dropped,
        "input commitments hold the wrong number of copies"),
    M.MessageType.HASH_TUPLE: (
        None, "provider:0", _first_set_repeated,
        "label sets cover the wrong wires"),
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


def _count_item_reads(monkeypatch) -> Counter:
    """Counts, by list, the items read out of fixed-width lists from now
    on: an input commitment body's digests ("wire digests") and pairs, a
    check-seed body's digest ("seed digests") and seeds, the seeds ("claim
    seeds") and pairs of a claim, the pairs of a proof, the label sets, the
    parties' echo digests and the output commitments."""
    T = M.MessageType
    counts = Counter()

    def counted(name, item):
        def read(data, off, read_item=item.read):
            counts[name] += 1
            return read_item(data, off)
        return M.listof(item._replace(read=read))

    pair = M.decode_body(T.INPUT_COMMITMENTS, bytes(8))[1].item
    sets = M.decode_body(T.HASH_TUPLE, bytes(8))[1].item
    schemas = {
        T.INPUT_COMMITMENTS: M.seq(counted("wire digests", M.raw(32)),
                                   counted("INPUT_COMMITMENTS", pair)),
        T.CHECKSET_OPENINGS: M.seq(counted("seed digests", M.raw(32)),
                                   counted("CHECKSET_OPENINGS", M.raw(16))),
        T.CHECK_FAILURE_CLAIM: M.seq(M.u32, M.u16,
                                     counted("claim seeds", M.raw(16)),
                                     counted("CHECK_FAILURE_CLAIM", pair)),
        T.CONSISTENCY_PROOF: M.seq(M.u32, M.listof(M.seq(M.opening,
                                                         M.opening)),
                                   counted("CONSISTENCY_PROOF", pair)),
        T.HASH_TUPLE: M.seq(counted("echo digests", M.raw(32)),
                            counted("HASH_TUPLE", sets)),
        T.OUTPUT_COMMITMENTS: counted(
            "OUTPUT_COMMITMENTS",
            M.decode_body(T.OUTPUT_COMMITMENTS, bytes(4)).item),
    }
    for mtype, schema in schemas.items():
        monkeypatch.setitem(M.SCHEMAS, mtype, schema)
    return counts


@pytest.mark.parametrize("adversary", [None, "falsify_check_failure",
                                       "forge_consistency_proof"])
def test_receivers_decode_only_the_items_they_read(monkeypatch, adversary):
    """Each party reads every commitment pair once, in its check or its
    evaluation, every check seed once and each wire's label sets once;
    every provider reads each other bidder's seed digest once; every role
    reads each other party's echo digest once; every provider reads both
    parties' output commitments. A bidder or the cloud reads a wire
    digest, a commitment pair or a label set only to arbitrate, and the
    owner of the wire in dispute reads none."""
    counts = _count_item_reads(monkeypatch)
    sess = Session(SMALL, BIDS, s=4, seed=3, adversary=adversary)
    res = sess.run()
    wires, s = len(sess.circuit.input_wires), sess.s
    providers = len(sess.providers)
    checked = sum(map(sum, sess.p1.rho.values()))
    seeds = {"CHECKSET_OPENINGS": 2 * checked,
             "seed digests": len(BIDS) * (providers - 1),
             "echo digests": 2 * (providers + 1)}
    if adversary is None:
        assert res.status == "accept"
        assert counts == seeds | {"INPUT_COMMITMENTS": 2 * wires * s,
                                  "HASH_TUPLE": 2 * wires,
                                  "OUTPUT_COMMITMENTS":
                                  providers * 2 * providers}
    elif adversary == "falsify_check_failure":
        # The session ends at the claim, ruled after the echo: each party
        # has read every commitment pair, and the claimant the claimed
        # wire's s pairs and its owner's check seeds, to send them. Every
        # provider but the wire's owner reads the wire's digest, hashes
        # the claim's s pairs and seeds, then reads the claimed pair and
        # seed.
        assert (res.status, res.blamed) == ("abort", "P1")
        owner_checked = sum(sum(sess.p1.rho[w])
                            for w in sess.circuit.input_map[0])
        assert counts == seeds | {
            "CHECKSET_OPENINGS": 2 * checked + owner_checked,
            "INPUT_COMMITMENTS": 2 * wires * s + s,
            "wire digests": providers - 1,
            "CHECK_FAILURE_CLAIM": (providers - 1) * (s + 1),
            "claim seeds": (providers - 1) * (owner_checked + 1)}
    else:
        # The complainer reads every wire's label sets before it makes
        # its complaint up, and the wire's s pairs to send them; every
        # provider but the wire's owner reads the wire's digest and label
        # sets, hashes the proof's s pairs and reads each evaluated one.
        assert (res.status, res.blamed) == ("abort", "P1")
        w0 = sess.circuit.input_map[0][0]
        evaluated = s - sum(sess.p1.rho[w0])
        assert counts == seeds | {
            "INPUT_COMMITMENTS": 2 * wires * s + s,
            "HASH_TUPLE": wires + providers - 1,
            "wire digests": providers - 1,
            "CONSISTENCY_PROOF": (providers - 1) * (s + evaluated)}


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
            rows = gate_rows(circuit, tabled_gates(circuit)[0])
            start, count = rows.start, len(rows)
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
    digest there, and the rulings differ, so no one is blamed: that
    provider cannot tell this from an owner that sent it wrong digests."""
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
    # Gate 0 is a NOT gate, which has no table; the first AND gate has.
    # At seed 5 P2 holds pointer bits (0, 0) there, so it reads the
    # implicit row, which cannot be tampered with: the session accepts the
    # right result. At gate 7 it reads a sent row.
    first_and = tabled_gates(build_auction_circuit(SMALL, len(BIDS)))[0]
    first = AdversaryScript("tamper_garbled_gate", gate=first_and, mask=0x01)
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=first)
    assert (res.status, res.blamed) == ("accept", None)
    assert res.result == oracle_run(SMALL, BIDS)
    read = AdversaryScript("tamper_garbled_gate", gate=7, mask=0x01)
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=read)
    assert (res.status, res.blamed, res.phase) == ("abort", "P1", "compute")
    assert "gate 7: no row authenticates" in res.reason
    on_p2 = AdversaryScript("tamper_garbled_gate", target="P2")
    res = run_session(SMALL, BIDS, s=4, seed=5, adversary=on_p2)
    assert res.blamed == "P2"


# The default script corrupts every sent AND/OR row, so the evaluator reads
# a corrupted row at the first gate where its pointer bits are not (0, 0),
# whatever the seed. The benchmark's verdict check counts any other outcome
# as a failed session.
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
    """Each party's frame holds the sender's s pairs per wire, 160 bytes
    each; every other provider's holds one 32-byte digest per wire. Each
    frame also carries the 16-byte header and two 4-byte counts."""
    sess = Session(SMALL, BIDS, s=4, seed=3)
    res = sess.run()
    assert res.status == "accept"
    frames = [e for e in res.transcript.entries
              if e.type == "INPUT_COMMITMENTS"]
    assert len(frames) == len(BIDS) * (len(sess.all_roles) - 1)
    for e in frames:
        w_p = len(sess.circuit.input_map[int(e.sender.split(":")[1])])
        full = e.receiver in ("P1", "P2")
        assert e.nbytes == 24 + (160 * w_p * sess.s if full else 32 * w_p)
    assert res.transcript.measure()["bytes_by_type"]["INPUT_COMMITMENTS"] \
        == sum(e.nbytes for e in frames)


def _one_commitment_altered(claim):
    wire, copy, openings, pairs = claim
    pairs = list(pairs)
    pairs[-1] = dataclasses.replace(pairs[-1], position=pairs[0].position)
    return wire, copy, openings, pairs


# rewrite of a genuine claim's pairs -> why they miss the wire's digest
CLAIM_PAIR_REWRITES = {
    "one_commitment_altered": _one_commitment_altered,
    "last_pair_dropped": lambda claim: claim[:3] + (list(claim[3])[:-1],),
    "first_pair_repeated": lambda claim: claim[:3] + (
        [claim[3][0]] + list(claim[3]),),
}


@pytest.mark.parametrize("rewrite", sorted(CLAIM_PAIR_REWRITES))
def test_claim_pairs_that_miss_the_digest_blame_the_claimant(
        inconsistent_labels_scan, rewrite):
    """A genuine claim convicts the provider. The same claim with its
    pairs changed no longer hashes to the digest every provider holds, so
    it proves nothing and convicts the claimant."""
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


def _first_seed_flipped(seeds):
    return [bytes([seeds[0][0] ^ 1]) + seeds[0][1:]] + list(seeds[1:])


# rewrite of a genuine claim's check seeds -> why they miss the seed digest
CLAIM_SEED_REWRITES = {
    "seed_list_one_short": lambda claim: claim[:2] + (list(claim[2])[:-1],
                                                      claim[3]),
    "seed_byte_flipped": lambda claim: claim[:2] + (
        _first_seed_flipped(claim[2]), claim[3]),
}


@pytest.mark.parametrize("rewrite", sorted(CLAIM_SEED_REWRITES))
def test_claim_seeds_that_miss_the_digest_blame_the_claimant(
        inconsistent_labels_scan, rewrite):
    """A genuine claim with its owner's check seeds changed no longer
    hashes to the seed digest every provider holds, so it proves nothing
    and convicts the claimant."""
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
    no longer regenerates the copy. It sends every role alike: the parties
    get the wrong seed, every other provider the digest of the seeds
    holding it."""

    make_material = session.Provider.make_material

    def checkset_openings(self):
        w, j = self.copies(self.index, checked=True)[0]
        copies = self.material[w].copies
        copies[j] = dataclasses.replace(
            copies[j], seed=self.adv_rng.randbytes(consistency.SEED_BYTES))
        return super().checkset_openings()


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


def test_a_seed_flipped_to_one_party_aborts_at_the_echo_blaming_no_one():
    """A check seed that reaches P1 alone flipped makes P1 find a copy
    that is not its seed's, but P1's seed digest then misses every other
    role's, so the session ends at the echo, before any claim is ruled."""
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
    claimed pair, and that copy's seed in place of the claimed seed: the
    seed does not regenerate the pair, but the claim's seeds and pairs no
    longer hash to the owner's digests."""

    def claim_of(self, w, j):
        w, j, seeds, pairs = super().claim_of(w, j)
        bad = consistency.generate_cheating_material(
            self.adv_rng, 0, self.s, [False] * self.s)
        at = self.copies(self.wire_owner[w].index, checked=True).index(
            (w, j))
        seeds, pairs = list(seeds), list(pairs)
        seeds[at], pairs[j] = bad.copies[j].seed, bad.copies[j].pair
        assert not consistency.check_pair_construction(pairs[j], seeds[at])
        return w, j, seeds, pairs


def test_a_claim_about_a_copy_the_provider_never_sent_blames_the_claimant(
        monkeypatch):
    monkeypatch.setitem(session._SCRIPTED, "falsify_check_failure",
                        (_OwnBadCopyClaim, "P1"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="falsify_check_failure")
        assert (res.status, res.blamed) == ("abort", "P1"), seed
        assert "the claim was fabricated" in res.reason


_ZERO = Commitment(bytes(32))
_ZERO_PAIR = consistency.CommitmentSetPair(
    w=(_ZERO, _ZERO), w_prime=(_ZERO, _ZERO), position=_ZERO)

# case -> (receiver, rewrite of provider 0's input commitments, reason)
INPUT_COMMITMENT_FAULTS = {
    "digest_dropped": (
        "provider:1", lambda got: (list(got[0])[:-1], got[1]),
        "input commitments hold the wrong number of wire digests"),
    "pairs_to_a_provider": (
        "cloud", lambda got: (got[0], [_ZERO_PAIR]),
        "input commitments hold the wrong number of wire digests"),
    "digests_to_a_party": (
        "P2", lambda got: ([bytes(32)], got[1]),
        "input commitments hold the wrong number of copies"),
}


@pytest.mark.parametrize("case", sorted(INPUT_COMMITMENT_FAULTS))
def test_input_commitments_of_the_wrong_shape_blame_their_sender(case):
    receiver, rewrite, reason = INPUT_COMMITMENT_FAULTS[case]
    res = run_session(SMALL, BIDS, s=4, seed=3, transport=value_fault(
        M.MessageType.INPUT_COMMITMENTS, rewrite, "provider:0", receiver))
    assert (res.status, res.blamed, res.reason) == (
        "abort", "provider:0", reason)
    assert res.detector == receiver


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_digest_aborts_at_the_echo_blaming_no_one(seed):
    """An honest session whose provider sent another provider wrong
    digests ends at the parties' echo, which covers every bidder's wire
    digests: the receiver cannot tell whether the bidder or the party that
    echoed lies, so no one is blamed."""
    fault = value_fault(M.MessageType.INPUT_COMMITMENTS,
                        lambda got: ([bytes(32)] * len(got[0]), got[1]),
                        "provider:0", "provider:1")
    res = run_session(SMALL, BIDS, s=4, seed=seed, transport=fault)
    assert (res.status, res.blamed, res.reason, res.detector) == (
        "abort", None, "input views diverged", "provider:1")
    assert not any(e.type == "GARBLED_CIRCUIT"
                   for e in res.transcript.entries)


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
        wire, openings, pairs = super().consistency_proof()
        return wire, [openings[0]] + openings, pairs


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
    pos_op, set_op = openings[-1]
    nonce = bytes([set_op.randomness[0] ^ 1]) + set_op.randomness[1:]
    return openings[:-1] + [(pos_op, Opening(set_op.message, nonce))]


def _another_wires_openings(party, openings):
    w0 = party.circuit.input_map[0][0]
    return party.evidence[_another_wire_of_its_provider(w0)]


@pytest.mark.parametrize("evidence", [_nonce_changed,
                                      _another_wires_openings],
                         ids=lambda f: f.__name__.strip("_"))
def test_evidence_that_does_not_open_blames_the_complainer(monkeypatch,
                                                           evidence):
    """A party that complains about provider 0's consistent first wire
    with openings that only it could have changed, or with another wire's,
    is blamed, never the provider."""
    class Forger(session._ForgeConsistencyProof):
        def consistency_proof(self):
            wire, openings, pairs = super().consistency_proof()
            return wire, evidence(self, openings), pairs

    monkeypatch.setitem(session._SCRIPTED, "forge_consistency_proof",
                        (Forger, "P1"))
    for seed in range(6):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="forge_consistency_proof")
        assert (res.status, res.blamed) == ("abort", "P1"), seed


class _WrongCircuit2Set(session._InconsistentLabels):
    """An honest provider but for the circuit-2 label set it attests for
    its first wire."""

    make_material = session.Provider.make_material

    def hash_tuple(self):
        digests, sets = super().hash_tuple()
        sets[0] = (sets[0][0], tuple(sorted(
            (self.adv_rng.randbytes(32), self.adv_rng.randbytes(32)))))
        self.set_bytes[self.role] = b"".join(
            v for wire in sets for pair in wire for v in pair)
        return digests, sets


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
        digests, sets = got
        sets = list(sets)
        sets[0] = (sets[0][0], fake(sess, sess.circuit.input_map[0][0]))
        return digests, sets
    return value_fault(M.MessageType.HASH_TUPLE, rewrite, "provider:0", "P1")


def _holding_p1s_cross_aggregate(sess, wire):
    cross = consistency._xor_hashes(t[2] for t in sess.p1.triples[wire])
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
    """An honest bidder but for its first wire: it sends P2 the same input
    sets as P1 but position commitments to the opposite bit, and opens to
    each party the input set of its own view. Every check passes on its
    own, and P2 evaluates the opposite bit."""

    make_material = session.Provider.make_material

    def input_commitments(self):
        sent = super().input_commitments()
        honest = self.material[self.wires[0]]
        copies = []
        for c in honest.copies:
            com, op = tagged_commit(TAG_POSITION, bytes([c.b ^ 1 ^ honest.x]),
                                    self.adv_rng.randbytes(NONCE_BYTES))
            copies.append(dataclasses.replace(
                c, position_opening=op,
                pair=dataclasses.replace(c.pair, position=com)))
        self.p2_view = consistency.WireMaterial(1 - honest.x, copies)
        digests, pairs = sent[session._P2]
        return sent | {session._P2: (digests,
                                     self.p2_view.pairs() + pairs[self.s:])}

    def evalset_openings(self):
        sent = super().evalset_openings()
        w0 = self.wires[0]
        copies = self.copies(self.index, checked=False)
        for k, (w, j) in enumerate(copies):
            if w == w0:
                pos_op, _first, second = self.p2_view.eval_openings(j)
                sent[session._P2][k] = (pos_op, second)
        return sent


def test_position_commitments_equivocated_to_the_parties_abort_at_the_echo(
        monkeypatch):
    """The parties' echo covers every bidder's wire digests, and P2's
    digest of the equivocated wire is not P1's, so every run ends before
    either circuit is garbled, blaming no one."""
    monkeypatch.setitem(session._SCRIPTED, "inconsistent_labels",
                        (_Equivocator, "provider:0"))
    for seed in range(12):
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels")
        assert (res.status, res.blamed, res.reason, res.phase) == (
            "abort", None, "input views diverged", "input"), seed


def test_digests_equivocated_to_one_arbitrator_blame_no_party():
    """Provider 0 sends provider 1 zero digests and cheats on its first
    wire. Claims and proofs are ruled after the echo, which stops every
    run first, blaming no one; no honest party is ever blamed."""
    for seed in range(30):
        fault = value_fault(M.MessageType.INPUT_COMMITMENTS,
                            lambda got: ([bytes(32)] * len(got[0]), got[1]),
                            "provider:0", "provider:1")
        res = run_session(SMALL, BIDS, s=4, seed=seed,
                          adversary="inconsistent_labels", transport=fault)
        assert (res.status, res.blamed, res.reason) == (
            "abort", None, "input views diverged"), seed


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
        return dataclasses.replace(proof, p1=Opening(proof.p1.message,
                                                     bytes(NONCE_BYTES)))
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
