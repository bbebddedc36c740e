"""End-to-end protocol sessions.

A session drives two computation parties (P1 garbles circuit 1 and
evaluates circuit 2; P2 the reverse), ``n`` bidder providers, and the cloud
provider (an input-less recipient of every output) through the three
protocol phases:

* input: providers broadcast the committed copies of their input-wire
  material; the parties coin-toss one challenge seed, from which every
  role derives each wire's challenge string, verify the opened check
  copies, and derive their final input encodings and cross labels from
  the evaluation copies, confirming agreement via the broadcast hash
  tuples.
* compute: both garbled circuits are exchanged (each sent before either
  side evaluates) and evaluated on the cross labels.
* output: both parties commit to output encodings and evaluated labels
  for every recipient, open them privately, and each recipient decodes
  its result twice and accepts only on agreement. Rejections are argued
  among the providers alone, so the parties learn nothing about outputs.

Every inter-role byte travels through the transport as a framed message
and is recorded in the transcript, which is byte-deterministic for a fixed
seed. Channels are assumed private and authenticated; the transports
provide plain in-memory queues or loopback TCP, and cryptographic channel
protection is out of scope.

Misbehavior is injected through ``AdversaryScript``: a scripted role
deviates in exactly one way, and the session reports where the deviation
was caught and who was blamed.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import messages as M
from .auction import (
    AuctionConfig,
    AuctionResult,
    build_auction_circuit,
    decode_bidder_bits,
    decode_cloud_bits,
    encode_bid_bits,
)
from .commitments import Opening
from .consistency import (
    ConsistencyProof,
    VERDICT_CHEATING_PARTY,
    VERDICT_CHEATING_PROVIDER,
    check_pair_construction,
    coin_toss_commit,
    coin_toss_open,
    combine_challenge,
    cross_hash_aggregate,
    evaluate_final_labels,
    generate_cheating_material,
    generate_input_material,
    issue_consistency_proof,
    label_check_passes,
    make_hash_tuple,
    open_eval_triple,
    open_position,
    verify_check_failure_claim,
    verify_consistency_proof,
)
from .errors import (
    CoinTossCheatError,
    EvaluationError,
    FramingError,
    OpeningError,
    ProtocolError,
    TransportError,
    TransportTimeout,
    UsageError,
)
from .garbling import (LABEL_BYTES, evaluate, garble, gate_rows,
                       parse_tables_blob)
from .outputs import (
    BLAME,
    CONFIRMED,
    REJECT,
    FailureProof,
    OutputCommitments,
    OutputDecision,
    OutputOpenings,
    bundle_digest,
    commit_output_encodings,
    commit_output_labels,
    verify_failure_proof,
    verify_output,
)
from .transport import InProcessTransport, Transport

STATUS_ACCEPT = "accept"
STATUS_REJECT = "reject"
STATUS_ABORT = "abort"

BEHAVIORS = (
    "inconsistent_labels",
    "tamper_garbled_gate",
    "substitute_output_label",
    "bias_coin_toss",
    "falsify_check_failure",
    "forge_consistency_proof",
    "false_output_complaint",
)

_DEFAULT_TARGETS = {
    "inconsistent_labels": "provider:0",
    "tamper_garbled_gate": "P1",
    "substitute_output_label": "P1",
    "bias_coin_toss": "P2",
    "falsify_check_failure": "P1",
    "forge_consistency_proof": "P1",
    "false_output_complaint": "provider:0",
}


@dataclass(frozen=True)
class AdversaryScript:
    """One scripted deviation for one role.

    ``wires`` are offsets into the corrupted provider's input group;
    ``recipient``/``wire`` pick the output a party substitutes; ``gate``/
    ``mask`` select the garbled table to corrupt (``gate=None`` picks one
    from the adversary's seed stream). ``pattern`` marks which of the s
    copies stay honest (``False`` entries are tampered); ``None`` tampers
    exactly one copy.
    """

    behavior: str
    target: str | None = None
    wires: tuple[int, ...] = (0,)
    pattern: tuple[bool, ...] | None = None
    gate: int | None = None
    mask: int = 0xFF
    recipient: int = 0
    wire: int = 0

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise UsageError(f"unknown adversary behavior {self.behavior!r}")
        if self.target is None:
            object.__setattr__(self, "target", _DEFAULT_TARGETS[self.behavior])
        object.__setattr__(self, "wires", tuple(self.wires))
        if self.pattern is not None:
            object.__setattr__(self, "pattern", tuple(self.pattern))


def make_adversary(spec) -> AdversaryScript | None:
    if spec is None or isinstance(spec, AdversaryScript):
        return spec
    if isinstance(spec, str):
        return AdversaryScript(behavior=spec)
    raise UsageError("adversary must be None, a behavior name, or a script")


@dataclass(frozen=True)
class TranscriptEntry:
    phase: str
    sender: str
    receiver: str
    type: str
    nbytes: int
    micros: int


def _is_party(name: str) -> bool:
    return name in ("P1", "P2")


class Transcript:
    """Append-only message log with byte-exact accounting.

    The identity of a run is the sequence of (phase, sender, receiver,
    type, bytes); timestamps are recorded for the CSV export but excluded
    from ``signature`` so equal runs compare equal.
    """

    def __init__(self):
        self.entries: list[TranscriptEntry] = []
        self.phase_seconds: dict[str, float] = {}

    def add(self, phase, sender, receiver, type_name, nbytes, micros):
        self.entries.append(TranscriptEntry(
            phase, sender, receiver, type_name, nbytes, micros))

    def measure(self) -> dict:
        bytes_by_phase: dict[str, int] = {}
        bytes_by_role: dict[str, int] = {}
        total = 0
        for e in self.entries:
            total += e.nbytes
            bytes_by_phase[e.phase] = bytes_by_phase.get(e.phase, 0) + e.nbytes
            bytes_by_role[e.sender] = bytes_by_role.get(e.sender, 0) + e.nbytes
        return {
            "bytes_total": total,
            "messages_total": len(self.entries),
            "bytes_by_phase": bytes_by_phase,
            "bytes_by_role": bytes_by_role,
            "wall_time_by_phase": dict(self.phase_seconds),
        }

    def signature(self) -> str:
        h = hashlib.sha256()
        for e in self.entries:
            h.update(f"{e.phase},{e.sender},{e.receiver},{e.type},{e.nbytes}\n"
                     .encode())
        return h.hexdigest()

    def to_csv(self) -> str:
        lines = ["phase,sender,receiver,type,bytes,micros"]
        for e in self.entries:
            lines.append(f"{e.phase},{e.sender},{e.receiver},{e.type},"
                         f"{e.nbytes},{e.micros}")
        return "\n".join(lines) + "\n"

    def audit_output_privacy(self):
        """No provider-to-party traffic once outputs are in play."""
        opened = False
        for e in self.entries:
            if e.type == M.MessageType.OUTPUT_OPENINGS.name:
                opened = True
            if e.type == M.MessageType.ABORT.name:
                continue
            leak = not _is_party(e.sender) and _is_party(e.receiver)
            if leak and (opened or e.phase == M.PHASE_OUTPUT):
                raise ProtocolError(
                    f"{e.type} from {e.sender} to {e.receiver} after output "
                    "openings leaks recipient-side data to a party")


@dataclass
class SessionResult:
    status: str
    result: AuctionResult | None
    blamed: str | None
    reason: str
    decisions: dict[str, OutputDecision]
    transcript: Transcript
    phase: str


class _Abort(Exception):
    def __init__(self, detector: M.Role, blamed: M.Role | None, reason: str):
        super().__init__(reason)
        self.detector = detector
        self.blamed = blamed
        self.reason = reason


_PHASE_ORDER = (M.PHASE_INPUT, M.PHASE_COMPUTE, M.PHASE_OUTPUT, "done")


@dataclass(eq=False)
class _RoleState:
    role: M.Role
    rng: random.Random
    phase: str = M.PHASE_INPUT
    pairs: dict = field(default_factory=dict)        # wire -> [CommitmentSetPair]
    wire_owner: dict = field(default_factory=dict)   # wire -> provider Role
    rho: dict = field(default_factory=dict)          # wire -> tuple[int, ...]
    nonces: list = field(default_factory=list)

    def advance(self, phase: str):
        if _PHASE_ORDER.index(phase) < _PHASE_ORDER.index(self.phase):
            raise ProtocolError(f"{self.role.name} phase moved backwards")
        self.phase = phase


@dataclass(eq=False)
class _PartyState(_RoleState):
    triples: dict = field(default_factory=dict)      # wire -> eval triples (asc copy)
    final_enc: dict = field(default_factory=dict)    # wire -> own-circuit Encoding
    cross_label: dict = field(default_factory=dict)  # wire -> other-circuit label
    tuples: dict = field(default_factory=dict)       # own broadcast HashTuple per wire
    tuple_secrets: dict = field(default_factory=dict)
    other_tuples: dict = field(default_factory=dict)
    stashed_check: dict = field(default_factory=dict)  # (wire, copy) -> openings
    gc = None                                        # own garbled circuit
    eval_labels: list | None = None                  # other circuit's output labels
    out_openings: dict = field(default_factory=dict)  # recipient -> (enc, labels)


@dataclass(eq=False)
class _ProviderState(_RoleState):
    index: int | None = None                         # None for the cloud
    wires: list = field(default_factory=list)
    x_bits: dict = field(default_factory=dict)
    material: dict = field(default_factory=dict)     # wire -> WireMaterial
    party_tuples: dict = field(default_factory=dict)  # party name -> {wire: HashTuple}
    out_coms: dict = field(default_factory=dict)     # party name -> {u: (enc, labels)}
    bundles: dict = field(default_factory=dict)      # recipient -> OutputCommitments
    digest: bytes = b""
    openings: OutputOpenings | None = None
    decision: OutputDecision | None = None


class Session:
    def __init__(self, config: AuctionConfig, bids, s: int = 10, seed: int = 0,
                 adversary=None, transport: Transport | None = None):
        if s < 2:
            raise ValueError("need at least two copies per wire")
        self.config = config
        self.bids = [tuple(tuple(pair) for pair in b) for b in bids]
        self.n = len(self.bids)
        if self.n < 1:
            raise ValueError("need at least one bidder")
        self.s = s
        self.seed = seed
        self.adversary = make_adversary(adversary)
        self.circuit = build_auction_circuit(config, self.n)
        self.session_id = int.from_bytes(
            hashlib.sha256(f"session:{seed}".encode()).digest()[:8], "big")
        self.transport = transport if transport is not None else InProcessTransport()
        self.transcript = Transcript()
        self._phase = M.PHASE_INPUT
        self._t0 = time.perf_counter()

        def rng(label: str) -> random.Random:
            return random.Random(f"{seed}:{label}")

        self.p1 = _PartyState(M.Role(M.P1), rng("P1"))
        self.p2 = _PartyState(M.Role(M.P2), rng("P2"))
        self.bidder_roles = [M.Role(M.PROVIDER, i) for i in range(self.n)]
        self.cloud_role = M.Role(M.CLOUD)
        self.provider_roles = self.bidder_roles + [self.cloud_role]
        self.all_roles = [self.p1.role, self.p2.role] + self.provider_roles
        self.providers: dict[M.Role, _ProviderState] = {}
        for i, role in enumerate(self.bidder_roles):
            st = _ProviderState(role, rng(role.name), index=i)
            st.wires = list(self.circuit.input_map[i])
            st.x_bits = dict(zip(st.wires,
                                 encode_bid_bits(config, self.bids[i])))
            self.providers[role] = st
        self.providers[self.cloud_role] = _ProviderState(
            self.cloud_role, rng("cloud"), index=None)
        self.adv_rng = rng("adversary")
        if self.adversary is not None:
            self._check_adversary_target()

    # ------------------------------------------------------------- plumbing

    def _check_adversary_target(self):
        adv = self.adversary
        names = [r.name for r in self.all_roles]
        if adv.target not in names:
            raise UsageError(f"adversary target {adv.target} is not part of "
                             "this session")
        if adv.target == "cloud" or (adv.behavior == "inconsistent_labels"
                                     and _is_party(adv.target)):
            raise UsageError(f"{adv.behavior} cannot be scripted on "
                             f"{adv.target}")
        if adv.pattern is not None and len(adv.pattern) != self.s:
            raise UsageError("pattern length must equal the copy count")

    def _role_named(self, name: str) -> M.Role:
        for role in self.all_roles:
            if role.name == name:
                return role
        raise ProtocolError(f"no role named {name}")

    def _state(self, role: M.Role) -> _RoleState:
        if role == self.p1.role:
            return self.p1
        if role == self.p2.role:
            return self.p2
        return self.providers[role]

    def _cheats(self, behavior: str, role: M.Role) -> bool:
        adv = self.adversary
        return (adv is not None and adv.behavior == behavior
                and adv.target == role.name)

    def _micros(self) -> int:
        return int((time.perf_counter() - self._t0) * 1_000_000)

    def _send(self, mtype: M.MessageType, sender: M.Role, receiver: M.Role,
              value):
        self._broadcast(mtype, sender, value, receivers=(receiver,))

    def _broadcast(self, mtype, sender, value, receivers=None):
        """Encode ``value`` once and send the frame to every receiver (by
        default, every other role)."""
        frame = M.encode_frame(mtype, self.session_id, sender,
                               M.encode_body(mtype, value))
        for r in (receivers if receivers is not None else self._others(sender)):
            M.check_flow(mtype, sender, r)
            self.transport.send(sender, r, frame)
            self.transcript.add(self._phase, sender.name, r.name,
                                mtype.name, len(frame), self._micros())

    def _recv(self, receiver: M.Role, sender: M.Role, mtype: M.MessageType):
        """The decoded value of the next frame from ``sender``. This is the
        one place frames are checked: a transport failure other than a
        timeout, a malformed frame or body, or a frame of the wrong type,
        session or sender is an abort blaming ``sender``."""
        try:
            frame = self.transport.recv(receiver, sender)
            got_type, sid, got_sender, body = M.decode_frame(frame)
            if got_type != mtype:
                raise ProtocolError(
                    f"expected {mtype.name}, got {got_type.name}")
            if sid != self.session_id:
                raise ProtocolError("frame belongs to a different session")
            if got_sender != sender:
                raise ProtocolError("frame sender does not match the channel")
            return M.decode_body(mtype, body)
        except TransportTimeout:
            raise
        except (FramingError, ProtocolError, TransportError) as exc:
            raise _Abort(receiver, sender,
                         f"malformed {mtype.name} frame: {exc}")

    def _others(self, sender: M.Role) -> list[M.Role]:
        return [r for r in self.all_roles if r != sender]

    @contextmanager
    def _timed(self, phase: str):
        self._phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.transcript.phase_seconds[phase] = (
                self.transcript.phase_seconds.get(phase, 0.0) + elapsed)

    # ------------------------------------------------------------------ run

    def run(self) -> SessionResult:
        try:
            with self._timed(M.PHASE_INPUT):
                self._input_phase()
            for st in self._all_states():
                st.advance(M.PHASE_COMPUTE)
            with self._timed(M.PHASE_COMPUTE):
                self._compute_phase()
            for st in self._all_states():
                st.advance(M.PHASE_OUTPUT)
            with self._timed(M.PHASE_OUTPUT):
                result = self._output_phase()
            for st in self._all_states():
                st.advance("done")
            return result
        except _Abort as sig:
            return self._aborted(sig)
        except TransportTimeout as exc:
            return SessionResult(
                status=STATUS_ABORT, result=None, blamed=None,
                reason=f"timeout: {exc}", decisions={},
                transcript=self.transcript, phase=self._phase)

    def _all_states(self):
        return [self.p1, self.p2] + list(self.providers.values())

    def _aborted(self, sig: _Abort) -> SessionResult:
        self._broadcast(M.MessageType.ABORT, sig.detector,
                        (sig.blamed, sig.reason))
        for other in self._others(sig.detector):
            try:
                self._recv(other, sig.detector, M.MessageType.ABORT)
            except (_Abort, TransportTimeout):
                pass  # the abort being announced is already the verdict
        for st in self._all_states():
            st.phase = "aborted"
        return SessionResult(
            status=STATUS_ABORT, result=None,
            blamed=sig.blamed.name if sig.blamed else None,
            reason=sig.reason, decisions={}, transcript=self.transcript,
            phase=self._phase)

    # ---------------------------------------------------------- input phase

    def _input_phase(self):
        self._share_input_commitments()
        self._toss_challenges()
        self._verify_check_sets()
        self._derive_final_labels()
        self._compare_label_hashes()

    def _share_input_commitments(self):
        s = self.s
        for role in self.bidder_roles:
            st = self.providers[role]
            adv = self.adversary
            bad_wires = set()
            if self._cheats("inconsistent_labels", role):
                bad_wires = {st.wires[off] for off in adv.wires}
            for w in st.wires:
                x = st.x_bits[w]
                if w in bad_wires:
                    pattern = adv.pattern or ((False,) + (True,) * (s - 1))
                    st.material[w] = generate_cheating_material(
                        st.rng, x, s, consistent=pattern)
                else:
                    st.material[w] = generate_input_material(st.rng, x, s)
                st.pairs[w] = st.material[w].pairs()
                for copy in st.material[w].copies:
                    st.nonces += [o.randomness for o in
                                  copy.w_openings + copy.w_prime_openings
                                  + (copy.position_opening,)]
            self._broadcast(M.MessageType.INPUT_COMMITMENTS, role,
                            {w: st.pairs[w] for w in st.wires})
            expected = set(st.wires)
            for other in self._others(role):
                got = self._recv(other, role, M.MessageType.INPUT_COMMITMENTS)
                if (set(got) != expected
                        or any(len(pairs) != s for pairs in got.values())):
                    raise _Abort(other, role, "malformed input commitments")
                other_st = self._state(other)
                other_st.pairs.update(got)
                for w in got:
                    other_st.wire_owner[w] = role
            for w in st.wires:
                st.wire_owner[w] = role

    def _toss_challenges(self):
        """One joint toss per session: each party commits to a seed share,
        then reveals it, and every role derives each wire's challenge from
        the two shares it holds."""
        commits, shares = {}, {}  # (holder role, party role) -> value
        openings = {}             # party state -> its own opening
        for party in (self.p1, self.p2):
            share, com, openings[party] = coin_toss_commit(party.rng)
            shares[party.role, party.role] = share
            party.nonces.append(openings[party].randomness)
            self._broadcast(M.MessageType.COIN_COMMIT, party.role, com)
        for party in (self.p1, self.p2):
            for other in self._others(party.role):
                commits[other, party.role] = self._recv(
                    other, party.role, M.MessageType.COIN_COMMIT)
        for party in (self.p1, self.p2):
            opening = openings[party]
            if self._cheats("bias_coin_toss", party.role):
                flipped = bytes([opening.message[0] ^ 1]) + opening.message[1:]
                opening = Opening(flipped, opening.randomness)
            self._broadcast(M.MessageType.COIN_REVEAL, party.role, opening)
        for party in (self.p1, self.p2):
            for other in self._others(party.role):
                got = self._recv(other, party.role, M.MessageType.COIN_REVEAL)
                try:
                    shares[other, party.role] = coin_toss_open(
                        commits[other, party.role], got,
                        party=party.role.name)
                except CoinTossCheatError as exc:
                    raise _Abort(other, party.role, str(exc))
        wires = sorted(w for st in self.providers.values() for w in st.wires)
        for st in self._all_states():
            held = (shares[st.role, self.p1.role], shares[st.role, self.p2.role])
            for w in wires:
                st.rho[w] = tuple(combine_challenge(*held, w, self.s))

    def _verify_check_sets(self):
        for role in self.bidder_roles:
            st = self.providers[role]
            payload = {}
            for w in st.wires:
                payload[w] = [(j, st.material[w].check_openings(j))
                              for j in range(self.s) if st.rho[w][j]]
            self._broadcast(M.MessageType.CHECKSET_OPENINGS, role, payload,
                            receivers=(self.p1.role, self.p2.role))
        failures = []
        for party in (self.p1, self.p2):
            for role in self.bidder_roles:
                st = self.providers[role]
                got = self._recv(party.role, role,
                                 M.MessageType.CHECKSET_OPENINGS)
                if set(got) != set(st.wires):
                    raise _Abort(party.role, role,
                                 "check openings cover the wrong wires")
                for w in sorted(got):
                    expect = {j for j in range(self.s) if party.rho[w][j]}
                    if {j for j, _ in got[w]} != expect:
                        raise _Abort(party.role, role,
                                     "check openings cover the wrong copies")
                    for j, openings in got[w]:
                        party.stashed_check[(w, j)] = openings
                        err = check_pair_construction(party.pairs[w][j],
                                                      openings)
                        if err:
                            failures.append((party, role, w, j, openings, err))
        for party in (self.p1, self.p2):
            if self._cheats("falsify_check_failure", party.role) \
                    and not failures:
                w0 = self.providers[self.bidder_roles[0]].wires[0]
                j0 = next(j for j in range(self.s) if party.rho[w0][j])
                failures.append((party, self.bidder_roles[0], w0, j0,
                                 party.stashed_check[(w0, j0)],
                                 "claimed construction failure"))
        if failures:
            self._arbitrate_check_failure(failures)

    def _arbitrate_check_failure(self, failures):
        party, role, w, j, openings, err = failures[0]
        self._broadcast(M.MessageType.CHECK_FAILURE_CLAIM, party.role,
                        (role.index, w, j, openings))
        verdicts = []
        for other in self._others(party.role):
            prov, wire, copy, got = self._recv(
                other, party.role, M.MessageType.CHECK_FAILURE_CLAIM)
            if _is_party(other.name):
                continue  # the other party records the claim; providers judge
            st = self._state(other)
            if (wire not in st.pairs or not 0 <= copy < self.s
                    or not st.rho[wire][copy]
                    or st.wire_owner[wire].index != prov):
                raise _Abort(other, party.role,
                             "check-failure claim names no check copy")
            verdicts.append(verify_check_failure_claim(st.pairs[wire][copy],
                                                       got))
        if len({v.kind for v in verdicts}) != 1:
            raise ProtocolError("check-failure arbitration diverged")
        if verdicts[0].kind == VERDICT_CHEATING_PROVIDER:
            raise _Abort(self.cloud_role, role,
                         f"check copy {j} of wire {w} failed construction: "
                         f"{err} ({len(failures)} failure(s) collected)")
        raise _Abort(self.cloud_role, party.role,
                     "check-failure claim did not verify; the claim was "
                     "fabricated")

    def _derive_final_labels(self):
        for role in self.bidder_roles:
            st = self.providers[role]
            for party, slot in ((self.p1, 0), (self.p2, 1)):
                payload = {}
                for w in st.wires:
                    entries = []
                    for j in range(self.s):
                        if st.rho[w][j]:
                            continue
                        pos_op, first, second = st.material[w].eval_openings(j)
                        entries.append((j, pos_op,
                                        first if slot == 0 else second))
                    payload[w] = entries
                self._send(M.MessageType.EVALSET_OPENINGS, role, party.role,
                           payload)
        for party, slot in ((self.p1, 0), (self.p2, 1)):
            for role in self.bidder_roles:
                st = self.providers[role]
                got = self._recv(party.role, role,
                                 M.MessageType.EVALSET_OPENINGS)
                if set(got) != set(st.wires):
                    raise _Abort(party.role, role,
                                 "evaluation openings cover the wrong wires")
                for w in sorted(got):
                    expect = [j for j in range(self.s) if not party.rho[w][j]]
                    entries = sorted(got[w])
                    if [j for j, _p, _o in entries] != expect:
                        raise _Abort(party.role, role,
                                     "evaluation openings cover the wrong "
                                     "copies")
                    triples = []
                    for j, pos_op, set_op in entries:
                        pair = party.pairs[w][j]
                        pos = open_position(pair, pos_op)
                        if pos is None:
                            raise _Abort(party.role, role,
                                         f"position opening failed on wire "
                                         f"{w} copy {j}")
                        triple = open_eval_triple(pair, pos, slot, set_op)
                        if triple is None:
                            raise _Abort(party.role, role,
                                         f"input-set opening failed on wire "
                                         f"{w} copy {j}")
                        triples.append(triple)
                    party.triples[w] = triples
                    enc, cross = evaluate_final_labels(triples)
                    if enc.zero == enc.one:
                        raise _Abort(party.role, role,
                                     f"wire {w} final encoding is degenerate")
                    party.final_enc[w] = enc
                    party.cross_label[w] = cross

    def _compare_label_hashes(self):
        for party in (self.p1, self.p2):
            tuples = {}
            for w in sorted(party.triples):
                tup, secret = make_hash_tuple(party.rng, party.triples[w])
                party.tuples[w] = tup
                party.tuple_secrets[w] = secret
                party.nonces += [o.randomness for o in secret.openings]
                tuples[w] = tup
            self._broadcast(M.MessageType.HASH_TUPLE, party.role, tuples)
        for party in (self.p1, self.p2):
            for other in self._others(party.role):
                got = self._recv(other, party.role, M.MessageType.HASH_TUPLE)
                if set(got) != set(party.triples):
                    raise _Abort(other, party.role,
                                 "hash tuples cover the wrong wires")
                other_st = self._state(other)
                if _is_party(other.name):
                    other_st.other_tuples = got
                else:
                    other_st.party_tuples[party.role.name] = got
        complaints = []
        for party, other in ((self.p1, self.p2), (self.p2, self.p1)):
            for w in sorted(party.triples):
                agg = cross_hash_aggregate(party.triples[w])
                if not label_check_passes(agg, party.other_tuples[w]):
                    owner = party.wire_owner[w]
                    proof = issue_consistency_proof(
                        owner.index, w, party.other_tuples[w], agg,
                        party.tuples[w].c_cross)
                    complaints.append((party, other, proof))
        for party, other in ((self.p1, self.p2), (self.p2, self.p1)):
            if self._cheats("forge_consistency_proof", party.role) \
                    and not complaints:
                w0 = self.providers[self.bidder_roles[0]].wires[0]
                fake = self.adv_rng.randbytes(32)
                tup = party.other_tuples[w0]
                proof = ConsistencyProof(
                    provider=0, wire=w0,
                    h_triple=(tup.h_pair[0], tup.h_pair[1], fake),
                    c_triple=(tup.c_pair[0], tup.c_pair[1],
                              party.tuples[w0].c_cross))
                complaints.append((party, other, proof))
        if complaints:
            self._arbitrate_consistency_proof(*complaints[0])

    def _arbitrate_consistency_proof(self, party, other, proof):
        w = proof.wire
        self._broadcast(M.MessageType.CONSISTENCY_PROOF, party.role, proof)
        for role in self._others(party.role):
            self._recv(role, party.role, M.MessageType.CONSISTENCY_PROOF)
        # The garbler opens its two pair commitments, the complainer its
        # cross commitment.
        requests = ((other, M.OPEN_PAIR), (party, M.OPEN_CROSS))
        for st, which in requests:
            self._send(M.MessageType.PROOF_OPENING_REQUEST, self.cloud_role,
                       st.role, (w, which))
        for st, which in requests:
            if self._recv(st.role, self.cloud_role,
                          M.MessageType.PROOF_OPENING_REQUEST) != (w, which):
                raise _Abort(st.role, self.cloud_role,
                             "proof opening request does not match the proof")
            openings = st.tuple_secrets[w].openings
            self._broadcast(M.MessageType.PROOF_OPENING_RESPONSE, st.role,
                            (w, which, openings[:2] if which == M.OPEN_PAIR
                             else openings[2:]),
                            receivers=self.provider_roles)
        verdicts = []
        for prov_role in self.provider_roles:
            st = self.providers[prov_role]
            pair_openings = self._proof_openings(prov_role, other.role, w,
                                                 M.OPEN_PAIR, 2)
            cross_openings = self._proof_openings(prov_role, party.role, w,
                                                  M.OPEN_CROSS, 1)
            try:
                verdicts.append(verify_consistency_proof(
                    proof, complainer=party.role.name,
                    garbler=other.role.name,
                    complainer_tuple=st.party_tuples[party.role.name][w],
                    garbler_tuple=st.party_tuples[other.role.name][w],
                    pair_openings=pair_openings,
                    cross_opening=cross_openings[0]))
            except OpeningError as exc:
                raise _Abort(prov_role, self._role_named(exc.party), str(exc))
        if len({(v.kind, v.blamed) for v in verdicts}) != 1:
            raise ProtocolError("consistency arbitration diverged")
        verdict = verdicts[0]
        if verdict.kind == VERDICT_CHEATING_PROVIDER:
            blamed = self._role_named(verdict.blamed)
            reason = (f"labels of wire {w} disagree between the circuits; "
                      f"{verdict.blamed} submitted inconsistent inputs")
        elif verdict.kind == VERDICT_CHEATING_PARTY:
            blamed = self._role_named(verdict.blamed)
            reason = (f"consistency proof for wire {w} contradicts the "
                      "broadcast transcript")
        else:
            blamed = party.role
            reason = (f"consistency proof for wire {w} shows no "
                      "inconsistency; the complaint was false")
        raise _Abort(self.cloud_role, blamed, reason)

    def _proof_openings(self, receiver, sender, w, which, count):
        got_w, got_which, openings = self._recv(
            receiver, sender, M.MessageType.PROOF_OPENING_RESPONSE)
        if (got_w, got_which, len(openings)) != (w, which, count):
            raise _Abort(receiver, sender,
                         "proof opening response does not answer the request")
        return openings

    # -------------------------------------------------------- compute phase

    def _compute_phase(self):
        circuit = self.circuit
        blobs = {}
        for party, tag in ((self.p1, "gc1"), (self.p2, "gc2")):
            party.gc = garble(circuit, party.final_enc,
                              rng_seed=f"{self.seed}:{tag}")
            blob = party.gc.tables_blob()
            if self._cheats("tamper_garbled_gate", party.role):
                blob = self._tamper_blob(blob)
            blobs[party.role] = blob
        # Both circuits cross before either evaluation starts.
        self._send(M.MessageType.GARBLED_CIRCUIT, self.p1.role, self.p2.role,
                   blobs[self.p1.role])
        self._send(M.MessageType.GARBLED_CIRCUIT, self.p2.role, self.p1.role,
                   blobs[self.p2.role])
        received = {
            self.p2: self._recv(self.p2.role, self.p1.role,
                                M.MessageType.GARBLED_CIRCUIT),
            self.p1: self._recv(self.p1.role, self.p2.role,
                                M.MessageType.GARBLED_CIRCUIT),
        }
        for evaluator, producer in ((self.p2, self.p1), (self.p1, self.p2)):
            try:
                tables = parse_tables_blob(circuit, received[evaluator])
                labels = {w: evaluator.cross_label[w]
                          for w in circuit.input_wires}
                evaluator.eval_labels = evaluate(circuit, tables, labels)
            except (ProtocolError, EvaluationError) as exc:
                raise _Abort(evaluator.role, producer.role,
                             f"garbled circuit rejected: {exc}")
        self.assert_role_secrecy()

    def _tamper_blob(self, blob: bytes) -> bytes:
        adv = self.adversary
        gates = self.circuit.gates
        gi = adv.gate if adv.gate is not None else \
            self.adv_rng.randrange(len(gates))
        rows = gate_rows(self.circuit, gi)
        region = bytearray(blob)
        for i in range(rows.start, rows.stop):
            region[i] ^= adv.mask
        return bytes(region)

    def assert_role_secrecy(self):
        """Neither party may hold a circuit-k output label together with
        circuit k's output encodings."""
        for party in (self.p1, self.p2):
            own = party.gc.output_encodings
            for group in party.eval_labels:
                for label in group:
                    for enc in own.values():
                        if label in (enc.zero, enc.one):
                            raise ProtocolError(
                                f"{party.role.name} can decode its own "
                                "circuit's outputs")

    # --------------------------------------------------------- output phase

    def _output_phase(self) -> SessionResult:
        circuit = self.circuit
        recipients = list(range(self.n + 1))  # index n is the cloud

        def recipient_role(u: int) -> M.Role:
            return self.bidder_roles[u] if u < self.n else self.cloud_role

        for party in (self.p1, self.p2):
            labels = [list(group) for group in party.eval_labels]
            if self._cheats("substitute_output_label", party.role):
                adv = self.adversary
                labels[adv.recipient][adv.wire] = \
                    self.adv_rng.randbytes(LABEL_BYTES)
            entries = []
            for u in recipients:
                group = circuit.output_map[u]
                encs = [party.gc.output_encodings[w] for w in group]
                enc_com, enc_op = commit_output_encodings(party.rng, encs)
                lab_com, lab_op = commit_output_labels(party.rng, labels[u])
                party.out_openings[u] = (enc_op, lab_op)
                party.nonces += [enc_op.randomness, lab_op.randomness]
                entries.append((u, enc_com, lab_com))
            self._broadcast(M.MessageType.OUTPUT_COMMITMENTS, party.role,
                            entries)
        for party in (self.p1, self.p2):
            for other in self._others(party.role):
                got = self._recv(other, party.role,
                                 M.MessageType.OUTPUT_COMMITMENTS)
                if [u for u, _e, _l in got] != recipients:
                    raise _Abort(other, party.role,
                                 "output commitments cover the wrong "
                                 "recipients")
                if not _is_party(other.name):
                    self._state(other).out_coms[party.role.name] = {
                        u: (e, l) for u, e, l in got}
        for prov_role in self.provider_roles:
            st = self.providers[prov_role]
            st.bundles = {
                u: OutputCommitments(
                    e1=st.out_coms["P1"][u][0], o1=st.out_coms["P2"][u][1],
                    e2=st.out_coms["P2"][u][0], o2=st.out_coms["P1"][u][1])
                for u in recipients}
            st.digest = bundle_digest([st.bundles[u] for u in recipients])
        for prov_role in self.provider_roles:
            others = [r for r in self.provider_roles if r != prov_role]
            self._broadcast(M.MessageType.BUNDLE_HASH, prov_role,
                            self.providers[prov_role].digest, receivers=others)
        for prov_role in self.provider_roles:
            for other in self.provider_roles:
                if other == prov_role:
                    continue
                digest = self._recv(other, prov_role,
                                    M.MessageType.BUNDLE_HASH)
                if digest != self.providers[other].digest:
                    raise _Abort(other, None,
                                 "output commitment views diverged")
        for party in (self.p1, self.p2):
            for u in recipients:
                enc_op, lab_op = party.out_openings[u]
                self._send(M.MessageType.OUTPUT_OPENINGS, party.role,
                           recipient_role(u), (u, enc_op, lab_op))
        decisions: dict[str, OutputDecision] = {}
        complaints: list[int] = []
        for u in recipients:
            r_role = recipient_role(u)
            st = self.providers[r_role]
            opened = {}
            for party in (self.p1, self.p2):
                got_u, enc_op, lab_op = self._recv(
                    r_role, party.role, M.MessageType.OUTPUT_OPENINGS)
                if got_u != u:
                    raise _Abort(r_role, party.role, "output openings name "
                                 f"recipient {got_u}, not {u}")
                opened[party] = (enc_op, lab_op)
            (e1_op, o2_op), (e2_op, o1_op) = opened[self.p1], opened[self.p2]
            st.openings = OutputOpenings(e1=e1_op, o1=o1_op, e2=e2_op,
                                         o2=o2_op)
            st.decision = verify_output(st.bundles[u], st.openings,
                                        wires=len(circuit.output_map[u]))
            decisions[r_role.name] = st.decision
            if st.decision.status == BLAME:
                raise _Abort(r_role, self._role_named(st.decision.blamed),
                             "an output opening failed to verify")
            if (st.decision.status == REJECT
                    or self._cheats("false_output_complaint", r_role)):
                complaints.append(u)
        spurious: str | None = None
        confirmed = False
        for u in complaints:
            r_role = recipient_role(u)
            others = [r for r in self.provider_roles if r != r_role]
            self._broadcast(M.MessageType.FAILURE_PROOF, r_role, FailureProof(
                recipient=u, openings=self.providers[r_role].openings),
                receivers=others)
            verdicts = []
            for other in others:
                got = self._recv(other, r_role, M.MessageType.FAILURE_PROOF)
                if got.recipient != u:
                    raise _Abort(other, r_role,
                                 "failure proof names another recipient")
                verdicts.append(verify_failure_proof(
                    self.providers[other].bundles[u], got,
                    wires=len(circuit.output_map[u])))
            if len(set(verdicts)) != 1:
                raise ProtocolError("failure-proof arbitration diverged")
            if verdicts[0] == CONFIRMED:
                confirmed = True
            else:
                spurious = r_role.name
        if confirmed:
            return SessionResult(
                status=STATUS_REJECT, result=None, blamed=None,
                reason="decoded outputs disagree between the two circuits; "
                       "rejection confirmed by the opened failure proof",
                decisions=decisions, transcript=self.transcript,
                phase=self._phase)
        cloud_bits = list(decisions["cloud"].value)
        result = decode_cloud_bits(self.config, self.n, cloud_bits)
        for u in range(self.n):
            bits = list(decisions[self.bidder_roles[u].name].value)
            if decode_bidder_bits(self.config, bits) != (
                    result.allocations[u], result.payments_fp[u]):
                raise ProtocolError("recipient views of the result diverged")
        reason = ""
        if spurious is not None:
            reason = (f"{spurious} complained about an output that every "
                      "other provider verified as consistent")
        return SessionResult(
            status=STATUS_ACCEPT, result=result, blamed=spurious,
            reason=reason, decisions=decisions, transcript=self.transcript,
            phase=self._phase)

    # ------------------------------------------------------------ auditing

    def collect_nonces(self) -> list[bytes]:
        out = []
        for st in self._all_states():
            out.extend(st.nonces)
        return out

    def audit_nonces(self):
        nonces = self.collect_nonces()
        if len(nonces) != len(set(nonces)):
            raise ProtocolError("a commitment nonce was reused")


def run_session(config: AuctionConfig, bids, s: int = 10, seed: int = 0,
                adversary=None, transport: Transport | None = None
                ) -> SessionResult:
    return Session(config, bids, s=s, seed=seed, adversary=adversary,
                   transport=transport).run()
