"""End-to-end protocol sessions.

Two computation parties (P1 garbles circuit 1 and evaluates circuit 2; P2
the reverse), ``n`` bidder providers and the cloud provider (an input-less
recipient of every output) are each one object, a ``Party`` or a
``Provider``, holding only its own state and the public parameters. Its
methods are the protocol steps: build an outgoing value, or check a
received one and keep it, aborting against the sender when it is wrong.
``Session`` drives them through the three phases as a schedule of rounds,
saying only who sends which message type and in which order; the
receivers of each type are the ones ``messages.FLOW`` lists. A round sends
all of its frames before any role receives, then each receiver checks
each sender's value in turn, so the first role to receive a bad value is
the one that detects it. Bodies name nothing a receiver can derive: each
list is positional, and its count is checked against the input map,
``s``, the challenge or the output map, so a wrong list is short, long,
or fails an opening, and any of these blames its sender:

* input: each bidder sends the two parties, and no other role, one leaf
  per committed copy of its input-wire material; the parties coin-toss one
  challenge seed, from which every role derives each wire's challenge
  string. Each bidder then sends the parties its view of the toss and
  the seed and position commitment of each check copy, from which a
  party rebuilds the copy's leaf, keeping a mismatch for a claim; then its
  evaluation openings, each with the siblings that rebuild its copy's
  leaf, and the label sets its final input labels must meet. Each party
  echoes to every other role its view of the toss and one record per
  bidder, digests of what it received; a role whose views differ aborts,
  blaming no one. Only
  then are claims ruled: a check-failure claim or a consistency proof
  carries what it disputes, and every provider but the wire's owner
  checks it against the echoed record and rules; the cloud's ruling
  stands unless another differs.
* compute: both garbled circuits are exchanged in one round (so both are
  sent before either side evaluates) and evaluated on the cross labels.
* output: each party sends the providers one commitment per recipient to
  its output encodings and evaluated labels and opens it privately to that
  recipient, which decodes its result twice and accepts only on agreement.
  Rejections are argued among the providers alone, so the parties learn
  nothing about outputs.

Every inter-role byte travels through the transport as a framed message
and is recorded in the transcript, which is byte-deterministic for a fixed
seed. Channels are assumed private and authenticated; cryptographic
channel protection is out of scope. An ``AdversaryScript`` replaces one
role by a subclass that overrides exactly one step; the result reports
where the deviation was caught and who was blamed.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from operator import methodcaller

from . import messages as M
from .auction import (
    AuctionConfig,
    AuctionResult,
    build_auction_circuit,
    decode_cloud_bits,
    encode_bid_bits,
)
from .commitments import Opening
from .consistency import (
    check_pair_construction,
    coin_toss_commit,
    coin_toss_open,
    combine_challenge,
    evaluate_final_labels,
    generate_cheating_material,
    generate_input_material,
    labels_consistent,
    open_evidence,
    seed_digest,
    verify_check_failure_claim,
    wire_digest,
)
from .errors import (
    CoinTossCheatError,
    EvaluationError,
    FramingError,
    ProtocolError,
    TransportError,
    TransportTimeout,
    UsageError,
)
from .garbling import (LABEL_BYTES, evaluate, garble, gate_rows,
                       parse_tables_blob, tabled_gates, xor_bytes)
from .outputs import (
    BLAME,
    CONFIRMED,
    REJECT,
    OutputCommitments,
    OutputDecision,
    OutputOpenings,
    bundle_digest,
    commit_output_labels,
    verify_failure_proof,
    verify_output,
)
from .transport import InProcessTransport, Transport

STATUS_ACCEPT = "accept"
STATUS_REJECT = "reject"
STATUS_ABORT = "abort"


@dataclass(frozen=True)
class AdversaryScript:
    """One scripted deviation for one role.

    ``wires`` are offsets into the corrupted provider's input group;
    ``recipient``/``wire`` pick the output a party substitutes; ``gate``/
    ``mask`` select the gate ciphertexts to corrupt: ``gate`` must name an
    AND or OR gate, since XOR and NOT gates have none (``gate=None``
    corrupts every AND/OR gate's). ``pattern`` marks which of the s
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
            object.__setattr__(self, "target", _SCRIPTED[self.behavior][1])
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


def _is_party(name: str) -> bool:
    return name in ("P1", "P2")


class Transcript:
    """Append-only message log with byte-exact accounting.

    The identity of a run is the sequence of (phase, sender, receiver,
    type, bytes), which ``signature`` hashes.
    """

    def __init__(self):
        self.entries: list[TranscriptEntry] = []
        self.phase_seconds: dict[str, float] = {}

    def add(self, phase, sender, receiver, type_name, nbytes):
        self.entries.append(TranscriptEntry(
            phase, sender, receiver, type_name, nbytes))

    def measure(self) -> dict:
        bytes_by_phase: dict[str, int] = {}
        bytes_by_type: dict[str, int] = {}
        total = 0
        for e in self.entries:
            total += e.nbytes
            bytes_by_phase[e.phase] = bytes_by_phase.get(e.phase, 0) + e.nbytes
            bytes_by_type[e.type] = bytes_by_type.get(e.type, 0) + e.nbytes
        return {
            "bytes_total": total,
            "messages_total": len(self.entries),
            "bytes_by_phase": bytes_by_phase,
            "bytes_by_type": bytes_by_type,
            "wall_time_by_phase": dict(self.phase_seconds),
        }

    def signature(self) -> str:
        h = hashlib.sha256()
        for e in self.entries:
            h.update(f"{e.phase},{e.sender},{e.receiver},{e.type},{e.nbytes}\n"
                     .encode())
        return h.hexdigest()

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
    detector: str | None = None  # the role that aborted, if one did


class _Abort(Exception):
    def __init__(self, detector: M.Role, blamed: M.Role | None, reason: str):
        super().__init__(reason)
        self.detector = detector
        self.blamed = blamed
        self.reason = reason


_P1, _P2 = M.Role(M.P1), M.Role(M.P2)
MT = M.MessageType


def _recipient(role: M.Role, circuit) -> int:
    """A provider's output group: its bidder index, or the last group for
    the cloud."""
    return role.index if role.kind == M.PROVIDER else len(circuit.input_map)


def _digest(data: bytes) -> bytes:
    """SHA-256 over bytes; a list is hashed as ``messages.packed`` lays it
    out."""
    return hashlib.sha256(data).digest()


def _provider_roles(circuit) -> list[M.Role]:
    """Every bidder, by index, then the cloud."""
    return ([M.Role(M.PROVIDER, u) for u in range(len(circuit.input_map))]
            + [M.Role(M.CLOUD)])


# ------------------------------------------------------------------- roles

class Participant:
    """What every role keeps: the owner of each input wire, the challenge
    seed shares, the challenges, its view of the coin toss and one record
    per bidder of what the parties received from it.

    A ``<message type>`` step builds the value the role sends: one value,
    or for a point-to-point type one per receiver role. A ``take_<message
    type>`` step checks a value received from ``sender`` and keeps what it
    needs, or raises an abort blaming ``sender``; a role without one reads
    the value and drops it. A list body is positional: its count is
    checked against the public parameters, and each entry belongs to the
    place it holds.
    """

    def __init__(self, role: M.Role, rng: random.Random, circuit, s: int):
        self.role, self.rng, self.circuit, self.s = role, rng, circuit, s
        self.wire_owner = {     # wire -> provider Role
            w: role for role, group in zip(_provider_roles(circuit),
                                           circuit.input_map) for w in group}
        self.coin_commits = {}  # party Role -> commitment
        self.shares = {}        # party Role -> seed share
        self.rho = {}           # wire -> tuple[int, ...]
        self.coin_view = b""    # SHA-256 of the two seed shares
        # bidder index -> (SHA-256 of its wire digests, its seed digest,
        # SHA-256 of its label sets); after the echo, the echoed records
        self.records = {}
        self.echo = None        # the first echo read, as it lies on the wire

    def copies(self, provider: int, checked: bool) -> list:
        """(wire, copy) of a provider's check or evaluation copies, by wire,
        then by copy: the order of its opening lists."""
        return [(w, j) for w in self.circuit.input_map[provider]
                for j in range(self.s) if self.rho[w][j] == checked]

    def at(self, wire: int) -> int:
        """``wire``'s place in its owner's input group."""
        return self.circuit.input_map[self.wire_owner[wire].index].index(wire)

    def take_coin_commit(self, sender: M.Role, com):
        self.coin_commits[sender] = com

    def take_coin_reveal(self, sender: M.Role, opening):
        """Once both seed shares are known, derive every wire's
        challenge."""
        try:
            self.shares[sender] = coin_toss_open(
                self.coin_commits[sender], opening, party=sender.name)
        except CoinTossCheatError as exc:
            raise _Abort(self.role, sender, str(exc))
        if len(self.shares) == 2:
            held = (self.shares[_P1], self.shares[_P2])
            self.coin_view = _digest(b"".join(held))
            for w in self.wire_owner:
                self.rho[w] = tuple(combine_challenge(*held, w, self.s))

    def take_hash_tuple(self, sender: M.Role, got):
        """A party's echo. An echo that differs from the first this role
        read (a party's own, for a party), from its own coin-toss view or,
        for a bidder, from its own record blames no one: a bidder sent the
        parties different values, a party equivocated, or a party lies."""
        coin, records = got
        if len(records) != len(self.circuit.input_map):
            raise _Abort(self.role, sender,
                         "echo holds the wrong number of records")
        echo = coin + M.packed(records)
        self.echo = self.echo or echo
        if coin != self.coin_view:
            raise _Abort(self.role, None, "coin-toss views diverged")
        me = self.role.index
        if echo != self.echo or (self.role.kind == M.PROVIDER and tuple(
                self.records[me]) != records[me]):
            raise _Abort(self.role, None, "input views diverged")
        self.records = records


class Party(Participant):
    """A computation party: garbles its own circuit and evaluates the
    other party's on the cross labels."""

    def __init__(self, role, rng, circuit, s, garble_seed: str):
        super().__init__(role, rng, circuit, s)
        self.slot = 0 if role == _P1 else 1
        self.garble_seed = garble_seed
        self.coin_opening = None
        self.leaves = {}         # wire -> its s leaves
        self.check_seeds = {}    # bidder Role -> its (seed, position) checks
        self.label_sets = {}     # bidder Role -> its label sets
        self.failures = []       # (wire, copy) failing checks, in order
        self.evidence = {}       # wire -> their eval entries (asc copy)
        self.final_enc = {}      # wire -> own-circuit Encoding
        self.cross_label = {}    # wire -> other-circuit label
        self.gc = None           # own garbled circuit
        self.eval_labels = None  # other circuit's output labels
        self.out_openings = {}   # recipient -> Opening

    def wire_digests(self, bidder: M.Role) -> list[bytes]:
        """The bidder's wire digests, by input map."""
        return [wire_digest(M.packed(self.leaves[w]))
                for w in self.circuit.input_map[bidder.index]]

    def take_input_commitments(self, sender: M.Role, leaves):
        """``s`` leaves per wire of the sender."""
        wires = self.circuit.input_map[sender.index]
        if len(leaves) != len(wires) * self.s:
            raise _Abort(self.role, sender,
                         "input commitments hold the wrong number of copies")
        for k, w in enumerate(wires):
            self.leaves[w] = leaves[k * self.s:(k + 1) * self.s]
        self.records[sender.index] = [
            _digest(M.packed(self.wire_digests(sender)))]

    def coin_commit(self):
        share, com, self.coin_opening = coin_toss_commit(self.rng)
        self.shares[self.role] = share
        return com

    def coin_reveal(self) -> Opening:
        return self.coin_opening

    def take_checkset_openings(self, sender: M.Role, got):
        """The sender's coin-toss view, then the seed and position
        commitment of each of its check copies. A view that is not this
        party's blames no one: the other party may have sent the sender
        another seed share. A copy whose leaf they do not rebuild is kept
        for a claim, ruled after the echo."""
        coin, checks = got
        if coin != self.coin_view:
            raise _Abort(self.role, None, "coin-toss views diverged")
        copies = self.copies(sender.index, checked=True)
        if len(checks) != len(copies):
            raise _Abort(self.role, sender,
                         "check seeds cover the wrong copies")
        self.check_seeds[sender] = checks
        self.records[sender.index].append(seed_digest(M.packed(checks)))
        self.failures += [
            (w, j) for (w, j), (seed, position) in zip(copies, checks)
            if not check_pair_construction(self.leaves[w][j], seed, position)]

    def claim_of(self, w: int, j: int):
        """The CHECK_FAILURE_CLAIM of check copy ``j`` of wire ``w``: the
        owner's wire digests and check seeds and the wire's leaves, which
        the providers check against the echoed records."""
        owner = self.wire_owner[w]
        return (w, j, self.wire_digests(owner), self.check_seeds[owner],
                self.leaves[w])

    def check_failure_claim(self):
        """The claim for the first failure this party found, if any."""
        return self.claim_of(*self.failures[0]) if self.failures else None

    def take_evalset_openings(self, sender: M.Role, got):
        entries, sets = got
        copies = self.copies(sender.index, checked=False)
        if len(entries) != len(copies):
            raise _Abort(self.role, sender,
                         "evaluation openings cover the wrong copies")
        if len(sets) != len(self.circuit.input_map[sender.index]):
            raise _Abort(self.role, sender, "label sets cover the wrong wires")
        self.label_sets[sender] = sets
        self.records[sender.index].append(_digest(M.packed(sets)))
        by_wire, triples = {}, {}
        for (w, j), entry in zip(copies, entries):
            by_wire.setdefault(w, []).append((j, entry))
        for w, opened in by_wire.items():
            js, openings = zip(*opened)
            triples[w] = open_evidence(self.leaves[w], js, self.slot, openings)
            if triples[w] is None:
                raise _Abort(self.role, sender,
                             f"evaluation opening failed on wire {w}")
            self.evidence[w] = list(openings)
        for w in self.circuit.input_map[sender.index]:
            enc, cross = evaluate_final_labels(triples[w])
            if enc.zero == enc.one:
                raise _Abort(self.role, sender,
                             f"wire {w} final encoding is degenerate")
            self.final_enc[w] = enc
            self.cross_label[w] = cross

    def hash_tuple(self):
        """The echo: this party's coin-toss view and its record of every
        bidder, by index."""
        records = [tuple(self.records[u])
                   for u in range(len(self.circuit.input_map))]
        self.echo = self.coin_view + M.packed(records)
        return self.coin_view, records

    def consistency_complaint(self) -> int | None:
        """The first wire whose triples, sliced from this party's entries,
        fail its owner's label sets, if any."""
        L = LABEL_BYTES
        for w in sorted(self.evidence):
            triples = [(body[:L], body[L:2 * L], body[2 * L:])
                       for _, _, body, *_ in self.evidence[w]]
            sets = self.label_sets[self.wire_owner[w]][self.at(w)]
            if not labels_consistent(triples, sets, self.slot):
                return w
        return None

    def consistency_proof(self):
        """The CONSISTENCY_PROOF of the complaint, if any: the wire, this
        party's entries of its evaluation copies, the owner's wire digests
        and label sets and the wire's leaves."""
        wire = self.consistency_complaint()
        if wire is None:
            return None
        owner = self.wire_owner[wire]
        return (wire, self.evidence[wire], self.wire_digests(owner),
                self.label_sets[owner], self.leaves[wire])

    def garbled_circuit(self) -> bytes:
        self.gc = garble(self.circuit, self.final_enc,
                         rng_seed=self.garble_seed)
        return self.gc.tables_blob()

    def take_garbled_circuit(self, sender: M.Role, blob: bytes):
        circuit = self.circuit
        try:
            tables = parse_tables_blob(circuit, blob)
            labels = {w: self.cross_label[w] for w in circuit.input_wires}
            self.eval_labels = evaluate(circuit, tables, labels)
        except (ProtocolError, EvaluationError) as exc:
            raise _Abort(self.role, sender,
                         f"garbled circuit rejected: {exc}")

    def output_labels(self) -> list[list[bytes]]:
        return [list(group) for group in self.eval_labels]

    def output_commitments(self) -> list:
        """One commitment per recipient to this party's output encodings
        and the labels it evaluated."""
        labels = self.output_labels()
        entries = []
        for u, group in enumerate(self.circuit.output_map):
            encs = [self.gc.output_encodings[w] for w in group]
            com, self.out_openings[u] = commit_output_labels(self.rng, encs,
                                                             labels[u])
            entries.append(com)
        return entries

    def output_openings(self) -> dict:
        """The opening of each provider role's commitment: bidder ``u``
        receives output group ``u``, the cloud the last."""
        return {role: self.out_openings[u]
                for u, role in enumerate(_provider_roles(self.circuit))}


class Provider(Participant):
    """A data provider: a bidder with an input group, or the cloud
    (``index`` None). Every provider receives one output group and
    arbitrates disputes."""

    def __init__(self, role, rng, circuit, s, bits=()):
        super().__init__(role, rng, circuit, s)
        self.index = role.index if role.kind == M.PROVIDER else None
        self.recipient = _recipient(role, circuit)
        self.wires = ([] if self.index is None
                      else list(circuit.input_map[self.index]))
        self.x_bits = dict(zip(self.wires, bits))
        self.material = {}        # wire -> WireMaterial
        self.out_coms = {}        # party Role -> commitments by recipient
        self.bundles = []         # OutputCommitments by recipient
        self.digest = b""
        self.opened = {}          # party Role -> Opening
        self.openings: OutputOpenings | None = None
        self.decision: OutputDecision | None = None

    def make_material(self, w: int):
        return generate_input_material(self.rng, self.x_bits[w], self.s)

    def input_commitments(self) -> list:
        """Every copy's leaf, by wire, then by copy."""
        leaves, digests = [], []
        for w in self.wires:
            self.material[w] = self.make_material(w)
            copies = self.material[w].leaves()
            digests.append(wire_digest(M.packed(copies)))
            leaves += copies
        self.records[self.index] = [_digest(M.packed(digests))]
        return leaves

    def checkset_openings(self):
        """This bidder's coin-toss view, then the seed and position
        commitment of each check copy, by wire, then by copy."""
        checks = [self.material[w].check_seed(j)
                  for w, j in self.copies(self.index, checked=True)]
        self.records[self.index].append(seed_digest(M.packed(checks)))
        return self.coin_view, checks

    def evalset_openings(self) -> dict:
        """Per party role, each evaluation copy's entry for that party;
        then to both, circuit 1's and circuit 2's label sets of each wire,
        by input map."""
        copies = self.copies(self.index, checked=False)
        sets = [self.material[w].label_sets(self.rho[w]) for w in self.wires]
        self.records[self.index].append(_digest(M.packed(sets)))
        return {party: ([self.material[w].eval_openings(j, slot)
                         for w, j in copies], sets)
                for slot, party in enumerate((_P1, _P2))}

    def _ruling(self, claimant, wire, digests, leaves, fault,
                false_claim) -> _Abort | None:
        """The ruling on a claim about ``wire``: none from its owner; the
        owner when the claim's wire digests hash to the owner's echoed
        record, its leaves to the wire's digest, and ``fault(record,
        leaves)`` words a fault; else the claimant."""
        owner = self.wire_owner[wire]
        if owner == self.role:
            return None
        record = self.records[owner.index]
        if (_digest(M.packed(digests)) == record[0]
                and wire_digest(M.packed(leaves)) == digests[self.at(wire)]):
            found = fault(record, leaves)
            if found:
                return _Abort(self.role, owner, found)
        return _Abort(self.role, claimant, false_claim)

    def take_check_failure_claim(self, sender: M.Role, claim):
        """The ruling on a claim that a check copy is not its seed's."""
        wire, copy, digests, checks, leaves = claim
        if (wire not in self.wire_owner or not 0 <= copy < self.s
                or not self.rho[wire][copy]):
            raise _Abort(self.role, sender,
                         "check-failure claim names no check copy")
        owner = self.wire_owner[wire]

        def fault(record, leaves):
            at = self.copies(owner.index, checked=True).index((wire, copy))
            return verify_check_failure_claim(
                leaves[copy], M.packed(checks), at, record[1]) and (
                f"check copy {copy} of wire {wire} failed construction: its "
                "commitments are not its seed's")
        return self._ruling(sender, wire, digests, leaves, fault,
                            "check-failure claim did not verify; the claim "
                            "was fabricated")

    def take_consistency_proof(self, sender: M.Role, proof):
        """The ruling on a proof that the sender's re-opened triples miss
        the owner's label sets."""
        wire, openings, digests, sets, leaves = proof
        if wire not in self.wire_owner:
            raise _Abort(self.role, sender,
                         "consistency proof names no input wire")
        copies = [j for j, checked in enumerate(self.rho[wire]) if not checked]
        if len(openings) != len(copies):
            raise _Abort(self.role, sender, "consistency proof holds the "
                         "wrong number of openings")
        slot = 0 if sender == _P1 else 1

        def fault(record, leaves):
            if _digest(M.packed(sets)) != record[2]:
                return None
            triples = open_evidence(leaves, copies, slot, openings)
            if triples is None or labels_consistent(
                    triples, sets[self.at(wire)], slot):
                return None
            return (f"labels of wire {wire} disagree between the circuits; "
                    f"{self.wire_owner[wire].name} submitted inconsistent "
                    "inputs")
        return self._ruling(sender, wire, digests, leaves, fault,
                            f"consistency proof for wire {wire} shows no "
                            "inconsistency; the complaint was false")

    def take_output_commitments(self, sender: M.Role, got):
        if len(got) != len(self.circuit.output_map):
            raise _Abort(self.role, sender,
                         "output commitments cover the wrong recipients")
        self.out_coms[sender] = got

    def bundle_hash(self) -> bytes:
        self.bundles = [OutputCommitments(p1, p2) for p1, p2 in
                        zip(self.out_coms[_P1], self.out_coms[_P2])]
        self.digest = bundle_digest(self.bundles)
        return self.digest

    def take_bundle_hash(self, sender: M.Role, digest: bytes):
        if digest != self.digest:
            raise _Abort(self.role, None, "output commitment views diverged")

    def take_output_openings(self, sender: M.Role, got):
        self.opened[sender] = got

    def decide(self) -> OutputDecision:
        u = self.recipient
        self.openings = OutputOpenings(self.opened[_P1], self.opened[_P2])
        self.decision = verify_output(self.bundles[u], self.openings,
                                      wires=len(self.circuit.output_map[u]),
                                      party1=_P1, party2=_P2)
        if self.decision.status == BLAME:
            raise _Abort(self.role, self.decision.blamed,
                         "an output opening failed to verify")
        return self.decision

    def complains(self) -> bool:
        return self.decision.status == REJECT

    def failure_proof(self) -> OutputOpenings:
        return self.openings

    def take_failure_proof(self, sender: M.Role, got):
        """This provider's verdict on the sender's failure proof: openings
        of the sender's own bundle."""
        u = _recipient(sender, self.circuit)
        return verify_failure_proof(self.bundles[u], OutputOpenings(*got),
                                    wires=len(self.circuit.output_map[u]))


# ------------------------------------------------------------- adversaries

class _Scripted:
    """A role replaced by a scripted adversary, which draws its choices
    from its own seed stream."""

    def __init__(self, *args, script: AdversaryScript, adv_rng, **kwargs):
        super().__init__(*args, **kwargs)
        self.script = script
        self.adv_rng = adv_rng


class _InconsistentLabels(_Scripted, Provider):
    def make_material(self, w):
        if w not in {self.wires[off] for off in self.script.wires}:
            return super().make_material(w)
        pattern = self.script.pattern or ((False,) + (True,) * (self.s - 1))
        return generate_cheating_material(self.rng, self.x_bits[w], self.s,
                                          consistent=pattern)


class _TamperGarbledGate(_Scripted, Party):
    """XORs the mask into every byte of one AND/OR gate's ciphertext TG or,
    by default, of every AND/OR gate's, and that delta shifted left by one
    bit into TE: with one delta in both, an evaluator at pointer bits
    (1, 1) would XOR it in twice and get its right label. Only at (0, 0)
    does the evaluator read neither ciphertext."""

    def garbled_circuit(self):
        blob = super().garbled_circuit()
        gates = ([self.script.gate] if self.script.gate is not None
                 else tabled_gates(self.circuit))
        # The AND/OR ciphertexts lie back to back in gate order.
        start = gate_rows(self.circuit, gates[0]).start
        stop = gate_rows(self.circuit, gates[-1]).stop
        tg = int.from_bytes(bytes([self.script.mask]) * LABEL_BYTES, "big")
        te = tg << 1 & (1 << 8 * LABEL_BYTES) - 1
        delta = (tg << 8 * LABEL_BYTES | te).to_bytes(2 * LABEL_BYTES, "big")
        return (blob[:start]
                + xor_bytes(blob[start:stop], delta * len(gates))
                + blob[stop:])


class _SubstituteOutputLabel(_Scripted, Party):
    def output_labels(self):
        labels = super().output_labels()
        labels[self.script.recipient][self.script.wire] = \
            self.adv_rng.randbytes(LABEL_BYTES)
        return labels


class _BiasCoinToss(_Scripted, Party):
    def coin_reveal(self):
        opening = super().coin_reveal()
        flipped = bytes([opening.message[0] ^ 1]) + opening.message[1:]
        return Opening(flipped, opening.randomness)


class _FalsifyCheckFailure(_Scripted, Party):
    """Claims provider 0's first checked copy is bad when it found no
    failure."""

    def check_failure_claim(self):
        w0 = self.circuit.input_map[0][0]
        j0 = next(j for j in range(self.s) if self.rho[w0][j])
        return super().check_failure_claim() or self.claim_of(w0, j0)


class _ForgeConsistencyProof(_Scripted, Party):
    """Complains about provider 0's first wire when it found no
    inconsistency."""

    def consistency_complaint(self):
        wire = super().consistency_complaint()
        return self.circuit.input_map[0][0] if wire is None else wire


class _FalseOutputComplaint(_Scripted, Provider):
    def complains(self):
        return True


# behavior -> (role subclass, default target), in the order benchmarks
# cycle through them. The subclass's base is the kind of role it replaces.
_SCRIPTED = {
    "inconsistent_labels": (_InconsistentLabels, "provider:0"),
    "tamper_garbled_gate": (_TamperGarbledGate, "P1"),
    "substitute_output_label": (_SubstituteOutputLabel, "P1"),
    "bias_coin_toss": (_BiasCoinToss, "P2"),
    "falsify_check_failure": (_FalsifyCheckFailure, "P1"),
    "forge_consistency_proof": (_ForgeConsistencyProof, "P1"),
    "false_output_complaint": (_FalseOutputComplaint, "provider:0"),
}
BEHAVIORS = tuple(_SCRIPTED)


# ------------------------------------------------------------------ driver

class Session:
    """One protocol run: builds the roles, then ``run()`` drives them."""

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
        self.all_roles = [_P1, _P2] + _provider_roles(self.circuit)
        if self.adversary is not None:
            self._check_adversary_target()

        def make(cls, role, *args, **kwargs):
            adv = self.adversary
            if adv is not None and adv.target == role.name:
                cls = _SCRIPTED[adv.behavior][0]
                kwargs.update(script=adv,
                              adv_rng=random.Random(f"{seed}:adversary"))
            return cls(role, random.Random(f"{seed}:{role.name}"),
                       self.circuit, s, *args, **kwargs)

        self.p1 = make(Party, _P1, f"{seed}:gc1")
        self.p2 = make(Party, _P2, f"{seed}:gc2")
        self.parties = (self.p1, self.p2)
        self.bidders = [make(Provider, role, encode_bid_bits(config, bid))
                        for role, bid in zip(self.all_roles[2:], self.bids)]
        self.cloud = make(Provider, self.all_roles[-1])
        self.providers = self.bidders + [self.cloud]

    # ------------------------------------------------------------- plumbing

    def _check_adversary_target(self):
        adv, circuit = self.adversary, self.circuit
        target = next((r for r in self.all_roles if r.name == adv.target), None)
        if target is None:
            raise UsageError(f"adversary target {adv.target} is not part of "
                             "this session")
        on_party = issubclass(_SCRIPTED[adv.behavior][0], Party)
        if adv.target == "cloud" or (adv.target in ("P1", "P2")) != on_party:
            raise UsageError(f"{adv.behavior} cannot be scripted on "
                             f"{adv.target}")
        if not on_party:
            group = range(len(circuit.input_map[target.index]))
            if not adv.wires or any(off not in group for off in adv.wires):
                raise UsageError("wires must be offsets into the target's "
                                 "input group")
        if adv.pattern is not None and len(adv.pattern) != self.s:
            raise UsageError("pattern length must equal the copy count")
        if adv.gate is not None and adv.gate not in tabled_gates(circuit):
            raise UsageError(f"gate {adv.gate} has no garbled table")
        if adv.mask not in range(1, 0x100):
            raise UsageError("mask must be in 1..255")
        outputs = circuit.output_map
        if (adv.recipient not in range(len(outputs))
                or adv.wire not in range(len(outputs[adv.recipient]))):
            raise UsageError("recipient and wire must name an output wire")

    def _round(self, mtype: MT, senders, step=None) -> list:
        """One round of ``mtype`` messages. Each sender's step (by default
        its method named after the type) runs once, and its frames go to
        every other role of a kind ``FLOW`` lists as a receiver of the
        type: one broadcast frame, or for a point-to-point type one frame
        per receiver role. Every frame is sent before any is received.
        Then each receiver reads each sender's value, sender by sender,
        and hands it to its ``take_*`` step (a role without one drops it).
        Returns what the take steps returned, in that order. An ``ABORT``
        reaches every receiver: one that fails to read it does not stop
        the others."""
        step = step or methodcaller(mtype.name.lower())
        kinds = M.FLOW[mtype][1]
        routes = []
        for sender in senders:
            value = step(sender)
            receivers = [r for r in self._all_states()
                         if r.role.kind in kinds and r is not sender]
            if mtype in M.POINT_TO_POINT:
                frames = {r: self._frame(mtype, sender, value[r.role])
                          for r in receivers}
            else:
                frames = dict.fromkeys(receivers,
                                       self._frame(mtype, sender, value))
            for r, data in frames.items():
                M.check_flow(mtype, sender.role, r.role)
                self.transport.send(sender.role, r.role, data)
                self.transcript.add(self._phase, sender.role.name,
                                    r.role.name, mtype.name, len(data))
            routes.append((sender, receivers))
        results = []
        for sender, receivers in routes:
            for r in receivers:
                try:
                    value = self._recv(r, sender, mtype)
                except (_Abort, TransportTimeout):
                    if mtype is MT.ABORT:
                        continue  # the abort announced is the verdict
                    raise
                take = getattr(r, f"take_{mtype.name.lower()}", None)
                if take is not None:
                    results.append(take(sender.role, value))
        return results

    def _frame(self, mtype: MT, sender: Participant, value) -> bytes:
        return M.encode_frame(mtype, self.session_id, sender.role,
                              M.encode_body(mtype, value))

    def _recv(self, receiver: Participant, sender: Participant, mtype: MT):
        """The decoded value of the next frame from ``sender``. This is the
        one place frames are checked: a transport failure other than a
        timeout, a malformed frame or body, or a frame of the wrong type,
        session or sender is an abort blaming ``sender``."""
        try:
            while True:
                got_type, sid, got_sender, body = M.decode_frame(
                    self.transport.recv(receiver.role, sender.role))
                # An abort overtakes whatever the detector sent before it.
                if got_type == mtype or mtype is not MT.ABORT:
                    break
            if got_type != mtype:
                raise ProtocolError(
                    f"expected {mtype.name}, got {got_type.name}")
            if sid != self.session_id:
                raise ProtocolError("frame belongs to a different session")
            if got_sender != sender.role:
                raise ProtocolError("frame sender does not match the channel")
            return M.decode_body(mtype, body)
        except TransportTimeout:
            raise
        except (FramingError, ProtocolError, TransportError) as exc:
            raise _Abort(receiver.role, sender.role,
                         f"malformed {mtype.name} frame: {exc}")

    # ------------------------------------------------------------------ run

    def run(self) -> SessionResult:
        try:
            for phase, step in ((M.PHASE_INPUT, self._input_phase),
                                (M.PHASE_COMPUTE, self._compute_phase),
                                (M.PHASE_OUTPUT, self._output_phase)):
                self._phase, start = phase, time.perf_counter()
                try:
                    result = step()
                finally:
                    self.transcript.phase_seconds[phase] = \
                        time.perf_counter() - start
            return result
        except _Abort as sig:
            return self._aborted(sig)
        except TransportTimeout as exc:
            return SessionResult(
                status=STATUS_ABORT, result=None, blamed=None,
                reason=f"timeout: {exc}", decisions={},
                transcript=self.transcript, phase=self._phase)

    def _all_states(self) -> list[Participant]:
        return [self.p1, self.p2] + self.providers

    def _aborted(self, sig: _Abort) -> SessionResult:
        detector = next(r for r in self._all_states()
                        if r.role == sig.detector)
        self._round(MT.ABORT, [detector], lambda _: (sig.blamed, sig.reason))
        return SessionResult(
            status=STATUS_ABORT, result=None,
            blamed=sig.blamed.name if sig.blamed else None,
            reason=sig.reason, decisions={}, transcript=self.transcript,
            phase=self._phase, detector=sig.detector.name)

    # ---------------------------------------------------------- input phase

    def _input_phase(self):
        self._round(MT.INPUT_COMMITMENTS, self.bidders)
        # One joint toss per session: each party commits to a seed share,
        # then reveals it, and every role derives each wire's challenge
        # from the two shares it holds.
        self._round(MT.COIN_COMMIT, self.parties)
        self._round(MT.COIN_REVEAL, self.parties)
        self._round(MT.CHECKSET_OPENINGS, self.bidders)
        self._round(MT.EVALSET_OPENINGS, self.bidders)
        # Each party echoes its coin-toss view and its record of each
        # bidder, so no role can hold others when a claim is ruled.
        self._round(MT.HASH_TUPLE, self.parties)
        for mtype in (MT.CHECK_FAILURE_CLAIM, MT.CONSISTENCY_PROOF):
            for party in self.parties:
                claim = methodcaller(mtype.name.lower())(party)
                if claim is not None:
                    self._arbitrate(mtype, party, claim)

    def _arbitrate(self, mtype: MT, party, claim):
        """Ends the session on ``party``'s claim. The cloud, which receives
        last and owns no wire, gives the verdict; rulings that differ mean
        an arbitrator was sent something else, so no one is blamed."""
        rulings = [r for r in self._round(mtype, [party], lambda _: claim)
                   if r is not None]
        if len({r.blamed for r in rulings}) > 1:
            raise _Abort(self.cloud.role, None, "arbitrators ruled apart on "
                         f"the {mtype.name}")
        raise rulings[-1]

    # -------------------------------------------------------- compute phase

    def _compute_phase(self):
        # Both circuits cross before either evaluation starts.
        self._round(MT.GARBLED_CIRCUIT, self.parties)

    # --------------------------------------------------------- output phase

    def _output_phase(self) -> SessionResult:
        self._round(MT.OUTPUT_COMMITMENTS, self.parties)
        self._round(MT.BUNDLE_HASH, self.providers)
        self._round(MT.OUTPUT_OPENINGS, self.parties)
        decisions = {prov.role.name: prov.decide() for prov in self.providers}
        spurious: str | None = None
        confirmed = False
        for prov in self.providers:
            if not prov.complains():
                continue
            # BUNDLE_HASH pinned the bundles, so one confirmation proves
            # that the decoded outputs disagree.
            if CONFIRMED in self._round(MT.FAILURE_PROOF, [prov]):
                confirmed = True
            else:
                spurious = prov.role.name
        if confirmed:
            return SessionResult(
                status=STATUS_REJECT, result=None, blamed=None,
                reason="decoded outputs disagree between the two circuits; "
                       "rejection confirmed by the opened failure proof",
                decisions=decisions, transcript=self.transcript,
                phase=self._phase)
        # The cloud's output group is the bidders' groups end to end; a
        # bidder that rejected has no value to hold against it.
        cloud_bits, at = decisions["cloud"].value, 0
        for prov in self.bidders:
            end = at + len(self.circuit.output_map[prov.recipient])
            if decisions[prov.role.name].value not in (None,
                                                       cloud_bits[at:end]):
                raise _Abort(self.cloud.role, None,
                             "recipient views of the result diverged")
            at = end
        result = decode_cloud_bits(self.config, self.n, list(cloud_bits))
        reason = ""
        if spurious is not None:
            reason = (f"{spurious} complained about an output that every "
                      "other provider verified as consistent")
        return SessionResult(
            status=STATUS_ACCEPT, result=result, blamed=spurious,
            reason=reason, decisions=decisions, transcript=self.transcript,
            phase=self._phase)


def run_session(config: AuctionConfig, bids, s: int = 10, seed: int = 0,
                adversary=None, transport: Transport | None = None
                ) -> SessionResult:
    return Session(config, bids, s=s, seed=seed, adversary=adversary,
                   transport=transport).run()
