"""Garbling scheme: 128-bit wire labels, 18-byte encrypted table rows.

Each gate row is ``SHA-256(K_a || [K_b ||] gate_index_be4 || row_byte)``
truncated to 18 bytes and XORed with ``output_label || 0x0000``; the 16-bit
all-zero authenticator tells the evaluator whether a row decrypted validly.
Binary gates carry 4 rows, NOT gates 2. Both sides do this arithmetic on
ints: a row is the big-endian int of the truncated hash XOR
``output_label << 16``, and it authenticates when ``row & 0xFFFF == 0``.

Row placement (point-and-permute): every wire has a pointer function mapping
plaintext bit -> row half-index. Internal wires use the label's least
significant bit, and the garbler draws internal label pairs with
complementary LSBs so the four rows land in distinct slots. Circuit-input
wires carry externally supplied encodings (in the protocol they are XORs of
data-provider copies), so their labels' LSBs may coincide; those wires get a
random garbler-chosen pointer bit instead, which the evaluator cannot
compute. Gates reading input wires are therefore evaluated by trial: the
evaluator decrypts every candidate row and accepts the unique one whose
authenticator is zero. The garbler re-garbles under a fresh salt in the
(~2^-16 per candidate) event a wrong candidate row would also authenticate,
so an honestly garbled circuit never presents an ambiguous gate. A binary
gate on two distinct internal wires needs no such scan: its operands'
pointer bits place its 4 rows directly.

Table layout: a garbled circuit is one flat byte string, the same in memory
and on the wire: circuit hash (32) || gate count (4, big-endian) || every
gate's rows in gate order, ``ROW_BYTES`` each. ``GarbledCircuit.tables`` is
that string, ``parse_tables_blob`` checks a received one's header and exact
length and returns it, and ``evaluate`` reads each candidate row straight
from it at the row's offset. ``gate_rows`` gives one gate's row offsets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from .circuits import AND, NOT, OR, XOR, Circuit
from .errors import DecodeError, EncodingCoverageError, EvaluationError, ProtocolError

LABEL_BYTES = 16
ROW_BYTES = LABEL_BYTES + 2
AUTH_ZERO = b"\x00\x00"
AUTH_MASK = 0xFFFF  # the authenticator bits of a row read as an int
HEADER_BYTES = 32 + 4  # circuit hash + gate count
MAX_GARBLE_ATTEMPTS = 64

_sha256 = hashlib.sha256
_from_bytes = int.from_bytes
_ROW_TAG = [bytes([r]) for r in range(4)]

# Output bit of each binary gate kind, indexed by bit_a * 2 + bit_b.
_TRUTH = {AND: (0, 0, 0, 1), OR: (0, 1, 1, 1), XOR: (0, 1, 1, 0)}
# The same truth tables in row order, for operands on internal wires whose
# 0-labels have pointer bits (sa, sb): _ROW_BITS[kind][sa * 2 + sb][r] is
# the output bit of row r = pa * 2 + pb, whose operands hold the bits
# pa ^ sa and pb ^ sb.
_ROW_BITS = {
    kind: tuple(tuple(truth[(pa ^ sa) * 2 + (pb ^ sb)]
                      for pa in (0, 1) for pb in (0, 1))
                for sa in (0, 1) for sb in (0, 1))
    for kind, truth in _TRUTH.items()}


class Encoding(NamedTuple):
    """The (0-label, 1-label) pair of one wire."""

    zero: bytes
    one: bytes

    def label(self, bit: int) -> bytes:
        return self.one if bit else self.zero


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@dataclass
class GarbledCircuit:
    circuit_hash: bytes
    tables: bytes  # the flat layout of the module docstring, header included
    input_encodings: dict[int, Encoding]
    output_encodings: dict[int, Encoding]
    wire_encodings: dict[int, Encoding] | None = None

    def tables_blob(self) -> bytes:
        """Wire format: circuit hash (32) || gate count (4 BE) || rows in gate order."""
        return self.tables


def _row_count(kind: int) -> int:
    return 2 if kind == NOT else 4


def gate_rows(circuit: Circuit, gi: int) -> range:
    """Offsets of gate ``gi``'s rows in the tables (and so in the blob)."""
    start = HEADER_BYTES + ROW_BYTES * sum(
        _row_count(gate[0]) for gate in circuit.gates[:gi])
    return range(start, start + ROW_BYTES * _row_count(circuit.gates[gi][0]),
                 ROW_BYTES)


def parse_tables_blob(circuit: Circuit, blob: bytes) -> bytes:
    """Check a received blob's header and exact length; returns the tables."""
    if len(blob) < HEADER_BYTES:
        raise ProtocolError("garbled circuit blob too short")
    if blob[:32] != circuit.hash():
        raise ProtocolError("garbled circuit hash does not match the agreed circuit")
    count = int.from_bytes(blob[32:36], "big")
    if count != len(circuit.gates):
        raise ProtocolError("garbled circuit gate count mismatch")
    size = HEADER_BYTES + ROW_BYTES * sum(
        _row_count(gate[0]) for gate in circuit.gates)
    if len(blob) < size:
        raise ProtocolError("garbled circuit blob is truncated")
    if len(blob) > size:
        raise ProtocolError("garbled circuit blob has trailing bytes")
    return bytes(blob)


def _pad(key: bytes, gate_tag: bytes, row: int) -> int:
    """The row-``row`` pad under ``key`` (one label, or two concatenated)."""
    return _from_bytes(_sha256(key + gate_tag + _ROW_TAG[row]).digest()[:ROW_BYTES],
                       "big")


def _operand(w: int, zeros: list, ones: list, pointer_bit: dict[int, int]):
    """A gate operand's labels and row half by plaintext bit, and whether
    it is a circuit-input wire (whose row half the evaluator must try)."""
    labels = (zeros[w], ones[w])
    if w in pointer_bit:
        return labels, (pointer_bit[w], pointer_bit[w] ^ 1), True
    return labels, (labels[0][-1] & 1, labels[1][-1] & 1), False


def _general_rows(kind: int, a: int, b: int, gate_tag: bytes, zeros: list,
                  ones: list, pointer_bit: dict[int, int],
                  masks: tuple[int, int], randbytes) -> tuple[bytes, bool]:
    """Rows of a gate that reads a circuit-input wire or one wire twice.

    Returns the rows and whether a wrong candidate row the evaluator would
    try also authenticates, which forces a re-garble.
    """
    ka, ptr_a, a_in = _operand(a, zeros, ones, pointer_bit)
    if kind == NOT:
        rows = [0, 0]
        for bit in (0, 1):
            r = ptr_a[bit]
            rows[r] = _pad(ka[bit], gate_tag, r) ^ masks[1 - bit]
        ambiguous = a_in and any(
            not (_pad(ka[bit], gate_tag, 1 - ptr_a[bit]) ^ rows[1 - ptr_a[bit]])
            & AUTH_MASK for bit in (0, 1))
        return b"".join(row.to_bytes(ROW_BYTES, "big") for row in rows), ambiguous

    kb, ptr_b, b_in = _operand(b, zeros, ones, pointer_bit)
    truth = _TRUTH[kind]
    combos = ((0, 0), (1, 1)) if a == b else ((0, 0), (0, 1), (1, 0), (1, 1))
    rows: list[int | None] = [None, None, None, None]
    for x, y in combos:
        r = ptr_a[x] * 2 + ptr_b[y]
        rows[r] = _pad(ka[x] + kb[y], gate_tag, r) ^ masks[truth[x * 2 + y]]
    for r in range(4):
        if rows[r] is None:
            rows[r] = _from_bytes(randbytes(ROW_BYTES), "big")

    ambiguous = False
    if a_in or b_in:
        for x, y in combos:
            key = ka[x] + kb[y]
            true_r = ptr_a[x] * 2 + ptr_b[y]
            cand_a = (0, 1) if a_in else (ptr_a[x],)
            cand_b = (0, 1) if b_in else (ptr_b[y],)
            if a == b:
                candidates = [p * 3 for p in cand_a]
            else:
                candidates = [p * 2 + q for p in cand_a for q in cand_b]
            if any(r != true_r and not (_pad(key, gate_tag, r) ^ rows[r]) & AUTH_MASK
                   for r in candidates):
                ambiguous = True
                break
    return b"".join(row.to_bytes(ROW_BYTES, "big") for row in rows), ambiguous


def garble(circuit: Circuit, input_encodings: dict[int, Encoding], rng_seed,
           *, keep_wire_encodings: bool = False) -> GarbledCircuit:
    """Garble ``circuit`` under externally supplied input-wire encodings.

    Internal wires receive fresh labels derived from ``rng_seed``. The
    returned object keeps the input and output encodings; they are never
    serialized into the tables blob.
    """
    input_wires = circuit.input_wires
    input_set = frozenset(input_wires)
    for w in input_wires:
        e = input_encodings.get(w)
        if e is None:
            raise EncodingCoverageError(f"input wire {w} lacks an encoding")
        if e.zero == e.one:
            raise ValueError(f"degenerate encoding on input wire {w}")
        if len(e.zero) != LABEL_BYTES or len(e.one) != LABEL_BYTES:
            raise ValueError("labels must be 16 bytes")

    gates = circuit.gates
    # A unary or self gate on an input wire derives both of its true rows
    # from the wire's fixed labels at fixed row positions, so a 16-bit
    # auth-tail collision there survives every redraw.  Refuse up front
    # instead of burning all attempts.
    for gi, (kind, a, b, _out) in enumerate(gates):
        if a not in input_set or (kind != NOT and a != b):
            continue
        gate_tag = gi.to_bytes(4, "big")
        e = input_encodings[a]
        if kind == NOT:
            k0, k1, candidates = e.zero, e.one, (0, 1)
        else:
            k0, k1, candidates = e.zero + e.zero, e.one + e.one, (0, 3)
        for r in candidates:
            if not (_pad(k0, gate_tag, r) ^ _pad(k1, gate_tag, r)) & AUTH_MASK:
                raise ValueError(
                    f"gate {gi} reads input wire {a} as a unary or self "
                    f"gate and the wire's labels collide under the row "
                    f"hash; no unambiguous table exists - route the wire "
                    f"through an internal gate first")

    sha, from_bytes = _sha256, _from_bytes
    header = circuit.hash() + len(gates).to_bytes(4, "big")
    for attempt in range(MAX_GARBLE_ATTEMPTS):
        rng = random.Random(f"garble:{rng_seed}:{attempt}")
        randbytes = rng.randbytes
        pointer_bit = {w: rng.getrandbits(1) for w in input_wires}
        # The 0- and 1-label of every wire, by wire id.
        zeros: list = [None] * circuit.wire_count
        ones: list = [None] * circuit.wire_count
        for w in input_wires:
            zeros[w], ones[w] = input_encodings[w].zero, input_encodings[w].one
        parts = [header]
        ambiguous = False

        for gi, (kind, a, b, out) in enumerate(gates):
            # Complementary LSBs so internal point-and-permute rows never collide.
            zero = randbytes(LABEL_BYTES)
            one = (from_bytes(randbytes(LABEL_BYTES), "big") & ~1) | ((zero[-1] & 1) ^ 1)
            zeros[out] = zero
            ones[out] = one.to_bytes(LABEL_BYTES, "big")
            # Output label || 0x0000 by output bit, as ints.
            masks = (from_bytes(zero, "big") << 16, one << 16)
            gate_tag = gi.to_bytes(4, "big")

            # Gates the evaluator decrypts by trial, and self gates with
            # their two filler rows, take the general path.
            if a in input_set or b in input_set or a == b:
                rows, ambiguous = _general_rows(kind, a, b, gate_tag, zeros, ones,
                                                pointer_bit, masks, randbytes)
                parts.append(rows)
                if ambiguous:
                    break
                continue

            # Internal operands: a label's pointer bit is its LSB, and a0/a1
            # (b0/b1) are the labels whose pointer bit is 0/1, so row
            # pa * 2 + pb is keyed by the pair a<pa>, b<pb>.
            za = zeros[a]
            sa = za[-1] & 1
            a0, a1 = (ones[a], za) if sa else (za, ones[a])
            if kind == NOT:
                parts.append(
                    (from_bytes(sha(a0 + gate_tag + b"\x00").digest()[:ROW_BYTES], "big")
                     ^ masks[sa ^ 1]).to_bytes(ROW_BYTES, "big")
                    + (from_bytes(sha(a1 + gate_tag + b"\x01").digest()[:ROW_BYTES], "big")
                       ^ masks[sa]).to_bytes(ROW_BYTES, "big"))
                continue
            zb = zeros[b]
            sb = zb[-1] & 1
            b0, b1 = (ones[b], zb) if sb else (zb, ones[b])
            bit0, bit1, bit2, bit3 = _ROW_BITS[kind][sa * 2 + sb]
            parts.append(
                (from_bytes(sha(a0 + b0 + gate_tag + b"\x00").digest()[:ROW_BYTES], "big")
                 ^ masks[bit0]).to_bytes(ROW_BYTES, "big")
                + (from_bytes(sha(a0 + b1 + gate_tag + b"\x01").digest()[:ROW_BYTES], "big")
                   ^ masks[bit1]).to_bytes(ROW_BYTES, "big")
                + (from_bytes(sha(a1 + b0 + gate_tag + b"\x02").digest()[:ROW_BYTES], "big")
                   ^ masks[bit2]).to_bytes(ROW_BYTES, "big")
                + (from_bytes(sha(a1 + b1 + gate_tag + b"\x03").digest()[:ROW_BYTES], "big")
                   ^ masks[bit3]).to_bytes(ROW_BYTES, "big"))

        if not ambiguous:
            wire_encodings = None
            if keep_wire_encodings:
                wire_encodings = dict(input_encodings)
                for _kind, _a, _b, out in gates:
                    wire_encodings[out] = Encoding(zeros[out], ones[out])
            return GarbledCircuit(
                circuit.hash(), b"".join(parts), dict(input_encodings),
                {w: Encoding(zeros[w], ones[w]) for w in circuit.output_wires},
                wire_encodings=wire_encodings)

    raise RuntimeError("garbling kept producing ambiguous tables")  # pragma: no cover


def _trial(gi: int, tables: bytes, off: int, key: bytes, gate_tag: bytes,
           candidates) -> int:
    """Decrypt each candidate row; returns the one that authenticates."""
    found = None
    for r in candidates:
        o = off + r * ROW_BYTES
        dec = _pad(key, gate_tag, r) ^ _from_bytes(tables[o:o + ROW_BYTES], "big")
        if not dec & AUTH_MASK:
            if found is not None:
                raise EvaluationError(f"gate {gi}: ambiguous rows")
            found = dec
    if found is None:
        raise EvaluationError(f"gate {gi}: no row authenticates")
    return found


def evaluate(circuit: Circuit, tables: bytes,
             input_labels: dict[int, bytes]) -> list[list[bytes]]:
    """Evaluate garbled tables on one label per input wire.

    ``tables`` is the flat layout ``garble`` and ``parse_tables_blob``
    return; each candidate row is read at its offset. Returns labels grouped
    like the circuit's output map. Raises EvaluationError when no candidate
    row (or more than one) authenticates.
    """
    input_set = frozenset(circuit.input_wires)
    vals: list = [None] * circuit.wire_count
    for w in input_set:
        lab = input_labels.get(w)
        if lab is None:
            raise EncodingCoverageError(f"input wire {w} lacks a label")
        vals[w] = lab
    sha, from_bytes = _sha256, _from_bytes
    off = HEADER_BYTES
    for gi, (kind, a, b, out) in enumerate(circuit.gates):
        gate_tag = gi.to_bytes(4, "big")
        la = vals[a]
        # The row the pointer bits select, or every candidate row when an
        # operand is a circuit-input wire.
        candidates = None
        if kind == NOT:
            key = la
            r = la[-1] & 1
            if a in input_set:
                candidates = (0, 1)
            size = 2 * ROW_BYTES
        else:
            lb = vals[b]
            key = la + lb
            r = (la[-1] & 1) * 2 + (lb[-1] & 1)
            if a in input_set or b in input_set:
                cand_a = (0, 1) if a in input_set else (la[-1] & 1,)
                cand_b = (0, 1) if b in input_set else (lb[-1] & 1,)
                if a == b:
                    candidates = [p * 3 for p in cand_a]
                else:
                    candidates = [p * 2 + q for p in cand_a for q in cand_b]
            size = 4 * ROW_BYTES
        if candidates is None:
            o = off + r * ROW_BYTES
            dec = (from_bytes(sha(key + gate_tag + _ROW_TAG[r]).digest()[:ROW_BYTES], "big")
                   ^ from_bytes(tables[o:o + ROW_BYTES], "big"))
            if dec & AUTH_MASK:
                raise EvaluationError(f"gate {gi}: no row authenticates")
        else:
            dec = _trial(gi, tables, off, key, gate_tag, candidates)
        off += size
        vals[out] = (dec >> 16).to_bytes(LABEL_BYTES, "big")
    return [[vals[w] for w in group] for group in circuit.output_map]


def decode(labels, encodings) -> list[int]:
    """Map each label to its plaintext bit under the matching encoding."""
    bits = []
    for lab, enc in zip(labels, encodings):
        if lab == enc.zero:
            bits.append(0)
        elif lab == enc.one:
            bits.append(1)
        else:
            raise DecodeError("label matches neither encoding half")
    return bits


def select_labels(encodings: dict[int, Encoding], bits: dict[int, int]) -> dict[int, bytes]:
    """Pick the label for each wire's plaintext bit (garbler-side helper)."""
    return {w: encodings[w].label(bit) for w, bit in bits.items()}


def random_input_encodings(circuit: Circuit, rng: random.Random) -> dict[int, Encoding]:
    """Uniform independent encodings for every circuit input wire.

    Mirrors the protocol setting where providers choose labels: LSBs are not
    adjusted, so roughly half the wires get colliding pointer bits.
    """
    out = {}
    for w in circuit.input_wires:
        zero = rng.randbytes(LABEL_BYTES)
        one = rng.randbytes(LABEL_BYTES)
        while one == zero:  # pragma: no cover
            one = rng.randbytes(LABEL_BYTES)
        out[w] = Encoding(zero, one)
    return out
