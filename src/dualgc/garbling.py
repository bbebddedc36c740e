"""Garbling scheme: free-XOR labels, half-gate AND/OR gates, authenticated
input and output projections.

Labels. Each garbling draws one global offset ``R`` (128 bits, least
significant bit 1) and gives every wire a 0-label ``K``; its 1-label is
``K ^ R``. An XOR gate's 0-label is ``K_a ^ K_b`` and a NOT gate's is
``K_a ^ R``, so XOR and NOT gates send nothing: the evaluator XORs the
operand labels, or keeps the operand's label (free-XOR,
Kolesnikov-Schneider, ICALP 2008). Because ``R`` has LSB 1, a wire's two
labels have complementary LSBs, and the LSB is the label's pointer bit.

Gates. Each AND gate ``gi`` sends two 16-byte ciphertexts (half-gates,
Zahur-Rosulek-Evans, EUROCRYPT 2015). With ``H_t(x) = SHA-256(x || salt
|| gi_be4 || t)[:16]``, tag 0 for the garbler half and 1 for the evaluator
half, operand 0-labels ``A``, ``B`` and their pointer bits ``pa``, ``pb``:

    TG = H_0(A) ^ H_0(A ^ R) ^ pb * R
    TE = H_1(B) ^ H_1(B ^ R) ^ A

The output's 0-label is ``H_0(A) ^ H_1(B) ^ pa * TG ^ pb * (TE ^ A)``. An
evaluator holding labels ``Wa``, ``Wb`` with pointer bits ``sa``, ``sb``
computes ``H_0(Wa) ^ H_1(Wb) ^ sa * TG ^ sb * (TE ^ Wa)``: the output
label of ``a & b``. An OR gate is an AND gate under free NOTs: both
operand 0-labels and the output 0-label are flipped by ``R``, so the
evaluator treats it as an AND gate. The garbler hashes 4 times per gate,
the evaluator twice. ``salt`` is 16 bytes drawn per garbling attempt and
sent in the blob.

Projections. A projection row is 18 bytes: a pad ``SHA-256(key || salt ||
index_be4 || tag)`` truncated to 18 bytes, XORed with ``label ||
authenticator``. The evaluator checks the authenticator of each row it
decrypts, so a tampered row convicts its garbler.

* each circuit-input wire ``w``: a 2-row projection from its externally
  supplied encoding (in the protocol, XORs of data-provider copies) onto
  ``(K, K ^ R)``; keys are the supplied labels, index ``w``, tags 4 and 5,
  authenticator ``0x0000``. The supplied labels' LSBs may coincide, so the
  rows sit at a random garbler-chosen pointer bit and the evaluator
  decrypts both, accepting the unique one that authenticates.
* each distinct output wire ``w``: a 2-row projection from ``(K, K ^ R)``
  onto a fresh, independent pair, placed by pointer bits; index ``w``,
  tags 6 and 7. The output encodings are what recipients later open, so
  ``R`` never leaves the garbler. The authenticator is
  ``SHA-256(label)[:2]``, so a flipped label bit fails it too.

Tampering. Gate ciphertexts carry no authenticator. A ciphertext changed
by ``d`` gives an evaluator whose pointer bit reads it (``sa`` for ``TG``,
``sb`` for ``TE``) an output label off by ``d``, or by both deltas at
``(1, 1)`` (so equal deltas cancel there): a label that is neither of the
wire's two. XOR and NOT gates carry its offset and AND/OR gates hash it
into another wrong label; one that reaches an output fails its
projection, which convicts the garbler (unless two equal offsets cancel
in an XOR on the way). An evaluator at pointer bits ``(0, 0)`` reads
neither ciphertext, so a tamper there does nothing.

Ambiguity. An input projection is ambiguous when the wrong row also
authenticates under one of the supplied labels: the two labels' pad tails
collide at a row position (about 2^-15 per wire). That depends on the
labels and the salt only, so ``garble`` checks every projection right after
drawing the salt and, before garbling any gate, retries under the next
attempt's salt; an honestly garbled circuit never presents an ambiguous
projection.

Layout: a garbled circuit is one flat byte string, the same in memory and
on the wire: circuit hash (32) || gate count (4, big-endian) || salt (16)
|| input projections in input-wire order || ``TG || TE`` per AND/OR gate
in gate order || output projections in order of first appearance in the
output map. ``GarbledCircuit.tables`` is that string,
``parse_tables_blob`` checks a received one's header and exact length, and
``evaluate`` reads each row and ciphertext straight from it. ``gate_rows``
gives one gate's ciphertext offsets (none for XOR/NOT).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from .circuits import AND, NOT, OR, XOR, Circuit
from .errors import DecodeError, EncodingCoverageError, EvaluationError, ProtocolError

LABEL_BYTES = 16
ROW_BYTES = LABEL_BYTES + 2  # a projection row
GATE_BYTES = 2 * LABEL_BYTES  # an AND/OR gate's TG || TE
AUTH_ZERO = b"\x00\x00"
AUTH_MASK = 0xFFFF  # the authenticator bits of a row read as an int
SALT_BYTES = 16
HEADER_BYTES = 32 + 4 + SALT_BYTES  # circuit hash + gate count + salt
MAX_GARBLE_ATTEMPTS = 64

_sha256 = hashlib.sha256
_from_bytes = int.from_bytes
# Hash tags: garbler and evaluator halves 0-1, input projections 4-5,
# output projections 6-7.
_ROW_TAG = [bytes([t]) for t in range(8)]
_IN_TAG, _OUT_TAG = 4, 6


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
    tables: bytes  # the flat layout of the module docstring, header included
    output_encodings: dict[int, Encoding]

    def tables_blob(self) -> bytes:
        """Wire format: the layout of the module docstring."""
        return self.tables


def _tabled(kind: int) -> bool:
    return kind == AND or kind == OR


def _distinct_outputs(circuit: Circuit) -> list[int]:
    return list(dict.fromkeys(circuit.output_wires))


def _and_or_count(gates) -> int:
    return sum(1 for gate in gates if _tabled(gate[0]))


def tabled_gates(circuit: Circuit) -> list[int]:
    """Indices of the gates that send ciphertexts: the AND and OR gates."""
    return [gi for gi, gate in enumerate(circuit.gates) if _tabled(gate[0])]


def gate_rows(circuit: Circuit, gi: int) -> range:
    """Offsets of gate ``gi``'s ciphertexts TG and TE in the tables (and so
    in the blob); empty for an XOR or NOT gate."""
    start = (HEADER_BYTES + 2 * ROW_BYTES * len(circuit.input_wires)
             + GATE_BYTES * _and_or_count(circuit.gates[:gi]))
    stop = start + GATE_BYTES if _tabled(circuit.gates[gi][0]) else start
    return range(start, stop, LABEL_BYTES)


def parse_tables_blob(circuit: Circuit, blob: bytes) -> bytes:
    """Check a received blob's header and exact length; returns the tables."""
    if len(blob) < HEADER_BYTES:
        raise ProtocolError("garbled circuit blob too short")
    if blob[:32] != circuit.hash():
        raise ProtocolError("garbled circuit hash does not match the agreed circuit")
    count = int.from_bytes(blob[32:36], "big")
    if count != len(circuit.gates):
        raise ProtocolError("garbled circuit gate count mismatch")
    size = (HEADER_BYTES + GATE_BYTES * _and_or_count(circuit.gates)
            + 2 * ROW_BYTES * (len(circuit.input_wires)
                               + len(_distinct_outputs(circuit))))
    if len(blob) < size:
        raise ProtocolError("garbled circuit blob is truncated")
    if len(blob) > size:
        raise ProtocolError("garbled circuit blob has trailing bytes")
    return bytes(blob)


def _pad(key: bytes, site: bytes, tag: int) -> int:
    """The pad of the projection row tagged ``tag`` at ``site`` (salt ||
    index_be4) under the label ``key``."""
    return _from_bytes(_sha256(key + site + _ROW_TAG[tag]).digest()[:ROW_BYTES],
                       "big")


def _checksum(label: bytes) -> bytes:
    """An output-projection row's authenticator: no later row would catch a
    flipped bit in its label, so the authenticator covers the label."""
    return _sha256(label).digest()[:2]


def _row(value: int) -> bytes:
    return value.to_bytes(ROW_BYTES, "big")


def _label(value: int) -> bytes:
    return value.to_bytes(LABEL_BYTES, "big")


def _input_pads(input_wires, input_encodings, salt: bytes):
    """Per input wire, the pads ``(pads of the 0-label, pads of the
    1-label)`` at row positions 0 and 1; None if some projection would be
    ambiguous under this salt."""
    pads = []
    for w in input_wires:
        site = salt + w.to_bytes(4, "big")
        e = input_encodings[w]
        p0 = (_pad(e.zero, site, _IN_TAG), _pad(e.zero, site, _IN_TAG + 1))
        p1 = (_pad(e.one, site, _IN_TAG), _pad(e.one, site, _IN_TAG + 1))
        # The wrong row at a position decrypts under the other label to a
        # value whose tail is the XOR of the two pads' tails.
        if not (p0[0] ^ p1[0]) & AUTH_MASK or not (p0[1] ^ p1[1]) & AUTH_MASK:
            return None
        pads.append((p0, p1))
    return pads


def garble(circuit: Circuit, input_encodings: dict[int, Encoding],
           rng_seed) -> GarbledCircuit:
    """Garble ``circuit`` under externally supplied input-wire encodings.

    Every other label derives from ``rng_seed``. The returned object keeps
    the (fresh) output encodings, which are never serialized into the
    tables blob; neither ``R`` nor any internal label is kept.
    """
    input_wires = circuit.input_wires
    for w in input_wires:
        e = input_encodings.get(w)
        if e is None:
            raise EncodingCoverageError(f"input wire {w} lacks an encoding")
        if e.zero == e.one:
            raise ValueError(f"degenerate encoding on input wire {w}")
        if len(e.zero) != LABEL_BYTES or len(e.one) != LABEL_BYTES:
            raise ValueError("labels must be 16 bytes")

    for attempt in range(MAX_GARBLE_ATTEMPTS):
        rng = random.Random(f"garble:{rng_seed}:{attempt}")
        salt = rng.randbytes(SALT_BYTES)
        input_pads = _input_pads(input_wires, input_encodings, salt)
        if input_pads is not None:
            break
    else:  # pragma: no cover
        raise RuntimeError("garbling kept producing ambiguous input projections")

    sha, from_bytes, getrandbits = _sha256, _from_bytes, rng.getrandbits
    offset = getrandbits(128) | 1
    zeros = [0] * circuit.wire_count  # every wire's 0-label, as an int
    parts = [circuit.hash(), len(circuit.gates).to_bytes(4, "big"), salt]

    for w, (p0, p1) in zip(input_wires, input_pads):
        k = zeros[w] = getrandbits(128)
        # Bit b's row sits at position pointer ^ b.
        if getrandbits(1):
            parts.append(_row(p1[0] ^ (k ^ offset) << 16) + _row(p0[1] ^ k << 16))
        else:
            parts.append(_row(p0[0] ^ k << 16) + _row(p1[1] ^ (k ^ offset) << 16))

    for gi, (kind, a, b, out) in enumerate(circuit.gates):
        if kind == XOR:
            zeros[out] = zeros[a] ^ zeros[b]
            continue
        if kind == NOT:
            zeros[out] = zeros[a] ^ offset
            continue
        # a | b == ~(~a & ~b): an OR gate flips its 0-labels by R.
        flip = offset if kind == OR else 0
        za, zb = zeros[a] ^ flip, zeros[b] ^ flip
        site = salt + gi.to_bytes(4, "big")
        g_site, e_site = site + b"\x00", site + b"\x01"
        g0 = from_bytes(sha(za.to_bytes(LABEL_BYTES, "big") + g_site)
                        .digest()[:LABEL_BYTES], "big")
        g1 = from_bytes(sha((za ^ offset).to_bytes(LABEL_BYTES, "big")
                            + g_site).digest()[:LABEL_BYTES], "big")
        e0 = from_bytes(sha(zb.to_bytes(LABEL_BYTES, "big") + e_site)
                        .digest()[:LABEL_BYTES], "big")
        e1 = from_bytes(sha((zb ^ offset).to_bytes(LABEL_BYTES, "big")
                            + e_site).digest()[:LABEL_BYTES], "big")
        tg = g0 ^ g1 ^ offset if zb & 1 else g0 ^ g1
        te = e0 ^ e1 ^ za
        # The output 0-label is what an evaluator holding (za, zb) gets.
        k = g0 ^ e0 ^ (tg if za & 1 else 0) ^ (te ^ za if zb & 1 else 0)
        zeros[out] = k ^ flip
        parts.append((tg << 8 * LABEL_BYTES | te).to_bytes(GATE_BYTES, "big"))

    output_encodings = {}
    for w in _distinct_outputs(circuit):
        enc = output_encodings[w] = Encoding(rng.randbytes(LABEL_BYTES),
                                             rng.randbytes(LABEL_BYTES))
        z = zeros[w]
        s = z & 1
        site = salt + w.to_bytes(4, "big")
        # The label with pointer bit r holds the bit r ^ s.
        for r, lab in enumerate((z ^ offset, z) if s else (z, z ^ offset)):
            out = enc.label(r ^ s)
            parts.append(_row(_pad(_label(lab), site, _OUT_TAG + r)
                              ^ _from_bytes(out + _checksum(out), "big")))

    return GarbledCircuit(b"".join(parts), output_encodings)


def evaluate(circuit: Circuit, tables: bytes,
             input_labels: dict[int, bytes]) -> list[list[bytes]]:
    """Evaluate garbled tables on one label per input wire.

    ``tables`` is the flat layout ``garble`` and ``parse_tables_blob``
    return; each row and ciphertext is read at its offset. Returns output
    labels grouped like the circuit's output map. Raises EvaluationError
    when a projection row the evaluator decrypts does not authenticate, or
    when both rows of an input projection do; a tampered gate ciphertext
    fails at an output projection.
    """
    input_wires = circuit.input_wires
    for w in input_wires:
        if w not in input_labels:
            raise EncodingCoverageError(f"input wire {w} lacks a label")
    sha, from_bytes = _sha256, _from_bytes
    salt = tables[36:HEADER_BYTES]
    vals = [0] * circuit.wire_count  # the label held on each wire, as an int
    off = HEADER_BYTES

    for w in input_wires:
        lab, site = input_labels[w], salt + w.to_bytes(4, "big")
        found = None
        for r in (0, 1):
            dec = (_pad(lab, site, _IN_TAG + r)
                   ^ from_bytes(tables[off:off + ROW_BYTES], "big"))
            off += ROW_BYTES
            if not dec & AUTH_MASK:
                if found is not None:
                    raise EvaluationError(f"input wire {w}: ambiguous rows")
                found = dec
        if found is None:
            raise EvaluationError(f"input wire {w}: no row authenticates")
        vals[w] = found >> 16

    for gi, (kind, a, b, out) in enumerate(circuit.gates):
        if kind == XOR:
            vals[out] = vals[a] ^ vals[b]
        elif kind == NOT:
            vals[out] = vals[a]
        else:
            la, lb = vals[a], vals[b]
            site = salt + gi.to_bytes(4, "big")
            k = (from_bytes(sha(la.to_bytes(LABEL_BYTES, "big") + site
                                + b"\x00").digest()[:LABEL_BYTES], "big")
                 ^ from_bytes(sha(lb.to_bytes(LABEL_BYTES, "big") + site
                                  + b"\x01").digest()[:LABEL_BYTES], "big"))
            if la & 1:
                k ^= from_bytes(tables[off:off + LABEL_BYTES], "big")
            if lb & 1:
                k ^= from_bytes(tables[off + LABEL_BYTES:off + GATE_BYTES],
                                "big") ^ la
            vals[out] = k
            off += GATE_BYTES

    out_labels = {}
    for w in _distinct_outputs(circuit):
        lab = vals[w]
        r = lab & 1
        o = off + r * ROW_BYTES
        dec = (_pad(_label(lab), salt + w.to_bytes(4, "big"), _OUT_TAG + r)
               ^ from_bytes(tables[o:o + ROW_BYTES], "big"))
        out = _label(dec >> 16)
        if dec & AUTH_MASK != _from_bytes(_checksum(out), "big"):
            raise EvaluationError(f"output wire {w}: no row authenticates")
        out_labels[w] = out
        off += 2 * ROW_BYTES
    return [[out_labels[w] for w in group] for group in circuit.output_map]


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
