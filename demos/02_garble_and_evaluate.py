"""Garbling a circuit and evaluating it blind.

A garbled circuit lets one side evaluate a boolean circuit on labels
instead of bits: the evaluator learns the output labels but not what any
wire means.  XOR gates are free: the evaluator XORs labels.  AND and OR
gates carry 4 table rows, and each input and output wire a 2-row
projection; every row carries a 16-bit authenticator, so a tampered table
is rejected instead of producing a wrong label.
"""

import random

from dualgc import (AND, OR, XOR, Circuit, EvaluationError, decode,
                    eval_plain, evaluate, garble, gate_rows,
                    parse_tables_blob, random_input_encodings, select_labels,
                    tabled_gates)


def main():
    rng = random.Random("demo-2")

    # A one-bit full adder: inputs (a, b, carry-in), outputs (sum, carry).
    a, b, cin = 0, 1, 2
    gates = [
        (XOR, a, b, 3),      # a ^ b
        (XOR, 3, cin, 4),    # sum
        (AND, a, b, 5),
        (AND, 3, cin, 6),
        (OR, 5, 6, 7),       # carry
    ]
    circuit = Circuit(8, gates, [[a, b, cin]], [[4, 7]])
    print(f"circuit: {len(circuit.gates)} gates, "
          f"{len(circuit.input_wires)} inputs, 2 outputs")

    print("\n=== 1. Garble ===")
    enc = random_input_encodings(circuit, rng)
    gc = garble(circuit, enc, rng_seed=2024)
    blob = gc.tables_blob()
    print(f"tables blob: {len(blob)} bytes (32-byte circuit hash, 4-byte "
          f"gate count, 16-byte salt, 18-byte rows: 2 per input and output "
          f"wire, 4 per AND/OR gate, none for the 2 XOR gates)")
    zero_label = enc[a].zero
    one_label = enc[a].one
    print(f"wire a: 0 -> {zero_label.hex()[:16]}...  1 -> {one_label.hex()[:16]}...")
    print("Labels are random 16-byte strings; holding one reveals nothing.")

    print("\n=== 2. Evaluate on labels only ===")
    for bits in ((1, 0, 1), (1, 1, 1)):
        labels = select_labels(enc, dict(zip((a, b, cin), bits)))
        tables = parse_tables_blob(circuit, blob)
        out_labels = evaluate(circuit, tables, labels)
        out_bits = decode(out_labels[0],
                          [gc.output_encodings[w] for w in circuit.output_map[0]])
        plain = eval_plain(circuit, [list(bits)])[0]
        print(f"a,b,cin = {bits} -> sum,carry = {tuple(out_bits)} "
              f"(plain evaluation agrees: {out_bits == plain})")

    print("\n=== 3. Tampering is caught ===")
    tampered = bytearray(blob)
    first_and = tabled_gates(circuit)[0]  # gate 0 is an XOR: it has no rows
    rows = gate_rows(circuit, first_and)
    for off in range(rows.start, rows.stop):  # every row byte of that gate
        tampered[off] ^= 0x5A
    labels = select_labels(enc, {a: 1, b: 0, cin: 1})
    try:
        evaluate(circuit, parse_tables_blob(circuit, bytes(tampered)), labels)
    except EvaluationError as exc:
        print(f"EvaluationError: {exc}")
    print("No row authenticates, so the evaluator aborts instead of")
    print("propagating a corrupted label.")


if __name__ == "__main__":
    main()
