"""Garbling a circuit and evaluating it blind.

A garbled circuit lets one side evaluate a boolean circuit on labels
instead of bits: the evaluator learns the output labels but not what any
wire means.  XOR gates are free: the evaluator XORs labels.  AND and OR
gates send two 16-byte ciphertexts (half-gates): the evaluator hashes its
two labels and XORs in the ciphertexts its labels' pointer bits select.
Each input and output wire sends a 2-row projection whose rows carry a
16-bit authenticator.  A tampered ciphertext the evaluator reads gives it a
wrong label, which fails an output projection instead of decoding.
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
          f"gate count, 16-byte salt, two 18-byte rows per input and output "
          f"wire, two 16-byte ciphertexts per AND/OR gate, none for the 2 "
          f"XOR gates)")
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

    print("\n=== 3. Tampering is caught when a tampered ciphertext is read ===")
    tampered = bytearray(blob)
    first_and = tabled_gates(circuit)[0]  # gate 0 is an XOR: it sends nothing
    tg, te = gate_rows(circuit, first_and)
    for i in range(16):  # a different delta in each ciphertext of a & b
        tampered[tg + i] ^= 0x5A
        tampered[te + i] ^= 0xA5
    tables = parse_tables_blob(circuit, bytes(tampered))
    for bits in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        labels = select_labels(enc, dict(zip((a, b, cin), bits)))
        try:
            out_labels = evaluate(circuit, tables, labels)
        except EvaluationError as exc:
            print(f"a,b = {bits[:2]}: EvaluationError: {exc}")
            continue
        out_bits = decode(out_labels[0],
                          [gc.output_encodings[w] for w in circuit.output_map[0]])
        print(f"a,b = {bits[:2]}: sum,carry = {tuple(out_bits)}, correct: "
              f"{out_bits == eval_plain(circuit, [list(bits)])[0]}")
    print(f"Gate {first_and} sends TG and TE.  For the one pair of a and b whose")
    print("labels have pointer bits (0, 0), the evaluator reads neither, so the")
    print("result is right.  For every other pair it XORs in a tampered one and")
    print("gets a wrong label for a & b; the OR gate hashes it into a wrong carry")
    print("label, whose output projection does not authenticate, so it aborts")
    print("instead of decoding a corrupted result.")


if __name__ == "__main__":
    main()
