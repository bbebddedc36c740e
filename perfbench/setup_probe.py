"""Cold set-up of one workload, run in a fresh process by the benchmark.

    python3 perfbench/setup_probe.py '{"config": {...}, "bidders": 6}'

Times ``import dualgc``, ``build_auction_circuit`` and ``Circuit.hash()``
and prints one JSON line with the times and the circuit's gate counts.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import dualgc
    t1 = perf_counter()
    config = dualgc.AuctionConfig(**spec["config"])
    circuit = dualgc.build_auction_circuit(config, spec["bidders"])
    t2 = perf_counter()
    circuit.hash()
    t3 = perf_counter()
    kinds = {dualgc.AND: "and", dualgc.OR: "or", dualgc.XOR: "xor",
             dualgc.NOT: "not"}
    counts = dict.fromkeys(kinds.values(), 0)
    for kind, _a, _b, _out in circuit.gates:
        counts[kinds[kind]] += 1
    print(json.dumps({
        "setup_s": t3 - t0, "import_s": t1 - t0, "build_s": t2 - t1,
        "hash_s": t3 - t2, "gates": len(circuit.gates),
        **{f"gates_{k}": v for k, v in counts.items()},
        "input_wires": len(circuit.input_wires)}))


if __name__ == "__main__":
    main()
