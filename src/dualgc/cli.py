"""Command-line front end.

Subcommands:

* ``demo``: run one full protocol session and print the winning set and
  payments (identical to the plaintext auction on the same bids).
* ``attack``: run seeded sessions against a scripted adversary and report
  detection rates, abort phases, and verdict correctness; it exits 1 if
  any session accepted a wrong output or blamed a role that was not
  scripted to cheat.
* ``dump-circuit``: write the compiled auction circuit as a text netlist.

Sessions run over in-memory queues by default; ``--tcp host:port`` moves
every message over loopback TCP sockets instead.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import messages as M
from .auction import (AuctionConfig, gate_count, load_bids_file, oracle_run,
                      build_auction_circuit)
from .circuits import to_netlist
from .errors import DualGCError, UsageError, WidthError
from .session import BEHAVIORS, make_adversary, run_session
from .transport import TcpTransport

DEFAULT_VM_TYPES = 6
DEFAULT_COPIES = 10
DEFAULT_BITS = 16
DEFAULT_CAPACITY = 3
DEFAULT_MAX_QUANTITY = 3
DEFAULT_MAX_BID = 100


def _common_flags(sub, *, bidders: int, vm_types: int):
    sub.add_argument("--bidders", type=int, default=bidders,
                     help=f"number of bidders (default {bidders})")
    sub.add_argument("--vm-types", type=int, default=vm_types,
                     help=f"VM types per bid (default {vm_types})")
    sub.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                     help=f"cloud instances per VM type (default "
                          f"{DEFAULT_CAPACITY})")
    sub.add_argument("--copies", type=int, default=DEFAULT_COPIES,
                     help="committed copies per input wire (default "
                          f"{DEFAULT_COPIES})")
    sub.add_argument("--bits", type=int, default=DEFAULT_BITS,
                     help=f"bits per input value (default {DEFAULT_BITS})")
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--max-quantity", type=int, default=DEFAULT_MAX_QUANTITY,
                     help="random bids request 0..this many instances")
    sub.add_argument("--max-bid", type=int, default=DEFAULT_MAX_BID,
                     help="random per-unit bids range over 0..this")
    sub.add_argument("--tcp", default=None, metavar="HOST:PORT",
                     help="run over loopback TCP instead of in-process "
                          "queues (port 0 picks a free port)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgc",
        description="Mutually garbled auction sessions: demos and "
                    "adversary experiments.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    demo = subs.add_parser("demo", help="run one session and print the "
                                        "auction outcome")
    _common_flags(demo, bidders=4, vm_types=DEFAULT_VM_TYPES)
    demo.add_argument("--bids-file", default=None,
                      help="CSV of bidder_id,k_1,b_1,...,k_m,b_m rows")
    demo.set_defaults(func=cmd_demo)

    attack = subs.add_parser("attack", help="run sessions against a "
                                            "scripted adversary")
    _common_flags(attack, bidders=2, vm_types=2)
    attack.add_argument("--adversary", default=None,
                        help="one of: " + ", ".join(BEHAVIORS) +
                             " (default: honest baseline)")
    attack.add_argument("--trials", type=int, default=100,
                        help="number of seeded sessions (default 100)")
    attack.add_argument("--out", default=None,
                        help="per-trial CSV path (optional)")
    attack.set_defaults(func=cmd_attack)

    dump = subs.add_parser("dump-circuit", help="write the auction circuit "
                                                "as a text netlist")
    _common_flags(dump, bidders=4, vm_types=DEFAULT_VM_TYPES)
    dump.add_argument("--out", default=None, help="netlist path (default "
                                                  "stdout)")
    dump.set_defaults(func=cmd_dump_circuit)
    return parser


def _make_config(args, n: int, m: int) -> AuctionConfig:
    """The auction the flags ask for; flags no session can run with are a
    usage error."""
    if n < 1:
        raise UsageError("--bidders must be positive")
    if args.copies < 2:
        raise UsageError("--copies must be at least 2")
    if m < 1 or args.capacity < 1:
        raise UsageError("vm-types and capacity must be positive")
    try:
        return AuctionConfig(vm_types=m, capacities=(args.capacity,) * m,
                             weights=(1,) * m, width=args.bits,
                             max_quantity=args.max_quantity,
                             max_bid=args.max_bid)
    except (ValueError, WidthError) as exc:
        raise UsageError(str(exc))


def _random_bids(rng: random.Random, n: int, config: AuctionConfig) -> list:
    """Quantities and bids up to their maxima, but within the value width."""
    top = (1 << config.width) - 1
    max_q, max_b = min(config.max_quantity, top), min(config.max_bid, top)
    return [tuple((rng.randint(0, max_q), rng.randint(0, max_b))
                  for _ in range(config.vm_types)) for _ in range(n)]


def _transport(args, n: int):
    if args.tcp is None:
        return None
    host, sep, port = args.tcp.rpartition(":")
    if not sep or not host:
        raise UsageError("--tcp expects HOST:PORT")
    try:
        port_no = int(port)
    except ValueError:
        raise UsageError(f"--tcp port is not a number: {port!r}")
    roles = [M.Role(M.P1), M.Role(M.P2)] + \
        [M.Role(M.PROVIDER, i) for i in range(n)] + [M.Role(M.CLOUD)]
    return TcpTransport(roles, host=host, port=port_no)


def _run(config, bids, s, seed, args, adversary=None):
    transport = _transport(args, len(bids))
    try:
        return run_session(config, bids, s=s, seed=seed, adversary=adversary,
                           transport=transport)
    finally:
        if transport is not None:
            transport.close()


def _format_payment(fp: int, config: AuctionConfig) -> str:
    return format(fp / (1 << config.fraction_bits), "g")


def cmd_demo(args) -> int:
    n, m, k = args.bidders, args.vm_types, args.capacity
    if args.bids_file is not None:
        try:
            bids = load_bids_file(args.bids_file)
        except OSError as exc:
            raise UsageError(f"cannot read bids file: {exc}")
        n, m = len(bids), len(bids[0])
    config = _make_config(args, n, m)
    if args.bids_file is None:
        bids = _random_bids(random.Random(f"demo:{args.seed}"), n, config)
    print(f"auction: {n} bidders, {m} VM types, {k} instances per type, "
          f"{args.bits}-bit values, {args.copies} copies per wire")
    result = _run(config, bids, args.copies, args.seed, args)
    if result.status != "accept":
        print(f"session {result.status} during {result.phase} phase: "
              f"{result.reason}")
        if result.blamed:
            print(f"blamed: {result.blamed}")
        return 1
    measured = result.transcript.measure()
    print(f"session accept: {measured['messages_total']} messages, "
          f"{measured['bytes_total']} bytes")
    outcome = result.result
    for j, bid in enumerate(bids):
        asks = " ".join(f"{q}x{b}" for q, b in bid)
        won = "won" if outcome.allocations[j] else "lost"
        pay = _format_payment(outcome.payments_fp[j], config)
        print(f"bidder {j}: {asks} -> {won}, pays {pay}")
    winners = [str(j) for j, x in enumerate(outcome.allocations) if x]
    print("winners: " + (" ".join(winners) if winners else "(none)"))
    print("payments: " + " ".join(_format_payment(fp, config)
                                  for fp in outcome.payments_fp))
    print("payments_fp: " + " ".join(str(fp)
                                     for fp in outcome.payments_fp))
    check = oracle_run(config, bids)
    print("matches plaintext auction: "
          + ("yes" if check == outcome else "NO"))
    return 0 if check == outcome else 1


def _detected(result, script) -> bool:
    """Whether the run caught the scripted misbehavior.

    Blaming the scripted role always counts. An output substitution also
    counts when it ends in a proven rejection: the attack's goal (a wrong
    accepted output) was defeated, even though rejection names no culprit.
    """
    if script is None:
        return False
    if result.blamed == script.target:
        return True
    return (script.behavior == "substitute_output_label"
            and result.status == "reject")


def cmd_attack(args) -> int:
    script = make_adversary(args.adversary)
    n, m = args.bidders, args.vm_types
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    config = _make_config(args, n, m)
    detected = 0
    wrong = 0
    honest_blamed = 0
    statuses: dict[str, int] = {}
    abort_phases: dict[str, int] = {}
    trial_rows = []
    for t in range(args.trials):
        seed = args.seed + t
        rng = random.Random(f"attack:{seed}")
        bids = _random_bids(rng, n, config)
        result = _run(config, bids, args.copies, seed, args,
                      adversary=script)
        oracle = oracle_run(config, bids)
        caught = _detected(result, script)
        detected += caught
        statuses[result.status] = statuses.get(result.status, 0) + 1
        if result.status == "abort":
            abort_phases[result.phase] = abort_phases.get(result.phase, 0) + 1
        if result.status == "accept" and result.result != oracle:
            wrong += 1
        if result.blamed is not None and (script is None
                                          or result.blamed != script.target):
            honest_blamed += 1
        nbytes = result.transcript.measure()["bytes_total"]
        trial_rows.append((t, seed, result.status, result.blamed or "",
                           result.phase, int(caught), nbytes))
    name = script.behavior if script else "(none)"
    target = script.target if script else "-"
    rate = detected / args.trials
    print(f"adversary: {name} (target {target})")
    print(f"trials: {args.trials}")
    print(f"detected: {detected} ({100 * rate:.2f}%)")
    print(f"undetected: {args.trials - detected} "
          f"({100 * (1 - rate):.2f}%)")
    print("status counts: " + " ".join(f"{k}={v}" for k, v in
                                       sorted(statuses.items())))
    if abort_phases:
        print("abort phases: " + " ".join(f"{k}={v}" for k, v in
                                          sorted(abort_phases.items())))
    print(f"silent wrong outputs: {wrong}")
    print(f"honest roles blamed: {honest_blamed}")
    if args.out:
        lines = ["trial,seed,status,blamed,phase,detected,bytes"]
        lines += [",".join(str(x) for x in row) for row in trial_rows]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(trial_rows)} trial rows to {args.out}")
    return 1 if wrong or honest_blamed else 0


def cmd_dump_circuit(args) -> int:
    n, m = args.bidders, args.vm_types
    config = _make_config(args, n, m)
    circuit = build_auction_circuit(config, n)
    text = to_netlist(circuit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.out}: {circuit.wire_count} wires, "
              f"{gate_count(config, n)} gates, "
              f"{len(circuit.input_map)} input groups, "
              f"{len(circuit.output_map)} output groups")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualGCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The downstream consumer (head, grep, ...) closed the pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
