"""Commitments and the joint coin toss.

The input-consistency layer rests on two small primitives: hash
commitments (bind now, reveal later) and a two-party coin toss whose
outcome neither side can steer.  This script walks through both,
including what happens when someone tries to cheat.
"""

import hashlib
import random

from dualgc import (CoinTossCheatError, Opening, coin_toss_commit,
                    coin_toss_open, combine_challenge, commit,
                    open_commitment)
from dualgc.consistency import unpack_bits


def main():
    rng = random.Random("demo-1")

    print("=== 1. Commitments ===")
    secret = b"bid: 3 machines at 42"
    nonce = rng.randbytes(16)
    com = commit(secret, nonce)
    print(f"message    : {secret!r}")
    print(f"commitment : {com.hex()[:32]}...")
    print("The digest reveals nothing about the message (hiding).")

    opening = Opening(secret, nonce)
    print(f"honest open: accepted = {open_commitment(com, opening)}")

    forged = Opening(b"bid: 3 machines at  1", nonce)
    print(f"forged open: accepted = {open_commitment(com, forged)}")
    print("A different message can never match the digest (binding).\n")

    print("=== 2. Joint coin toss ===")
    print("Each party commits to a random 32-byte seed share, then both")
    print("reveal; every wire's challenge is hashed from both shares and")
    print("the wire id, so neither party could pick any challenge alone.")
    s = 6
    share1, com1, open1 = coin_toss_commit(rng)
    share2, com2, open2 = coin_toss_commit(rng)
    print(f"P1 share: {share1.hex()[:16]}...  "
          f"(committed first: {com1.hex()[:16]}...)")
    print(f"P2 share: {share2.hex()[:16]}...  "
          f"(committed first: {com2.hex()[:16]}...)")
    got1 = coin_toss_open(com1, open1, "P1")
    got2 = coin_toss_open(com2, open2, "P2")
    for wire in range(3):
        rho = combine_challenge(got1, got2, wire, s)
        print(f"wire {wire}: challenge rho = {rho}")
    print("(1 = audit that copy, 0 = evaluate it)")

    print("\nA party who reveals something other than its commitment is")
    print("caught immediately:")
    bad = Opening(open1.message[:-1] + bytes([open1.message[-1] ^ 1]),
                  open1.randomness)
    try:
        coin_toss_open(com1, bad, "P1")
    except CoinTossCheatError as exc:
        print(f"  CoinTossCheatError (blaming {exc.party}): {exc}")

    print("\nDegenerate challenges (all-audit or all-evaluate) are never")
    print("returned: the first s bits of SHAKE-256(share1 || share2 ||")
    print("wire || ctr) are drawn again with ctr + 1 until they mix both")
    print("kinds.  With s = 2 half of the ctr = 0 strings are degenerate:")
    for wire in range(8):
        first = unpack_bits(hashlib.shake_256(
            got1 + got2 + wire.to_bytes(4, "big") + bytes(4)).digest(1), 2)
        rho = combine_challenge(got1, got2, wire, 2)
        note = "kept" if first == rho else "degenerate, counter bumped"
        print(f"  wire {wire}: ctr 0 gives {first} ({note}) -> rho = {rho}")


if __name__ == "__main__":
    main()
