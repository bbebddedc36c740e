"""What happens when someone cheats.

Every scripted misbehaviour is run once against a small auction.  The
deterministic attacks are caught and blamed every time; submitting
inconsistent input labels survives the copy audit only when the random
challenge evaluates exactly the tampered copies, which a quick trial
count pins near its 1/(2^s - 2) ceiling.
"""

import random

from dualgc import AuctionConfig, oracle_run, run_session
from dualgc.session import BEHAVIORS, AdversaryScript

CONFIG = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                       max_bid=15)


def bids_for(seed):
    rng = random.Random(f"demo-4:{seed}")
    return [((rng.randint(0, 3), rng.randint(0, 15)),) for _ in range(2)]


def main():
    print("=== One run of each scripted adversary ===")
    print(f"{'behavior':<26} {'status':<8} {'phase':<8} blamed")
    for behavior in BEHAVIORS:
        result = run_session(CONFIG, bids_for(behavior), s=5, seed=11,
                             adversary=behavior)
        print(f"{behavior:<26} {result.status:<8} {result.phase:<8} "
              f"{result.blamed or '-'}")
    print()
    print("tamper_garbled_gate dies at evaluation: it corrupts every sent")
    print("AND/OR row, so the first such row the evaluator reads fails its")
    print("authenticator, which convicts the garbler.")
    print("substitute_output_label ends in a confirmed failure proof: the")
    print("forged label opens to neither encoding half, the result is")
    print("discarded, and nobody honest is blamed.")
    print("false_output_complaint leaves the result standing and flags")
    print("the spurious complainer instead.\n")

    print("=== Inconsistent labels vs the copy audit (s = 5) ===")
    target = AdversaryScript("inconsistent_labels").target
    counts = {"abort": 0, "reject": 0, "accept": 0}
    for seed in range(60):
        result = run_session(CONFIG, bids_for(seed), s=5, seed=seed,
                             adversary="inconsistent_labels")
        counts[result.status] += 1
    print(f"60 sessions against a cheating {target}: {counts}")
    print("Aborts blame the provider directly.  The rare rejects are the")
    print("1/(2^s - 2) = 1/30 slip-throughs where the challenge evaluated")
    print("exactly the tampered copies; even then the two circuits decode")
    print("to different outputs, the failure proof confirms it, and the")
    print("wrong result is never accepted.")


if __name__ == "__main__":
    main()
